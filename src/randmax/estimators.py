"""Estimators for the paired sample (eta, xi).

Two tail-index estimators act on the xi column: a generalized probability
weighted moment (GPWM) ratio and maximum likelihood (ML) for the Frechet
shape with the scale profiled out. Both are scale-free, as they must be: xi
is Frechet with scale 2^psi in pipeline 1 and about n'^(1/alpha) in pipeline
2, so a fit that fixed the scale would not be consistent for the shape.
Three rank-based estimators act on the eta columns and return the
dependence curve of the scaled observations on a simplex grid: the
min-projection (P) and log-mean (CFG) estimators built from the pseudo-angle

    theta_i(t) = min_{j: t_j > 0} { -(1/t_j) * ln u_ij },

whose population law under an extreme-value copula is exponential with rate
A(t), and a madogram (MD) estimator built from first-order differences of
powered pseudo-uniforms. The composite estimator plugs the estimated tail
index and dependence curve into the inverse scaling transform to recover the
dependence curve of the underlying, unobserved observations.

Rank conventions: pseudo-uniforms are rank/(n+1), i.e. the empirical CDF
shrunk by n/(n+1). This keeps every logarithm finite, makes the u^(1/0) = 0
convention for vanishing weights total, and pins the madogram estimator to
exactly 1 at the vertices, matching the endpoint-corrected family.

Rank-level tables: since a pseudo-uniform takes only the n levels r/(n+1),
every logarithm, division and power in P, CFG and MD depends only on a
(level, simplex point) pair. The curve kernel tabulates those per
coordinate once per call and each sample gathers the rows of its ranks, so
fit_pairs, which fits a sequence of same-shape samples in one call, pays
for the transcendental functions once per call rather than once per sample.
A single sample skips the gather: its own pseudo-uniforms are the levels,
read in row order. Either way the terms are reduced exactly as the direct
formulas would be, so the tables change no bit of any estimate.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .depcore import astar_points, edge_grid, edge_points
from .errors import DomainError, EstimationError
from .specfun import ln_gamma, regularized_lower_gamma
from .samplers import PairedSample, write_text

__all__ = [
    "EULER_MASCHERONI",
    "EmpiricalMargins",
    "pseudo_uniforms",
    "pickands_angles",
    "pickands_p",
    "pickands_cfg",
    "pickands_md",
    "madogram_nu",
    "pickands_points",
    "pickands_curve_raw",
    "endpoint_correct",
    "gpwm_alpha",
    "gpwm_weights",
    "ml_alpha",
    "ml_score",
    "invert_curve",
    "EstimatorPair",
    "CompositeConfig",
    "CurveEstimate",
    "fit_pairs",
    "composite_estimate",
]

EULER_MASCHERONI = 0.5772156649015329

PICK_ESTIMATORS = ("P", "CFG", "MD")
ALPHA_ESTIMATORS = ("GPWM", "ML")


@dataclass(frozen=True)
class EmpiricalMargins:
    """Rank-based marginal step functions of a paired sample.

    eta_sorted holds each eta column sorted ascending; xi_sorted the sorted
    xi column. The per-column empirical CDF takes values in {0, 1/n, ..., 1}
    and is right-continuous.
    """

    eta_sorted: np.ndarray
    xi_sorted: np.ndarray

    @classmethod
    def from_sample(cls, sample):
        return cls(np.sort(sample.eta, axis=0), np.sort(sample.xi))

    @property
    def n(self):
        return self.eta_sorted.shape[0]

    def eta_cdf(self, j, x):
        return np.searchsorted(self.eta_sorted[:, j], x, side="right") / self.n

    def xi_cdf(self, x):
        return np.searchsorted(self.xi_sorted, x, side="right") / self.n


def _ranks(eta):
    """Per-column ranks 1..n of an (n, d) matrix (max rank under ties)."""
    n, d = eta.shape
    out = np.empty((n, d), dtype=np.intp)
    for j in range(d):
        col = eta[:, j]
        out[:, j] = np.searchsorted(np.sort(col), col, side="right")
    return out


def pseudo_uniforms(eta):
    """Per-column pseudo-uniforms rank/(n+1) (max rank under ties)."""
    eta = np.asarray(eta, dtype=float)
    return _ranks(eta) / (eta.shape[0] + 1.0)


def _point_args(sample_or_u, t):
    """Validated (u, t): the (n, d) pseudo-uniforms and one length-d simplex point."""
    if isinstance(sample_or_u, PairedSample):
        u = pseudo_uniforms(sample_or_u.eta)
    else:
        u = np.asarray(sample_or_u, dtype=float)
        if u.ndim != 2 or u.shape[0] < 2:
            raise DomainError("need an (n, d) matrix of pseudo-uniform values with n >= 2")
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise DomainError("pseudo-uniform values must lie strictly inside (0, 1)")
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size != u.shape[1]:
        raise DomainError("simplex point dimension must match the data")
    return u, t


def _point_terms(u, t, pick):
    """Per-row kernel terms (n,) at the one simplex point t (see _rank_terms)."""
    return _rank_terms(_level_tables(u, t[:, np.newaxis], pick), None, pick)[:, 0]


def pickands_angles(sample_or_u, t):
    """Per-row pseudo-angles theta_i(t); coordinates with t_j = 0 are skipped."""
    u, t = _point_args(sample_or_u, t)
    return _point_terms(u, t, "P")


def pickands_p(sample_or_u, t):
    """Min-projection estimate 1 / mean(theta) of the dependence at t."""
    u, t = _point_args(sample_or_u, t)
    return float(pickands_points(u, t[np.newaxis, :], "P")[0][0])


def pickands_cfg(sample_or_u, t):
    """Log-mean estimate exp(-mean ln theta - EulerGamma) of the dependence at t."""
    u, t = _point_args(sample_or_u, t)
    return float(pickands_points(u, t[np.newaxis, :], "CFG")[0][0])


def madogram_nu(sample_or_u, t):
    """First-order madogram of powered pseudo-uniforms at t,

        nu(t) = mean_i [ max_j u_ij^(1/t_j) - (1/d) sum_j u_ij^(1/t_j) ],

    with u^(1/0) = 0 for u in (0, 1)."""
    u, t = _point_args(sample_or_u, t)
    return float(np.mean(_point_terms(u, t, "MD")))


def pickands_md(sample_or_u, t, dim_factor=True):
    """Madogram estimate (nu + c) / (1 - nu - c) of the dependence at t.

    dim_factor selects the normalizer c(t) = (1/d) sum t_j / (1 + t_j); the
    variant without 1/d is kept for comparison but fails the complete
    dependence and independence population identities for d >= 2.
    """
    u, t = _point_args(sample_or_u, t)
    if dim_factor:
        return float(pickands_points(u, t[np.newaxis, :], "MD")[0][0])
    return float(_madogram_ratio(madogram_nu(u, t), np.sum(t / (1.0 + t)))[0])


# ---------------------------------------------------------------------------
# The curve kernel: all three estimators at an array of simplex points
# ---------------------------------------------------------------------------

_GRID_CHUNK_CELLS = 8_000_000


def _level_tables(levels, coords, pick):
    """One (L, k) table per coordinate row of coords (d, k), over the L rows of
    the (L, d) level matrix.

    For P and CFG, the entries in column j are the angle terms
    -ln(level) / t_j; for MD, they are the powers level^(1/t_j). A
    coordinate with t_j = 0 drops out of the terms: its angle is +inf since
    -ln(level) > 0, and its power is 0.
    """
    with np.errstate(divide="ignore"):
        if pick == "MD":
            return [
                levels[:, j : j + 1] ** np.where(tj > 0.0, 1.0 / tj, np.inf)
                for j, tj in enumerate(coords)
            ]
        neg_log = -np.log(levels)
        return [neg_log[:, j : j + 1] / tj for j, tj in enumerate(coords)]


def _rank_terms(tables, index, pick):
    """Per-row terms (n, k) of one sample: the pseudo-angles, i.e. min over j
    of the angle terms (P and CFG both reduce this one matrix), or the
    madogram summands max_j v_ij - (1/d) sum_j v_ij of the powers v (MD).

    Row i of coordinate j reads table row index[i, j]. With index None the
    tables were built from the sample's own pseudo-uniforms, so row i is
    table row i; they are then used once and reduced in place.
    """
    acc = total = None
    for j, table in enumerate(tables):
        term = table if index is None else table[index[:, j]]
        if acc is None:
            acc = total = term
        elif pick == "MD":
            total = total + term
            np.maximum(acc, term, out=acc)
        else:
            np.minimum(acc, term, out=acc)
    if pick == "MD":
        total /= len(tables)
        acc -= total
    return acc


def _madogram_ratio(nu, c):
    """(nu + c) / (1 - nu - c) and the mask of nonpositive denominators,
    where the value is set to 1."""
    denom = 1.0 - nu - c
    bad = denom <= 0.0
    return np.where(bad, 1.0, (nu + c) / np.where(bad, 1.0, denom)), bad


def _point_chunks(n, k):
    """Slices of the k points with about _GRID_CHUNK_CELLS (row, point) cells
    each. No chunk of a wider grid has one point: a one-column mean sums
    pairwise, wider ones row by row, so its bits would depend on the chunking.
    """
    step = max(2, _GRID_CHUNK_CELLS // max(n, 1))
    bounds = list(range(0, k, step)) + [k]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _curves_at(levels, index, points, picks):
    """Raw estimates of several rank-based estimators at k simplex points,
    for B samples of one shape.

    levels is an (L, d) matrix of the values the pseudo-uniforms take, per
    coordinate, and index (B, n, d) gives the level row of each entry of
    each sample. With index None, levels is the one sample's (n, d) matrix
    of pseudo-uniforms itself, so nothing needs gathering. Returns
    {pick: (values, flags)} of shape (B, k) for the picks given; flags marks
    points whose madogram denominator was not positive. Per chunk of points
    the angle tables are built once and every sample reduces its one
    pseudo-angle matrix into P and CFG; they are freed before the power
    tables for MD are built. No table outlives the call.
    """
    for pick in picks:
        if pick not in PICK_ESTIMATORS:
            raise DomainError(f"unknown dependence estimator {pick!r}")
    per_sample = [None] if index is None else index
    n, d = levels.shape if index is None else index.shape[1:]
    n_samples = len(per_sample)
    k = points.shape[0]
    shape = (n_samples, k)
    out = {pick: (np.empty(shape), np.zeros(shape, dtype=bool)) for pick in picks}
    angle_picks = [pick for pick in picks if pick != "MD"]
    for chunk in _point_chunks(n, k):
        # contiguous coordinate rows keep the table arithmetic on fast loops
        coords = np.ascontiguousarray(points[chunk].T)
        if angle_picks:
            tables = _level_tables(levels, coords, "P")
            for b, sample_index in enumerate(per_sample):
                angles = _rank_terms(tables, sample_index, "P")
                for pick in angle_picks:
                    if pick == "P":
                        out[pick][0][b, chunk] = 1.0 / angles.mean(axis=0)
                    else:
                        log_mean = np.log(angles).mean(axis=0)
                        out[pick][0][b, chunk] = np.exp(-log_mean - EULER_MASCHERONI)
            del tables, angles
        if "MD" in out:
            values, flags = out["MD"]
            c = sum(tj / (1.0 + tj) for tj in coords) / d
            tables = _level_tables(levels, coords, "MD")
            for b, sample_index in enumerate(per_sample):
                nu = _rank_terms(tables, sample_index, "MD").mean(axis=0)
                values[b, chunk], flags[b, chunk] = _madogram_ratio(nu, c)
            del tables
    return out


def pickands_points(u, points, pick):
    """Raw (uncorrected) estimates of one rank-based estimator at k simplex points.

    u is the (n, d) matrix of pseudo-uniforms, points a (k, d) array of
    simplex points. Returns (values, flags) where flags marks points whose
    madogram denominator was not positive (always False for P and CFG).
    This is the one-sample, one-pick call of the kernel fit_pairs uses.
    """
    u = np.asarray(u, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != u.shape[1]:
        raise DomainError("simplex points must be a (k, d) array matching the data")
    values, flags = _curves_at(u, None, points, (pick,))[pick]
    return values[0], flags[0]


def pickands_curve_raw(u, w, pick):
    """Raw (uncorrected) dependence curve of one rank-based estimator on the
    bivariate grid w: pickands_points at the simplex points (1 - w, w)."""
    return pickands_points(u, edge_points(w), pick)


def endpoint_correct(values, w, pick):
    """Vertex-pinning corrections so the corrected curve equals 1 at w = 0, 1.

    values holds one curve on w, or a stack (..., k) of them. P corrects on
    the reciprocal scale, CFG on the log scale; the madogram estimator is
    already exact at the vertices under the rank/(n+1) convention, so its
    correction is the identity.
    """
    if pick not in PICK_ESTIMATORS:
        raise DomainError(f"unknown dependence estimator {pick!r}")
    values = np.asarray(values, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or values.shape[-1:] != w.shape:
        raise DomainError("curve and grid must have matching shapes")
    if pick == "MD":
        return values.copy()
    first, last = values[..., :1], values[..., -1:]
    if pick == "P":
        inv = 1.0 / values - (1.0 - w) * (1.0 / first - 1.0) - w * (1.0 / last - 1.0)
        with np.errstate(divide="ignore"):
            return np.where(inv > 0.0, 1.0 / inv, np.inf)
    return np.exp(np.log(values) - (1.0 - w) * np.log(first) - w * np.log(last))


# ---------------------------------------------------------------------------
# Tail-index estimators on the xi column
# ---------------------------------------------------------------------------


def gpwm_weights(n, b):
    """Exact order-statistic weights of the moment mu_{1,b}.

    mu_{1,b} = int_0^1 H_n^{-1}(v) v (-ln v)^b dv with a piecewise-constant
    empirical quantile function reduces to sum_i x_(i) w_i with

        w_i = int_{(i-1)/n}^{i/n} v (-ln v)^b dv
            = Gamma(b+1)/2^(b+1) * [P(b+1, -2 ln((i-1)/n)) - P(b+1, -2 ln(i/n))]

    (substitution v = e^(-s/2); P is the regularized lower incomplete gamma).
    The weights are cached per (n, b) and returned read-only.
    """
    if n < 1 or b < 0:
        raise DomainError("need n >= 1 and b >= 0")
    return _gpwm_weights_cached(int(n), float(b))


@lru_cache(maxsize=64)
def _gpwm_weights_cached(n, b):
    edges = np.arange(n + 1) / n
    with np.errstate(divide="ignore"):
        args = -2.0 * np.log(edges)
    reg = regularized_lower_gamma(b + 1.0, args)
    scale = np.exp(ln_gamma(b + 1.0)) / 2.0 ** (b + 1)
    weights = scale * (reg[:-1] - reg[1:])
    weights.flags.writeable = False
    return weights


def gpwm_alpha(xi, k=5):
    """Generalized probability-weighted-moment estimate of the Frechet shape,

        alpha_hat = (k - 2 mu_{1,k} / mu_{1,k-1})^(-1),

    with the moments evaluated exactly from the order statistics. The ratio
    is scale-free. Intended validity requires alpha > 1/(k-1); a
    nonpositive denominator raises EstimationError.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size < 2:
        raise DomainError("xi must be a vector with at least 2 entries")
    if int(k) < 2:
        raise DomainError(f"moment order k must be >= 2, got {k!r}")
    if not (np.all(np.isfinite(xi)) and np.all(xi > 0.0)):
        raise DomainError("xi entries must be finite and positive")
    k = int(k)
    x = np.sort(xi)
    n = x.size
    mu_hi = float(x @ gpwm_weights(n, k))
    mu_lo = float(x @ gpwm_weights(n, k - 1))
    denom = k - 2.0 * mu_hi / mu_lo
    # the denominator is 1/alpha; at or below rounding level the data carry
    # no tail information (a constant sample lands exactly at zero)
    if denom <= 1e-9:
        raise EstimationError(
            f"moment ratio gave vanishing shape denominator {denom!r}", stage="GPWM"
        )
    return 1.0 / denom


def _ml_log_excess(xi):
    """Log-data relative to its minimum, d_i = ln x_i - min_j ln x_j >= 0.

    The profile score depends on the data only through these differences.
    Weighting with x^-a relative to min x gives weights exp(-a d_i) in
    (0, 1], the largest equal to 1, so the sums can neither overflow nor
    vanish whatever the scale of xi.
    """
    lx = np.log(np.asarray(xi, dtype=float))
    return lx - lx.min()


def _ml_profile_score(alpha, d, mean_d, with_deriv=False):
    """Profile score at shape alpha from the log-excess d (and its mean);
    with_deriv also returns its derivative -1/a^2 - (weighted variance of d)."""
    wts = np.exp(-alpha * d)
    total = wts.sum()
    m1 = float(wts @ d) / total
    score = 1.0 / alpha - mean_d + m1
    if not with_deriv:
        return score
    m2 = float(wts @ (d * d)) / total
    return score, -1.0 / alpha**2 - (m2 - m1 * m1)


def ml_score(alpha, xi):
    """Mean profile score of the two-parameter Frechet likelihood at shape a,

        1/a - mean(ln x) + sum(x^-a ln x) / sum(x^-a),

    the derivative per observation of the log-likelihood once the scale is
    profiled out through sigma^a = n / sum(x^-a). It is scale-free and
    strictly decreasing in the shape."""
    d = _ml_log_excess(xi)
    return _ml_profile_score(alpha, d, float(d.mean()))


_ML_BRACKET = (1e-3, 50.0)


def ml_alpha(xi, init=None, tol=1e-12, max_iter=200):
    """Maximum-likelihood Frechet shape with the scale profiled out.

    The Frechet law with shape a and scale sigma is fitted jointly; for a
    fixed shape the scale maximizing the likelihood is sigma^a = n/sum(x^-a),
    so the shape is the root of the profile score (see ml_score) and the
    estimate is invariant under rescaling xi. The root is found by Newton
    iteration safeguarded with bisection on the bracket [1e-3, 50], started
    from the GPWM estimate; the returned root satisfies |mean score| <= 1e-10.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size < 2:
        raise DomainError("xi must be a vector with at least 2 entries")
    if not (np.all(np.isfinite(xi)) and np.all(xi > 0.0)):
        raise DomainError("xi entries must be finite and positive")
    if np.all(xi == xi[0]):
        raise EstimationError("all xi values are equal; shape is unidentified", stage="ML")
    d = _ml_log_excess(xi)
    mean_d = float(d.mean())
    lo, hi = _ML_BRACKET
    s_lo = _ml_profile_score(lo, d, mean_d)
    s_hi = _ml_profile_score(hi, d, mean_d)
    if not (s_lo > 0.0 > s_hi):
        raise EstimationError(
            f"score has no sign change on [{lo}, {hi}] "
            f"(score({lo}) = {s_lo!r}, score({hi}) = {s_hi!r})",
            stage="ML",
        )
    if init is None:
        try:
            init = gpwm_alpha(xi)
        except EstimationError:
            # ln x is Gumbel with scale 1/a: moment match its spread
            init = np.pi / np.sqrt(6.0 * float(d.var()))
    a = float(np.clip(init, lo, hi))
    s, ds = _ml_profile_score(a, d, mean_d, with_deriv=True)
    for _ in range(max_iter):
        if abs(s) <= tol:
            break
        if s > 0.0:
            lo = a
        else:
            hi = a
        candidate = a - s / ds
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        a = candidate
        s, ds = _ml_profile_score(a, d, mean_d, with_deriv=True)
    if abs(s) > 1e-10:
        raise EstimationError(f"score iteration stalled at |score| = {abs(s)!r}", stage="ML")
    return a


# ---------------------------------------------------------------------------
# Composite estimator
# ---------------------------------------------------------------------------

_ALPHA_CLAMP = 1.0 - 1e-6


@dataclass(frozen=True)
class EstimatorPair:
    """A dependence-curve estimator in {P, CFG, MD} paired with a tail
    estimator in {GPWM, ML}."""

    pick: str
    alpha_method: str

    def __post_init__(self):
        if self.pick not in PICK_ESTIMATORS:
            raise DomainError(f"unknown dependence estimator {self.pick!r}")
        if self.alpha_method not in ALPHA_ESTIMATORS:
            raise DomainError(f"unknown tail estimator {self.alpha_method!r}")

    @property
    def label(self):
        return f"{self.pick}-{self.alpha_method}"


@dataclass(frozen=True)
class CompositeConfig(EstimatorPair):
    """Choices for one composite fit: the estimator pair, the GPWM moment
    order k, the grid size, and whether to apply the vertex corrections."""

    pick: str = "CFG"
    alpha_method: str = "GPWM"
    k: int = 5
    grid_size: int = 201
    corrected: bool = True

    def __post_init__(self):
        super().__post_init__()
        if int(self.grid_size) < 3 or int(self.grid_size) % 2 == 0:
            raise DomainError("grid size must be an odd integer >= 3")


def estimate_alpha(xi, method, k=5):
    """Dispatch to the named tail-index estimator."""
    if method == "GPWM":
        return gpwm_alpha(xi, k=k)
    if method == "ML":
        return ml_alpha(xi)
    raise DomainError(f"unknown tail estimator {method!r}")


def clamp_alpha(alpha_raw):
    """Force the tail estimate into (0, 1) as the inverse transform requires.

    Returns (alpha_used, clamped). Estimates >= 1 are pulled to 1 - 1e-6 so
    Monte Carlo sweeps complete; the flag keeps the event visible.
    """
    if alpha_raw >= 1.0:
        return _ALPHA_CLAMP, True
    if alpha_raw <= 0.0:
        raise EstimationError(f"tail estimate {alpha_raw!r} is not positive", stage="alpha")
    return alpha_raw, False


def invert_curve(a_alpha_values, w, alpha):
    """Inverse scaling transform of a dependence curve on the bivariate grid.

    Returns (astar, clamp_mask) from depcore.astar_points at the simplex
    points (1 - w, w): astar(w) = (A_alpha(w) / |t|_a)^(1/alpha) clipped into
    its envelope [max of the reparametrized point, 1]; the mask marks nodes
    moved by more than rounding.
    """
    return astar_points(a_alpha_values, edge_points(w), alpha)


def _reparametrized_coordinate(w, alpha):
    t1 = (1.0 - w) ** alpha
    t2 = w**alpha
    return t2 / (t1 + t2)


@dataclass
class CurveEstimate:
    """One composite fit: the estimated dependence curve of the scaled data
    (a_alpha), its inverse transform (a_star), the recovered base curve
    (a_base), and the tail estimate that tied them together."""

    w: np.ndarray
    a_alpha: np.ndarray
    a_star: np.ndarray
    alpha_hat: float
    alpha_raw: float
    pick: str
    alpha_method: str
    corrected: bool
    alpha_clamped: bool
    clamp_mask: np.ndarray

    @property
    def label(self):
        return f"{self.pick}-{self.alpha_method}"

    @property
    def a_base(self):
        """The base curve, read off a_star at the reparametrized coordinates."""
        return np.interp(_reparametrized_coordinate(self.w, self.alpha_hat), self.w, self.a_star)

    @property
    def n_clamped(self):
        return int(np.count_nonzero(self.clamp_mask))

    def to_csv(self, path_or_buf):
        header = "t,A_alpha_hat,A_star_hat,A_hat,alpha_hat,estimator_pair,corrected,clamped"
        lines = [header]
        a_base = self.a_base
        for i in range(self.w.size):
            lines.append(
                ",".join(
                    [
                        repr(float(self.w[i])),
                        repr(float(self.a_alpha[i])),
                        repr(float(self.a_star[i])),
                        repr(float(a_base[i])),
                        repr(float(self.alpha_hat)),
                        self.label,
                        str(int(self.corrected)),
                        str(int(bool(self.clamp_mask[i]))),
                    ]
                )
            )
        write_text(path_or_buf, "\n".join(lines) + "\n")


def fit_pairs(samples, pairs, settings):
    """Fit several composite estimators to each of a sequence of paired samples.

    `samples` holds paired samples of one shape (n, 2); `pairs` holds
    objects with `pick` and `alpha_method` (EstimatorPair or
    CompositeConfig); `settings` supplies the GPWM order `k`, the
    `grid_size` and whether the curves are `corrected` (a CompositeConfig or
    an ExperimentConfig). Each sample is ranked once, and the curves of the
    scaled data of all picks and samples come from one kernel call, which
    builds its level tables once for all samples (see _curves_at); a single
    sample tabulates its own pseudo-uniforms, which needs no gather. Each
    sample fits its xi column once per tail method, in sample order, and one
    inverse scaling transform per method inverts the stacked curves of its
    pairs and samples, each at its own clamped tail estimate.

    Returns one {pair label: CurveEstimate} per sample, in the order of
    `samples`, with labels in the order of `pairs`. A pair whose tail fit
    failed maps to that fit's EstimationError, which names the failing stage.
    """
    samples = tuple(samples)
    if not samples:
        raise DomainError("need at least one sample to fit")
    n, d = samples[0].eta.shape
    if d != 2:
        raise DomainError("composite estimation is implemented for dimension 2 only")
    if any(sample.eta.shape != (n, d) for sample in samples):
        raise DomainError("samples fitted together must share one shape")
    w = edge_grid(settings.grid_size)
    points = edge_points(w)
    if len(samples) == 1:
        # the sample's own pseudo-uniforms serve as the tables' levels
        levels, index = pseudo_uniforms(samples[0].eta), None
    else:
        # ranks 1..n index the n levels r/(n+1), shared by every coordinate
        levels = np.broadcast_to((np.arange(1, n + 1) / (n + 1.0))[:, np.newaxis], (n, d))
        index = np.stack([_ranks(sample.eta) - 1 for sample in samples])
    curves = _curves_at(levels, index, points, tuple(dict.fromkeys(pair.pick for pair in pairs)))
    if settings.corrected:
        curves = {
            pick: (endpoint_correct(values, w, pick), md_flags)
            for pick, (values, md_flags) in curves.items()
        }
    fits = [{} for _ in samples]
    for method in dict.fromkeys(pair.alpha_method for pair in pairs):
        picks = tuple(dict.fromkeys(pair.pick for pair in pairs if pair.alpha_method == method))
        fitted = {}
        for b, sample in enumerate(samples):
            try:
                alpha_raw = estimate_alpha(sample.xi, method, k=settings.k)
                fitted[b] = (alpha_raw, *clamp_alpha(alpha_raw))
            except EstimationError as exc:
                fits[b].update({(pick, method): exc for pick in picks})
        if not fitted:
            continue
        rows = list(fitted)
        stacked = np.stack([curves[pick][0] for pick in picks])[:, rows]
        alpha_hat = np.array([fitted[b][1] for b in rows])
        a_star, clamp_mask = astar_points(stacked, points, alpha_hat)
        for i, pick in enumerate(picks):
            values, md_flags = curves[pick]
            masks = clamp_mask[i] | md_flags[rows]
            for row, b in enumerate(rows):
                alpha_raw, alpha_used, alpha_clamped = fitted[b]
                fits[b][pick, method] = CurveEstimate(
                    w=w,
                    a_alpha=values[b],
                    a_star=a_star[i, row],
                    alpha_hat=alpha_used,
                    alpha_raw=alpha_raw,
                    pick=pick,
                    alpha_method=method,
                    corrected=settings.corrected,
                    alpha_clamped=alpha_clamped,
                    clamp_mask=masks[row],
                )
    return [{pair.label: fit[pair.pick, pair.alpha_method] for pair in pairs} for fit in fits]


def composite_estimate(sample, config=CompositeConfig()):
    """Fit one composite estimator (see fit_pairs); an estimation failure
    raises its EstimationError with the failing stage named."""
    fit = fit_pairs((sample,), (config,), config)[0][config.label]
    if isinstance(fit, EstimationError):
        raise fit
    return fit
