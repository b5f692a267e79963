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


def pseudo_uniforms(eta):
    """Per-column pseudo-uniforms rank/(n+1) (max rank under ties)."""
    eta = np.asarray(eta, dtype=float)
    n, d = eta.shape
    out = np.empty_like(eta)
    for j in range(d):
        col = eta[:, j]
        out[:, j] = np.searchsorted(np.sort(col), col, side="right")
    return out / (n + 1.0)


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


def pickands_angles(sample_or_u, t):
    """Per-row pseudo-angles theta_i(t); coordinates with t_j = 0 are skipped."""
    u, t = _point_args(sample_or_u, t)
    return _row_terms(-np.log(u), t[:, np.newaxis], "P")[:, 0]


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
    return float(np.mean(_row_terms(u, t[:, np.newaxis], "MD")))


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


def _row_terms(data, coords, pick):
    """Per-row terms (n, k) at k simplex points given as coordinate rows (d, k).

    For P and CFG, data is -ln u and the terms are the pseudo-angles
    min_j data_ij / t_j, the one (n, k) angle matrix both reduce; for MD,
    data is u and the terms are the madogram summands
    max_j v_ij - (1/d) sum_j v_ij with v_ij = u_ij^(1/t_j). A coordinate with
    t_j = 0 drops out (its angle is +inf since -ln u > 0, its power 0). The
    loop runs over the d coordinates and accumulates into (n, k) arrays; an
    (n, d, k) broadcast gives the same bits but is several times slower.
    """
    acc = total = None
    with np.errstate(divide="ignore"):
        for j, tj in enumerate(coords):
            col = data[:, j : j + 1]
            if pick == "MD":
                term = col ** np.where(tj > 0.0, 1.0 / tj, np.inf)
            else:
                term = col / tj
            if acc is None:
                acc = total = term
            elif pick == "MD":
                acc = np.maximum(acc, term)
                total = total + term
            else:
                acc = np.minimum(acc, term)
    if pick == "MD":
        # in place, so no further (n, k) array is allocated
        total /= len(coords)
        acc -= total
    return acc


def _madogram_ratio(nu, c):
    """(nu + c) / (1 - nu - c) and the mask of nonpositive denominators,
    where the value is set to 1."""
    denom = 1.0 - nu - c
    bad = denom <= 0.0
    return np.where(bad, 1.0, (nu + c) / np.where(bad, 1.0, denom)), bad


def _curves_at(u, points, picks):
    """Raw estimates of several rank-based estimators at k simplex points.

    Returns {pick: (values, flags)} for the picks given. P and CFG reduce one
    pseudo-angle matrix, built once per chunk and freed before the madogram
    terms are built. Points are processed in chunks of about
    _GRID_CHUNK_CELLS (row, point) cells.
    """
    for pick in picks:
        if pick not in PICK_ESTIMATORS:
            raise DomainError(f"unknown dependence estimator {pick!r}")
    n, d = u.shape
    k = points.shape[0]
    out = {pick: (np.empty(k), np.zeros(k, dtype=bool)) for pick in picks}
    step = max(1, _GRID_CHUNK_CELLS // max(n, 1))
    # contiguous coordinate rows keep the (n, k) arithmetic on fast loops
    chunks = [
        (slice(lo, lo + step), np.ascontiguousarray(points[lo : lo + step].T))
        for lo in range(0, k, step)
    ]
    angle_picks = [pick for pick in picks if pick != "MD"]
    if angle_picks:
        data = -np.log(u)
        for chunk, coords in chunks:
            angles = _row_terms(data, coords, "P")
            for pick in angle_picks:
                if pick == "P":
                    out[pick][0][chunk] = 1.0 / angles.mean(axis=0)
                else:
                    log_mean = np.log(angles).mean(axis=0)
                    out[pick][0][chunk] = np.exp(-log_mean - EULER_MASCHERONI)
            del angles
    if "MD" in out:
        values, flags = out["MD"]
        for chunk, coords in chunks:
            nu = _row_terms(u, coords, "MD").mean(axis=0)
            c = sum(tj / (1.0 + tj) for tj in coords) / d
            values[chunk], flags[chunk] = _madogram_ratio(nu, c)
    return out


def pickands_points(u, points, pick):
    """Raw (uncorrected) estimates of one rank-based estimator at k simplex points.

    u is the (n, d) matrix of pseudo-uniforms, points a (k, d) array of
    simplex points. Returns (values, flags) where flags marks points whose
    madogram denominator was not positive (always False for P and CFG).
    This is the one-pick call of the kernel fit_pairs uses for all picks.
    """
    u = np.asarray(u, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != u.shape[1]:
        raise DomainError("simplex points must be a (k, d) array matching the data")
    return _curves_at(u, points, (pick,))[pick]


def pickands_curve_raw(u, w, pick):
    """Raw (uncorrected) dependence curve of one rank-based estimator on the
    bivariate grid w: pickands_points at the simplex points (1 - w, w)."""
    return pickands_points(u, edge_points(w), pick)


def endpoint_correct(values, w, pick):
    """Vertex-pinning corrections so the corrected curve equals 1 at w = 0, 1.

    P corrects on the reciprocal scale, CFG on the log scale; the madogram
    estimator is already exact at the vertices under the rank/(n+1)
    convention, so its correction is the identity.
    """
    if pick not in PICK_ESTIMATORS:
        raise DomainError(f"unknown dependence estimator {pick!r}")
    values = np.asarray(values, dtype=float)
    w = np.asarray(w, dtype=float)
    if values.shape != w.shape:
        raise DomainError("curve and grid must have matching shapes")
    if pick == "MD":
        return values.copy()
    if pick == "P":
        inv = 1.0 / values - (1.0 - w) * (1.0 / values[0] - 1.0) - w * (1.0 / values[-1] - 1.0)
        with np.errstate(divide="ignore"):
            return np.where(inv > 0.0, 1.0 / inv, np.inf)
    return np.exp(np.log(values) - (1.0 - w) * np.log(values[0]) - w * np.log(values[-1]))


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


def fit_pairs(sample, pairs, settings):
    """Fit several composite estimators to one paired sample.

    `pairs` holds objects with `pick` and `alpha_method` (EstimatorPair or
    CompositeConfig); `settings` supplies the GPWM order `k`, the
    `grid_size` and whether the curves are `corrected` (a CompositeConfig or
    an ExperimentConfig). The eta columns are ranked once and the curves of
    the scaled data of all picks come from one kernel call, in which P and
    CFG share one pseudo-angle matrix. One clamped tail fit of the xi column
    runs per method, and one inverse scaling transform per method inverts
    the stacked curves of its pairs.

    Returns {pair label: CurveEstimate} in the order of `pairs`. A pair whose
    tail fit failed maps to that fit's EstimationError, which names the
    failing stage.
    """
    if sample.dim != 2:
        raise DomainError("composite estimation is implemented for dimension 2 only")
    w = edge_grid(settings.grid_size)
    points = edge_points(w)
    u = pseudo_uniforms(sample.eta)
    curves = _curves_at(u, points, tuple(dict.fromkeys(pair.pick for pair in pairs)))
    if settings.corrected:
        curves = {
            pick: (endpoint_correct(values, w, pick), md_flags)
            for pick, (values, md_flags) in curves.items()
        }
    fits = {}
    for method in dict.fromkeys(pair.alpha_method for pair in pairs):
        picks = tuple(dict.fromkeys(pair.pick for pair in pairs if pair.alpha_method == method))
        try:
            alpha_raw = estimate_alpha(sample.xi, method, k=settings.k)
            alpha_hat, alpha_clamped = clamp_alpha(alpha_raw)
        except EstimationError as exc:
            fits.update({(pick, method): exc for pick in picks})
            continue
        stacked = np.stack([curves[pick][0] for pick in picks])
        a_star, clamp_mask = astar_points(stacked, points, alpha_hat)
        for i, pick in enumerate(picks):
            values, md_flags = curves[pick]
            fits[pick, method] = CurveEstimate(
                w=w,
                a_alpha=values,
                a_star=a_star[i],
                alpha_hat=alpha_hat,
                alpha_raw=alpha_raw,
                pick=pick,
                alpha_method=method,
                corrected=settings.corrected,
                alpha_clamped=alpha_clamped,
                clamp_mask=clamp_mask[i] | md_flags,
            )
    return {pair.label: fits[pair.pick, pair.alpha_method] for pair in pairs}


def composite_estimate(sample, config=CompositeConfig()):
    """Fit one composite estimator (see fit_pairs); an estimation failure
    raises its EstimationError with the failing stage named."""
    fit = fit_pairs(sample, (config,), config)[config.label]
    if isinstance(fit, EstimationError):
        raise fit
    return fit
