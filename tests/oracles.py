"""Reference implementations the tests compare the package against.

None of this is part of randmax: a Frechet law for quantile grids, the
per-stream pipeline-1 sampler and the column-by-column ranks, the bit-level
references for the many-stream sampler and the stacked ranks, the per-row terms
of the rank-based curve estimators computed straight from their formulas,
a Poisson spectral sampler of the alpha-scaled law that is independent of
the S * Z construction the package samples with, and a row-by-row
bivariate Student-t sampler, the brute-force reference for the
pooled maxima of pipeline 2, the per-observation pipeline-2 scan, the
bit-level reference for the lockstep scan, and one-sample GPWM and ML
tail fits written with Python scalars, the bit-level reference for the
block-wise fits, and the sample CSV parser that reads every line with
float(), the reference for PairedSample.from_csv. Only fit_row and
stack_samples call the package: the tail fit of one row, and the
PairedSample of the rows of several draws, as tests use them;
oracle_from_csv builds a one-row PairedSample, whose rules it relies on.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from randmax.errors import DomainError, EstimationError, InputParseError
from randmax.estimators import estimate_alpha, gpwm_weights
from randmax.samplers import PairedSample, RngStream, sample_logistic_maxstable


@dataclass(frozen=True)
class FrechetLaw:
    """Frechet distribution F(x) = exp(-(x/scale)^-alpha) on x > 0."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"FrechetLaw requires alpha > 0, got {self.alpha!r}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"FrechetLaw requires scale > 0, got {self.scale!r}")

    def cdf(self, x):
        scalar = np.isscalar(x)
        a = np.asarray(x, dtype=float)
        if np.any(~np.isfinite(a) & ~np.isposinf(a)) or np.any(a <= 0.0):
            raise DomainError(f"Frechet cdf requires x > 0, got {x!r}")
        out = np.exp(-((a / self.scale) ** -self.alpha))
        return float(out) if scalar else out

    def quantile(self, v):
        scalar = np.isscalar(v)
        a = np.asarray(v, dtype=float)
        if np.any(~np.isfinite(a)) or np.any(a <= 0.0) or np.any(a >= 1.0):
            raise DomainError(f"Frechet quantile requires v in (0,1), got {v!r}")
        out = self.scale * (-np.log(a)) ** (-1.0 / self.alpha)
        return float(out) if scalar else out

    def logpdf(self, x):
        scalar = np.isscalar(x)
        a = np.asarray(x, dtype=float)
        if np.any(~np.isfinite(a)) or np.any(a <= 0.0):
            raise DomainError(f"Frechet logpdf requires finite x > 0, got {x!r}")
        z = a / self.scale
        out = (
            np.log(self.alpha)
            - np.log(self.scale)
            - (self.alpha + 1.0) * np.log(z)
            - z**-self.alpha
        )
        return float(out) if scalar else out


def _oracle_positive_stable(alpha, gen, size):
    """Kanter's positive alpha-stable variates: a uniform, then an exponential
    draw of `size` each from the running Generator gen."""
    u = np.pi * (1.0 - gen.random(size))
    w = gen.standard_exponential(size)
    s = (np.sin((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return s * np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)


def oracle_sample_experiment1(psi, alpha, n, gen, d=2):
    """One pipeline-1 sample (eta (n, d), xi (n,)) drawn from the running
    Generator gen, one stream at a time: unit-Frechet Y, then for psi < 1
    the logistic vectors (S_psi Y)^psi, then eta = S_alpha * Z and its row
    maxima xi."""
    z = 1.0 / gen.standard_exponential((n, d))
    if psi < 1.0:
        z = (_oracle_positive_stable(psi, gen, n)[:, np.newaxis] * z) ** psi
    eta = _oracle_positive_stable(alpha, gen, n)[:, np.newaxis] * z
    return eta, eta.max(axis=1)


def oracle_ranks(eta):
    """Per-column ranks 1..n of an (n, d) matrix, the max rank under ties,
    one column at a time."""
    out = np.empty(eta.shape, dtype=np.intp)
    for j in range(eta.shape[1]):
        col = eta[:, j]
        out[:, j] = np.searchsorted(np.sort(col), col, side="right")
    return out


def oracle_row_terms(data, coords, pick):
    """Reference per-row terms (n, k) computed directly from the data: data
    is -ln u for P and CFG (terms min_j data_ij / t_j) and u for MD (terms
    max_j v_ij - (1/d) sum_j v_ij with v_ij = u_ij^(1/t_j))."""
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
        total /= len(coords)
        acc -= total
    return acc


def pseudo_angles(u, t):
    """Per-row pseudo-angles theta_i(t) = min_{j: t_j > 0} -(1/t_j) ln u_ij."""
    return oracle_row_terms(-np.log(u), np.asarray(t, dtype=float)[:, np.newaxis], "P")[:, 0]


def madogram_nu(u, t):
    """First-order madogram mean_i [max_j u_ij^(1/t_j) - (1/d) sum_j u_ij^(1/t_j)],
    with u^(1/0) = 0 for u in (0, 1)."""
    return float(np.mean(oracle_row_terms(u, np.asarray(t, dtype=float)[:, np.newaxis], "MD")))


def sample_spectral_scaled(alpha, rng, size, base_psi=1.0, eps=1e-6, max_terms=1 << 21):
    """Alpha-scaled max-stable vectors via the Poisson spectral construction.

    R = Gamma(1-alpha)^(-1/alpha) * max_i P_i Z_i componentwise, where
    P_1 > P_2 > ... are the points of a Poisson process on (0, inf) with
    intensity alpha r^-(alpha+1) dr (P_i = T_i^(-1/alpha) for standard
    arrival times T_i) and Z_i are iid logistic(base_psi) vectors with
    unit-Frechet margins; the exponent makes the margins exactly unit
    alpha-Frechet, since -ln P(max_i P_i Z_i <= v) = E max_j (Z_j / v_j)^alpha.
    rng is an RngStream. Terms are drawn in blocks for the rows still
    running. A row stops once its next point falls below eps times its
    smaller running maximum, after which additional terms change it with
    exponentially small probability, or after max_terms terms.
    """
    gen = rng.generator()
    block = 256
    offset = np.zeros(size)
    m = np.zeros((size, 2))
    active = np.arange(size)
    drawn = 0
    while active.size and drawn < max_terms:
        k = active.size
        steps = gen.standard_exponential((k, block))
        arrivals = offset[active, np.newaxis] + np.cumsum(steps, axis=1)
        offset[active] = arrivals[:, -1]
        points = arrivals ** (-1.0 / alpha)
        z = sample_logistic_maxstable(base_psi, 2, gen, k * block).reshape(k, block, 2)
        m[active] = np.maximum(m[active], (points[:, :, np.newaxis] * z).max(axis=1))
        drawn += block
        active = active[points[:, -1] >= eps * m[active].min(axis=1)]
    return m * np.exp(-special.gammaln(1.0 - alpha) / alpha)


def sample_bivariate_t(rho, nu, rng, size=None):
    """Standard bivariate Student-t rows: (X1, X2) = (G1, G2) * sqrt(nu / V)
    with (G1, G2) standard bivariate normal with correlation rho and V a
    chi-square with nu degrees of freedom shared within the row. rng is an
    RngStream (a fresh generator is derived) or a running numpy Generator."""
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    k = 1 if size is None else int(size)
    z = gen.standard_normal((k, 2))
    v = gen.chisquare(nu, k)
    g1 = z[:, 0]
    g2 = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
    out = np.column_stack([g1, g2]) * np.sqrt(nu / v)[:, np.newaxis]
    return out[0] if size is None else out


def oracle_pooled_t_maxima(gen, total, rho, nu, batch_rows=64):
    """Componentwise maxima of `total` iid bivariate-t rows, scanned top-down
    in batches of batch_rows rows, one Generator call per batch for the
    levels and one for the angles: the per-observation scan pipeline 2 ran
    before its lockstep scan, the bit-level reference for it. Returns (m1,
    m2, batches), with the number of batches the scan drew."""
    total = float(total)
    b = np.sqrt(1.0 - rho**2)
    m1 = m2 = -np.inf
    level = 0.0
    done = batches = 0
    with np.errstate(over="ignore"):
        while done < total:
            k = int(min(batch_rows, total - done))
            steps = np.log(1.0 - gen.random(k)) / (total - done - np.arange(k))
            logs = level + np.cumsum(steps)
            level = logs[-1]
            log_u = np.log(-np.expm1(logs))
            r = np.sqrt(-nu * np.expm1(2.0 * log_u / nu)) * np.exp(-log_u / nu)
            if not np.isfinite(r[0]):
                raise DomainError(
                    f"t-row radii overflow float64 for {total:g} rows at upsilon={nu!r}"
                )
            phi = (2.0 * np.pi) * gen.random(k)
            y1 = r * np.cos(phi)
            y2 = r * np.sin(phi)
            m1 = max(m1, y1.max())
            m2 = max(m2, (rho * y1 + b * y2).max())
            done += k
            batches += 1
            if r[-1] < min(m1, m2):
                break
    return m1, m2, batches


def oracle_sample_experiment2(rho, nu, alpha, n, gen, n_prime, batch_rows=64):
    """One pipeline-2 sample drawn from the running Generator gen one
    observation at a time: the (n, n_prime) Pareto block sizes, then each
    observation's oracle_pooled_t_maxima in turn. Returns eta (n, 2), xi
    (n,), the row totals (n,) and each observation's batch count (n,)."""
    u = 1.0 - gen.random((n, n_prime))
    sizes = np.ceil(np.power(u, -1.0 / alpha))
    totals = sizes.sum(axis=1)
    scans = np.array([oracle_pooled_t_maxima(gen, t, rho, nu, batch_rows) for t in totals])
    return scans[:, :2], sizes.max(axis=1), totals, scans[:, 2].astype(int)


def stack_samples(samples):
    """The PairedSample of the rows of PairedSamples whose rows share one
    shape, in order, with the first one's meta."""
    samples = tuple(samples)
    if not samples:
        raise DomainError("need at least one sample to stack")
    if any(sample.eta.shape[1:] != samples[0].eta.shape[1:] for sample in samples):
        raise DomainError("samples stacked in a block must share one shape")
    eta = np.concatenate([sample.eta for sample in samples])
    xi = np.concatenate([sample.xi for sample in samples])
    return PairedSample(eta, xi, dict(samples[0].meta))


def fit_row(xi, method, k=5):
    """The package's tail fit of the one row xi: estimate_alpha on a block of
    one row, returning its estimate as a float or raising its EstimationError."""
    xi = np.asarray(xi, dtype=float)[np.newaxis]
    (alpha,), (error,) = estimate_alpha(xi, (method,), k)[method]
    if error is not None:
        raise error
    return float(alpha)


def oracle_gpwm_alpha(xi, k=5):
    """Generalized probability-weighted-moment estimate of the Frechet shape,

        alpha_hat = (k - 2 mu_{1,k} / mu_{1,k-1})^(-1),

    with the moments evaluated exactly from the order statistics. The ratio
    is scale-free. For the Frechet quantile H^{-1}(v) = (-ln v)^(-1/alpha)
    the integrand of mu_{1,b} (see gpwm_weights) is v (-ln v)^(b - 1/alpha),
    finite only for alpha > 1/(b+1). The moment mu_{1,k-1} thus requires
    alpha > 1/k; below that the top order statistic dominates the ratio and
    the estimate tends to 1/k. A nonpositive denominator raises
    EstimationError.
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


def _oracle_ml_log_excess(xi):
    """Log-data relative to its minimum, d_i = ln x_i - min_j ln x_j >= 0.

    The profile score depends on the data only through these differences.
    Weighting with x^-a relative to min x gives weights exp(-a d_i) in
    (0, 1], the largest equal to 1, so the sums can neither overflow nor
    vanish whatever the scale of xi.
    """
    lx = np.log(np.asarray(xi, dtype=float))
    return lx - lx.min()


def _oracle_ml_profile_score(alpha, d, mean_d, with_deriv=False):
    """Mean profile score of the two-parameter Frechet likelihood at shape a,

        1/a - mean(ln x) + sum(x^-a ln x) / sum(x^-a),

    from the log-excess d (and its mean): the derivative per observation of
    the log-likelihood once the scale is profiled out through
    sigma^a = n / sum(x^-a). It is strictly decreasing in the shape;
    with_deriv also returns its derivative -1/a^2 - (weighted variance of d)."""
    wts = np.exp(-alpha * d)
    total = wts.sum()
    m1 = float(wts @ d) / total
    score = 1.0 / alpha - mean_d + m1
    if not with_deriv:
        return score
    m2 = float(wts @ (d * d)) / total
    return score, -1.0 / alpha**2 - (m2 - m1 * m1)


_ORACLE_ML_BRACKET = (1e-3, 50.0)


def oracle_ml_alpha(xi, init=None, tol=1e-12, max_iter=200):
    """Maximum-likelihood Frechet shape with the scale profiled out.

    The Frechet law with shape a and scale sigma is fitted jointly; for a
    fixed shape the scale maximizing the likelihood is sigma^a = n/sum(x^-a),
    so the shape is the root of the profile score (see _oracle_ml_profile_score) and the
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
    d = _oracle_ml_log_excess(xi)
    mean_d = float(d.mean())
    lo, hi = _ORACLE_ML_BRACKET
    s_lo = _oracle_ml_profile_score(lo, d, mean_d)
    s_hi = _oracle_ml_profile_score(hi, d, mean_d)
    if not (s_lo > 0.0 > s_hi):
        raise EstimationError(
            f"score has no sign change on [{lo}, {hi}] "
            f"(score({lo}) = {float(s_lo)!r}, score({hi}) = {float(s_hi)!r})",
            stage="ML",
        )
    if init is None:
        try:
            init = oracle_gpwm_alpha(xi)
        except EstimationError:
            # ln x is Gumbel with scale 1/a: moment match its spread
            init = np.pi / np.sqrt(6.0 * float(d.var()))
    a = float(np.clip(init, lo, hi))
    s, ds = _oracle_ml_profile_score(a, d, mean_d, with_deriv=True)
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
        s, ds = _oracle_ml_profile_score(a, d, mean_d, with_deriv=True)
    if abs(s) > 1e-10:
        raise EstimationError(f"score iteration stalled at |score| = {float(abs(s))!r}", stage="ML")
    return float(a)


def oracle_from_csv(text):
    """The one-row PairedSample of the text PairedSample.to_csv writes, with
    InputParseError naming the line.
    The caller reads the file; lines are split on "\\n" only.

    Lines are stripped of surrounding whitespace (so CRLF endings pass)
    and blank ones are skipped, though still counted in line numbers.
    Cells may carry spaces; float() reads each one. Errors, in order:
    a bad header (line 1); then the first line in file order that has
    the wrong number of columns or, failing that, a cell float() cannot
    read; then fewer than 2 rows (line 2); then the first row with a
    value PairedSample rejects, eta before xi. All cells are converted
    in one pass, and only a failed pass walks the lines to name one.
    """
    # lines[i] is line i + 2 of the text
    header, *lines = map(str.strip, text.split("\n"))
    cols = header.split(",") if header else []
    if len(cols) < 3 or cols[-1] != "xi" or any(
        c != f"eta_{j + 1}" for j, c in enumerate(cols[:-1])
    ):
        raise InputParseError(f"bad header {header!r}, expected eta_1,...,eta_d,xi", line=1)
    d = len(cols) - 1
    rows = [line for line in lines if line]
    values = None
    if all(row.count(",") == d for row in rows):
        try:
            values = list(map(float, ",".join(rows).split(","))) if rows else []
        except ValueError:
            pass
    if values is None:
        raise _oracle_first_bad_line(lines, d)
    if len(rows) < 2:
        raise InputParseError("need at least 2 data rows", line=2)
    table = np.array(values).reshape(len(rows), d + 1)
    eta, xi = table[:, :-1].copy(), table[:, -1].copy()
    try:
        return PairedSample(eta[np.newaxis], xi[np.newaxis])
    except DomainError as exc:
        # name the first row that breaks the rule reported; eta is checked first
        bad = ~np.all(np.isfinite(eta) & (eta > 0.0), axis=1)
        if not bad.any():
            bad = ~(np.isfinite(xi) & (xi > 0.0))
        linenos = [lineno for lineno, line in enumerate(lines, start=2) if line]
        raise InputParseError(str(exc), line=linenos[int(np.argmax(bad))]) from None


def _oracle_first_bad_line(lines, d):
    """The InputParseError of the first nonblank line (lines[i] is line i + 2)
    that does not hold d + 1 cells, or holds one float() cannot read."""
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != d + 1:
            return InputParseError(f"expected {d + 1} columns, got {len(cells)}", line=lineno)
        try:
            list(map(float, cells))
        except ValueError as exc:
            return InputParseError(str(exc), line=lineno)
