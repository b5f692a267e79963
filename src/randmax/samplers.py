"""Random generation for the two simulation pipelines.

Provides positive alpha-stable variates, max-stable vectors with logistic
dependence, the random-scaling construction eta = S * Z together with its
row maximum xi (pipeline 1), and the domain-of-attraction pipeline that
takes componentwise maxima of bivariate Student-t blocks with heavy-tailed
Pareto block sizes (pipeline 2). A Poisson-point-process construction of the
scaled law is included as a distributional cross-check of the S * Z route.

All samplers draw from a counter-based Philox generator keyed by
(seed, stream_id), so a given RngStream reproduces the same sequence on any
platform and parallel callers with distinct stream ids are independent.
Samplers accept either an RngStream (a fresh generator is derived) or an
already-running numpy Generator (state advances across calls).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputParseError

__all__ = [
    "RngStream",
    "PairedSample",
    "sample_positive_stable",
    "sample_logistic_maxstable",
    "sample_experiment1",
    "sample_pareto_block_size",
    "sample_bivariate_t",
    "sample_experiment2",
    "sample_spectral_scaled",
]

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self):
        key = np.array([self.seed & _U64, self.stream_id & _U64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _is_path(path_or_buf):
    return isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")


def write_text(path_or_buf, text):
    """Write text to a path (str, bytes or path-like) or to a text buffer."""
    if _is_path(path_or_buf):
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path_or_buf.write(text)


def _gen(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


@dataclass
class PairedSample:
    """n paired observations: eta (n, d) with positive entries and xi (n,).

    eta holds the componentwise-maxima vectors, xi the scalar derived from
    the block sizes (pipeline 2) or the row maximum (pipeline 1). meta keeps
    the generating parameters.
    """

    eta: np.ndarray
    xi: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.eta.ndim != 2 or self.eta.shape[0] < 2 or self.eta.shape[1] < 2:
            raise DomainError("eta must be an (n, d) matrix with n >= 2, d >= 2")
        if self.xi.shape != (self.eta.shape[0],):
            raise DomainError("xi must have one entry per eta row")
        if not (np.all(np.isfinite(self.eta)) and np.all(self.eta > 0.0)):
            raise DomainError("eta entries must be finite and strictly positive")
        if not (np.all(np.isfinite(self.xi)) and np.all(self.xi > 0.0)):
            raise DomainError("xi entries must be finite and strictly positive")

    @property
    def n(self):
        return self.eta.shape[0]

    @property
    def dim(self):
        return self.eta.shape[1]

    def to_csv(self, path_or_buf):
        """Write `eta_1,...,eta_d,xi` rows at full round-trip precision."""
        header = ",".join(f"eta_{j + 1}" for j in range(self.dim)) + ",xi"
        lines = [header]
        for i in range(self.n):
            cells = [repr(float(v)) for v in self.eta[i]] + [repr(float(self.xi[i]))]
            lines.append(",".join(cells))
        write_text(path_or_buf, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path_or_buf, meta=None):
        if _is_path(path_or_buf):
            with open(path_or_buf, "r", encoding="utf-8") as fh:
                return cls._parse(fh, meta)
        return cls._parse(path_or_buf, meta)

    @classmethod
    def _parse(cls, fh, meta):
        header = fh.readline().strip()
        cols = header.split(",") if header else []
        if len(cols) < 3 or cols[-1] != "xi" or any(
            c != f"eta_{j + 1}" for j, c in enumerate(cols[:-1])
        ):
            raise InputParseError(f"bad header {header!r}, expected eta_1,...,eta_d,xi", line=1)
        d = len(cols) - 1
        eta_rows, xi_rows = [], []
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.strip()
            if not raw:
                continue
            cells = raw.split(",")
            if len(cells) != d + 1:
                raise InputParseError(f"expected {d + 1} columns, got {len(cells)}", line=lineno)
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise InputParseError(str(exc), line=lineno) from None
            eta_rows.append(values[:-1])
            xi_rows.append(values[-1])
        if len(eta_rows) < 2:
            raise InputParseError("need at least 2 data rows", line=2)
        try:
            return cls(np.array(eta_rows), np.array(xi_rows), meta or {})
        except DomainError as exc:
            raise InputParseError(str(exc)) from None


def sample_positive_stable(alpha, rng, size=None):
    """Positive alpha-stable variates with Laplace transform E e^(-sS) = e^(-s^alpha).

    Uses the one-sided Kanter construction: with U uniform on (0, pi) and W
    unit exponential,

        S = (sin((1-alpha) U) / W)^((1-alpha)/alpha) * sin(alpha U) / sin(U)^(1/alpha).
    """
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"stable index must be in (0,1), got {alpha!r}")
    gen = _gen(rng)
    u = np.pi * (1.0 - gen.random(size))
    w = gen.standard_exponential(size)
    s = (np.sin((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return s * np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)


def _unit_frechet(gen, size):
    return 1.0 / gen.standard_exponential(size)


def sample_logistic_maxstable(psi, d, rng, size=None):
    """Max-stable vectors with unit-Frechet margins and logistic dependence psi.

    psi = 1 gives independent components. For psi < 1 the vector is built
    from the random-scaling identity: S_psi * Y has psi-Frechet margins and
    logistic dependence for Y iid unit Frechet, and raising it componentwise
    to the power psi restores unit-Frechet margins without touching the
    copula.
    """
    if not (np.isfinite(psi) and 0.0 < psi <= 1.0):
        raise DomainError(f"logistic dependence parameter must be in (0,1], got {psi!r}")
    if int(d) < 2:
        raise DomainError(f"dimension must be >= 2, got {d!r}")
    d = int(d)
    gen = _gen(rng)
    shape = (d,) if size is None else (size, d)
    y = _unit_frechet(gen, shape)
    if psi == 1.0:
        return y
    s = sample_positive_stable(psi, gen, size)
    return (np.expand_dims(s, -1) * y) ** psi


def sample_experiment1(psi, alpha, n, rng, d=2):
    """Pipeline 1: n draws of (eta, xi) from the scaled logistic construction.

    Z is logistic(psi) max-stable with unit-Frechet margins, S is positive
    alpha-stable independent of Z, eta = S * Z (componentwise) and
    xi = max_j eta_j. eta then has alpha-Frechet margins and the
    alpha-scaled logistic dependence; xi is alpha-Frechet up to scale.
    """
    if int(n) < 2:
        raise DomainError(f"sample size must be >= 2, got {n!r}")
    n = int(n)
    gen = _gen(rng)
    z = sample_logistic_maxstable(psi, d, gen, n)
    s = sample_positive_stable(alpha, gen, n)
    eta = s[:, np.newaxis] * z
    xi = eta.max(axis=1)
    meta = {"experiment": 1, "psi": psi, "alpha": alpha, "n": n, "d": int(d)}
    return PairedSample(eta, xi, meta)


def sample_pareto_block_size(alpha, rng, size=None):
    """Heavy-tailed block sizes N = ceil(N') with N' standard Pareto(alpha),
    so P(N' > y) = y^-alpha for y >= 1.

    Arrays are integer-valued float64, since sizes can pass 2^63 for small
    alpha; a scalar draw is an int. Sizes that overflow float64 (possible
    only for alpha below about 0.052) raise DomainError.
    """
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"tail index must be in (0,1), got {alpha!r}")
    gen = _gen(rng)
    u = 1.0 - gen.random(size)
    with np.errstate(over="ignore"):
        n = np.ceil(np.power(u, -1.0 / alpha))
    if not np.all(np.isfinite(n)):
        raise DomainError(f"block sizes overflow float64 at tail index alpha={alpha!r}")
    return int(n) if size is None else n


def sample_bivariate_t(rho, nu, rng, size=None):
    """Standard bivariate Student-t rows: (X1, X2) = (G1, G2) * sqrt(nu / V)
    with (G1, G2) standard bivariate normal with correlation rho and V a
    chi-square with nu degrees of freedom shared within the row."""
    if not (np.isfinite(rho) and -1.0 < rho < 1.0):
        raise DomainError(f"correlation must be in (-1,1), got {rho!r}")
    if not (np.isfinite(nu) and nu > 0.0):
        raise DomainError(f"degrees of freedom must be > 0, got {nu!r}")
    gen = _gen(rng)
    k = 1 if size is None else int(size)
    z = gen.standard_normal((k, 2))
    v = gen.chisquare(nu, k)
    g1 = z[:, 0]
    g2 = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
    out = np.column_stack([g1, g2]) * np.sqrt(nu / v)[:, np.newaxis]
    return out[0] if size is None else out


#: rows drawn per step of the top-down scan in _pooled_t_maxima
_BATCH_ROWS = 64


def _pooled_t_maxima(gen, total, rho, nu):
    """Componentwise maxima of `total` iid bivariate-t rows.

    Rows are generated in the exact elliptical form x = A (r cos phi, r sin phi)
    with AA' the correlation matrix, the squared radius q having the
    closed-form survival (1 + q/nu)^(-nu/2). The survival levels are drawn as
    uniform order statistics from the smallest up (Devroye 1986, V.3): with
    m = total, V uniform and L_k = log(1 - U_(k)), L_(k+1) = L_k + log(V)/(m - k),
    so the radii come largest first, in batches of _BATCH_ROWS rows with one
    angle draw each. Both rows of A have unit norm, so once a radius falls
    below the smaller running maximum no later row can move either maximum
    and the scan stops. The cost therefore does not grow with `total`, which
    may be a float.
    """
    total = float(total)
    b = np.sqrt(1.0 - rho**2)
    m1 = m2 = -np.inf
    level = 0.0
    done = 0
    with np.errstate(over="ignore"):
        while done < total:
            k = int(min(_BATCH_ROWS, total - done))
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
            if r[-1] < min(m1, m2):
                break
    return m1, m2


def sample_experiment2(rho, nu, alpha, n, rng, n_prime=500):
    """Pipeline 2: n draws of (eta, xi) from the domain-of-attraction scheme.

    Per observation, n_prime independent blocks are formed: block k has a
    heavy-tailed Pareto(alpha) size N_k and holds N_k bivariate Student-t
    rows; xi = max_k N_k and eta is the componentwise maximum over all rows
    of all blocks. Block sizes are not truncated, and sizes, their totals or
    t-row radii that overflow float64 raise DomainError.
    """
    if not (np.isfinite(rho) and -1.0 < rho < 1.0):
        raise DomainError(f"correlation must be in (-1,1), got {rho!r}")
    if not (np.isfinite(nu) and nu > 0.0):
        raise DomainError(f"degrees of freedom must be > 0, got {nu!r}")
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"tail index must be in (0,1), got {alpha!r}")
    if int(n) < 2:
        raise DomainError(f"sample size must be >= 2, got {n!r}")
    if int(n_prime) < 1:
        raise DomainError(f"inner replication count must be >= 1, got {n_prime!r}")
    n = int(n)
    gen = _gen(rng)
    sizes = sample_pareto_block_size(alpha, gen, (n, int(n_prime)))
    with np.errstate(over="ignore"):
        totals = sizes.sum(axis=1)
    if not np.all(np.isfinite(totals)):
        raise DomainError(f"block-size totals overflow float64 at tail index alpha={alpha!r}")
    eta = np.array([_pooled_t_maxima(gen, total, rho, nu) for total in totals])
    nonpositive = np.count_nonzero(~np.all(eta > 0.0, axis=1))
    if nonpositive:
        raise DomainError(
            f"inner_size={int(n_prime)} is too small: {nonpositive} of {n} observations "
            "had a non-positive componentwise maximum, and eta must be strictly positive"
        )
    meta = {
        "experiment": 2,
        "rho": rho,
        "upsilon": nu,
        "alpha": alpha,
        "n": n,
        "inner_size": int(n_prime),
    }
    return PairedSample(eta, sizes.max(axis=1), meta)


def sample_spectral_scaled(alpha, rng, size, base_psi=1.0, eps=1e-6, max_terms=1 << 21):
    """Alpha-scaled max-stable vectors via the Poisson spectral construction.

    R = Gamma(1-alpha)^(-1/alpha) * max_i P_i Z_i componentwise, where
    P_1 > P_2 > ... are the points of a Poisson process on (0, inf) with
    intensity alpha r^-(alpha+1) dr (P_i = T_i^(-1/alpha) for standard
    arrival times T_i) and Z_i are iid logistic(base_psi) vectors with
    unit-Frechet margins; the exponent makes the margins exactly unit
    alpha-Frechet, since -ln P(max_i P_i Z_i <= v) = E max_j (Z_j / v_j)^alpha.
    The series is truncated once the next point falls below eps times the
    smaller running maximum, after which additional terms change the result
    with exponentially small probability. Used as an independent
    distributional oracle for the direct S * Z construction.
    """
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"scaling index must be in (0,1), got {alpha!r}")
    gen = _gen(rng)
    k = int(size)
    block = 256
    offset = np.zeros(k)
    m = np.zeros((k, 2))
    drawn = 0
    while True:
        e = gen.standard_exponential((k, block))
        arrivals = offset[:, np.newaxis] + np.cumsum(e, axis=1)
        offset = arrivals[:, -1]
        points = arrivals ** (-1.0 / alpha)
        z = sample_logistic_maxstable(base_psi, 2, gen, k * block).reshape(k, block, 2)
        m = np.maximum(m, (points[:, :, np.newaxis] * z).max(axis=1))
        drawn += block
        if np.all(points[:, -1] < eps * m.min(axis=1)) or drawn >= max_terms:
            break
    from .specfun import ln_gamma

    return m * np.exp(-ln_gamma(1.0 - alpha) / alpha)
