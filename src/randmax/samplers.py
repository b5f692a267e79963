"""Random generation for the two simulation pipelines.

Provides positive alpha-stable variates, max-stable vectors with logistic
dependence, the random-scaling construction eta = S * Z together with its
row maximum xi (pipeline 1), and the domain-of-attraction pipeline that
takes componentwise maxima of bivariate Student-t blocks with heavy-tailed
Pareto block sizes (pipeline 2).

All samplers draw from a counter-based Philox generator keyed by
(seed, stream_id), so a given RngStream reproduces the same sequence on any
platform and parallel callers with distinct stream ids are independent.
Samplers accept either an RngStream (a fresh generator is derived) or an
already-running numpy Generator (state advances across calls).

Blocks: pipeline 1 is drawn a block of streams at a time, one sample per
stream, stacked into a PairedBlock of eta (B, n, d) and xi (B, n). Each
stream makes its draws in the order a one-stream call makes them (the
exponentials of Z, then the uniforms and exponentials of S_psi when psi < 1,
then those of S_alpha), and the arithmetic then runs once on the stacked
draws. Every step of that arithmetic is elementwise, or a max over the d
coordinates, so a sample has the same bits in any block;
sample_experiment1 is the block of one stream.

No function here reads or writes a file: PairedSample.to_csv returns its
text and PairedSample.from_csv parses text, and the CLI does the I/O.
Parameter domains belong to depcore: a sampler checks psi and d by building
Logistic(psi, dim=d) and rho and upsilon by building ExtremalT(rho, upsilon),
the models it samples, and alpha with check_tail_index.
"""

from dataclasses import dataclass, field

import numpy as np

from .depcore import ExtremalT, Logistic, check_tail_index
from .errors import DomainError, InputParseError, as_integer

__all__ = [
    "RngStream",
    "PairedSample",
    "PairedBlock",
    "sample_positive_stable",
    "sample_logistic_maxstable",
    "sample_experiment1",
    "sample_experiment1_block",
    "sample_pareto_block_size",
    "sample_experiment2",
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
        _check_pairs(self.eta, self.xi, 2)

    @property
    def n(self):
        return self.eta.shape[0]

    @property
    def dim(self):
        return self.eta.shape[1]

    def to_csv(self):
        """The CSV text: the header `eta_1,...,eta_d,xi`, then one row per
        observation. The caller writes it; this module touches no file.

        Each cell is repr() of the Python float, the shortest text that reads
        back to the same bits; cells are joined by "," and every row, the last
        too, ends in "\\n". The text is built column by column, from tolist().
        """
        header = ",".join(f"eta_{j + 1}" for j in range(self.dim)) + ",xi"
        columns = [map(repr, column) for column in (*self.eta.T.tolist(), self.xi.tolist())]
        rows = "\n".join(map(",".join, zip(*columns)))
        return f"{header}\n{rows}\n"

    @classmethod
    def from_csv(cls, text):
        """Parse the text to_csv writes, with InputParseError naming the line.
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
            raise _first_bad_line(lines, d)
        if len(rows) < 2:
            raise InputParseError("need at least 2 data rows", line=2)
        table = np.array(values).reshape(len(rows), d + 1)
        eta, xi = table[:, :-1].copy(), table[:, -1].copy()
        try:
            return cls(eta, xi)
        except DomainError as exc:
            # name the first row that breaks the rule reported; eta is checked first
            bad = ~np.all(np.isfinite(eta) & (eta > 0.0), axis=1)
            if not bad.any():
                bad = ~(np.isfinite(xi) & (xi > 0.0))
            linenos = [lineno for lineno, line in enumerate(lines, start=2) if line]
            raise InputParseError(str(exc), line=linenos[int(np.argmax(bad))]) from None


def _check_pairs(eta, xi, ndim):
    """The rules of a paired sample on eta (n, d) and xi (n,) at ndim 2, or
    on stacks (B, n, d) and (B, n) of them at ndim 3."""
    form = "an (n, d) matrix" if ndim == 2 else "a (B, n, d) stack of B >= 1 samples"
    if eta.ndim != ndim or eta.size == 0 or eta.shape[-2] < 2 or eta.shape[-1] < 2:
        raise DomainError(f"eta must be {form} with n >= 2, d >= 2")
    if xi.shape != eta.shape[:-1]:
        raise DomainError("xi must have one entry per eta row")
    if not (np.all(np.isfinite(eta)) and np.all(eta > 0.0)):
        raise DomainError("eta entries must be finite and strictly positive")
    if not (np.all(np.isfinite(xi)) and np.all(xi > 0.0)):
        raise DomainError("xi entries must be finite and strictly positive")


@dataclass
class PairedBlock:
    """B paired samples of one shape, stacked: eta (B, n, d) and xi (B, n),
    each row under the rules of PairedSample. meta keeps the generating
    parameters the samples share."""

    eta: np.ndarray
    xi: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        _check_pairs(self.eta, self.xi, 3)

    def __len__(self):
        return self.xi.shape[0]

    @classmethod
    def stack(cls, samples):
        """Stack PairedSamples of one shape; the block keeps the first one's meta."""
        samples = tuple(samples)
        if not samples:
            raise DomainError("need at least one sample to stack")
        if any(sample.eta.shape != samples[0].eta.shape for sample in samples):
            raise DomainError("samples stacked in a block must share one shape")
        eta = np.array([sample.eta for sample in samples])
        return cls(eta, np.array([sample.xi for sample in samples]), dict(samples[0].meta))


def _first_bad_line(lines, d):
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


def _kanter(alpha, v, w):
    """Positive alpha-stable variates from uniforms v on [0, 1) and unit
    exponentials w of one shape (see sample_positive_stable)."""
    u = np.pi * (1.0 - v)
    s = (np.sin((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return s * np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)


def _logistic(psi, y, s):
    """(S * Y)^psi, componentwise: logistic(psi) vectors with unit-Frechet
    margins from iid unit-Frechet Y (..., d) and positive psi-stable S (...)."""
    return (np.expand_dims(s, -1) * y) ** psi


def sample_positive_stable(alpha, rng, size=None):
    """Positive alpha-stable variates with Laplace transform E e^(-sS) = e^(-s^alpha).

    Uses the one-sided Kanter construction: with U uniform on (0, pi) and W
    unit exponential,

        S = (sin((1-alpha) U) / W)^((1-alpha)/alpha) * sin(alpha U) / sin(U)^(1/alpha).
    """
    check_tail_index(alpha)
    gen = _gen(rng)
    return _kanter(alpha, gen.random(size), gen.standard_exponential(size))


def sample_logistic_maxstable(psi, d, rng, size=None):
    """Max-stable vectors with unit-Frechet margins and logistic dependence psi.

    psi = 1 gives independent components. For psi < 1 the vector is built
    from the random-scaling identity: S_psi * Y has psi-Frechet margins and
    logistic dependence for Y iid unit Frechet, and raising it componentwise
    to the power psi restores unit-Frechet margins without touching the
    copula.
    """
    d = as_integer("d", d)
    Logistic(psi, dim=d)
    gen = _gen(rng)
    y = 1.0 / gen.standard_exponential((d,) if size is None else (size, d))
    if psi == 1.0:
        return y
    return _logistic(psi, y, sample_positive_stable(psi, gen, size))


def sample_experiment1_block(psi, alpha, n, rngs, d=2):
    """Pipeline 1 for a block of streams: one sample of n draws of (eta, xi)
    per entry of `rngs` (RngStreams or running Generators), stacked in a
    PairedBlock in the order of `rngs`.

    Each sample is the one sample_experiment1 draws from that stream, bit for
    bit, and a running Generator advances exactly as it would there (see
    "Blocks" in the module docstring).
    """
    n, d = as_integer("n", n), as_integer("d", d)
    Logistic(psi, dim=d)
    check_tail_index(alpha)
    if n < 2:
        raise DomainError(f"sample size must be >= 2, got {n!r}")
    # the exponentials of Z, then (uniform, exponential) of S_psi and of S_alpha
    e = np.empty((len(rngs), n, d))
    draws = np.empty((4, len(rngs), n))
    for b, rng in enumerate(rngs):
        gen = _gen(rng)
        gen.standard_exponential(out=e[b])
        if psi < 1.0:
            gen.random(out=draws[0, b])
            gen.standard_exponential(out=draws[1, b])
        gen.random(out=draws[2, b])
        gen.standard_exponential(out=draws[3, b])
    z = 1.0 / e
    if psi < 1.0:
        z = _logistic(psi, z, _kanter(psi, draws[0], draws[1]))
    eta = _kanter(alpha, draws[2], draws[3])[..., np.newaxis] * z
    meta = {"experiment": 1, "psi": psi, "alpha": alpha, "n": n, "d": d}
    return PairedBlock(eta, eta.max(axis=-1), meta)


def sample_experiment1(psi, alpha, n, rng, d=2):
    """Pipeline 1: n draws of (eta, xi) from the scaled logistic construction.

    Z is logistic(psi) max-stable with unit-Frechet margins, S is positive
    alpha-stable independent of Z, eta = S * Z (componentwise) and
    xi = max_j eta_j. eta then has alpha-Frechet margins and the
    alpha-scaled logistic dependence; xi is alpha-Frechet up to scale.
    This is the block of one stream of sample_experiment1_block.
    """
    block = sample_experiment1_block(psi, alpha, n, (rng,), d)
    return PairedSample(block.eta[0], block.xi[0], block.meta)


def sample_pareto_block_size(alpha, rng, size=None):
    """Heavy-tailed block sizes N = ceil(N') with N' standard Pareto(alpha),
    so P(N' > y) = y^-alpha for y >= 1.

    Arrays are integer-valued float64, since sizes can pass 2^63 for small
    alpha; a scalar draw is an int. Sizes that overflow float64 (possible
    only for alpha below about 0.052) raise DomainError.
    """
    check_tail_index(alpha)
    gen = _gen(rng)
    u = 1.0 - gen.random(size)
    with np.errstate(over="ignore"):
        n = np.ceil(np.power(u, -1.0 / alpha))
    if not np.all(np.isfinite(n)):
        raise DomainError(f"block sizes overflow float64 at tail index alpha={alpha!r}")
    return int(n) if size is None else n


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
    ExtremalT(rho, nu)
    check_tail_index(alpha)
    n, n_prime = as_integer("n", n), as_integer("n_prime", n_prime)
    if n < 2:
        raise DomainError(f"sample size must be >= 2, got {n!r}")
    if n_prime < 1:
        raise DomainError(f"inner replication count must be >= 1, got {n_prime!r}")
    gen = _gen(rng)
    sizes = sample_pareto_block_size(alpha, gen, (n, n_prime))
    with np.errstate(over="ignore"):
        totals = sizes.sum(axis=1)
    if not np.all(np.isfinite(totals)):
        raise DomainError(f"block-size totals overflow float64 at tail index alpha={alpha!r}")
    eta = np.array([_pooled_t_maxima(gen, total, rho, nu) for total in totals])
    nonpositive = np.count_nonzero(~np.all(eta > 0.0, axis=1))
    if nonpositive:
        raise DomainError(
            f"inner_size={n_prime} is too small: {nonpositive} of {n} observations "
            "had a non-positive componentwise maximum, and eta must be strictly positive"
        )
    meta = {
        "experiment": 2,
        "rho": rho,
        "upsilon": nu,
        "alpha": alpha,
        "n": n,
        "inner_size": n_prime,
    }
    return PairedSample(eta, sizes.max(axis=1), meta)
