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

Samples: both pipelines take a sequence of such streams and draw one
sample per stream, stacked into a PairedSample of eta (B, n, d) and xi
(B, n); one stream gives a one-row sample, and a lone stream or an empty
sequence is refused. In pipeline 1 each stream makes its draws in turn
(the exponentials of Z, then the uniforms and exponentials of S_psi when
psi < 1, then those of S_alpha), and the arithmetic then runs once on the
stacked draws. Every step of that arithmetic is elementwise, or a max over
the d coordinates, so a stream's sample has the same bits whichever
streams it is drawn beside.

In pipeline 2 a stream draws its (n, n_prime) block sizes, then scans its n
observations' pooled t-rows top-down, one observation after another: each
batch of k rows draws random(k) levels, then random(k) angles, and the scan
of nearly every observation stops after its first batch of _BATCH_ROWS
rows. For a run of observations that all draw a full first batch and stop
there, gen.random((m, 2, _BATCH_ROWS)) is those same draws in the same
order, so the run is scanned in lockstep as (m, _BATCH_ROWS) arrays, with
elementwise arithmetic and maxima along each row. An observation with fewer
than _BATCH_ROWS rows, or whose scan does not stop after its first batch
(or whose radii overflow), breaks that order for the observations after
it. Such an observation falls back: the generator is set back to its state
before the batch, the uniforms of the observations before it are drawn
again, and it is scanned alone, batch after batch, by the same batch scan
at m = 1; the lockstep then resumes after it. So every sample, and every
generator's next draw, has the bits of the one-observation-at-a-time scan.

No function here reads or writes a file: PairedSample.to_csv(b) returns
the text of row b and PairedSample.from_csv parses text into a one-row
sample, and the CLI does the I/O.
Parameter domains belong to depcore: a sampler checks psi and d by building
Logistic(psi, dim=d) and rho and upsilon by building ExtremalT(rho, upsilon),
the models it samples, and alpha with check_tail_index. The count rules
n >= 2 and n_prime >= 1 are check_sample_size and check_inner_size, which
harness.ExperimentConfig calls too.
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .depcore import ExtremalT, Logistic, check_tail_index
from .errors import DomainError, InputParseError, as_integer

__all__ = [
    "RngStream",
    "PairedSample",
    "sample_positive_stable",
    "sample_logistic_maxstable",
    "sample_experiment1",
    "sample_pareto_block_size",
    "sample_experiment2",
    "check_sample_size",
    "check_inner_size",
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


def _check_rngs(rngs):
    """Refuse a lone stream, or none, where a sampler takes a sequence of
    RngStreams or running Generators, one per sample."""
    if isinstance(rngs, (RngStream, np.random.Generator)):
        name = type(rngs).__name__
        raise DomainError(f"rngs must be a sequence of streams, one per sample, got one {name}")
    if len(rngs) == 0:
        raise DomainError("rngs must hold at least one stream")


def check_sample_size(name, n):
    """n as an int, for the sample size named `name`: every pipeline draws
    n >= 2 observations, the fewest a rank or a tail fit can use."""
    n = as_integer(name, n)
    if n < 2:
        raise DomainError(f"sample size must be >= 2, got {n!r}")
    return n


def check_inner_size(name, n_prime):
    """n_prime as an int, for pipeline 2's count of blocks per observation
    named `name`, which must be >= 1."""
    n_prime = as_integer(name, n_prime)
    if n_prime < 1:
        raise DomainError(f"inner replication count must be >= 1, got {n_prime!r}")
    return n_prime


@dataclass
class PairedSample:
    """B paired samples of one shape, stacked: eta (B, n, d) with positive
    entries and xi (B, n), with B >= 1, n >= 2 and d >= 2.

    Row b is one sample of n observations: eta[b] holds the
    componentwise-maxima vectors, xi[b] the scalar derived from the block
    sizes (pipeline 2) or the row maximum (pipeline 1). meta keeps the
    generating parameters the samples share.
    """

    eta: np.ndarray
    xi: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        _check_pairs(self.eta, self.xi)

    def __len__(self):
        return self.xi.shape[0]

    def to_csv(self, b):
        """The CSV text of row b: the header `eta_1,...,eta_d,xi`, then one
        row per observation. The caller writes it; this module touches no
        file.

        Each cell is repr() of the Python float, the shortest text that reads
        back to the same bits; cells are joined by "," and every row, the last
        too, ends in "\\n". The rows are formatted _CSV_CHUNK_ROWS at a time,
        column by column from tolist() of that chunk, and the chunk strings
        are joined once at the end, so no more than one chunk's floats and
        row strings are alive beside the text.
        """
        n, d = self.eta.shape[1:]
        header = ",".join(f"eta_{j + 1}" for j in range(d)) + ",xi"
        parts = [header, "\n"]
        for start in range(0, n, _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            eta, xi = self.eta[b, rows].T.tolist(), self.xi[b, rows].tolist()
            columns = [map(repr, column) for column in (*eta, xi)]
            parts += ("\n".join(map(",".join, zip(*columns))), "\n")
        return "".join(parts)

    @classmethod
    def from_csv(cls, text):
        """The one-row sample of the text to_csv writes, with InputParseError
        naming the line. The caller reads the file; lines are split on "\\n"
        only.

        Lines are stripped of surrounding whitespace (so CRLF endings pass)
        and blank ones are skipped, though still counted in line numbers.
        Cells may carry spaces; float() reads each one. Errors, in order:
        a bad header (line 1); then the first line in file order that has
        the wrong number of columns or a cell float() cannot read; then fewer
        than 2 rows (line 2); then the first row with a value PairedSample
        rejects, eta before xi.

        After the header, numpy's C reader (np.loadtxt) parses the rows in
        chunks of about _CSV_CHUNK_CHARS characters, each cut after a "\\n",
        so no Python object is made per cell and no copy of the whole text.
        It strips whitespace around a cell as float() does, refuses a cell
        that is then not ASCII, and converts it with PyOS_string_to_double,
        the routine float() uses on ASCII text, so every value keeps the bits
        float() gives. Text with the separators \\x1c to \\x1f, whitespace to
        the reader but not to float(), is not tried. When the reader refuses a
        chunk, a chunk has no row or other than d + 1 columns, or the values
        break a PairedSample rule, the whole text goes to the line walk of
        _parse_lines, one pass that reads the cells of each nonblank line by
        float() into one flat list and stops at the first bad line. That walk
        stays: it reads what float() reads and the C reader does not
        (whitespace-only lines, `_` digit separators, non-ASCII digits, lone
        CR), and it names the failing line of every error above.
        """
        end = text.find("\n")
        header = (text if end < 0 else text[:end]).strip()
        cols = header.split(",") if header else []
        if len(cols) < 3 or cols[-1] != "xi" or any(
            c != f"eta_{j + 1}" for j, c in enumerate(cols[:-1])
        ):
            raise InputParseError(f"bad header {header!r}, expected eta_1,...,eta_d,xi", line=1)
        d = len(cols) - 1
        table = _read_rows(text, end + 1, d) if end >= 0 else None
        if table is not None:
            try:
                return cls(table[np.newaxis, :, :-1].copy(), table[np.newaxis, :, -1].copy())
            except DomainError:
                pass
        return cls._parse_lines(text, d)

    @classmethod
    def _parse_lines(cls, text, d):
        """from_csv's line walk, after the header is checked: one pass over
        the nonblank lines, one float() per cell, and every error names its
        line."""
        values, linenos = [], []
        for lineno, line in enumerate(text.split("\n")[1:], start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != d + 1:
                raise InputParseError(f"expected {d + 1} columns, got {len(cells)}", line=lineno)
            try:
                values.extend(map(float, cells))
            except ValueError as exc:
                raise InputParseError(str(exc), line=lineno) from None
            linenos.append(lineno)
        if len(linenos) < 2:
            raise InputParseError("need at least 2 data rows", line=2)
        table = np.array(values).reshape(len(linenos), d + 1)
        eta, xi = table[:, :-1].copy(), table[:, -1].copy()
        try:
            return cls(eta[np.newaxis], xi[np.newaxis])
        except DomainError as exc:
            # name the first row that breaks the rule reported; eta is checked first
            bad = ~np.all(np.isfinite(eta) & (eta > 0.0), axis=1)
            if not bad.any():
                bad = ~(np.isfinite(xi) & (xi > 0.0))
            raise InputParseError(str(exc), line=linenos[int(np.argmax(bad))]) from None


#: rows PairedSample.to_csv formats at a time
_CSV_CHUNK_ROWS = 2048

#: characters of sample text one np.loadtxt call reads, rounded up to a line end
_CSV_CHUNK_CHARS = 1 << 15

#: ASCII characters the C reader strips around a cell and float() does not
_READER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _read_rows(text, start, d):
    """The (rows, d + 1) table of text[start:] by numpy's C reader, chunk by
    chunk, or None where from_csv must walk the lines instead."""
    if any(c in text for c in _READER_ONLY_SPACE):
        return None
    blocks = []
    while start < len(text):
        stop = text.find("\n", start + _CSV_CHUNK_CHARS - 1) + 1 or len(text)
        chunk = text[start:stop]
        start = stop
        # a chunk of blank lines has no row, and np.loadtxt would warn on it
        if chunk.isspace():
            return None
        try:
            block = np.loadtxt(io.StringIO(chunk), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
        if block.shape[1] != d + 1:
            return None
        blocks.append(block)
    return np.concatenate(blocks) if blocks else None


def _check_pairs(eta, xi):
    """The rules of a paired sample on eta (B, n, d) and xi (B, n)."""
    if eta.ndim != 3 or eta.size == 0 or eta.shape[1] < 2 or eta.shape[2] < 2:
        raise DomainError("eta must be a (B, n, d) stack of B >= 1 samples with n >= 2, d >= 2")
    if xi.shape != eta.shape[:-1]:
        raise DomainError("xi must have one entry per eta row")
    if not (np.all(np.isfinite(eta)) and np.all(eta > 0.0)):
        raise DomainError("eta entries must be finite and strictly positive")
    if not (np.all(np.isfinite(xi)) and np.all(xi > 0.0)):
        raise DomainError("xi entries must be finite and strictly positive")


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


def sample_experiment1(psi, alpha, n, rngs, d=2):
    """Pipeline 1: one sample of n draws of (eta, xi) from the scaled
    logistic construction per entry of `rngs` (RngStreams or running
    Generators), stacked in a PairedSample in the order of `rngs`.

    Z is logistic(psi) max-stable with unit-Frechet margins, S is positive
    alpha-stable independent of Z, eta = S * Z (componentwise) and
    xi = max_j eta_j. eta then has alpha-Frechet margins and the
    alpha-scaled logistic dependence; xi is alpha-Frechet up to scale.
    A stream's sample does not depend on the streams beside it (see
    "Samples" in the module docstring).
    """
    d = as_integer("d", d)
    Logistic(psi, dim=d)
    check_tail_index(alpha)
    n = check_sample_size("n", n)
    _check_rngs(rngs)
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
    return PairedSample(eta, eta.max(axis=-1), meta)


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


#: rows drawn per batch of the top-down scan (see _scan_batch)
_BATCH_ROWS = 64


def _scan_batch(gen, left, level, maxima, rho, nu):
    """One batch of the top-down scan of m observations' pooled t-rows, as
    (m, k) arrays: the next k rows of each, with left (m,) the rows each has
    not scanned yet and k = min(_BATCH_ROWS, min(left)); the callers keep
    k = min(_BATCH_ROWS, left) for every observation.

    Rows are generated in the exact elliptical form x = A (r cos phi, r sin phi)
    with AA' the correlation matrix, the squared radius q having the
    closed-form survival (1 + q/nu)^(-nu/2). The survival levels are drawn as
    uniform order statistics from the smallest up (Devroye 1986, V.3): with
    N rows, V uniform and L_k = log(1 - U_(k)), L_(k+1) = L_k + log(V)/(N - k),
    so the radii come largest first. One gen.random((m, 2, k)) call draws
    each observation's k levels, then its k angles, one observation after
    another. level (m,) holds L of each observation's last row and maxima
    (m, 2) its running componentwise maxima; both are updated in place.
    Returns the radii (m, k), largest first, which overflow to inf for
    heavy tails at small upsilon.
    """
    k = int(min(_BATCH_ROWS, np.min(left)))
    u = gen.random((len(left), 2, k))
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.log(1.0 - u[:, 0]) / (left[:, np.newaxis] - np.arange(k))
        logs = level[:, np.newaxis] + np.cumsum(steps, axis=1)
        level[:] = logs[:, -1]
        log_u = np.log(-np.expm1(logs))
        r = np.sqrt(-nu * np.expm1(2.0 * log_u / nu)) * np.exp(-log_u / nu)
        phi = (2.0 * np.pi) * u[:, 1]
        y1 = r * np.cos(phi)
        y2 = rho * y1 + np.sqrt(1.0 - rho**2) * (r * np.sin(phi))
        np.maximum(maxima[:, 0], y1.max(axis=1), out=maxima[:, 0])
        np.maximum(maxima[:, 1], y2.max(axis=1), out=maxima[:, 1])
    return r


def _scan_one(gen, total, rho, nu):
    """Componentwise maxima (2,) of `total` iid bivariate-t rows, a float:
    _scan_batch at m = 1, batch after batch. Both rows of A have unit norm,
    so once a radius falls below the smaller running maximum no later row
    can move either maximum and the scan stops; its cost therefore does not
    grow with `total`."""
    level, maxima = np.zeros(1), np.full((1, 2), -np.inf)
    done = 0
    while done < total:
        r = _scan_batch(gen, np.array([total - done]), level, maxima, rho, nu)
        if not np.isfinite(r[0, 0]):
            raise DomainError(f"t-row radii overflow float64 for {total:g} rows at upsilon={nu!r}")
        done += r.shape[1]
        if r[0, -1] < maxima.min():
            break
    return maxima[0]


def _pooled_t_maxima(gen, totals, rho, nu):
    """Componentwise maxima (m, 2) of totals[i] iid bivariate-t rows for each
    of a sample's m observations, with the draws _scan_one makes for them
    one observation after another (see "Samples" in the module docstring).

    The observations run in lockstep: one _scan_batch over each run of
    observations with at least _BATCH_ROWS rows. An observation whose scan
    does not stop after that batch, or whose radii overflow, is finished
    alone, after the generator is set back to the state it had before the
    batch and the kept observations' uniforms are drawn again; so is one
    with fewer than _BATCH_ROWS rows. The lockstep resumes after it.
    """
    m = len(totals)
    maxima = np.empty((m, 2))
    i = 0
    while i < m:
        # observations i..j-1 each start with a full batch
        j = i + int(np.argmax(np.append(totals[i:], 0.0) < _BATCH_ROWS))
        if j > i:
            state = gen.bit_generator.state
            left = totals[i:j]
            block = np.full((j - i, 2), -np.inf)
            r = _scan_batch(gen, left, np.zeros(j - i), block, rho, nu)
            stopped = (left <= _BATCH_ROWS) | (r[:, -1] < block.min(axis=1))
            ok = stopped & np.isfinite(r[:, 0])
            kept = j - i if ok.all() else int(np.argmin(ok))
            maxima[i : i + kept] = block[:kept]
            if kept < j - i:
                # the next draws are observation i + kept's second batch
                gen.bit_generator.state = state
                gen.random((kept, 2, _BATCH_ROWS))
            i += kept
        if i < m:
            maxima[i] = _scan_one(gen, totals[i], rho, nu)
            i += 1
    return maxima


def sample_experiment2(rho, nu, alpha, n, rngs, n_prime=500):
    """Pipeline 2: one sample of n draws of (eta, xi) from the
    domain-of-attraction scheme per entry of `rngs` (RngStreams or running
    Generators), stacked in a PairedSample in the order of `rngs`.

    Per observation, n_prime independent blocks are formed: block k has a
    heavy-tailed Pareto(alpha) size N_k and holds N_k bivariate Student-t
    rows; xi = max_k N_k and eta is the componentwise maximum over all rows
    of all blocks. Block sizes are not truncated, and sizes, their totals or
    t-row radii that overflow float64 raise DomainError. Each stream draws
    its sample in turn, and a sample whose draws raise stops the call with
    that sample's error.
    """
    ExtremalT(rho, nu)
    check_tail_index(alpha)
    n = check_sample_size("n", n)
    n_prime = check_inner_size("n_prime", n_prime)
    _check_rngs(rngs)
    eta = np.empty((len(rngs), n, 2))
    xi = np.empty((len(rngs), n))
    for b, rng in enumerate(rngs):
        gen = _gen(rng)
        sizes = sample_pareto_block_size(alpha, gen, (n, n_prime))
        with np.errstate(over="ignore"):
            totals = sizes.sum(axis=1)
        if not np.all(np.isfinite(totals)):
            raise DomainError(f"block-size totals overflow float64 at tail index alpha={alpha!r}")
        eta[b] = _pooled_t_maxima(gen, totals, rho, nu)
        xi[b] = sizes.max(axis=1)
        nonpositive = np.count_nonzero(~np.all(eta[b] > 0.0, axis=1))
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
    return PairedSample(eta, xi, meta)
