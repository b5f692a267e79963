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
(level, simplex point) pair. fit_pairs fits a PairedBlock, a (B, n, d)
stack of same-shape samples, in one call: _ranks ranks the whole stack
along its sample axis in one pass, the one curve kernel _curves_at
tabulates the levels per coordinate once for all B samples, and each
sample gathers the rows of its ranks and reduces its terms to column sums.
The transcendental functions are thus paid once per block rather than once
per sample, and the (B, k) column sums become curves in one step. A block
of one sample skips the gather: its own pseudo-uniforms are the levels, so
its terms are the table rows themselves. Either way the terms are reduced
exactly as the direct formulas would be, so the tables change no bit of
any estimate. The fits come back per pair as one CurveEstimate of arrays
over the block's rows, and a caller reads row b in place: the CLI reads
row 0 of its block of one sample, and the harness all rows at once. No
function here touches a file: CurveEstimate.to_csv(b) returns row b's
text, and the CLI writes it.

Tiles: the kernel is one loop over pieces, each a (row slice, point slice)
pair of about _GRID_CHUNK_CELLS cells, and every table and term matrix of
a lane (see "Lanes") lives in one scratch array sized from its largest
piece. A gathered block is cut into chunks of points at all n levels, as
its B samples all read the same tables. One sample is cut into tiles of
rows at all points of a lane (318 rows at 201 points, so 16 tiles at n =
5000 in one lane): at n = 10^4 a chunk of points would be only 6 points
wide, and a six-pair fit of one such sample took a median of 82 ms in
those chunks against 43 ms in tiles of rows (15 calls on a 2-core Xeon,
numpy 2.4). A tile's terms are reduced into running column sums, carried
from tile to tile in row order: the sums so far are added into the tile's
first row, and the tile is then reduced over axis 0. An axis-0 reduction
of a C-contiguous matrix with at least two columns adds row by row, so the
carried sum is the very sum one reduction over all n rows gives, and the
mean is that sum divided by n; no bit of any estimate moves. A one-column
reduction adds pairwise instead, so a one-point call is never split into
tiles, and no chunk of points has one point (see _point_chunks).

Lanes: one sample's k points are cut into contiguous lanes, each tiled at
its own width and run in its own thread, so the kernel uses every CPU the
process may run on. There are max(1, min(CPUs, k // 2, n k //
_GRID_CHUNK_CELLS)) lanes: each is at least two points wide, for the
reason above, and has at least one piece of cells, so a call of one piece
stays in one thread. Lane 0 runs in the calling thread and the others in
a thread pool made and shut down inside the call, so no thread outlives
it and a process pool never forks with a live lane; numpy drops the GIL
in the loops over each piece's cells. Since a column's sum is the same
whatever columns share its matrix, a lane's points get the bits they get
in one lane of all k. At n = 10^4 on 2 cores, the kernel for P, CFG and
MD took a median of 32 ms in one lane and 20 ms in two. A gathered block
keeps one lane: its per-sample gathers hold the GIL, and a split of its
points was slower (8.9 against 7.6 ms at n = 200, B = 25). The scratch
is d + 1 matrices per lane for one sample (1.5 MB for d = 2, so 3 MB at
two lanes) and d + 3 for a gathered block, whatever n is: tracemalloc
puts one pickands_points call at 201 points and n = 20,000 at a 1.7 MB
peak in one lane, and a gathered call on two such samples at 2.9 MB.

Tail fits: estimate_alpha fits the xi rows of a whole block of samples in
one vectorised pass per method, and one sample is a block of one row. Each
method's fit is the pair (alpha, errors) a CurveEstimate stores as
alpha_raw and errors: a (B,) array, nan on a failed row, and per row None
or the EstimationError of its failure. GPWM sorts the (B, n) matrix along
its rows and takes both moments as row dot products. ML runs its
safeguarded Newton iteration on the vector of rows still iterating, each
row taking exactly the steps it would take alone. The GPWM fit at k=5
starts every row's ML iteration, whatever k the GPWM pairs use, so a block
computes it once for both. A row's fit has the same bits in any block
because each row goes through the same floating-point operations in the
same order: np.vecdot (or a stacked matmul) of a row equals the 1-D dot,
and a row-wise sum, mean or variance equals the 1-D one, while a
matrix-vector product (gemv) or einsum sums in another order and moves
bits. Python's float a ** 2 calls C pow(), which rounds differently from
a * a and from numpy's power, so the ML derivative squares each row's
shape as a Python float.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy import special

from .depcore import as_simplex_rows, astar_points, edge_grid, edge_points, power_points
from .errors import DomainError, EstimationError, as_integer

__all__ = [
    "EULER_MASCHERONI",
    "pseudo_uniforms",
    "pickands_points",
    "endpoint_correct",
    "estimate_alpha",
    "gpwm_weights",
    "EstimatorPair",
    "FitSettings",
    "CurveEstimate",
    "fit_pairs",
]

EULER_MASCHERONI = 0.5772156649015329

PICK_ESTIMATORS = ("P", "CFG", "MD")
ALPHA_ESTIMATORS = ("GPWM", "ML")


def _check_picks(*picks):
    """Reject the first of `picks` that is not a dependence estimator."""
    for pick in picks:
        if pick not in PICK_ESTIMATORS:
            raise DomainError(f"unknown dependence estimator {pick!r}")


def _check_tail_methods(*methods):
    """Reject the first of `methods` that is not a tail estimator."""
    for method in methods:
        if method not in ALPHA_ESTIMATORS:
            raise DomainError(f"unknown tail estimator {method!r}")


def _ranks(eta):
    """Ranks 1..n along the sample axis of an (..., n, d) stack, every column
    of every sample at once (max rank under ties).

    Each column becomes one row of a lane matrix, which is sorted once and
    scattered back by fancy indexing; the result is a view of that matrix
    with the stack's shape.
    """
    n, d = eta.shape[-2:]
    lanes = np.swapaxes(eta, -1, -2).reshape(-1, n)
    rows = np.arange(len(lanes))[:, np.newaxis]
    order = lanes.argsort(axis=1)
    ordered = lanes[rows, order]
    # a sorted position's max rank is one past the last position holding its
    # value: mark positions followed by a tie past n, then take the running
    # minimum from the end
    ends = np.arange(1, n + 1)[np.newaxis].repeat(len(lanes), axis=0)
    ends[:, :-1][ordered[:, 1:] == ordered[:, :-1]] = n + 1
    ends = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(lanes.shape, dtype=np.intp)
    ranks[rows, order] = ends
    return np.swapaxes(ranks.reshape(*eta.shape[:-2], d, n), -1, -2)


def pseudo_uniforms(eta):
    """Per-column pseudo-uniforms rank/(n+1) (max rank under ties) of a
    sample (n, d) or of each sample of a stack (..., n, d)."""
    eta = np.asarray(eta, dtype=float)
    return _ranks(eta) / (eta.shape[-2] + 1.0)


# ---------------------------------------------------------------------------
# The curve kernel: all three estimators at an array of simplex points
# ---------------------------------------------------------------------------

#: (row, point) cells per piece of the curve kernel (about 0.5 MB a matrix,
#: whatever n is): one sample is read in tiles of rows at all points of a
#: lane, a gathered block in chunks of points at all n levels; see "Tiles"
#: and "Lanes" in the module docstring. Any size keeps every bit, as no
#: tile splits a one-point call and no chunk or lane has one point.
_GRID_CHUNK_CELLS = 64_000


def _level_tables(levels, coords, pick, out):
    """Fill one (L, k) table out[j] per coordinate row j of coords (d, k), over
    the L rows of the (L, d) level matrix.

    For P and CFG, the entries in column j are the angle terms
    -ln(level) / t_j; for MD, they are the powers level^(1/t_j). A
    coordinate with t_j = 0 drops out of the terms: its angle is +inf since
    -ln(level) > 0, and its power is 0.
    """
    with np.errstate(divide="ignore"):
        if pick == "MD":
            for j, tj in enumerate(coords):
                np.power(levels[:, j : j + 1], np.where(tj > 0.0, 1.0 / tj, np.inf), out=out[j])
        else:
            neg_log = -np.log(levels)
            for j, tj in enumerate(coords):
                np.divide(neg_log[:, j : j + 1], tj, out=out[j])


def _rank_terms(tables, index, pick, work):
    """Per-row terms (n, k) of one sample: the pseudo-angles, i.e. min over j
    of the angle terms (P and CFG both reduce this one matrix), or the
    madogram summands max_j v_ij - (1/d) sum_j v_ij of the powers v (MD).

    Row i of coordinate j reads table row index[i, j]; the gathered terms
    go to work[0] and work[1], and the MD row sums to work[-1]. With index
    None the tables were built from the sample's own pseudo-uniforms, so
    row i is table row i; they are then used once and reduced in place.
    """
    acc = total = None
    for j, table in enumerate(tables):
        if index is None:
            term = table
        else:
            # ranks - 1 always index a row; "clip" spares the bounds check,
            # which would copy through a temporary buffer
            term = table.take(index[:, j], axis=0, out=work[min(j, 1)], mode="clip")
        if acc is None:
            acc = total = term
        elif pick == "MD":
            total = np.add(total, term, out=work[-1])
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


def _madogram_offset(coords):
    """The constant c of the madogram ratio at the points of coords (d, k)."""
    return sum(tj / (1.0 + tj) for tj in coords) / len(coords)


def _angle_curve(pick, mean):
    """P or CFG from the column means of the pseudo-angles or of their logs."""
    return 1.0 / mean if pick == "P" else np.exp(-mean - EULER_MASCHERONI)


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


def _row_tiles(n, k):
    """Slices of the n rows of one sample with about _GRID_CHUNK_CELLS
    (row, point) cells each at k points. A one-point call stays one tile: a
    one-column sum adds pairwise, so it cannot be carried across tiles."""
    step = max(1, n if k == 1 else _GRID_CHUNK_CELLS // k)
    return [slice(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]


def _cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lanes(n, k):
    """Contiguous slices of the k points of one sample, one per lane of the
    kernel: as many lanes as the CPUs this process may use, no lane narrower
    than two points (see _point_chunks) and none with fewer than about
    _GRID_CHUNK_CELLS cells, so a call of one piece stays in one thread."""
    lanes = max(1, min(_cpu_count(), k // 2, n * k // _GRID_CHUNK_CELLS))
    bounds = [k * i // lanes for i in range(lanes + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _sum_pieces(levels, samples, coords, groups, spare, sums, pieces):
    """Reduce the terms of `pieces`, (row slice, point slice) pairs, into the
    running column sums of each pick and sample, in a scratch array of this
    call sized from its largest piece."""
    d = len(coords)
    size = max((rows.stop - rows.start) * (cols.stop - cols.start) for rows, cols in pieces)
    scratch = np.empty((d + spare, size))
    for rows, cols in pieces:
        shape = (d + spare, rows.stop - rows.start, cols.stop - cols.start)
        buffers = scratch[:, : shape[1] * shape[2]].reshape(shape)
        tables, work = buffers[:d], buffers[d:]
        for kind, group in groups:
            if not group:
                continue
            _level_tables(levels[rows], coords[:, cols], kind, tables)
            for b, sample_index in enumerate(samples):
                terms = _rank_terms(tables, sample_index, kind, work)
                for pick in group:
                    summands = np.log(terms, out=work[-1]) if pick == "CFG" else terms
                    if rows.start:
                        np.add(sums[pick][b, cols], summands[0], out=summands[0])
                    sums[pick][b, cols] = np.add.reduce(summands, axis=0)


def _curves_at(levels, index, points, picks):
    """Raw estimates of several rank-based estimators at k simplex points,
    for B samples of one shape.

    levels is an (n, d) matrix of the values the pseudo-uniforms take, per
    coordinate, and index (B, n, d) gives the level row of each entry of
    each sample. With index None, levels is the one sample's (n, d) matrix
    of pseudo-uniforms itself, so nothing needs gathering. Returns
    {pick: (values, flags)} of shape (B, k) for the picks given; flags marks
    points whose madogram denominator was not positive.

    The call runs over pieces, each a (row slice, point slice) pair: a
    gathered block's chunks of points at all n levels (see _point_chunks),
    or one sample's tiles of rows (see _row_tiles), each lane of its points
    (see _lanes) tiled on its own. In each piece the angle tables, then the
    power tables, are built once, and every sample reduces its terms into
    its running column sums of those points; a piece that does not start at
    row 0 first adds the sums so far into its first term row (see "Tiles"
    in the module docstring). Each lane has one scratch array for its
    tables and term matrices, allocated from its largest piece and reused
    by every piece. Lane 0 runs in this thread and the others in a thread
    pool that lives only as long as the call; their columns are disjoint,
    and an error in any lane is raised here once every lane has stopped.
    The (B, k) sums are turned into curves once, at the end.
    """
    _check_picks(*picks)
    n, d = levels.shape if index is None else index.shape[1:]
    k = points.shape[0]
    # contiguous coordinate rows keep the table arithmetic on fast loops
    coords = np.ascontiguousarray(points.T)
    if index is None:
        samples, spare = [None], 1  # one work matrix: the MD row sums and the CFG logs
        lanes = [
            [(rows, cols) for rows in _row_tiles(n, cols.stop - cols.start)] for cols in _lanes(n, k)
        ]
    else:
        samples, spare = index, 3  # two more take the gathered terms
        lanes = [[(slice(0, n), cols) for cols in _point_chunks(n, k)]]
    sums = {pick: np.empty((len(samples), k)) for pick in picks}
    # the logs of CFG come first: the P carry then changes the first row of angles
    groups = [("P", [pick for pick in ("CFG", "P") if pick in picks])]
    groups.append(("MD", ["MD"] if "MD" in picks else []))
    run = partial(_sum_pieces, levels, samples, coords, groups, spare, sums)
    if len(lanes) == 1:
        run(lanes[0])
    else:
        # numpy drops the GIL in the loops over a piece's cells
        with ThreadPoolExecutor(len(lanes) - 1) as pool:
            others = [pool.submit(run, lane) for lane in lanes[1:]]
            run(lanes[0])
            for future in others:
                future.result()
    out = {}
    for pick in picks:
        if pick == "MD":
            out[pick] = _madogram_ratio(sums[pick] / n, _madogram_offset(coords))
        else:
            values = _angle_curve(pick, sums[pick] / n)
            out[pick] = values, np.zeros(values.shape, dtype=bool)
    return out


def pickands_points(u, points, pick):
    """Raw (uncorrected) estimates of one rank-based estimator at k simplex points.

    u is the (n, d) matrix of pseudo-uniforms, points a (k, d) array of
    k >= 1 simplex points; a row of u with an entry outside (0, 1), or a
    row of points off the simplex, is rejected. Returns (values, flags)
    where flags marks points whose madogram denominator was not positive
    (always False for P and CFG). This is the one-sample, one-pick call of
    the kernel fit_pairs uses.
    """
    u = np.asarray(u, dtype=float)
    points = np.asarray(points, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1:
        raise DomainError(f"need an (n, d) matrix of n >= 1 pseudo-uniforms, not {u.shape}")
    bad = np.flatnonzero(~np.all((u > 0.0) & (u < 1.0), axis=1))  # nan fails both
    if bad.size:
        raise DomainError(f"pseudo-uniform row {bad[0]} is not in (0, 1): {u[bad[0]].tolist()!r}")
    if points.ndim != 2 or points.shape[1] != u.shape[1]:
        raise DomainError("simplex points must be a (k, d) array matching the data")
    values, flags = _curves_at(u, None, as_simplex_rows(points), (pick,))[pick]
    return values[0], flags[0]


def endpoint_correct(values, w, pick):
    """Vertex-pinning corrections so the corrected curve equals 1 at w = 0, 1.

    values holds one curve on w, or a stack (..., k) of them. P corrects on
    the reciprocal scale, CFG on the log scale; the madogram estimator is
    already exact at the vertices under the rank/(n+1) convention, so its
    correction is the identity.
    """
    _check_picks(pick)
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
    if as_integer("n", n) < 1 or b < 0:
        raise DomainError("need n >= 1 and b >= 0")
    return _gpwm_weights_cached(int(n), float(b))


@lru_cache(maxsize=64)
def _gpwm_weights_cached(n, b):
    edges = np.arange(n + 1) / n
    with np.errstate(divide="ignore"):
        args = -2.0 * np.log(edges)
    reg = special.gammainc(b + 1.0, args)
    scale = np.exp(special.gammaln(b + 1.0)) / 2.0 ** (b + 1)
    weights = scale * (reg[:-1] - reg[1:])
    weights.flags.writeable = False
    return weights


def estimate_alpha(xi, methods, k):
    """Tail-index fits of every row of the (B, n) matrix xi by each of the
    named methods, GPWM at moment order k >= 2 (FitSettings holds that rule).

    Returns {method: (alpha, errors)}: alpha is the (B,) float64 array of
    the estimates, nan on a failed row, and errors the tuple of None or,
    on a failed row, its EstimationError. The GPWM fit at k=5 is computed
    once and serves both as the GPWM estimate when k is 5 and as the start
    of every row's ML iteration, whatever k is. Each row's result is the
    same whatever block it is fitted in.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] < 2:
        raise DomainError("xi must be a (B, n) matrix of rows with at least 2 entries")
    _check_tail_methods(*methods)
    if not (np.all(np.isfinite(xi)) and np.all(xi > 0.0)):
        raise DomainError("xi entries must be finite and positive")
    k = int(k)
    x = np.sort(xi, axis=1)
    gpwm = {order: _gpwm_rows(x, order) for order in {5 if m == "ML" else k for m in methods}}
    return {m: gpwm[k] if m == "GPWM" else _ml_rows(xi, gpwm[5][0]) for m in methods}


def _gpwm_rows(x, k):
    """GPWM estimates of the Frechet shape, (alpha, errors) over the rows of
    the row-sorted (B, n) matrix x (see estimate_alpha):

        alpha_hat = (k - 2 mu_{1,k} / mu_{1,k-1})^(-1),

    with the moments evaluated exactly from the order statistics (see
    gpwm_weights). The ratio is scale-free. For the Frechet quantile
    H^{-1}(v) = (-ln v)^(-1/alpha) the integrand of mu_{1,b} is
    v (-ln v)^(b - 1/alpha), finite only for alpha > 1/(b+1). The moment
    mu_{1,k-1} thus requires alpha > 1/k; below that the top order statistic
    dominates the ratio and the estimate tends to 1/k.
    """
    n = x.shape[1]
    mu_hi = np.vecdot(x, gpwm_weights(n, k))
    mu_lo = np.vecdot(x, gpwm_weights(n, k - 1))
    denom = k - 2.0 * mu_hi / mu_lo
    # the denominator is 1/alpha; at or below rounding level the data carry
    # no tail information (a constant sample lands exactly at zero)
    failed = denom <= 1e-9
    errors = [None] * len(denom)
    for b in np.flatnonzero(failed).tolist():
        message = f"moment ratio gave vanishing shape denominator {denom[b].item()!r}"
        errors[b] = EstimationError(message, stage="GPWM")
    return np.divide(1.0, denom, out=np.full(denom.shape, np.nan), where=~failed), tuple(errors)


def _ml_profile_score(alpha, d, mean_d, with_deriv=False):
    """Mean profile score of the two-parameter Frechet likelihood at shape a,

        1/a - mean(ln x) + sum(x^-a ln x) / sum(x^-a),

    per row of the log-excess d (and its row means) at that row's shape in
    the vector alpha: the derivative per observation of the log-likelihood
    once the scale is profiled out through sigma^a = n / sum(x^-a). It is
    strictly decreasing in the shape; with_deriv also returns its derivative
    -1/a^2 - (weighted variance of d).

    The log-excess d_i = ln x_i - min_j ln x_j >= 0 carries all the score
    needs: weighting with x^-a relative to min x gives weights exp(-a d_i)
    in (0, 1], the largest equal to 1, so the sums can neither overflow nor
    vanish whatever the scale of xi.
    """
    wts = np.exp(-alpha[:, np.newaxis] * d)
    total = wts.sum(axis=1)
    m1 = np.vecdot(wts, d) / total
    score = 1.0 / alpha - mean_d + m1
    if not with_deriv:
        return score
    m2 = np.vecdot(wts, d * d) / total
    # a ** 2 on a Python float is C pow(), which rounds differently from
    # a * a (and from numpy's power) about once in 1,200 draws
    square = np.array([a**2 for a in alpha.tolist()])
    return score, -1.0 / square - (m2 - m1 * m1)


_ML_BRACKET = (1e-3, 50.0)
#: the Newton iteration stops at |mean score| <= _ML_TOL or after _ML_MAX_STEPS
_ML_TOL = 1e-12
_ML_MAX_STEPS = 200


def _ml_rows(xi, start):
    """Maximum-likelihood Frechet shapes with the scale profiled out,
    (alpha, errors) over the rows of the (B, n) matrix xi (see
    estimate_alpha): the roots of the profile score (see _ml_profile_score),
    so the estimate is invariant under rescaling xi. Newton iteration
    safeguarded with bisection on the bracket [1e-3, 50] starts from the
    GPWM estimates `start` (B,) of the same rows (or, where start is nan,
    from the moment match pi / sqrt(6 var(ln xi))) and stops at |mean score|
    <= 1e-12 or after 200 steps; the returned root satisfies |mean score|
    <= 1e-10. Newton steps run on the rows still iterating, each row taking
    exactly the steps it would take alone.
    """
    alpha = np.full(xi.shape[0], np.nan)
    errors = [None] * xi.shape[0]
    lx = np.log(xi)
    d = lx - lx.min(axis=1, keepdims=True)
    mean_d = d.mean(axis=1)
    lo, hi = _ML_BRACKET
    s_lo = _ml_profile_score(np.full(len(alpha), lo), d, mean_d)
    s_hi = _ml_profile_score(np.full(len(alpha), hi), d, mean_d)
    equal = np.all(xi == xi[:, :1], axis=1)
    bracketed = (s_lo > 0.0) & (s_hi < 0.0)
    for b in np.flatnonzero(equal | ~bracketed).tolist():
        errors[b] = EstimationError(
            "all xi values are equal; shape is unidentified"
            if equal[b]
            else f"score has no sign change on [{lo}, {hi}] "
            f"(score({lo}) = {float(s_lo[b])!r}, score({hi}) = {float(s_hi[b])!r})",
            stage="ML",
        )
    rows = np.flatnonzero(bracketed & ~equal)
    d, mean_d = d[rows], mean_d[rows]
    a = start[rows]
    # ln x is Gumbel with scale 1/a: where GPWM failed, moment match its spread
    guess = np.isnan(a)
    a[guess] = np.pi / np.sqrt(6.0 * d[guess].var(axis=1))
    a = np.clip(a, lo, hi)
    lo, hi = np.full(rows.size, lo), np.full(rows.size, hi)
    s, ds = _ml_profile_score(a, d, mean_d, with_deriv=True)
    for _ in range(_ML_MAX_STEPS):
        done = np.abs(s) <= _ML_TOL
        if done.any():
            alpha[rows[done]] = a[done]
            rows, a, lo, hi, s, ds, d, mean_d = (
                v[~done] for v in (rows, a, lo, hi, s, ds, d, mean_d)
            )
        if not rows.size:
            break
        up = s > 0.0
        lo = np.where(up, a, lo)
        hi = np.where(up, hi, a)
        candidate = a - s / ds
        a = np.where((lo < candidate) & (candidate < hi), candidate, 0.5 * (lo + hi))
        s, ds = _ml_profile_score(a, d, mean_d, with_deriv=True)
    stalled = np.abs(s) > 1e-10
    alpha[rows[~stalled]] = a[~stalled]
    for b, score in zip(rows[stalled].tolist(), np.abs(s[stalled]).tolist()):
        errors[b] = EstimationError(f"score iteration stalled at |score| = {score!r}", stage="ML")
    return alpha, tuple(errors)


# ---------------------------------------------------------------------------
# Composite estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorPair:
    """A dependence-curve estimator in {P, CFG, MD} paired with a tail
    estimator in {GPWM, ML}."""

    pick: str
    alpha_method: str

    def __post_init__(self):
        _check_picks(self.pick)
        _check_tail_methods(self.alpha_method)

    @property
    def label(self):
        return f"{self.pick}-{self.alpha_method}"


@dataclass(frozen=True)
class FitSettings:
    """Settings shared by every pair of a composite fit: the GPWM moment
    order k, the number of grid nodes on the edge coordinate, and whether
    the vertex corrections apply."""

    k: int = 5
    grid_size: int = 201
    corrected: bool = True

    def __post_init__(self):
        if not isinstance(self.corrected, (bool, np.bool_)):
            raise DomainError(f"corrected must be a bool, got {self.corrected!r}")
        if as_integer("k", self.k) < 2:
            raise DomainError(f"GPWM moment order k must be >= 2, got {self.k!r}")
        grid_size = as_integer("grid_size", self.grid_size)
        if grid_size < 3 or grid_size % 2 == 0:
            raise DomainError("grid size must be an odd integer >= 3 so w = 1/2 is a node")


@dataclass
class CurveEstimate:
    """The composite fits of one EstimatorPair, `pair`, to a block of B
    samples, as arrays whose row b belongs to sample b: the estimated
    dependence curves of the scaled data a_alpha and their inverse transforms
    a_star (B, k), the tail estimates alpha_hat and alpha_raw (B,) that tied
    them together, the alpha_clamped flags (B,), the node clamp masks (B, k),
    and per row None or the EstimationError of its failed tail fit. A failed
    row has nan tail estimates, a nan a_star and no node flag."""

    w: np.ndarray
    pair: EstimatorPair
    corrected: bool
    a_alpha: np.ndarray
    a_star: np.ndarray
    alpha_hat: np.ndarray
    alpha_raw: np.ndarray
    alpha_clamped: np.ndarray
    clamp_mask: np.ndarray
    errors: tuple

    @property
    def ok(self):
        """The mask (B,) of the rows whose fit succeeded."""
        return np.array([error is None for error in self.errors], dtype=bool)

    @property
    def n_clamped(self):
        """The number of clamped nodes of each row, (B,)."""
        return np.count_nonzero(self.clamp_mask, axis=1)

    def a_base(self, b):
        """Row b's base curve, read off its a_star at the reparametrized
        coordinates."""
        inner, _ = power_points(edge_points(self.w), self.alpha_hat[b])
        return np.interp(inner[:, 1], self.w, self.a_star[b])

    def to_csv(self, b):
        """Row b's CSV text, for the caller to write: one row per grid node,
        the curves as repr() of each Python float, then the columns that are
        the same on every row, then the node's clamp flag as 0 or 1; every
        row ends in "\\n"."""
        header = "t,A_alpha_hat,A_star_hat,A_hat,alpha_hat,estimator_pair,corrected,clamped"
        curves = (self.w, self.a_alpha[b], self.a_star[b], self.a_base(b))
        columns = [map(repr, curve.tolist()) for curve in curves]
        fixed = f"{self.alpha_hat[b].item()!r},{self.pair.label},{int(self.corrected)}"
        flags = ["1" if clamped else "0" for clamped in self.clamp_mask[b].tolist()]
        rows = "\n".join(map(",".join, zip(*columns, [fixed] * len(flags), flags)))
        return f"{header}\n{rows}\n"


def fit_pairs(block, pairs, settings):
    """Fit several composite estimators to every sample of a PairedBlock.

    `block` stacks B samples of one shape (n, 2), `pairs` names the
    EstimatorPairs to fit and `settings` the FitSettings they share. The
    block is ranked in one pass, and the curves of the scaled data of all
    picks and samples come from one _curves_at call, which builds its level
    tables once for all samples and reads them in chunks of points; a block
    of one sample tabulates its own pseudo-uniforms instead, which needs no
    gather, and reads them in tiles of rows, its points split into lanes
    that run in threads on every CPU (see "Lanes" in the module docstring).
    The xi rows are fitted in one estimate_alpha call, one vectorised pass
    per tail method whose (alpha, errors) pair becomes the alpha_raw and
    errors of every CurveEstimate of that method, and one inverse scaling
    transform per method inverts the stacked curves of its pairs and
    samples, each at its own clamped tail estimate.

    Returns {pair label: CurveEstimate}, with labels in the order of
    `pairs` and one row per sample of the block. A row whose tail fit
    failed carries that fit's EstimationError in `errors`, which names the
    failing stage.
    """
    n, d = block.eta.shape[1:]
    if d != 2:
        raise DomainError("composite estimation is implemented for dimension 2 only")
    w = edge_grid(settings.grid_size)
    points = edge_points(w)
    if len(block) == 1:
        # the sample's own pseudo-uniforms serve as the tables' levels
        levels, index = pseudo_uniforms(block.eta[0]), None
    else:
        # ranks 1..n index the n levels r/(n+1), shared by every coordinate
        levels = np.broadcast_to((np.arange(1, n + 1) / (n + 1.0))[:, np.newaxis], (n, d))
        index = _ranks(block.eta) - 1
    curves = _curves_at(levels, index, points, tuple(dict.fromkeys(pair.pick for pair in pairs)))
    if settings.corrected:
        curves = {
            pick: (endpoint_correct(values, w, pick), md_flags)
            for pick, (values, md_flags) in curves.items()
        }
    fits = {}
    methods = tuple(dict.fromkeys(pair.alpha_method for pair in pairs))
    tails = estimate_alpha(block.xi, methods, settings.k)
    for method in methods:
        own = [pair for pair in dict.fromkeys(pairs) if pair.alpha_method == method]
        alpha_raw, errors = tails[method]
        # the inverse transform needs alpha < 1; the flag keeps the clamp visible
        alpha_clamped = alpha_raw >= 1.0
        alpha_hat = np.where(alpha_clamped, 1.0 - 1e-6, alpha_raw)
        stacked = np.stack([curves[pair.pick][0] for pair in own])
        # a failed row's nan alpha gives a nan a_star, and the row carries no flag
        a_star, clamp_mask = astar_points(stacked, points, alpha_hat)
        kept = ~np.isnan(alpha_raw)[:, np.newaxis]
        for i, pair in enumerate(own):
            values, md_flags = curves[pair.pick]
            fits[pair] = CurveEstimate(
                w=w,
                pair=pair,
                corrected=settings.corrected,
                a_alpha=values,
                a_star=a_star[i],
                alpha_hat=alpha_hat,
                alpha_raw=alpha_raw,
                alpha_clamped=alpha_clamped,
                clamp_mask=(clamp_mask[i] | md_flags) & kept,
                errors=errors,
            )
    return {pair.label: fits[pair] for pair in pairs}
