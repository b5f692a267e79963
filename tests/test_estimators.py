import json
import multiprocessing
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from randmax.depcore import AlphaScaled, Logistic, astar_points, edge_grid, edge_points
from randmax.errors import DomainError, EstimationError
from randmax import cli, estimators
from randmax.estimators import (
    EULER_MASCHERONI,
    EstimatorPair,
    FitSettings,
    endpoint_correct,
    estimate_alpha,
    fit_pairs,
    gpwm_weights,
    pickands_points,
    pseudo_uniforms,
)
from randmax.harness import Combo, ExperimentConfig, results_csv_text, run_experiment, truth_curve
from randmax.samplers import (
    PairedSample,
    RngStream,
    sample_experiment1,
    sample_experiment2,
)

from oracles import (
    FrechetLaw,
    fit_row,
    madogram_nu,
    oracle_gpwm_alpha,
    oracle_ml_alpha,
    oracle_ranks,
    oracle_row_terms,
    pseudo_angles,
    stack_samples,
)


def _at_point(u, t, pick):
    """Raw estimate of one rank-based estimator at the one simplex point t."""
    return float(pickands_points(u, t[np.newaxis, :], pick)[0][0])


def _mc_check(values, target, factor=3.0):
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - target) <= factor * se, (
        f"mean {values.mean()} vs target {target} (se {se})"
    )


class TestPseudoUniforms:
    def test_ranks_over_n_plus_one(self):
        eta = np.array([[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]])
        u = pseudo_uniforms(eta)
        assert np.allclose(u[:, 0], np.array([3, 1, 2]) / 4.0)
        assert np.allclose(u[:, 1], np.array([1, 3, 2]) / 4.0)

    def test_ties_take_max_rank(self):
        u = pseudo_uniforms(np.array([[1.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert np.allclose(u[:, 0], [0.5, 0.5, 0.75])

    def test_stack_matches_each_sample(self):
        # a (B, n, d) stack divides by n + 1, not by B + 1
        etas = RngStream(10, 7).generator().random((3, 5, 2))
        stacked = pseudo_uniforms(etas)
        assert stacked.max() == 5.0 / 6.0
        for b in range(3):
            assert np.array_equal(stacked[b], pseudo_uniforms(etas[b]))

    def test_stacked_ranks_match_per_column_oracle(self):
        # integer-valued samples tie often, runs of ties included, and
        # continuous ones never; each sample of the stack is ranked as the
        # oracle ranks it alone
        gen = RngStream(10, 6).generator()
        for n, levels in ((2, 2), (7, 3), (50, 6), (51, 40)):
            for eta in (gen.integers(0, levels, (4, n, 3)).astype(float), gen.random((4, n, 3))):
                ranks = estimators._ranks(eta)
                assert ranks.shape == eta.shape
                for b in range(4):
                    assert np.array_equal(ranks[b], oracle_ranks(eta[b]))
                assert np.array_equal(estimators._ranks(eta[0]), oracle_ranks(eta[0]))


class TestAngles:
    def test_vertex_single_term(self):
        s = sample_experiment1(0.5, 0.5, 100, [RngStream(10, 2)])
        u = pseudo_uniforms(s.eta[0])
        th = pseudo_angles(u, np.array([1.0, 0.0]))
        assert np.allclose(th, -np.log(u[:, 0]))

    def test_exponential_angle_identities(self):
        # exact uniform margins: theta(t) is exponential with rate A_alpha(t)
        s = sample_experiment1(0.5, 0.5, 100_000, [RngStream(10, 3)])
        u = np.exp(-s.eta[0] ** -0.5)
        scaled = AlphaScaled(Logistic(0.5), 0.5)
        for t in (np.array([0.5, 0.5]), np.array([0.3, 0.7])):
            a = scaled.values(t[np.newaxis])[0]
            th = pseudo_angles(u, t)
            _mc_check(th, 1.0 / a)
            _mc_check(np.log(th), -np.log(a) - EULER_MASCHERONI)

    def test_complete_dependence_limit(self):
        n = 20_000
        gen = RngStream(10, 4).generator()
        col = gen.random(n)
        u = pseudo_uniforms(np.column_stack([col, col]))
        t = np.array([0.5, 0.5])
        assert _at_point(u, t, "P") == pytest.approx(0.5, abs=5.0 / n * 10)
        assert _at_point(u, t, "CFG") == pytest.approx(0.5, abs=5.0 / n * 10)

    def test_independence_population_value(self):
        gen = RngStream(10, 5).generator()
        u = pseudo_uniforms(gen.random((10_000, 2)))
        t = np.array([0.5, 0.5])
        assert abs(_at_point(u, t, "P") - 1.0) < 0.03
        assert abs(_at_point(u, t, "CFG") - 1.0) < 0.03


class TestMadogram:
    def test_complete_dependence_identity(self):
        gen = RngStream(11, 1).generator()
        col = gen.random(50_000)
        u = np.column_stack([col, col])
        t = np.array([0.5, 0.5])
        assert madogram_nu(u, t) == 0.0  # powered columns coincide row by row
        assert _at_point(u, t, "MD") == pytest.approx(0.5, abs=1e-12)

    def test_independence_identity(self):
        gen = RngStream(11, 2).generator()
        u = gen.random((100_000, 2))
        t = np.array([0.5, 0.5])
        nu = madogram_nu(u, t)
        se = 0.12 / np.sqrt(u.shape[0])
        assert abs(nu - 1.0 / 6.0) < 4.0 * se
        assert abs(_at_point(u, t, "MD") - 1.0) < 0.02

    def test_vanishing_weight_drops_column(self):
        gen = RngStream(11, 3).generator()
        u = gen.random((5_000, 2))
        t = np.array([1.0, 0.0])
        # second column contributes u^(1/0) = 0 everywhere
        nu_manual = np.mean(u[:, 0] - 0.5 * u[:, 0])
        assert madogram_nu(u, t) == pytest.approx(nu_manual, rel=1e-12)


def _oracle_points(u, points, pick):
    """Reference raw estimates (values, flags) at k >= 2 simplex points,
    unchunked and straight from u."""
    coords = np.ascontiguousarray(points.T)
    flags = np.zeros(points.shape[0], dtype=bool)
    if pick == "MD":
        nu = oracle_row_terms(u, coords, "MD").mean(axis=0)
        c = sum(tj / (1.0 + tj) for tj in coords) / u.shape[1]
        return estimators._madogram_ratio(nu, c)
    angles = oracle_row_terms(-np.log(u), coords, "P")
    if pick == "P":
        return 1.0 / angles.mean(axis=0), flags
    return np.exp(-np.log(angles).mean(axis=0) - EULER_MASCHERONI), flags


def _kernel_case(d, n, k, ties):
    """eta of two logistic samples and k simplex points: the grid for d = 2;
    for d = 3 a vertex, an edge midpoint, the barycentre and interior points."""
    gen = RngStream(18, 1000 * d + n).generator()
    etas = [sample_experiment1(0.5, 0.5, n, [gen], d=d).eta[0] for _ in range(2)]
    if ties:
        etas = [np.round(np.log(eta)) for eta in etas]  # a few dozen values per column
    if d == 2:
        points = edge_points(edge_grid(k))
    else:
        corners = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
        points = np.vstack([corners, gen.dirichlet(np.ones(3), k - 3)])
    return etas, points


def _kernel_outputs(etas, points):
    """{pick: [(values, flags) per sample]} from both kernel routes: one call
    per sample on its pseudo-uniforms, and one call gathering all samples
    from the shared rank levels r/(n+1)."""
    n, d = etas[0].shape
    levels = np.broadcast_to((np.arange(1, n + 1) / (n + 1.0))[:, np.newaxis], (n, d))
    index = np.stack([estimators._ranks(eta) - 1 for eta in etas])
    gathered = estimators._curves_at(levels, index, points, ("P", "CFG", "MD"))
    out = {}
    for pick, (values, flags) in gathered.items():
        alone = [pickands_points(pseudo_uniforms(eta), points, pick) for eta in etas]
        out[pick] = alone + list(zip(values, flags))
    return out


class TestKernel:
    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("n", (50, 400))
    @pytest.mark.parametrize("k", (3, 201))
    @pytest.mark.parametrize("ties", (False, True), ids=("distinct", "tied"))
    def test_points_match_oracle(self, d, n, k, ties):
        # the tables hold exactly the values the direct formulas give, built
        # from one sample's pseudo-uniforms or from the shared rank levels
        etas, points = _kernel_case(d, n, k, ties)
        if ties:
            assert all(np.unique(eta[:, 0]).size < n // 2 for eta in etas)
        for pick, results in _kernel_outputs(etas, points).items():
            wants = [_oracle_points(pseudo_uniforms(eta), points, pick) for eta in etas]
            for (values, flags), (want_values, want_flags) in zip(results, wants + wants):
                assert np.array_equal(values, want_values)
                assert np.array_equal(flags, want_flags)

    @pytest.mark.parametrize("chunk_points", (200, 2, 1))
    def test_chunking_leaves_no_one_point_chunk(self, chunk_points, monkeypatch):
        # 201 points in chunks of 200 or 2 would leave the last point alone
        # (a step of 1 is raised to 2); the results must match the unchunked
        # call bit for bit
        etas, points = _kernel_case(2, 400, 201, False)
        whole = _kernel_outputs(etas, points)
        monkeypatch.setattr(estimators, "_GRID_CHUNK_CELLS", chunk_points * 400)
        assert all(
            chunk.stop - chunk.start > 1 for chunk in estimators._point_chunks(400, 201)
        )
        for pick, results in _kernel_outputs(etas, points).items():
            for (values, flags), (want_values, want_flags) in zip(results, whole[pick]):
                assert np.array_equal(values, want_values)
                assert np.array_equal(flags, want_flags)

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("n", (50, 401, 5000))
    @pytest.mark.parametrize("tile_rows", (1, 2, 7))
    def test_row_tiles_carry_every_bit(self, d, n, tile_rows, monkeypatch):
        # one sample's rows in tiles of 1, 2 or 7 rows at all 201 points, the
        # last tile short where n leaves a remainder; the carried column sums
        # must give the untiled means bit for bit
        etas, points = _kernel_case(d, n, 201, False)
        u = pseudo_uniforms(etas[0])
        monkeypatch.setattr(estimators, "_cpu_count", lambda: 1)  # one lane of all 201 points
        monkeypatch.setattr(estimators, "_GRID_CHUNK_CELLS", tile_rows * 201)
        tiles = estimators._row_tiles(n, 201)
        assert [tile.stop - tile.start for tile in tiles[:-1]] == [tile_rows] * (len(tiles) - 1)
        assert tiles[-1].stop - tiles[-1].start == (n % tile_rows or tile_rows)
        curves = estimators._curves_at(u, None, points, estimators.PICK_ESTIMATORS)
        for pick, (values, flags) in curves.items():
            want_values, want_flags = _oracle_points(u, points, pick)
            assert np.array_equal(values[0], want_values)
            assert np.array_equal(flags[0], want_flags)

    def test_one_point_call_stays_one_tile(self, monkeypatch):
        # a one-column sum adds pairwise, so a one-point call is never split,
        # however many rows a tile of a wider call would hold
        n = 5000
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, n, [RngStream(18, 7)]).eta[0])
        t = np.array([0.3, 0.7])
        monkeypatch.setattr(estimators, "_GRID_CHUNK_CELLS", 100)
        assert estimators._row_tiles(n, 1) == [slice(0, n)]
        angles = pseudo_angles(u, t)
        nu = np.mean(oracle_row_terms(u, t[:, np.newaxis], "MD")[:, 0])
        c = np.sum(t / (1.0 + t)) / 2.0
        assert _at_point(u, t, "P") == 1.0 / angles.mean()
        assert _at_point(u, t, "CFG") == np.exp(-np.log(angles).mean() - EULER_MASCHERONI)
        assert _at_point(u, t, "MD") == (nu + c) / (1.0 - nu - c)

    @pytest.mark.parametrize(
        "k, chunk_cells, widths",
        [
            # lane widths at 2 and 3 CPUs; 5 points make at most 2 lanes,
            # and 25,000 cells need smaller pieces to make more than one
            (201, None, ([100, 101], [67, 67, 67])),
            (41, None, ([20, 21], [13, 14, 14])),
            (5, 5000, ([2, 3], [2, 3])),
        ],
    )
    def test_lanes_keep_every_bit(self, k, chunk_cells, widths, monkeypatch):
        # one sample's points split into lanes, each tiled at its own width
        # and run in its own thread, give the bytes of one lane
        n = 5000
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, n, [RngStream(18, 9)]).eta[0])
        points = edge_points(edge_grid(k))
        if chunk_cells is not None:
            monkeypatch.setattr(estimators, "_GRID_CHUNK_CELLS", chunk_cells)
        sum_pieces = estimators._sum_pieces
        ran = []
        barrier = None

        def recording(*args):
            pieces = args[-1]
            ran.append((threading.get_ident(), pieces[0][1]))
            assert all(cols == pieces[0][1] for _, cols in pieces)
            # every lane waits here for all the others, so each runs at once
            # on its own thread; a pool thread reused by a second lane breaks
            # the barrier at its timeout instead of hanging the test
            barrier.wait()
            return sum_pieces(*args)

        monkeypatch.setattr(estimators, "_sum_pieces", recording)
        out = {}
        for cpus, want in zip((1, 2, 3), ([k], *widths)):
            monkeypatch.setattr(estimators, "_cpu_count", lambda: cpus)
            assert [lane.stop - lane.start for lane in estimators._lanes(n, k)] == want
            ran.clear()
            barrier = threading.Barrier(len(want), timeout=10)
            before = threading.active_count()
            curves = estimators._curves_at(u, None, points, estimators.PICK_ESTIMATORS)
            assert threading.active_count() == before
            assert sorted((cols.start, cols.stop) for _, cols in ran) == [
                (lane.start, lane.stop) for lane in estimators._lanes(n, k)
            ]
            assert len({ident for ident, _ in ran}) == len(want)
            out[cpus] = {pick: (v.tobytes(), f.tobytes()) for pick, (v, f) in curves.items()}
        assert out[1] == out[2] == out[3]

    def test_more_lanes_than_cores_keep_every_bit(self, monkeypatch):
        # 8 lanes, switching threads every microsecond: the lanes share the
        # sums arrays, so a write that strayed past a lane's own columns, or
        # a lane left unread, would move bits
        n, k = 5000, 201
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, n, [RngStream(18, 13)]).eta[0])
        points = edge_points(edge_grid(k))

        def kernel_bytes(cpus):
            monkeypatch.setattr(estimators, "_cpu_count", lambda: cpus)
            curves = estimators._curves_at(u, None, points, estimators.PICK_ESTIMATORS)
            return {pick: (v.tobytes(), f.tobytes()) for pick, (v, f) in curves.items()}

        want = kernel_bytes(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert kernel_bytes(8) == want
        finally:
            sys.setswitchinterval(interval)
        assert len(estimators._lanes(n, k)) == 8

    @pytest.mark.parametrize(
        "n, k, chunk_cells",
        # one piece of 60,300 cells; and 3 points, which make one lane of
        # at least 2 points however many pieces the call has
        [(300, 201, None), (5000, 3, 100)],
    )
    def test_narrow_or_small_calls_start_no_thread(self, n, k, chunk_cells, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was made")

        monkeypatch.setattr(estimators, "_cpu_count", lambda: 8)
        monkeypatch.setattr(estimators, "ThreadPoolExecutor", NoPool)
        if chunk_cells is not None:
            monkeypatch.setattr(estimators, "_GRID_CHUNK_CELLS", chunk_cells)
        assert estimators._lanes(n, k) == [slice(0, k)]
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, n, [RngStream(18, 10)]).eta[0])
        points = edge_points(edge_grid(k))
        before = threading.active_count()
        curves = estimators._curves_at(u, None, points, estimators.PICK_ESTIMATORS)
        assert threading.active_count() == before
        for pick, (values, flags) in curves.items():
            want_values, want_flags = _oracle_points(u, points, pick)
            assert np.array_equal(values[0], want_values)
            assert np.array_equal(flags[0], want_flags)

    def test_given_cpus_bound_the_lanes(self, monkeypatch):
        # a fit given one CPU runs one lane in this thread, whatever CPUs
        # the process may use, with the bytes of two lanes
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was made")

        monkeypatch.setattr(estimators, "_cpu_count", lambda: 2)
        one = sample_experiment1(0.5, 0.5, 5000, [RngStream(18, 12)])
        assert len(estimators._lanes(5000, 201)) == 2
        assert estimators._lanes(5000, 201, 1) == [slice(0, 201)]
        two = fit_pairs(one, _SHUFFLED_PAIRS, FitSettings())
        monkeypatch.setattr(estimators, "ThreadPoolExecutor", NoPool)
        alone = fit_pairs(one, _SHUFFLED_PAIRS, FitSettings(), cpus=1)
        for label, fit in two.items():
            assert alone[label].a_star.tobytes() == fit.a_star.tobytes()
            assert alone[label].clamp_mask.tobytes() == fit.clamp_mask.tobytes()

    @pytest.mark.parametrize("failing", (0, 1))
    def test_lane_error_reaches_the_caller(self, failing, monkeypatch):
        # lane 0 runs in the calling thread and lane 1 in the pool; either's
        # error is raised here, after every lane's thread has ended
        class LaneError(Exception):
            pass

        caller = threading.current_thread()
        level_tables = estimators._level_tables

        def failing_tables(*args):
            if (threading.current_thread() is caller) == (failing == 0):
                raise LaneError(f"lane {failing}")
            return level_tables(*args)

        monkeypatch.setattr(estimators, "_cpu_count", lambda: 2)
        monkeypatch.setattr(estimators, "_level_tables", failing_tables)
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, 5000, [RngStream(18, 11)]).eta[0])
        points = edge_points(edge_grid(201))
        assert len(estimators._lanes(5000, 201)) == 2
        before = threading.active_count()
        with pytest.raises(LaneError, match=f"^lane {failing}$"):
            estimators._curves_at(u, None, points, estimators.PICK_ESTIMATORS)
        assert threading.active_count() == before

    def test_pool_sweep_runs_after_lane_split_fits(self, monkeypatch):
        # a lane-split fit leaves no thread behind, so a sweep at jobs=2 in
        # the same process still forks its worker and finishes; its blocks
        # of one sample keep the bytes of the sweep at jobs=1
        monkeypatch.setattr(estimators, "_cpu_count", lambda: 2)
        one = sample_experiment1(0.5, 0.5, 5000, [RngStream(18, 12)])
        assert len(estimators._lanes(5000, 201)) == 2
        before = threading.active_count()
        fit_pairs(one, _SHUFFLED_PAIRS, FitSettings())
        assert threading.active_count() == before
        config = ExperimentConfig(
            experiment=1,
            alphas=(0.5,),
            psis=(0.5,),
            sizes=(5000,),
            replications=2,
            pairs=(EstimatorPair("CFG", "GPWM"), EstimatorPair("MD", "ML")),
            seed=78,
            jobs=2,
        )
        pooled = results_csv_text(run_experiment(config))
        assert multiprocessing.active_children() == []
        assert pooled == results_csv_text(run_experiment(replace(config, jobs=1)))

    def test_one_sample_scratch_does_not_grow_with_n(self, monkeypatch):
        # the tiles bound the scratch of a call whatever n is, at d + 1
        # matrices per lane; one array of 20,000 rows at 201 points alone
        # would take 32 MB
        monkeypatch.setattr(estimators, "_cpu_count", lambda: 2)
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, 20_000, [RngStream(18, 8)]).eta[0])
        points = edge_points(edge_grid(201))
        tracemalloc.start()
        try:
            pickands_points(u, points, "CFG")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @staticmethod
    def _traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample_csv_write_is_formatted_in_row_chunks(self):
        # the text is 1.12 MB; the row strings of the whole sample at once
        # took a peak of 4.67 MB
        sample = sample_experiment1(0.5, 0.5, 20_000, [RngStream(18, 8)])
        assert self._traced_peak(lambda: sample.to_csv(0)) < 3_000_000

    def test_sample_csv_parse_makes_no_object_per_cell(self):
        # one float() per cell of the 1.12 MB text took a peak of 8.87 MB
        text = sample_experiment1(0.5, 0.5, 20_000, [RngStream(18, 8)]).to_csv(0)
        assert len(text) > 1_100_000
        assert self._traced_peak(lambda: PairedSample.from_csv(text)) < 3_500_000

    def test_gathered_scratch_does_not_grow_with_n(self):
        # a gathered block is read in chunks of a few points at all n levels;
        # d + 3 matrices of 20,000 rows at all 201 points would take 160 MB
        n = 20_000
        etas, points = _kernel_case(2, n, 201, False)
        levels = np.broadcast_to((np.arange(1, n + 1) / (n + 1.0))[:, np.newaxis], (n, 2))
        index = np.stack([estimators._ranks(eta) - 1 for eta in etas])
        tracemalloc.start()
        try:
            estimators._curves_at(levels, index, points, estimators.PICK_ESTIMATORS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @pytest.mark.parametrize(
        "row, message",
        [
            ((-0.5, 1.5), "must have nonnegative finite"),
            ((np.nan, 0.5), "must have nonnegative finite"),
            ((0.5, np.inf), "must have nonnegative finite"),
            ((0.5, 0.6), "must sum to 1"),
        ],
        ids=["negative", "nan", "infinite", "sum"],
    )
    def test_points_off_the_simplex_are_rejected(self, row, message):
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, 50, [RngStream(18, 9)]).eta[0])
        points = edge_points(edge_grid(5))
        points[1] = points[3] = row
        for pick in estimators.PICK_ESTIMATORS:
            with pytest.raises(DomainError, match=f"row 1 {message}"):
                pickands_points(u, points, pick)

    @pytest.mark.parametrize(
        "second",
        [(0.5, 1.5), (np.nan, 0.5), (0.0, 0.5), (0.5, 1.0)],
        ids=["above-one", "nan", "zero", "one"],
    )
    def test_data_that_are_not_pseudo_uniforms_are_rejected(self, second):
        # with (0.5, 1.5) in row 1 these rows gave P = 3.82 at (1/2, 1/2),
        # where a Pickands function lies in [1/2, 1]
        u = np.array([(0.2, 0.5), second, (0.9, 0.1)])
        points = edge_points(edge_grid(5))
        for pick in estimators.PICK_ESTIMATORS:
            with pytest.raises(DomainError, match=r"row 1 is not in \(0, 1\)"):
                pickands_points(u, points, pick)

    def test_empty_points_or_data_are_rejected(self):
        u = pseudo_uniforms(sample_experiment1(0.5, 0.5, 50, [RngStream(18, 9)]).eta[0])
        points = edge_points(edge_grid(5))
        for pick in estimators.PICK_ESTIMATORS:
            with pytest.raises(DomainError, match="k >= 1"):
                pickands_points(u, np.empty((0, 2)), pick)
            for data in (np.empty((0, 2)), u[:, 0]):
                with pytest.raises(DomainError, match="n >= 1"):
                    pickands_points(data, points, pick)

    def test_trivariate_complete_dependence_at_barycentre(self):
        # A = max(t) = 1/3 at the barycentre; the madogram terms cancel row by
        # row, while the angle estimators carry their O(1/n) rank bias
        n = 20_000
        col = RngStream(10, 6).generator().random(n)
        u = pseudo_uniforms(np.column_stack([col, col, col]))
        bary = np.full((1, 3), 1.0 / 3.0)
        md, flags = pickands_points(u, bary, "MD")
        assert md[0] == 1.0 / 3.0
        assert not flags.any()
        for pick in ("P", "CFG"):
            assert pickands_points(u, bary, pick)[0][0] == pytest.approx(1.0 / 3.0, abs=10.0 / n)


class TestRankInvariance:
    def test_strictly_increasing_margins_leave_curves_unchanged(self):
        eta = sample_experiment1(0.5, 0.5, 400, [RngStream(12, 1)]).eta[0]
        u1 = pseudo_uniforms(eta)
        transformed = np.column_stack([np.arctan(eta[:, 0]), np.log(eta[:, 1]) * 3.0 + 5.0])
        u2 = pseudo_uniforms(transformed)
        points = edge_points(edge_grid(41))
        for pick in ("P", "CFG", "MD"):
            a, _ = pickands_points(u1, points, pick)
            b, _ = pickands_points(u2, points, pick)
            assert np.array_equal(a, b)


class TestGpwm:
    def test_weights_total_mass(self):
        # sum of the order-statistic weights is the full moment of a unit value
        for n, b in ((7, 4), (25, 5)):
            total = quad(lambda v: v * (-np.log(v)) ** b, 0.0, 1.0, epsabs=1e-13)[0]
            assert gpwm_weights(n, b).sum() == pytest.approx(total, rel=1e-10)

    def test_population_identity_by_quadrature(self):
        for alpha in (0.5, 0.7):
            for k in (4, 5):
                mu = lambda b: quad(
                    lambda v: v * (-np.log(v)) ** (b - 1.0 / alpha),
                    0.0,
                    1.0,
                    epsabs=1e-14,
                    epsrel=1e-13,
                    limit=200,
                )[0]
                assert 1.0 / (k - 2.0 * mu(k) / mu(k - 1)) == pytest.approx(alpha, abs=1e-10)

    def test_plugin_quantile_grid(self):
        law = FrechetLaw(0.5)
        xi = law.quantile((np.arange(10_000) + 0.5) / 10_000)
        assert fit_row(xi, "GPWM", 5) == pytest.approx(0.5, abs=0.002)

    def test_scale_invariance(self):
        xi = sample_experiment1(0.5, 0.7, 2_000, [RngStream(13, 1)]).xi[0]
        assert fit_row(3.7 * xi, "GPWM", 5) == pytest.approx(fit_row(xi, "GPWM", 5), abs=1e-12)

    def test_permutation_invariance(self):
        xi = sample_experiment1(0.5, 0.7, 500, [RngStream(13, 2)]).xi[0]
        gen = RngStream(13, 3).generator()
        assert fit_row(gen.permutation(xi), "GPWM", 5) == fit_row(xi, "GPWM", 5)

    def test_calibration_monte_carlo(self):
        hits = 0
        for trial in range(40):
            xi = sample_experiment1(1.0, 0.7, 10_000, [RngStream(13, 100 + trial)]).xi[0]
            hits += abs(fit_row(xi, "GPWM", 5) - 0.7) < 0.05
        assert hits >= 38

    def test_constant_sample_fails(self):
        with pytest.raises(EstimationError) as err:
            fit_row(np.ones(50), "GPWM", 5)
        assert err.value.stage == "GPWM"

    def test_weights_cached_read_only(self):
        edges = np.arange(51) / 50
        with np.errstate(divide="ignore"):
            reg = special.gammainc(6.0, -2.0 * np.log(edges))
        uncached = np.exp(special.gammaln(6.0)) / 2.0**6 * (reg[:-1] - reg[1:])
        by_int, by_float = gpwm_weights(50, 5), gpwm_weights(50, 5.0)
        assert np.array_equal(by_int, uncached) and np.array_equal(by_float, uncached)
        with pytest.raises(ValueError):
            by_int[0] = 1.0
        assert np.array_equal(gpwm_weights(50, 5), uncached)
        with pytest.raises(DomainError):
            gpwm_weights(0, 5)
        with pytest.raises(DomainError):
            gpwm_weights(50, -1)

    def test_domain(self):
        with pytest.raises(DomainError):
            estimate_alpha(np.array([[1.0, -2.0]]), ("GPWM",), 5)
        # the moment order k >= 2 is a rule of the fit settings, checked once there
        with pytest.raises(DomainError, match="k must be >= 2"):
            FitSettings(k=1)


class TestMl:
    def test_plugin_quantile_grid(self):
        law = FrechetLaw(0.5)
        xi = law.quantile((np.arange(10_000) + 0.5) / 10_000)
        assert fit_row(xi, "ML") == pytest.approx(0.5, abs=0.01)

    def test_score_identity_at_root(self):
        xi = sample_experiment1(0.5, 0.5, 2_000, [RngStream(14, 1)]).xi[0]
        a = fit_row(xi, "ML")
        # mean profile score 1/a - mean(ln x) + sum(x^-a ln x) / sum(x^-a)
        lx = np.log(xi)
        score = 1.0 / a - lx.mean() + np.sum(xi**-a * lx) / np.sum(xi**-a)
        assert abs(score) < 1e-10

    def test_scaled_data_matches_profile_bruteforce(self):
        # scaled data: the root must be the argmax over a fine grid of the
        # profile log-likelihood n ln a + n ln(n / sum x^-a) - (a+1) sum ln x,
        # i.e. the two-parameter Frechet likelihood with the scale maximized out
        law = FrechetLaw(0.5)
        xi = 2.0 * law.quantile((np.arange(2_000) + 0.5) / 2_000)
        n = xi.size
        grid = np.linspace(0.3, 0.9, 6001)
        loglik = [
            n * np.log(a) + n * np.log(n / np.sum(xi**-a)) - (a + 1.0) * np.sum(np.log(xi))
            for a in grid
        ]
        assert fit_row(xi, "ML") == pytest.approx(grid[int(np.argmax(loglik))], abs=2e-4)
        # the fit is scale-free; 2.5e5 = n'^(1/alpha) is the pipeline-2 scale
        # at n' = 500 blocks and alpha = 0.5
        for c in (2.0, 2.5e5):
            assert fit_row(c * xi, "ML") == pytest.approx(fit_row(xi, "ML"), abs=1e-10)

    def test_permutation_invariance(self):
        xi = sample_experiment1(0.5, 0.7, 500, [RngStream(14, 2)]).xi[0]
        gen = RngStream(14, 3).generator()
        assert fit_row(gen.permutation(xi), "ML") == pytest.approx(fit_row(xi, "ML"), abs=1e-12)

    def test_constant_sample_fails(self):
        with pytest.raises(EstimationError):
            fit_row(np.full(20, 3.0), "ML")

    def test_no_root_in_bracket_fails(self):
        with pytest.raises(EstimationError) as err:
            fit_row(np.linspace(1.005, 1.02, 50), "ML")
        assert err.value.stage == "ML"


def _tail_rows():
    """xi rows of one length for the block tail fits, one per kind of outcome."""
    n = 200
    rows = {
        f"pipeline1-{alpha}": sample_experiment1(0.5, alpha, n, [RngStream(23, i)]).xi[0]
        for i, alpha in enumerate((0.3, 0.5, 0.9))
    }
    # of order n'^(1/alpha), n' = 200 blocks
    for i, alpha in enumerate((0.3, 0.7)):
        rows[f"pipeline2-{alpha}"] = sample_experiment2(
            0.5, 1.0, alpha, n, [RngStream(29, i)], n_prime=200
        ).xi[0]
    rows["constant"] = np.full(n, 3.0)
    # one outlier: the GPWM weights of the top order statistic are about
    # n^-(k+1), so at k=5 the moment ratio sees a constant sample, while ML
    # finds a shape near n / ln(e^5) = 40 from the moment-matched start
    rows["gpwm-fails"] = np.r_[np.ones(n - 1), np.exp(5.0)]
    rows["no-sign-change"] = np.linspace(1.005, 1.02, n)
    return rows


def _tail_outcome(fit, *args):
    try:
        return fit(*args)
    except EstimationError as exc:
        return exc


def _same_outcome(got, want):
    if isinstance(want, EstimationError):
        same_stage = isinstance(got, EstimationError) and got.stage == want.stage
        return same_stage and str(got) == str(want)
    return type(got) is float and got == want


@pytest.mark.parametrize("k", [5, 3])
def test_block_tail_fits_match_scalar_oracles(k):
    # the block fits take each row's exact scalar steps: every alpha equals
    # the oracle's bit for bit, every failure is the oracle's error, and a
    # row's result does not depend on the block it is fitted in
    rows = _tail_rows()
    xi = np.stack(list(rows.values()))
    want = {
        "GPWM": [_tail_outcome(oracle_gpwm_alpha, row, k) for row in xi],
        "ML": [_tail_outcome(oracle_ml_alpha, row) for row in xi],
    }
    outcomes = {
        name: tuple(type(want[method][b]).__name__ for method in ("GPWM", "ML"))
        for b, name in enumerate(rows)
    }
    assert outcomes["constant"] == ("EstimationError", "EstimationError")
    # ML starts from the k=5 GPWM fit whatever k is, and here that fit fails
    assert isinstance(_tail_outcome(oracle_gpwm_alpha, rows["gpwm-fails"]), EstimationError)
    assert outcomes["gpwm-fails"] == ("EstimationError" if k == 5 else "float", "float")
    assert outcomes["no-sign-change"] == ("float", "EstimationError")
    assert all(outcomes[name] == ("float", "float") for name in rows if "pipeline" in name)
    order = RngStream(31, k).generator().permutation(len(rows))
    blocks = [
        (np.arange(len(rows)), ("GPWM", "ML")),
        (order, ("ML", "GPWM")),
        (order[:3], ("GPWM", "ML")),
        (order[3:], ("ML",)),
        (order[3:], ("GPWM",)),
    ] + [(np.array([b]), ("ML", "GPWM")) for b in range(len(rows))]
    for index, methods in blocks:
        got = estimate_alpha(xi[index], methods, k)
        assert list(got) == list(methods)
        for method in methods:
            alpha, errors = got[method]
            assert alpha.dtype == np.float64 and alpha.shape == (index.size,)
            assert len(errors) == index.size
            # nan marks exactly the rows whose fit failed
            assert np.isnan(alpha).tolist() == [error is not None for error in errors]
            for b, a, error in zip(index, alpha.tolist(), errors):
                fit = a if error is None else error
                assert _same_outcome(fit, want[method][b]), (list(rows)[b], method, fit)
    for b, row in enumerate(xi):
        assert _same_outcome(_tail_outcome(fit_row, row, "GPWM", k), want["GPWM"][b])
        assert _same_outcome(_tail_outcome(fit_row, row, "ML"), want["ML"][b])


class TestEndpointCorrection:
    def test_exact_curve_unchanged(self):
        w = edge_grid(21)
        vals = Logistic(0.5).curve(w)
        for pick in ("P", "CFG", "MD"):
            assert np.allclose(endpoint_correct(vals, w, pick), vals, atol=1e-15)

    def test_vertex_pinned_to_one(self):
        w = edge_grid(21)
        vals = Logistic(0.5).curve(w) * 1.1  # raw curve with vertex value 1.1
        for pick in ("P", "CFG"):
            corrected = endpoint_correct(vals, w, pick)
            assert corrected[0] == pytest.approx(1.0, rel=1e-12)
            assert corrected[-1] == pytest.approx(1.0, rel=1e-12)

    def test_md_correction_is_identity(self):
        w = edge_grid(21)
        vals = Logistic(0.5).curve(w) * 1.05
        assert np.array_equal(endpoint_correct(vals, w, "MD"), vals)

    def test_md_vertices_exact_by_construction(self):
        s = sample_experiment1(0.5, 0.5, 200, [RngStream(15, 1)])
        u = pseudo_uniforms(s.eta[0])
        vals, flags = pickands_points(u, edge_points(edge_grid(21)), "MD")
        assert vals[0] == pytest.approx(1.0, rel=1e-12)
        assert vals[-1] == pytest.approx(1.0, rel=1e-12)
        assert not flags.any()

    def test_corrected_curves_keep_population_values(self):
        gen = RngStream(15, 2).generator()
        u = pseudo_uniforms(gen.random((10_000, 2)))
        w = edge_grid(41)
        for pick in ("P", "CFG"):
            raw, _ = pickands_points(u, edge_points(w), pick)
            corrected = endpoint_correct(raw, w, pick)
            assert abs(corrected[20] - 1.0) < 0.03


class TestInvertCurve:
    def test_independence_cancellation(self):
        w = edge_grid(41)
        a_alpha = AlphaScaled(Logistic(1.0), 0.7).curve(w)
        astar, mask = astar_points(a_alpha, edge_points(w), 0.7)
        assert np.max(np.abs(astar - 1.0)) < 1e-12
        assert not mask.any()

    def test_clamp_flags(self):
        w = edge_grid(5)
        astar, mask = astar_points(np.full(5, 0.4), edge_points(w), 0.5)
        t1 = (1.0 - w) ** 2.0
        t2 = w**2.0
        lower = np.maximum(t1, t2) / (t1 + t2)
        assert np.all(astar >= lower - 1e-15) and np.all(astar <= 1.0)
        assert mask[1] and mask[2] and mask[3]


def _fit_one(sample, pick, alpha_method, **settings):
    """One pair's composite fit of a one-row sample, a CurveEstimate of one
    row (see fit_pairs)."""
    pair = EstimatorPair(pick, alpha_method)
    return fit_pairs(sample, (pair,), FitSettings(**settings))[pair.label]


class TestComposite:
    def test_failure_carries_stage(self):
        s = sample_experiment1(0.5, 0.5, 50, [RngStream(16, 1)])
        s.xi[:] = 1.0
        (err,) = _fit_one(s, "CFG", "GPWM").errors
        assert isinstance(err, EstimationError)
        assert err.stage == "GPWM"

    def test_alpha_clamp_path(self):
        # light-tailed xi sends the tail estimate past 1; composite must still run
        s = sample_experiment1(0.5, 0.5, 500, [RngStream(16, 2)])
        light = FrechetLaw(3.0).quantile((np.arange(500) + 0.5) / 500)
        s.xi[:] = light
        est = _fit_one(s, "CFG", "ML")
        assert est.alpha_clamped[0]
        assert est.alpha_raw[0] > 1.0
        assert est.alpha_hat[0] == pytest.approx(1.0 - 1e-6)
        assert np.all(np.isfinite(est.a_star[0]))

    def test_consistency_fixed_seed(self):
        combo = Combo(1, 0.5, 0.5, float("nan"), 4_000)
        truth = truth_curve(combo, edge_grid(201))
        s = sample_experiment1(0.5, 0.5, 4_000, [RngStream(16, 3)])
        for pick in ("P", "CFG", "MD"):
            est = _fit_one(s, pick, "GPWM")
            assert np.max(np.abs(est.a_star[0] - truth)) < 0.05

    def test_base_curve_recovery(self):
        s = sample_experiment1(0.5, 0.5, 4_000, [RngStream(16, 4)])
        est = _fit_one(s, "CFG", "GPWM")
        base = Logistic(0.5).curve(est.w)
        assert np.max(np.abs(est.a_base(0) - base)) < 0.05
        assert est.a_base(0)[0] == pytest.approx(1.0, abs=1e-9)

    def test_csv_round_trip_schema(self):
        s = sample_experiment1(0.5, 0.5, 100, [RngStream(16, 5)])
        est = _fit_one(s, "MD", "GPWM", grid_size=5)
        lines = est.to_csv(0).strip().split("\n")
        assert lines[0] == "t,A_alpha_hat,A_star_hat,A_hat,alpha_hat,estimator_pair,corrected,clamped"
        assert len(lines) == 6
        cells = lines[1].split(",")
        assert cells[5] == "MD-GPWM" and cells[6] == "1"

    def test_grid_size_validation(self):
        with pytest.raises(DomainError):
            FitSettings(grid_size=200)
        with pytest.raises(DomainError):
            EstimatorPair("X", "GPWM")

    @pytest.mark.parametrize(
        "settings, field",
        [(dict(k=2.5), "k"), (dict(k=5.0), "k"), (dict(grid_size=5.5), "grid_size")],
    )
    def test_non_integer_settings_rejected(self, settings, field):
        # k=2.5 fitted at k=2 and grid_size=5.5 on a 5-node grid
        with pytest.raises(DomainError, match=rf"^{field} must be an integer"):
            FitSettings(**settings)

    def test_numpy_integer_settings_accepted(self):
        assert FitSettings(k=np.int64(3), grid_size=np.int32(21)).k == 3

    @pytest.mark.parametrize("corrected", ["no", 0, 1, None])
    def test_non_bool_corrected_rejected(self, corrected):
        # "no" is truthy: it fitted with the vertex corrections, and to_csv failed
        with pytest.raises(DomainError, match=r"^corrected must be a bool"):
            FitSettings(corrected=corrected)

    def test_numpy_bool_corrected_accepted(self):
        assert not FitSettings(corrected=np.bool_(False)).corrected


# all six pairs, deliberately not in the canonical order
_SHUFFLED_PAIRS = tuple(
    EstimatorPair(pick, method)
    for pick, method in (
        ("MD", "ML"),
        ("CFG", "GPWM"),
        ("P", "ML"),
        ("MD", "GPWM"),
        ("P", "GPWM"),
        ("CFG", "ML"),
    )
)


def _public_route(sample, pair, config):
    """One composite fit through the public per-pick functions."""
    w = edge_grid(config.grid_size)
    points = edge_points(w)
    values, md_flags = pickands_points(pseudo_uniforms(sample.eta[0]), points, pair.pick)
    if config.corrected:
        values = endpoint_correct(values, w, pair.pick)
    try:
        alpha_raw = fit_row(sample.xi[0], pair.alpha_method, config.k)
    except EstimationError as exc:
        return exc
    # an estimate >= 1 is clamped to 1 - 1e-6 and flagged
    alpha_clamped = alpha_raw >= 1.0
    alpha_hat = 1.0 - 1e-6 if alpha_clamped else alpha_raw
    a_star, clamp_mask = astar_points(values, points, alpha_hat)
    return values, a_star, clamp_mask | md_flags, alpha_hat, alpha_raw, alpha_clamped


@pytest.mark.parametrize(
    "n, grid_size, corrected, chunk_cells",
    [(n, g, c, None) for n in (50, 400) for g in (3, 201) for c in (True, False)]
    # 350 cells: the one sample goes through 50 one-row tiles at 201 points
    + [(50, 201, c, 7 * 50) for c in (True, False)],
)
def test_fit_pairs_matches_public_route(n, grid_size, corrected, chunk_cells, monkeypatch):
    # fit_pairs shares the angle matrix, the simplex points and one inverse
    # transform per tail method across pairs; none of that may move a bit.
    # The xi column is also replaced by a light-tailed one (alpha clamped)
    # and a constant one (both tail fits fail).
    config = FitSettings(grid_size=grid_size, corrected=corrected)
    sample = sample_experiment1(0.5, 0.5, n, [RngStream(17, n)])
    light = FrechetLaw(3.0).quantile((np.arange(n) + 0.5) / n)
    for xi in (sample.xi.copy(), light, np.ones(n)):
        sample.xi[:] = xi
        expected = [_public_route(sample, pair, config) for pair in _SHUFFLED_PAIRS]
        with monkeypatch.context() as patch:
            if chunk_cells is not None:
                patch.setattr(estimators, "_GRID_CHUNK_CELLS", chunk_cells)
            fits = fit_pairs(sample, _SHUFFLED_PAIRS, config)
        assert list(fits) == [pair.label for pair in _SHUFFLED_PAIRS]
        for pair, want in zip(_SHUFFLED_PAIRS, expected):
            got = fits[pair.label]
            if isinstance(want, EstimationError):
                (error,) = got.errors
                assert isinstance(error, EstimationError)
                assert (error.stage, str(error)) == (want.stage, str(want))
                continue
            a_alpha, a_star, clamp_mask, alpha_hat, alpha_raw, alpha_clamped = want
            assert got.errors == (None,)
            assert np.array_equal(got.a_alpha[0], a_alpha)
            assert np.array_equal(got.a_star[0], a_star)
            assert np.array_equal(got.clamp_mask[0], clamp_mask)
            assert got.alpha_hat[0] == alpha_hat and got.alpha_raw[0] == alpha_raw
            assert got.alpha_clamped[0] == alpha_clamped
            assert (got.pair, got.corrected) == (pair, corrected)


@pytest.mark.parametrize(
    "grid_size, corrected, chunk_cells",
    # 350 cells: the batch takes 7 points per chunk at n = 50 (29 chunks, the
    # last one short), each sample alone 50 one-row tiles
    [(201, True, None), (3, False, None), (201, True, 7 * 50), (201, False, 7 * 50)],
)
def test_batched_fit_pairs_matches_one_sample_calls(
    grid_size, corrected, chunk_cells, monkeypatch
):
    # one kernel call, one endpoint correction and one inverse transform per
    # tail method serve the whole batch; each sample must come out as it does
    # alone, also with a light-tailed xi (alpha clamped) and a constant xi
    # (both tail fits fail) in the batch
    if chunk_cells is not None:
        monkeypatch.setattr(estimators, "_GRID_CHUNK_CELLS", chunk_cells)
    config = FitSettings(grid_size=grid_size, corrected=corrected)
    samples = [
        sample_experiment1(psi, 0.5, 50, [RngStream(19, i)])
        for i, psi in enumerate((0.2, 0.5, 0.9, 0.5, 1.0))
    ]
    samples[1].xi[:] = FrechetLaw(3.0).quantile((np.arange(50) + 0.5) / 50)
    samples[3].xi[:] = 1.0
    batched = fit_pairs(stack_samples(samples), _SHUFFLED_PAIRS, config)
    assert all(len(got.errors) == len(samples) for got in batched.values())
    outcomes = set()
    for b, sample in enumerate(samples):
        alone = fit_pairs(sample, _SHUFFLED_PAIRS, config)
        assert list(batched) == list(alone)
        for label, got in batched.items():
            want = alone[label]
            if want.errors[0] is not None:
                error, want_error = got.errors[b], want.errors[0]
                assert isinstance(error, EstimationError)
                assert (error.stage, str(error)) == (want_error.stage, str(want_error))
                outcomes.add("failed")
                continue
            assert got.errors[b] is None
            assert np.array_equal(got.w, want.w)
            for name in ("a_alpha", "a_star", "clamp_mask"):
                assert np.array_equal(getattr(got, name)[b], getattr(want, name)[0])
            for name in ("alpha_hat", "alpha_raw", "alpha_clamped"):
                assert getattr(got, name)[b] == getattr(want, name)[0]
            assert got.pair == want.pair
            assert got.corrected == corrected
            assert got.alpha_hat.dtype == want.alpha_hat.dtype
            outcomes.add("clamped" if got.alpha_clamped[b] else "fitted")
    assert outcomes == {"failed", "clamped", "fitted"}


def test_fit_pairs_rejects_mixed_shapes():
    a = sample_experiment1(0.5, 0.5, 50, [RngStream(19, 10)])
    b = sample_experiment1(0.5, 0.5, 60, [RngStream(19, 11)])
    with pytest.raises(DomainError):
        fit_pairs(stack_samples((a, b)), _SHUFFLED_PAIRS, FitSettings())
    with pytest.raises(DomainError):
        fit_pairs(stack_samples(()), _SHUFFLED_PAIRS, FitSettings())


def test_failing_row_inside_a_block():
    # one row of a drawn block has a constant xi: both tail fits of that row
    # fail, naming their stage, and every other row keeps the bits of its
    # own one-sample fit, tail estimates, curves and masks alike
    streams = [RngStream(20, i) for i in range(5)]
    block = sample_experiment1(0.5, 0.5, 50, streams)
    block.xi[2] = 1.0
    fits = fit_pairs(block, _SHUFFLED_PAIRS, FitSettings())
    for pair in _SHUFFLED_PAIRS:
        fit = fits[pair.label]
        assert fit.ok.tolist() == [True, True, False, True, True]
        error = fit.errors[2]
        assert isinstance(error, EstimationError) and error.stage == pair.alpha_method
    for b in (0, 1, 3, 4):
        one = PairedSample(block.eta[b : b + 1], block.xi[b : b + 1])
        alone = fit_pairs(one, _SHUFFLED_PAIRS, FitSettings())
        for label, fit in fits.items():
            want = alone[label]
            for name in ("a_alpha", "a_star", "clamp_mask", "alpha_hat", "alpha_raw"):
                assert getattr(fit, name)[b].tobytes() == getattr(want, name)[0].tobytes()
            assert fit.alpha_clamped[b] == want.alpha_clamped[0]


def test_row_reads_match_the_cli_fit_of_each_sample(tmp_path, monkeypatch):
    # the row reads of a block fit with a failing row in the middle: every
    # other row b gives the CSV bytes, base curve and clamp count that
    # `randmax estimate` gives its sample, which it fits as a one-row sample
    streams = [RngStream(20, i) for i in range(5)]
    block = sample_experiment1(0.5, 0.5, 50, streams)
    block.xi[2] = 1.0
    fits = fit_pairs(block, _SHUFFLED_PAIRS, FitSettings())
    assert all(isinstance(fit.errors[2], EstimationError) for fit in fits.values())
    pairs = [{"pick": pair.pick, "alpha": pair.alpha_method} for pair in _SHUFFLED_PAIRS]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"estimate": {"pairs": pairs}}), encoding="utf-8")
    seen = []

    def recording(*args):
        seen.append(fit_pairs(*args))
        return seen[-1]

    monkeypatch.setattr(cli, "fit_pairs", recording)
    for b in range(len(block)):
        sample = tmp_path / f"sample_{b}.csv"
        sample.write_text(block.to_csv(b), encoding="utf-8")
        out = tmp_path / f"out_{b}"
        args = ["estimate", "--config", str(config), "--input", str(sample), "--out", str(out)]
        code = cli.main(args)
        if b == 2:
            assert code == cli.EXIT_ESTIMATION and not out.exists()
            continue
        assert code == cli.EXIT_OK
        alone = seen[-1]
        for label, fit in fits.items():
            assert len(alone[label].errors) == 1
            written = (out / f"estimate_{label}.csv").read_bytes()
            assert fit.to_csv(b).encode("utf-8") == written
            assert fit.a_base(b).tobytes() == alone[label].a_base(0).tobytes()
            assert fit.n_clamped[b] == alone[label].n_clamped[0]
            meta = (out / f"estimate_{label}.csv.meta").read_text(encoding="utf-8")
            assert f"clamped_nodes={fit.n_clamped[b]}\n" in meta
            assert f"alpha_hat={fit.alpha_hat[b].item()!r}\n" in meta
