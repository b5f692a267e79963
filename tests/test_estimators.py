import io

import numpy as np
import pytest
from scipy.integrate import quad

from randmax.depcore import AlphaScaled, Logistic, edge_grid, edge_points
from randmax.errors import DomainError, EstimationError
from randmax import estimators
from randmax.estimators import (
    EULER_MASCHERONI,
    CompositeConfig,
    CurveEstimate,
    EmpiricalMargins,
    EstimatorPair,
    clamp_alpha,
    composite_estimate,
    endpoint_correct,
    estimate_alpha,
    fit_pairs,
    gpwm_alpha,
    gpwm_weights,
    invert_curve,
    madogram_nu,
    ml_alpha,
    ml_score,
    pickands_angles,
    pickands_cfg,
    pickands_curve_raw,
    pickands_md,
    pickands_p,
    pickands_points,
    pseudo_uniforms,
)
from randmax.harness import Combo, truth_curve
from randmax.samplers import RngStream, sample_experiment1
from randmax.specfun import FrechetLaw, ln_gamma, regularized_lower_gamma


def _mc_check(values, target, factor=3.0):
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - target) <= factor * se, (
        f"mean {values.mean()} vs target {target} (se {se})"
    )


class TestEmpiricalMargins:
    def test_step_function_values(self):
        s = sample_experiment1(0.5, 0.5, 40, RngStream(10, 1))
        em = EmpiricalMargins.from_sample(s)
        grid = np.linspace(0.0, s.eta[:, 0].max() * 1.5, 200)
        vals = em.eta_cdf(0, grid)
        assert np.all(np.isin(np.round(vals * em.n), np.arange(em.n + 1)))
        assert np.all(np.diff(vals) >= 0.0)
        # right-continuity: value at a sample point includes it
        x0 = s.eta[0, 0]
        assert em.eta_cdf(0, x0) == em.eta_cdf(0, x0 + 1e-12)
        assert em.xi_cdf(s.xi.max()) == 1.0


class TestPseudoUniforms:
    def test_ranks_over_n_plus_one(self):
        eta = np.array([[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]])
        u = pseudo_uniforms(eta)
        assert np.allclose(u[:, 0], np.array([3, 1, 2]) / 4.0)
        assert np.allclose(u[:, 1], np.array([1, 3, 2]) / 4.0)

    def test_ties_take_max_rank(self):
        u = pseudo_uniforms(np.array([[1.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert np.allclose(u[:, 0], [0.5, 0.5, 0.75])


class TestAngles:
    def test_vertex_single_term(self):
        s = sample_experiment1(0.5, 0.5, 100, RngStream(10, 2))
        u = pseudo_uniforms(s.eta)
        th = pickands_angles(u, np.array([1.0, 0.0]))
        assert np.allclose(th, -np.log(u[:, 0]))

    def test_exponential_angle_identities(self):
        # exact uniform margins: theta(t) is exponential with rate A_alpha(t)
        s = sample_experiment1(0.5, 0.5, 100_000, RngStream(10, 3))
        u = np.exp(-s.eta ** -0.5)
        scaled = AlphaScaled(Logistic(0.5), 0.5)
        for t in (np.array([0.5, 0.5]), np.array([0.3, 0.7])):
            a = scaled.pickands(t)
            th = pickands_angles(u, t)
            _mc_check(th, 1.0 / a)
            _mc_check(np.log(th), -np.log(a) - EULER_MASCHERONI)

    def test_complete_dependence_limit(self):
        n = 20_000
        gen = RngStream(10, 4).generator()
        col = gen.random(n)
        u = pseudo_uniforms(np.column_stack([col, col]))
        t = np.array([0.5, 0.5])
        assert pickands_p(u, t) == pytest.approx(0.5, abs=5.0 / n * 10)
        assert pickands_cfg(u, t) == pytest.approx(0.5, abs=5.0 / n * 10)

    def test_independence_population_value(self):
        gen = RngStream(10, 5).generator()
        u = pseudo_uniforms(gen.random((10_000, 2)))
        t = np.array([0.5, 0.5])
        assert abs(pickands_p(u, t) - 1.0) < 0.03
        assert abs(pickands_cfg(u, t) - 1.0) < 0.03


class TestMadogram:
    def test_complete_dependence_identity(self):
        gen = RngStream(11, 1).generator()
        col = gen.random(50_000)
        u = np.column_stack([col, col])
        t = np.array([0.5, 0.5])
        assert madogram_nu(u, t) == 0.0  # powered columns coincide row by row
        assert pickands_md(u, t) == pytest.approx(0.5, abs=1e-12)

    def test_independence_identity(self):
        gen = RngStream(11, 2).generator()
        u = gen.random((100_000, 2))
        t = np.array([0.5, 0.5])
        nu = madogram_nu(u, t)
        se = 0.12 / np.sqrt(u.shape[0])
        assert abs(nu - 1.0 / 6.0) < 4.0 * se
        assert abs(pickands_md(u, t) - 1.0) < 0.02

    def test_vanishing_weight_drops_column(self):
        gen = RngStream(11, 3).generator()
        u = gen.random((5_000, 2))
        t = np.array([1.0, 0.0])
        # second column contributes u^(1/0) = 0 everywhere
        nu_manual = np.mean(u[:, 0] - 0.5 * u[:, 0])
        assert madogram_nu(u, t) == pytest.approx(nu_manual, rel=1e-12)

    def test_dim_factor_variant_fails_population_checks(self):
        # without the 1/d factor the complete-dependence value is not 1/2
        gen = RngStream(11, 4).generator()
        col = gen.random(20_000)
        u = np.column_stack([col, col])
        t = np.array([0.5, 0.5])
        assert abs(pickands_md(u, t, dim_factor=False) - 0.5) > 0.4


def _oracle_row_terms(data, coords, pick):
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


def _oracle_points(u, points, pick):
    """Reference raw estimates (values, flags) at k >= 2 simplex points,
    unchunked and straight from u."""
    coords = np.ascontiguousarray(points.T)
    flags = np.zeros(points.shape[0], dtype=bool)
    if pick == "MD":
        nu = _oracle_row_terms(u, coords, "MD").mean(axis=0)
        c = sum(tj / (1.0 + tj) for tj in coords) / u.shape[1]
        return estimators._madogram_ratio(nu, c)
    angles = _oracle_row_terms(-np.log(u), coords, "P")
    if pick == "P":
        return 1.0 / angles.mean(axis=0), flags
    return np.exp(-np.log(angles).mean(axis=0) - EULER_MASCHERONI), flags


def _kernel_case(d, n, k, ties):
    """eta of two logistic samples and k simplex points: the grid for d = 2;
    for d = 3 a vertex, an edge midpoint, the barycentre and interior points."""
    gen = RngStream(18, 1000 * d + n).generator()
    etas = [sample_experiment1(0.5, 0.5, n, gen, d=d).eta for _ in range(2)]
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
        s = sample_experiment1(0.5, 0.5, 400, RngStream(12, 1))
        u1 = pseudo_uniforms(s.eta)
        transformed = np.column_stack([np.arctan(s.eta[:, 0]), np.log(s.eta[:, 1]) * 3.0 + 5.0])
        u2 = pseudo_uniforms(transformed)
        w = edge_grid(41)
        for pick in ("P", "CFG", "MD"):
            a, _ = pickands_curve_raw(u1, w, pick)
            b, _ = pickands_curve_raw(u2, w, pick)
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
        assert gpwm_alpha(xi, 5) == pytest.approx(0.5, abs=0.002)

    def test_scale_invariance(self):
        xi = sample_experiment1(0.5, 0.7, 2_000, RngStream(13, 1)).xi
        assert gpwm_alpha(3.7 * xi, 5) == pytest.approx(gpwm_alpha(xi, 5), abs=1e-12)

    def test_permutation_invariance(self):
        xi = sample_experiment1(0.5, 0.7, 500, RngStream(13, 2)).xi
        gen = RngStream(13, 3).generator()
        assert gpwm_alpha(gen.permutation(xi), 5) == gpwm_alpha(xi, 5)

    def test_calibration_monte_carlo(self):
        hits = 0
        for trial in range(40):
            xi = sample_experiment1(1.0, 0.7, 10_000, RngStream(13, 100 + trial)).xi
            hits += abs(gpwm_alpha(xi, 5) - 0.7) < 0.05
        assert hits >= 38

    def test_constant_sample_fails(self):
        with pytest.raises(EstimationError) as err:
            gpwm_alpha(np.ones(50), 5)
        assert err.value.stage == "GPWM"

    def test_weights_cached_read_only(self):
        edges = np.arange(51) / 50
        with np.errstate(divide="ignore"):
            reg = regularized_lower_gamma(6.0, -2.0 * np.log(edges))
        uncached = np.exp(ln_gamma(6.0)) / 2.0**6 * (reg[:-1] - reg[1:])
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
            gpwm_alpha(np.array([1.0, -2.0]), 5)
        with pytest.raises(DomainError):
            gpwm_alpha(np.ones(10), 1)


class TestMl:
    def test_plugin_quantile_grid(self):
        law = FrechetLaw(0.5)
        xi = law.quantile((np.arange(10_000) + 0.5) / 10_000)
        assert ml_alpha(xi) == pytest.approx(0.5, abs=0.01)

    def test_score_identity_at_root(self):
        xi = sample_experiment1(0.5, 0.5, 2_000, RngStream(14, 1)).xi
        a = ml_alpha(xi)
        assert abs(ml_score(a, xi)) < 1e-10

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
        assert ml_alpha(xi) == pytest.approx(grid[int(np.argmax(loglik))], abs=2e-4)
        # the fit is scale-free; 2.5e5 = n'^(1/alpha) is the pipeline-2 scale
        # at n' = 500 blocks and alpha = 0.5
        for c in (2.0, 2.5e5):
            assert ml_alpha(c * xi) == pytest.approx(ml_alpha(xi), abs=1e-10)

    def test_permutation_invariance(self):
        xi = sample_experiment1(0.5, 0.7, 500, RngStream(14, 2)).xi
        gen = RngStream(14, 3).generator()
        assert ml_alpha(gen.permutation(xi)) == pytest.approx(ml_alpha(xi), abs=1e-12)

    def test_constant_sample_fails(self):
        with pytest.raises(EstimationError):
            ml_alpha(np.full(20, 3.0))

    def test_no_root_in_bracket_fails(self):
        with pytest.raises(EstimationError) as err:
            ml_alpha(np.linspace(1.005, 1.02, 50))
        assert err.value.stage == "ML"


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
        s = sample_experiment1(0.5, 0.5, 200, RngStream(15, 1))
        u = pseudo_uniforms(s.eta)
        w = edge_grid(21)
        vals, flags = pickands_curve_raw(u, w, "MD")
        assert vals[0] == pytest.approx(1.0, rel=1e-12)
        assert vals[-1] == pytest.approx(1.0, rel=1e-12)
        assert not flags.any()

    def test_corrected_curves_keep_population_values(self):
        gen = RngStream(15, 2).generator()
        u = pseudo_uniforms(gen.random((10_000, 2)))
        w = edge_grid(41)
        for pick in ("P", "CFG"):
            raw, _ = pickands_curve_raw(u, w, pick)
            corrected = endpoint_correct(raw, w, pick)
            assert abs(corrected[20] - 1.0) < 0.03


class TestInvertCurve:
    def test_independence_cancellation(self):
        w = edge_grid(41)
        a_alpha = AlphaScaled(Logistic(1.0), 0.7).curve(w)
        astar, mask = invert_curve(a_alpha, w, 0.7)
        assert np.max(np.abs(astar - 1.0)) < 1e-12
        assert not mask.any()

    def test_clamp_flags(self):
        w = edge_grid(5)
        astar, mask = invert_curve(np.full(5, 0.4), w, 0.5)
        t1 = (1.0 - w) ** 2.0
        t2 = w**2.0
        lower = np.maximum(t1, t2) / (t1 + t2)
        assert np.all(astar >= lower - 1e-15) and np.all(astar <= 1.0)
        assert mask[1] and mask[2] and mask[3]


class TestComposite:
    def test_failure_carries_stage(self):
        s = sample_experiment1(0.5, 0.5, 50, RngStream(16, 1))
        s.xi[:] = 1.0
        with pytest.raises(EstimationError) as err:
            composite_estimate(s, CompositeConfig(pick="CFG", alpha_method="GPWM"))
        assert err.value.stage == "GPWM"

    def test_alpha_clamp_path(self):
        # light-tailed xi sends the tail estimate past 1; composite must still run
        s = sample_experiment1(0.5, 0.5, 500, RngStream(16, 2))
        light = FrechetLaw(3.0).quantile((np.arange(500) + 0.5) / 500)
        s.xi[:] = light
        est = composite_estimate(s, CompositeConfig(pick="CFG", alpha_method="ML"))
        assert est.alpha_clamped
        assert est.alpha_raw > 1.0
        assert est.alpha_hat == pytest.approx(1.0 - 1e-6)
        assert np.all(np.isfinite(est.a_star))

    def test_consistency_fixed_seed(self):
        combo = Combo(1, 0.5, 0.5, float("nan"), 4_000)
        truth = truth_curve(combo, edge_grid(201))
        s = sample_experiment1(0.5, 0.5, 4_000, RngStream(16, 3))
        for pick in ("P", "CFG", "MD"):
            est = composite_estimate(s, CompositeConfig(pick=pick, alpha_method="GPWM"))
            assert np.max(np.abs(est.a_star - truth)) < 0.05

    def test_base_curve_recovery(self):
        s = sample_experiment1(0.5, 0.5, 4_000, RngStream(16, 4))
        est = composite_estimate(s, CompositeConfig(pick="CFG", alpha_method="GPWM"))
        base = Logistic(0.5).curve(est.w)
        assert np.max(np.abs(est.a_base - base)) < 0.05
        assert est.a_base[0] == pytest.approx(1.0, abs=1e-9)

    def test_csv_round_trip_schema(self):
        s = sample_experiment1(0.5, 0.5, 100, RngStream(16, 5))
        est = composite_estimate(s, CompositeConfig(pick="MD", alpha_method="GPWM", grid_size=5))
        buf = io.StringIO()
        est.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,A_alpha_hat,A_star_hat,A_hat,alpha_hat,estimator_pair,corrected,clamped"
        assert len(lines) == 6
        cells = lines[1].split(",")
        assert cells[5] == "MD-GPWM" and cells[6] == "1"

    def test_grid_size_validation(self):
        with pytest.raises(DomainError):
            CompositeConfig(grid_size=200)
        with pytest.raises(DomainError):
            CompositeConfig(pick="X")


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
    values, md_flags = pickands_curve_raw(pseudo_uniforms(sample.eta), w, pair.pick)
    if config.corrected:
        values = endpoint_correct(values, w, pair.pick)
    try:
        alpha_raw = estimate_alpha(sample.xi, pair.alpha_method, k=config.k)
        alpha_hat, alpha_clamped = clamp_alpha(alpha_raw)
    except EstimationError as exc:
        return exc
    a_star, clamp_mask = invert_curve(values, w, alpha_hat)
    return values, a_star, clamp_mask | md_flags, alpha_hat, alpha_raw, alpha_clamped


@pytest.mark.parametrize(
    "n, grid_size, corrected, chunk_cells",
    [(n, g, c, None) for n in (50, 400) for g in (3, 201) for c in (True, False)]
    # 7 points per chunk at n = 50: 29 chunks, the last one short
    + [(50, 201, c, 7 * 50) for c in (True, False)],
)
def test_fit_pairs_matches_public_route(n, grid_size, corrected, chunk_cells, monkeypatch):
    # fit_pairs shares the angle matrix, the simplex points and one inverse
    # transform per tail method across pairs; none of that may move a bit.
    # The xi column is also replaced by a light-tailed one (alpha clamped)
    # and a constant one (both tail fits fail).
    config = CompositeConfig(grid_size=grid_size, corrected=corrected)
    sample = sample_experiment1(0.5, 0.5, n, RngStream(17, n))
    light = FrechetLaw(3.0).quantile((np.arange(n) + 0.5) / n)
    for xi in (sample.xi.copy(), light, np.ones(n)):
        sample.xi[:] = xi
        expected = [_public_route(sample, pair, config) for pair in _SHUFFLED_PAIRS]
        with monkeypatch.context() as patch:
            if chunk_cells is not None:
                patch.setattr(estimators, "_GRID_CHUNK_CELLS", chunk_cells)
            (fits,) = fit_pairs((sample,), _SHUFFLED_PAIRS, config)
        assert list(fits) == [pair.label for pair in _SHUFFLED_PAIRS]
        for pair, want in zip(_SHUFFLED_PAIRS, expected):
            got = fits[pair.label]
            if isinstance(want, EstimationError):
                assert isinstance(got, EstimationError)
                assert (got.stage, str(got)) == (want.stage, str(want))
                continue
            a_alpha, a_star, clamp_mask, alpha_hat, alpha_raw, alpha_clamped = want
            assert np.array_equal(got.a_alpha, a_alpha)
            assert np.array_equal(got.a_star, a_star)
            assert np.array_equal(got.clamp_mask, clamp_mask)
            assert got.alpha_hat == alpha_hat and got.alpha_raw == alpha_raw
            assert got.alpha_clamped == alpha_clamped
            assert (got.pick, got.alpha_method, got.corrected) == (
                pair.pick,
                pair.alpha_method,
                corrected,
            )


@pytest.mark.parametrize(
    "grid_size, corrected, chunk_cells",
    # 7 points per chunk at n = 50: 29 chunks, the last one short
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
    config = CompositeConfig(grid_size=grid_size, corrected=corrected)
    samples = [
        sample_experiment1(psi, 0.5, 50, RngStream(19, i))
        for i, psi in enumerate((0.2, 0.5, 0.9, 0.5, 1.0))
    ]
    samples[1].xi[:] = FrechetLaw(3.0).quantile((np.arange(50) + 0.5) / 50)
    samples[3].xi[:] = 1.0
    batched = fit_pairs(samples, _SHUFFLED_PAIRS, config)
    assert len(batched) == len(samples)
    outcomes = set()
    for sample, fits in zip(samples, batched):
        (alone,) = fit_pairs((sample,), _SHUFFLED_PAIRS, config)
        assert list(fits) == list(alone)
        for label, got in fits.items():
            want = alone[label]
            if isinstance(want, EstimationError):
                assert isinstance(got, EstimationError)
                assert (got.stage, str(got)) == (want.stage, str(want))
                outcomes.add("failed")
                continue
            for name in ("w", "a_alpha", "a_star", "clamp_mask"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            for name in ("alpha_hat", "alpha_raw", "alpha_clamped", "pick", "alpha_method"):
                assert getattr(got, name) == getattr(want, name)
            assert got.corrected == corrected
            assert type(got.alpha_hat) is type(want.alpha_hat)
            outcomes.add("clamped" if got.alpha_clamped else "fitted")
    assert outcomes == {"failed", "clamped", "fitted"}


def test_fit_pairs_rejects_mixed_shapes():
    a = sample_experiment1(0.5, 0.5, 50, RngStream(19, 10))
    b = sample_experiment1(0.5, 0.5, 60, RngStream(19, 11))
    with pytest.raises(DomainError):
        fit_pairs((a, b), _SHUFFLED_PAIRS, CompositeConfig())
    with pytest.raises(DomainError):
        fit_pairs((), _SHUFFLED_PAIRS, CompositeConfig())
