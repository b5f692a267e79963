import numpy as np
import pytest

from randmax.depcore import (
    AlphaScaled,
    ExtremalT,
    GevMargin,
    GridCurve,
    Independence,
    LimitLawQ,
    Logistic,
    astar_points,
    astar_transform,
    astar_transform_flagged,
    edge_grid,
    edge_points,
    extremal_coefficient,
    lambda_from_theta,
    lambda_inverse_link,
    logistic_norm,
    pickands_from_astar,
    stable_tail,
    tail_prob_approx,
)
from randmax.errors import DomainError, RangeLinkError
from randmax.specfun import student_t_cdf

ALL_ALPHAS = (0.5, 0.633, 0.767, 0.9)


def _models_d2():
    return [
        Logistic(0.3),
        Logistic(0.7),
        Logistic(1.0),
        Independence(),
        ExtremalT(0.5, 1.0),
        ExtremalT(-0.5, 15.0),
        AlphaScaled(Logistic(0.5), 0.5),
        AlphaScaled(ExtremalT(0.2, 2.0), 0.7),
    ]


class TestLogisticNorm:
    def test_vertex(self):
        assert logistic_norm([1.0, 0.0], 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_barycenter_d2(self):
        assert logistic_norm([0.5, 0.5], 0.5) == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_sum_norm_is_one(self):
        assert logistic_norm([0.5, 0.5], 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_barycenter_general_dim(self, d, alpha):
        t = np.full(d, 1.0 / d)
        assert logistic_norm(t, alpha) == pytest.approx(d ** (alpha - 1.0), rel=1e-13)


class TestPickandsEvaluation:
    def test_logistic_barycenter(self):
        assert Logistic(0.5).pickands([0.5, 0.5]) == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_alpha_scaled_barycenter(self):
        model = AlphaScaled(Logistic(0.5), 0.5)
        assert model.pickands([0.5, 0.5]) == pytest.approx(2.0 ** (0.25 - 1.0), rel=1e-14)
        assert model.pickands([0.5, 0.5]) == pytest.approx(0.5946035575, abs=1e-10)

    def test_extremal_t_barycenter(self):
        model = ExtremalT(0.0, 1.0)
        assert model.pickands([0.5, 0.5]) == pytest.approx(
            student_t_cdf(np.sqrt(2.0), 2.0), rel=1e-12
        )
        assert model.pickands([0.5, 0.5]) == pytest.approx(0.8535533906, abs=1e-10)

    def test_extremal_t_barycenter_matches_extremal_coefficient_formula(self):
        # the curve formula is pinned to theta = 2 T_{u+1}(sqrt((u+1)(1-r)/(1+r)))
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9, 0.99):
            for ups in (1.0, 2.0, 15.0):
                theta = extremal_coefficient(ExtremalT(rho, ups))
                target = 2.0 * student_t_cdf(
                    np.sqrt((ups + 1.0) * (1.0 - rho) / (1.0 + rho)), ups + 1.0
                )
                assert theta == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("model", _models_d2())
    def test_envelope_and_vertices(self, model):
        w = edge_grid(401)
        vals = model.curve(w)
        pts = edge_points(w)
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(vals >= pts.max(axis=1) - 1e-12)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", _models_d2())
    def test_convexity_along_edge(self, model):
        vals = model.curve(edge_grid(401))
        assert np.min(np.diff(vals, 2)) >= -1e-9

    def test_extremal_t_rejects_other_dimensions(self):
        with pytest.raises(DomainError):
            ExtremalT(0.5, 1.0, dim=3)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            Logistic(0.5, dim=3).pickands([0.5, 0.5])

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            Logistic(0.0)
        with pytest.raises(DomainError):
            AlphaScaled(Logistic(0.5), 1.0)
        with pytest.raises(DomainError):
            ExtremalT(1.0, 1.0)


class TestStableTail:
    def test_vertex(self):
        assert stable_tail(Logistic(0.4), [1.0, 0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_homogeneity(self):
        assert stable_tail(Logistic(0.5), [2.0, 2.0]) == pytest.approx(
            4.0 * 2.0**-0.5, rel=1e-14
        )
        model = Logistic(0.3)
        z = np.array([0.7, 2.1])
        assert stable_tail(model, 3.5 * z) == pytest.approx(3.5 * stable_tail(model, z), rel=1e-13)

    def test_independence_is_sum(self):
        assert stable_tail(Independence(), [1.0, 1.0]) == pytest.approx(2.0, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            stable_tail(Logistic(0.5), [0.0, 0.0])


class TestTransforms:
    def test_astar_recovers_base_at_barycenter(self):
        scaled = AlphaScaled(Logistic(0.5), 0.5)
        val = astar_transform(scaled, 0.5, [0.5, 0.5])
        assert val == pytest.approx(2.0**-0.5, rel=1e-13)

    def test_vertex(self):
        scaled = AlphaScaled(Logistic(0.5), 0.5)
        assert astar_transform(scaled, 0.5, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert pickands_from_astar(lambda s: 1.0, 0.5, [1.0, 0.0]) == pytest.approx(1.0)

    def test_independence_cancellation(self):
        scaled = AlphaScaled(Independence(), 0.7)
        for w in (0.1, 0.33, 0.5, 0.9):
            assert astar_transform(scaled, 0.7, [1.0 - w, w]) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", ALL_ALPHAS)
    def test_round_trip_identity(self, alpha):
        # build the scaled curve, invert it exactly, reparametrize back
        for base in (Logistic(0.2), Logistic(0.8), Independence(), ExtremalT(0.4, 2.0)):
            scaled = AlphaScaled(base, alpha)
            astar = lambda s: astar_transform(scaled, alpha, s)
            pts = edge_points(edge_grid(201))
            back = np.array([pickands_from_astar(astar, alpha, t) for t in pts])
            assert np.max(np.abs(back - base.values(pts))) < 1e-12

    def test_per_curve_alphas_match_scalar_calls(self):
        # a stack (picks, samples, k) inverted at one alpha per sample gives
        # bit for bit what one call per curve at a scalar alpha gives, also
        # at 1/2 and 2, where NumPy's scalar power squares or takes a root
        pts = edge_points(edge_grid(21))
        alphas = np.array([0.3, 0.5, 1.0 - 1e-6, 1.0, 2.0])
        rng = np.random.default_rng(5)
        curves = 0.6 + 0.4 * rng.random((2, alphas.size, pts.shape[0]))
        astar, mask = astar_points(curves, pts, alphas)
        assert astar.shape == mask.shape == curves.shape
        for i in range(curves.shape[0]):
            for b, alpha in enumerate(alphas):
                want_astar, want_mask = astar_points(curves[i, b], pts, float(alpha))
                assert np.array_equal(astar[i, b], want_astar)
                assert np.array_equal(mask[i, b], want_mask)

    def test_iteration_closure(self):
        pts = edge_points(edge_grid(201))
        for a1, a2 in ((0.5, 0.9), (0.633, 0.767)):
            twice = AlphaScaled(AlphaScaled(Logistic(0.35), a1), a2)
            once = AlphaScaled(Logistic(0.35), a1 * a2)
            assert np.max(np.abs(twice.values(pts) - once.values(pts))) < 1e-12

    def test_clamp_flags_noisy_curve(self):
        # a curve pushed below the admissible envelope must be clamped and flagged
        w = edge_grid(11)
        bad = GridCurve(np.full(11, 0.45))
        val, flagged = astar_transform_flagged(bad, 0.5, [0.4, 0.6])
        assert flagged
        t = np.array([0.4, 0.6]) ** 2.0
        assert val == pytest.approx(float(t.max() / t.sum()), rel=1e-12)
        exact = AlphaScaled(Logistic(0.5), 0.5)
        _, flag = astar_transform_flagged(exact, 0.5, [0.4, 0.6])
        assert not flag

    def test_grid_curve_interpolation(self):
        w = edge_grid(5)
        curve = GridCurve(np.array([1.0, 0.9, 0.8, 0.9, 1.0]))
        assert curve.pickands([0.875, 0.125]) == pytest.approx(0.95, rel=1e-12)


class TestCoefficients:
    def test_independence(self):
        assert extremal_coefficient(Independence()) == pytest.approx(2.0, abs=1e-14)

    def test_logistic(self):
        assert extremal_coefficient(Logistic(0.5)) == pytest.approx(np.sqrt(2.0), rel=1e-13)

    def test_alpha_scaled_power_rule(self):
        assert extremal_coefficient(AlphaScaled(Logistic(0.5), 0.5)) == pytest.approx(
            np.sqrt(2.0) ** 0.5, rel=1e-12
        )
        for psi in (0.2, 0.6, 1.0):
            for alpha in ALL_ALPHAS:
                base = Logistic(psi)
                assert extremal_coefficient(AlphaScaled(base, alpha)) == pytest.approx(
                    extremal_coefficient(base) ** alpha, abs=1e-12
                )

    def test_lambda_from_theta(self):
        assert lambda_from_theta(2.0) == 0.0
        assert lambda_from_theta(1.0) == 1.0

    def test_lambda_inverse_link_boundary(self):
        lam = lambda_inverse_link(2.0 - np.sqrt(2.0), 0.5)
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_lambda_inverse_link_fixed_point(self):
        for alpha in ALL_ALPHAS:
            assert lambda_inverse_link(1.0, alpha) == pytest.approx(1.0, rel=1e-14)

    def test_lambda_inverse_link_range_error(self):
        with pytest.raises(RangeLinkError) as err:
            lambda_inverse_link(0.0, 0.5)
        assert err.value.value == pytest.approx(-2.0, rel=1e-12)


class TestTailProbApprox:
    def test_vertex_homogeneity(self):
        val = tail_prob_approx(Logistic(0.5), 0.5, np.array([1.0, 0.0]), 100)
        assert val == pytest.approx(0.1, rel=1e-13)

    def test_zero_vector(self):
        assert tail_prob_approx(Logistic(0.5), 0.5, np.array([0.0, 0.0]), 10) == 0.0

    def test_independence(self):
        val = tail_prob_approx(Independence(), 0.5, np.array([1.0, 1.0]), 100)
        assert val == pytest.approx(np.sqrt(0.02), rel=1e-13)


class TestGevMargin:
    def test_frechet(self):
        m = GevMargin("frechet", shape=2.0)
        assert m.neg_log_cdf(1.0) == pytest.approx(1.0, rel=1e-14)
        assert m.neg_log_cdf(m.quantile(np.exp(-1.0))) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(DomainError):
            m.neg_log_cdf(0.0)

    def test_gumbel(self):
        m = GevMargin("gumbel", loc=1.0, scale=2.0)
        assert m.neg_log_cdf(1.0) == pytest.approx(1.0, rel=1e-14)
        assert m.neg_log_cdf(m.quantile(0.3)) == pytest.approx(-np.log(0.3), rel=1e-12)

    def test_weibull(self):
        m = GevMargin("weibull", shape=1.5)
        assert m.neg_log_cdf(0.5) == 0.0  # above the upper endpoint
        assert m.neg_log_cdf(-1.0) == pytest.approx(1.0, rel=1e-14)
        assert m.neg_log_cdf(m.quantile(0.6)) == pytest.approx(-np.log(0.6), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(DomainError):
            GevMargin("pareto")
        with pytest.raises(DomainError):
            GevMargin("frechet", shape=-1.0)


def _unit_frechet_law(base, alpha, branch="frechet"):
    margins = tuple(GevMargin("frechet") for _ in range(base.dim))
    return LimitLawQ(base=base, margins=margins, alpha=alpha, size_branch=branch)


class TestLimitLawQ:
    def test_branch_labels(self):
        assert _unit_frechet_law(Logistic(0.5), 0.5).branch == "frechet-heavy"
        assert _unit_frechet_law(Logistic(0.5), 1.0).branch == "frechet-heavy"
        assert _unit_frechet_law(Logistic(0.5), 2.0).branch == "frechet-light"
        assert _unit_frechet_law(Logistic(0.5), 0.5, "gumbel").branch == "gumbel"

    def test_gumbel_tail_limit(self):
        law = _unit_frechet_law(Logistic(0.5), 0.7, "gumbel")
        x = np.array([1.0, 2.0])
        assert law.neg_log_q(x, 50.0) == pytest.approx(law.neg_log_g(x), rel=1e-12)

    def test_light_branch_at_upper_endpoint(self):
        law = _unit_frechet_law(Logistic(0.5), 2.0)
        x = np.array([1e12, 1e12])
        assert law.neg_log_q(x, 2.0) == pytest.approx(2.0**-2.0, rel=1e-6)

    def test_heavy_branch_margin_collapse(self):
        law = _unit_frechet_law(Logistic(0.5), 0.5)
        x = np.array([1.0, 2.0])
        m = law.neg_log_g(x)
        assert law.neg_log_q(x, 1e6) == pytest.approx(m**0.5, abs=1e-8)

    def test_monotone_in_each_coordinate(self):
        for alpha, branch in ((0.5, "frechet"), (1.0, "frechet"), (2.0, "frechet"), (0.5, "gumbel")):
            law = _unit_frechet_law(Logistic(0.4), alpha, branch)
            ys = np.linspace(0.2, 8.0, 25) if branch == "frechet" else np.linspace(-3.0, 3.0, 25)
            xs = np.linspace(0.2, 6.0, 25)
            vals_x = [law.neg_log_q(np.array([x, 1.0]), 1.0 if branch == "frechet" else 0.0) for x in xs]
            vals_y = [law.neg_log_q(np.array([1.0, 1.0]), y) for y in ys]
            assert np.all(np.diff(vals_x) <= 1e-12)
            assert np.all(np.diff(vals_y) <= 1e-12)

    def test_theta_light_branch_closed_form(self):
        law = _unit_frechet_law(Logistic(0.5), 1.5)
        assert law.theta() == pytest.approx(np.sqrt(2.0) + 1.0, rel=1e-12)
        assert law.theta() == pytest.approx(2.4142135624, abs=1e-10)

    def test_theta_gumbel_branch_closed_form(self):
        law = _unit_frechet_law(Independence(), 0.5, "gumbel")
        assert law.theta() == pytest.approx(3.0, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_theta_matches_matched_point_evaluation(self, alpha):
        # independent route: exponent of Q where every margin equals e^-1
        law = _unit_frechet_law(Logistic(0.5), alpha)
        assert law.theta() == pytest.approx(law.neg_log_q(np.ones(2), 1.0), abs=1e-8)

    def test_domain_errors(self):
        law = _unit_frechet_law(Logistic(0.5), 0.5)
        with pytest.raises(DomainError):
            law.neg_log_q(np.array([1.0, 1.0]), 0.0)
        with pytest.raises(DomainError):
            law.neg_log_q(np.array([-1.0, 1.0]), 1.0)
        with pytest.raises(DomainError):
            LimitLawQ(Logistic(0.5), (GevMargin("frechet"),), 0.5, "frechet")
