import numpy as np
import pytest

from randmax.depcore import (
    AlphaScaled,
    ExtremalT,
    GevMargin,
    Independence,
    LimitLawQ,
    Logistic,
    astar_points,
    edge_grid,
    edge_points,
    extremal_coefficient,
    lambda_from_theta,
    lambda_inverse_link,
    power_points,
    stable_tail,
    student_t_cdf,
    tail_prob_approx,
)
from randmax.errors import DomainError, RangeLinkError

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


def _at(model, t):
    """model's Pickands function at the one simplex point t, through values
    on a (1, d) array."""
    return float(model.values(np.array([t], dtype=float))[0])


def _astar(model, alpha, t):
    """The inverse scaling transform of model's curve at one simplex point t."""
    t = np.asarray(t, dtype=float)
    return float(astar_points(model.values(t), t, alpha)[0])


class TestLogisticNorm:
    # |t|_a = (sum_j t_j^(1/a))^a is the symmetric logistic Pickands function
    def test_vertex(self):
        assert _at(Logistic(0.5), [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_barycenter_d2(self):
        assert _at(Logistic(0.5), [0.5, 0.5]) == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_sum_norm_is_one(self):
        assert _at(Logistic(1.0), [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_barycenter_general_dim(self, d, alpha):
        t = np.full(d, 1.0 / d)
        assert _at(Logistic(alpha, dim=d), t) == pytest.approx(d ** (alpha - 1.0), rel=1e-13)


class TestPickandsEvaluation:
    def test_logistic_barycenter(self):
        assert _at(Logistic(0.5), [0.5, 0.5]) == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_alpha_scaled_barycenter(self):
        model = AlphaScaled(Logistic(0.5), 0.5)
        assert _at(model, [0.5, 0.5]) == pytest.approx(2.0 ** (0.25 - 1.0), rel=1e-14)
        assert _at(model, [0.5, 0.5]) == pytest.approx(0.5946035575, abs=1e-10)

    def test_extremal_t_barycenter(self):
        model = ExtremalT(0.0, 1.0)
        assert _at(model, [0.5, 0.5]) == pytest.approx(
            student_t_cdf(np.sqrt(2.0), 2.0), rel=1e-12
        )
        assert _at(model, [0.5, 0.5]) == pytest.approx(0.8535533906, abs=1e-10)

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
            tail_prob_approx(Logistic(0.5, dim=3), 0.5, [0.5, 0.5], 10)

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


class TestPowerPoints:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.77, 1.0 - 1e-6])
    def test_bits_of_the_formulas_it_replaced(self, alpha):
        w = edge_grid(201)
        pts = edge_points(w)
        # the reparametrized coordinate of the base curve, back at p = alpha
        t1, t2 = (1.0 - w) ** alpha, w**alpha
        assert np.array_equal(power_points(pts, alpha)[0][:, 1], t2 / (t1 + t2))
        # the point of the analytic truth curve, forward at p = 1/alpha
        pw = np.column_stack([(1.0 - w) ** (1.0 / alpha), w ** (1.0 / alpha)])
        assert np.array_equal(power_points(pts, 1.0 / alpha)[0], pw / pw.sum(axis=1, keepdims=True))
        # the scaled model's point and norm, also at d = 9, where np.sum adds pairwise
        simplex9 = np.random.default_rng(9).dirichlet(np.ones(9), 500)
        for base, points in ((Logistic(0.4), pts), (Logistic(0.3, dim=9), simplex9)):
            tp = points ** (1.0 / alpha)
            denom = np.sum(tp, axis=-1, keepdims=True)
            inner, total = power_points(points, 1.0 / alpha)
            assert np.array_equal(inner, tp / denom) and np.array_equal(total, denom[..., 0])
            values = denom[..., 0] ** alpha * base.values(tp / denom) ** alpha
            assert np.array_equal(AlphaScaled(base, alpha).values(points), values)


class TestTransforms:
    def test_astar_recovers_base_at_barycenter(self):
        scaled = AlphaScaled(Logistic(0.5), 0.5)
        val = _astar(scaled, 0.5, [0.5, 0.5])
        assert val == pytest.approx(2.0**-0.5, rel=1e-13)

    def test_vertex(self):
        scaled = AlphaScaled(Logistic(0.5), 0.5)
        assert _astar(scaled, 0.5, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        inner, total = power_points([1.0, 0.0], 0.5)
        assert inner.tolist() == [1.0, 0.0] and total == 1.0

    def test_independence_cancellation(self):
        scaled = AlphaScaled(Independence(), 0.7)
        for w in (0.1, 0.33, 0.5, 0.9):
            assert _astar(scaled, 0.7, [1.0 - w, w]) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", ALL_ALPHAS)
    def test_round_trip_identity(self, alpha):
        # build the scaled curve, invert it exactly, reparametrize back
        pts = edge_points(edge_grid(201))
        inner, _ = power_points(pts, alpha)
        for base in (Logistic(0.2), Logistic(0.8), Independence(), ExtremalT(0.4, 2.0)):
            scaled = AlphaScaled(base, alpha)
            back = astar_points(scaled.values(inner), inner, alpha)[0]
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
        point = np.array([0.4, 0.6])
        val, flagged = astar_points(0.45, point, 0.5)
        assert flagged
        t = point**2.0
        assert val == pytest.approx(float(t.max() / t.sum()), rel=1e-12)
        exact = AlphaScaled(Logistic(0.5), 0.5)
        _, flag = astar_points(exact.values(point), point, 0.5)
        assert not flag


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

    @pytest.mark.parametrize(
        "alpha, size_branch, branch",
        [
            (0.5, "frechet", "frechet_heavy"),
            (1.0, "frechet", "frechet_unit"),
            (1.5, "frechet", "frechet_light"),
            (0.5, "gumbel", "gumbel"),
            (1.5, "gumbel", "gumbel"),
        ],
    )
    def test_branch(self, alpha, size_branch, branch):
        assert _unit_frechet_law(Logistic(0.5), alpha, size_branch).branch == branch

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
