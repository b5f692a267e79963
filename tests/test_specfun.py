import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from randmax.errors import DomainError
from randmax.specfun import (
    exp_integral_e1,
    ln_gamma,
    log_integral,
    lower_incomplete_gamma,
    regularized_lower_gamma,
    student_t_cdf,
)

from oracles import FrechetLaw


class TestLnGamma:
    @pytest.mark.parametrize(
        "x, expected",
        [(1.0, 0.0), (0.5, np.log(np.sqrt(np.pi))), (3.0, np.log(2.0))],
    )
    def test_known_values(self, x, expected):
        assert ln_gamma(x) == pytest.approx(expected, abs=1e-13)

    def test_recurrence(self):
        x = np.linspace(0.1, 50.0, 500)
        assert np.max(np.abs(ln_gamma(x + 1.0) - (ln_gamma(x) + np.log(x)))) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            ln_gamma(bad)


class TestLowerIncompleteGamma:
    def test_unit_shape_closed_form(self):
        # s = 1 gives 1 - e^-x
        assert lower_incomplete_gamma(1.0, 2.0) == pytest.approx(1.0 - np.exp(-2.0), rel=1e-12)

    def test_zero_is_zero(self):
        assert lower_incomplete_gamma(0.7, 0.0) == 0.0

    def test_against_quadrature(self):
        # oracle: adaptive quadrature of the defining integral
        oracle = quad(lambda t: t**-0.5 * np.exp(-t), 0.0, 1.0, epsabs=1e-14)[0]
        val = lower_incomplete_gamma(0.5, 1.0)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(1.4936482656248540, rel=1e-10)

    def test_limit_is_gamma(self):
        assert lower_incomplete_gamma(2.5, np.inf) == pytest.approx(
            np.exp(ln_gamma(2.5)), rel=1e-12
        )

    def test_regularized_monotone_and_bounded(self):
        for s in (0.3, 1.0, 4.5):
            x = np.linspace(0.0, 30.0, 400)
            p = regularized_lower_gamma(s, x)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert np.all(np.diff(p) >= -1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(1.0, -0.5)


def _li_oracle(x):
    """Principal-value quadrature of the defining integral."""
    if x < 1.0:
        return quad(lambda t: 1.0 / np.log(t), 0.0, x, epsabs=1e-13, limit=200)[0]
    head = quad(lambda t: 1.0 / np.log(t), 0.0, 0.5, epsabs=1e-13, limit=200)[0]
    # symmetric window around the pole: 1/ln(1+u) + 1/ln(1-u) extends smoothly
    mid = quad(
        lambda u: 1.0 / np.log(1.0 + u) + 1.0 / np.log(1.0 - u),
        0.0,
        0.5,
        epsabs=1e-13,
        limit=200,
    )[0]
    tail = quad(lambda t: 1.0 / np.log(t), 1.5, x, epsabs=1e-13, limit=200)[0]
    return head + mid + tail


class TestLogIntegral:
    def test_vanishes_at_origin(self):
        assert abs(log_integral(1e-12)) < 1e-12

    def test_above_one_against_quadrature(self):
        assert log_integral(2.0) == pytest.approx(_li_oracle(2.0), abs=1e-8)
        assert log_integral(2.0) == pytest.approx(1.0451637801, abs=1e-9)

    def test_below_one_against_quadrature(self):
        x = np.exp(-1.0)
        assert log_integral(x) == pytest.approx(_li_oracle(x), abs=1e-9)
        assert log_integral(x) == pytest.approx(-0.2193839, abs=1e-7)

    def test_relation_to_e1(self):
        # li(e^-x) = -E1(x)
        for x in (0.25, 1.0, 3.0):
            assert log_integral(np.exp(-x)) == pytest.approx(-exp_integral_e1(x), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -2.0, 1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_integral(bad)


class TestStudentT:
    def test_center(self):
        for nu in (0.5, 1.0, 7.0):
            assert student_t_cdf(0.0, nu) == pytest.approx(0.5, abs=1e-14)

    def test_two_dof_closed_form(self):
        x = np.sqrt(2.0)
        closed = 0.5 + x / (2.0 * np.sqrt(2.0 + x * x))
        assert student_t_cdf(x, 2.0) == pytest.approx(closed, rel=1e-12)
        assert student_t_cdf(x, 2.0) == pytest.approx(0.8535533906, abs=1e-10)
        assert student_t_cdf(-x, 2.0) == pytest.approx(1.0 - closed, rel=1e-12)

    def test_symmetry(self):
        x = np.linspace(-5.0, 5.0, 101)
        assert np.max(np.abs(student_t_cdf(-x, 3.3) - (1.0 - student_t_cdf(x, 3.3)))) < 1e-14

    def test_normal_limit(self):
        x = np.linspace(-4.0, 4.0, 81)
        assert np.max(np.abs(student_t_cdf(x, 1000.0) - norm.cdf(x))) < 2e-3

    def test_infinite_argument(self):
        assert student_t_cdf(np.inf, 2.0) == 1.0
        assert student_t_cdf(-np.inf, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_cdf(0.0, 0.0)
        with pytest.raises(DomainError):
            student_t_cdf(np.nan, 1.0)


class TestFrechetLaw:
    def test_quantile_known_value(self):
        law = FrechetLaw(alpha=0.7)
        assert law.quantile(np.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_cdf_known_value(self):
        assert FrechetLaw(alpha=1.0).cdf(2.0) == pytest.approx(np.exp(-0.5), rel=1e-14)

    def test_logpdf_known_value(self):
        assert FrechetLaw(alpha=0.5).logpdf(1.0) == pytest.approx(np.log(0.5) - 1.0, rel=1e-14)

    def test_quantile_inverts_cdf(self):
        law = FrechetLaw(alpha=1.3, scale=2.5)
        v = np.arange(0.01, 1.0, 0.01)
        assert np.max(np.abs(law.cdf(law.quantile(v)) - v)) < 1e-12

    def test_cdf_limits_and_monotone(self):
        law = FrechetLaw(alpha=0.8)
        x = np.linspace(1e-6, 60.0, 500)
        c = law.cdf(x)
        assert np.all(np.diff(c) >= 0.0)
        assert law.cdf(1e-8) < 1e-12 and law.cdf(1e8) > 1.0 - 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            FrechetLaw(alpha=-1.0)
        with pytest.raises(DomainError):
            FrechetLaw(alpha=1.0, scale=0.0)
        law = FrechetLaw(alpha=1.0)
        with pytest.raises(DomainError):
            law.cdf(-1.0)
        with pytest.raises(DomainError):
            law.quantile(1.0)
        with pytest.raises(DomainError):
            law.logpdf(0.0)
