import numpy as np
import pytest
from scipy.stats import norm

from randmax.depcore import student_t_cdf
from randmax.errors import DomainError

from oracles import FrechetLaw


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
