"""Special-function kernel used by the dependence core and the estimators.

Everything here is a thin, domain-checked layer over scipy.special: the gamma
family, the logarithmic integral li(x) = Ei(ln x) and the Student-t CDF via
the regularized incomplete beta. All functions are pure and accept scalars
or numpy arrays; scalar input gives scalar output.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "ln_gamma",
    "lower_incomplete_gamma",
    "regularized_lower_gamma",
    "exp_integral_e1",
    "log_integral",
    "student_t_cdf",
]


def _asarray(x, name):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a) | np.isposinf(a)):
        raise DomainError(f"{name} must be finite (or +inf where allowed), got {x!r}")
    return a


def _maybe_scalar(a, scalar):
    return float(a) if scalar else a


def ln_gamma(x):
    """ln Gamma(x) for x > 0."""
    scalar = np.isscalar(x)
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    return _maybe_scalar(_sp.gammaln(a), scalar)


def lower_incomplete_gamma(s, x):
    """Unregularized lower incomplete gamma gamma(s, x) = int_0^x t^(s-1) e^-t dt.

    s > 0, x >= 0; x may be +inf, in which case gamma(s, inf) = Gamma(s).
    """
    scalar = np.isscalar(s) and np.isscalar(x)
    ss = np.asarray(s, dtype=float)
    xx = _asarray(x, "x")
    if not np.all(np.isfinite(ss)) or np.any(ss <= 0.0):
        raise DomainError(f"lower_incomplete_gamma requires finite s > 0, got s={s!r}")
    if np.any(xx < 0.0):
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x!r}")
    out = np.exp(_sp.gammaln(ss)) * _sp.gammainc(ss, xx)
    return _maybe_scalar(out, scalar)


def regularized_lower_gamma(s, x):
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s)."""
    scalar = np.isscalar(s) and np.isscalar(x)
    ss = np.asarray(s, dtype=float)
    xx = _asarray(x, "x")
    if not np.all(np.isfinite(ss)) or np.any(ss <= 0.0):
        raise DomainError(f"regularized_lower_gamma requires finite s > 0, got s={s!r}")
    if np.any(xx < 0.0):
        raise DomainError(f"regularized_lower_gamma requires x >= 0, got x={x!r}")
    return _maybe_scalar(_sp.gammainc(ss, xx), scalar)


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf e^-t / t dt for x > 0."""
    scalar = np.isscalar(x)
    a = _asarray(x, "x")
    if np.any(a <= 0.0):
        raise DomainError(f"exp_integral_e1 requires x > 0, got {x!r}")
    return _maybe_scalar(_sp.exp1(a), scalar)


def log_integral(x):
    """Principal-value logarithmic integral li(x) = int_0^x dt / ln t.

    Defined for x in (0, 1) u (1, inf); the integrand's pole at t = 1 is
    handled as a principal value (equivalently li(x) = Ei(ln x)).
    """
    scalar = np.isscalar(x)
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0) or np.any(a == 1.0):
        raise DomainError(f"log_integral requires x in (0,1) or (1,inf), got {x!r}")
    return _maybe_scalar(_sp.expi(np.log(a)), scalar)


def student_t_cdf(x, nu):
    """CDF of the standard Student-t law with nu > 0 degrees of freedom.

    Computed through the regularized incomplete beta function, so the result
    is exact up to that routine's accuracy; T_nu(-x) = 1 - T_nu(x).
    """
    if not np.isscalar(nu) or not np.isfinite(nu) or nu <= 0.0:
        raise DomainError(f"student_t_cdf requires scalar nu > 0, got {nu!r}")
    scalar = np.isscalar(x)
    a = np.asarray(x, dtype=float)
    if np.any(np.isnan(a)):
        raise DomainError("student_t_cdf received NaN")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = nu / (nu + a * a)
    z = np.where(np.isinf(a), 0.0, z)
    half_tail = 0.5 * _sp.betainc(0.5 * nu, 0.5, z)
    out = np.where(a >= 0.0, 1.0 - half_tail, half_tail)
    return _maybe_scalar(out, scalar)
