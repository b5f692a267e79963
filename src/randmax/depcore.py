"""Dependence-structure core.

Pickands dependence functions A on the unit simplex S_d, the stable-tail
dependence function L(z) = (z_1 + ... + z_d) A(z / sum z), the alpha-scaling
transform that maps the dependence of a max-stable vector Z to that of S * Z
for a positive alpha-stable factor S, its inverse, extremal and upper-tail
coefficients, and the (d+1)-dimensional limit law of jointly renormalized
(componentwise maxima, block size).

Conventions
-----------
* A simplex point is a length-d vector of nonnegative weights summing to 1.
* Bivariate curves are parametrized by w in [0, 1] with simplex point
  t(w) = (1 - w, w); w = 0 and w = 1 are the vertices e1 and e2.
* The alpha-scaling transform of a base Pickands function A is

      A_alpha(t) = |t|_a * A((t / |t|_a)^(1/alpha))^alpha,
      |t|_a      = (sum_j t_j^(1/alpha))^alpha,

  for alpha in (0, 1); |t|_a is itself the Pickands function of the
  symmetric logistic family. Solving for the base gives

      Astar(t) = (A_alpha(t) / |t|_a)^(1/alpha) = A((t / |t|_a)^(1/alpha))
      A(t)     = Astar(t^alpha / |t^alpha|_1).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeLinkError
from .specfun import (
    exp_integral_e1,
    ln_gamma,
    log_integral,
    lower_incomplete_gamma,
    student_t_cdf,
)

__all__ = [
    "as_simplex",
    "edge_grid",
    "edge_points",
    "PickandsModel",
    "Logistic",
    "Independence",
    "ExtremalT",
    "AlphaScaled",
    "GridCurve",
    "logistic_norm",
    "stable_tail",
    "extremal_coefficient",
    "lambda_from_theta",
    "lambda_inverse_link",
    "tail_prob_approx",
    "astar_points",
    "astar_transform",
    "astar_transform_flagged",
    "pickands_from_astar",
    "GevMargin",
    "LimitLawQ",
]

_SIMPLEX_TOL = 1e-12
#: clamp deviations larger than this are reported; smaller ones are rounding
CLAMP_TOL = 1e-12


def as_simplex(t):
    """Validate and return a simplex point as a float array."""
    a = np.asarray(t, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise DomainError(f"simplex point must be a vector of dimension >= 2, got {t!r}")
    # a nan or an infinite entry makes the sum nonfinite
    total = a.sum()
    if not np.isfinite(total) or a.min() < 0.0:
        raise DomainError(f"simplex point must have nonnegative finite entries, got {t!r}")
    if abs(total - 1.0) > _SIMPLEX_TOL:
        raise DomainError(f"simplex point entries must sum to 1, got sum {total!r}")
    return a


def edge_grid(m):
    """Uniform grid of m curve coordinates on [0, 1] (bivariate case)."""
    if m < 2:
        raise DomainError(f"grid size must be >= 2, got {m}")
    return np.linspace(0.0, 1.0, int(m))


def edge_points(w):
    """Stack curve coordinates w into simplex points (1 - w, w)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return np.column_stack([1.0 - w, w])


class PickandsModel:
    """A Pickands dependence function A with max(t) <= A(t) <= 1, A(e_j) = 1."""

    dim = 2

    def values(self, points):
        """Evaluate A at an array of simplex points, shape (k, d) -> (k,)."""
        raise NotImplementedError

    def pickands(self, t):
        """Evaluate A at a single simplex point."""
        return self._at(as_simplex(t))

    def _at(self, t):
        """A at a simplex point that as_simplex has already validated."""
        if t.size != self.dim:
            raise DomainError(f"model has dimension {self.dim}, point has {t.size}")
        return float(self.values(t[np.newaxis, :])[0])

    def curve(self, w):
        """Evaluate A along the bivariate edge parametrization t(w) = (1-w, w)."""
        if self.dim != 2:
            raise DomainError("curve evaluation is defined for dimension 2 only")
        return self.values(edge_points(w))


@dataclass(frozen=True)
class Logistic(PickandsModel):
    """Symmetric logistic family, A(t) = (sum_j t_j^(1/psi))^psi, psi in (0, 1]."""

    psi: float
    dim: int = 2

    def __post_init__(self):
        if not (np.isfinite(self.psi) and 0.0 < self.psi <= 1.0):
            raise DomainError(f"logistic dependence parameter must be in (0,1], got {self.psi!r}")
        if self.dim < 2:
            raise DomainError("dimension must be >= 2")

    def values(self, points):
        p = np.asarray(points, dtype=float)
        return np.sum(p ** (1.0 / self.psi), axis=-1) ** self.psi


@dataclass(frozen=True)
class Independence(PickandsModel):
    """Independent components, A == 1."""

    dim: int = 2

    def values(self, points):
        p = np.asarray(points, dtype=float)
        return np.ones(p.shape[:-1], dtype=float)


@dataclass(frozen=True)
class ExtremalT(PickandsModel):
    """Bivariate extremal-t dependence with correlation rho and dof upsilon.

    A(t) = t2 * T(z(t2)) + t1 * T(z(t1)) where T is the Student-t CDF with
    upsilon + 1 degrees of freedom and

        z(u) = ((u / (1 - u))^(1/upsilon) - rho) * sqrt((upsilon+1)/(1-rho^2)).

    At the barycenter 2 A(1/2, 1/2) = 2 T(sqrt((upsilon+1)(1-rho)/(1+rho))),
    the extremal coefficient of this family.
    """

    rho: float
    upsilon: float
    dim: int = 2

    def __post_init__(self):
        if not (np.isfinite(self.rho) and -1.0 < self.rho < 1.0):
            raise DomainError(f"correlation must be in (-1,1), got {self.rho!r}")
        if not (np.isfinite(self.upsilon) and self.upsilon > 0.0):
            raise DomainError(f"degrees of freedom must be > 0, got {self.upsilon!r}")
        if self.dim != 2:
            raise DomainError("extremal-t dependence is implemented for dimension 2 only")

    def _z(self, u):
        scale = np.sqrt((self.upsilon + 1.0) / (1.0 - self.rho**2))
        with np.errstate(divide="ignore"):
            ratio = np.where(u < 1.0, u / (1.0 - u), np.inf)
        return (ratio ** (1.0 / self.upsilon) - self.rho) * scale

    def values(self, points):
        p = np.asarray(points, dtype=float)
        t1 = p[..., 0]
        t2 = p[..., 1]
        return t2 * student_t_cdf(self._z(t2), self.upsilon + 1.0) + t1 * student_t_cdf(
            self._z(t1), self.upsilon + 1.0
        )


@dataclass(frozen=True)
class AlphaScaled(PickandsModel):
    """Dependence of S * Z for Z max-stable with Pickands `base` and S a
    positive alpha-stable scaling factor, alpha in (0, 1)."""

    base: PickandsModel
    alpha: float
    dim: int = field(init=False, default=2)

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise DomainError(f"scaling index must be in (0,1), got {self.alpha!r}")
        object.__setattr__(self, "dim", self.base.dim)

    def values(self, points):
        p = np.asarray(points, dtype=float)
        pw = p ** (1.0 / self.alpha)
        denom = np.sum(pw, axis=-1, keepdims=True)
        norm = denom[..., 0] ** self.alpha
        inner = self.base.values(pw / denom)
        return norm * inner**self.alpha


@dataclass(frozen=True)
class GridCurve(PickandsModel):
    """Bivariate Pickands curve stored on a uniform grid, linearly interpolated.

    This is the representation of estimated curves; values are not forced
    into the Pickands envelope here.
    """

    values_grid: np.ndarray
    dim: int = 2

    def __post_init__(self):
        v = np.asarray(self.values_grid, dtype=float)
        if v.ndim != 1 or v.size < 2 or not np.all(np.isfinite(v)):
            raise DomainError("grid curve requires a finite vector of >= 2 values")
        object.__setattr__(self, "values_grid", v)
        if self.dim != 2:
            raise DomainError("grid curves are implemented for dimension 2 only")

    @property
    def grid(self):
        return np.linspace(0.0, 1.0, self.values_grid.size)

    def values(self, points):
        p = np.asarray(points, dtype=float)
        return np.interp(p[..., 1], self.grid, self.values_grid)


def logistic_norm(t, alpha):
    """(sum_j t_j^(1/alpha))^alpha on the simplex, for alpha in (0, 1].

    This is the symmetric logistic Pickands function; it equals 1 at the
    vertices and d^(alpha-1) at the barycenter.
    """
    if not (np.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise DomainError(f"norm index must be in (0,1], got {alpha!r}")
    t = as_simplex(t)
    return float(np.sum(t ** (1.0 / alpha)) ** alpha)


def stable_tail(model, z):
    """Stable-tail dependence function L(z) = (sum z) * A(z / sum z), z >= 0."""
    a = np.asarray(z, dtype=float)
    if a.ndim != 1 or a.size != model.dim:
        raise DomainError(f"z must be a vector of dimension {model.dim}, got {z!r}")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise DomainError(f"z must have nonnegative finite entries, got {z!r}")
    s = a.sum()
    if s == 0.0:
        raise DomainError("stable_tail is undefined at z = 0")
    return float(s * model.values((a / s)[np.newaxis, :])[0])


def extremal_coefficient(model):
    """theta = d * A(1/d, ..., 1/d), in [1, d]."""
    d = model.dim
    bary = np.full((1, d), 1.0 / d)
    return float(d * model.values(bary)[0])


def lambda_from_theta(theta):
    """Upper tail-dependence coefficient lambda = 2 - theta (bivariate)."""
    if not (np.isfinite(theta) and 1.0 <= theta <= 2.0):
        raise DomainError(f"extremal coefficient must be in [1,2], got {theta!r}")
    return 2.0 - theta


def lambda_inverse_link(lambda_mn, alpha):
    """Recover lambda of the underlying observations from lambda of the
    size-aggregated maxima: lambda_X = 2 - (2 - lambda_MN)^(1/alpha).

    Requires 2 - lambda_MN <= 2^alpha; otherwise the recovered coefficient
    would be negative and a RangeLinkError carrying it is raised.
    """
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"tail index must be in (0,1), got {alpha!r}")
    if not (np.isfinite(lambda_mn) and 0.0 <= lambda_mn <= 1.0):
        raise DomainError(f"lambda must be in [0,1], got {lambda_mn!r}")
    value = 2.0 - (2.0 - lambda_mn) ** (1.0 / alpha)
    if value < 0.0:
        if value >= -1e-12:  # exact boundary 2 - lambda_mn = 2^alpha up to rounding
            return 0.0
        raise RangeLinkError("recovered tail-dependence coefficient is negative", value)
    return value


def tail_prob_approx(model, alpha, z, n):
    """Joint upper-tail approximation L(z^(1/alpha) / n)^alpha for maxima over
    a heavy-tailed random number of observations with tail index alpha."""
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"tail index must be in (0,1), got {alpha!r}")
    if int(n) < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    a = np.asarray(z, dtype=float)
    if a.ndim != 1 or a.size != model.dim:
        raise DomainError(f"z must be a vector of dimension {model.dim}, got {z!r}")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise DomainError(f"z must have nonnegative finite entries, got {z!r}")
    if np.all(a == 0.0):
        return 0.0
    return stable_tail(model, a ** (1.0 / alpha) / float(n)) ** alpha


def astar_points(a_alpha_values, points, alpha):
    """Invert the alpha-scaling at k simplex points (k, d) given A_alpha there.

    Returns (astar, clamp_mask). a_alpha_values may have shape (..., k), so
    several curves at the same points are inverted in one call. alpha is a
    scalar, or a vector (B,) of tail indices for curves stacked as
    (..., B, k); every curve then gets the bits of its own scalar call.
    astar = (A_alpha(t) / |t|_a)^(1/alpha) is the base Pickands function at
    the reparametrized point (t / |t|_a)^(1/alpha), so it must lie between
    the largest coordinate of that point and 1; with noisy input curves it
    can exit that envelope, in which case it is clipped, and the mask marks
    the points moved by more than rounding. Exact inputs are never flagged.
    alpha is not validated here, so a clamped tail estimate can be passed as
    it is.
    """
    a_alpha_values = np.asarray(a_alpha_values, dtype=float)
    points = np.asarray(points, dtype=float)
    per_curve = np.ndim(alpha) > 0
    if per_curve:
        # (B, 1) against the points, (B, 1, 1) against their coordinates
        alpha = np.asarray(alpha, dtype=float)[:, np.newaxis]
        tw = points ** (1.0 / alpha[..., np.newaxis])
    else:
        tw = points ** (1.0 / alpha)
    # column by column: a reduction over the short last axis is much slower
    s = largest = tw[..., 0]
    for j in range(1, tw.shape[-1]):
        s = s + tw[..., j]
        largest = np.maximum(largest, tw[..., j])
    norm = s**alpha
    with np.errstate(over="ignore"):
        raw = (a_alpha_values / norm) ** (1.0 / alpha)
    lower = largest / s
    clipped = np.clip(raw, lower, 1.0)
    mask = ~(np.abs(clipped - raw) <= CLAMP_TOL)
    if per_curve:
        # NumPy squares or takes a square root for a scalar exponent of 2 or
        # 1/2 where an array exponent goes through pow; redo those curves
        for b in np.flatnonzero(np.isin(alpha[:, 0], (0.5, 2.0))):
            clipped[..., b, :], mask[..., b, :] = astar_points(
                a_alpha_values[..., b, :], points, float(alpha[b, 0])
            )
    return clipped, mask


def astar_transform_flagged(a_alpha, alpha, t):
    """Invert the alpha-scaling at one point: Astar(t) = (A_alpha(t)/|t|_a)^(1/alpha).

    `a_alpha` is a PickandsModel (typically a GridCurve holding an estimated
    curve) or a callable on simplex points. Returns the value and whether it
    was clamped into its envelope; see astar_points.
    """
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"scaling index must be in (0,1), got {alpha!r}")
    t = as_simplex(t)
    if isinstance(a_alpha, PickandsModel):
        val = a_alpha._at(t)
    else:
        val = float(a_alpha(t))
    astar, flagged = astar_points(val, t, alpha)
    return float(astar), bool(flagged)


def astar_transform(a_alpha, alpha, t):
    """Value-only version of :func:`astar_transform_flagged`."""
    return astar_transform_flagged(a_alpha, alpha, t)[0]


def pickands_from_astar(astar, alpha, t):
    """Recover the base Pickands function: A(t) = Astar(t^alpha / |t^alpha|_1).

    `astar` is a PickandsModel, or a callable on simplex points (use a
    callable built from exact transforms for round-trip identities; use a
    GridCurve for estimated curves, which introduces interpolation error).
    """
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"scaling index must be in (0,1), got {alpha!r}")
    t = as_simplex(t)
    ta = t**alpha
    point = ta / ta.sum()
    if isinstance(astar, PickandsModel):
        return float(astar.pickands(point))
    return float(astar(point))


# ---------------------------------------------------------------------------
# The joint limit law of (componentwise maxima over a random block, block size)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GevMargin:
    """One GEV margin of the base max-stable law G.

    kind is "frechet" (support x > loc, -ln G = ((x-loc)/scale)^-shape),
    "gumbel" (-ln G = exp(-(x-loc)/scale)), or "weibull" (support
    x <= loc, -ln G = (-(x-loc)/scale)^shape, zero above the endpoint).
    """

    kind: str
    shape: float = 1.0
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("frechet", "gumbel", "weibull"):
            raise DomainError(f"unknown margin kind {self.kind!r}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"margin scale must be > 0, got {self.scale!r}")
        if self.kind != "gumbel" and not (np.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"margin shape must be > 0, got {self.shape!r}")

    def neg_log_cdf(self, x):
        """-ln G_j(x); raises DomainError below a Frechet lower endpoint."""
        z = (float(x) - self.loc) / self.scale
        if self.kind == "frechet":
            if z <= 0.0:
                raise DomainError(f"value {x!r} is below the Frechet margin support")
            return z**-self.shape
        if self.kind == "gumbel":
            return float(np.exp(-z))
        return 0.0 if z >= 0.0 else (-z) ** self.shape

    def quantile(self, p):
        """G_j^{-1}(p) for p in (0, 1)."""
        if not (0.0 < p < 1.0):
            raise DomainError(f"quantile level must be in (0,1), got {p!r}")
        u = -np.log(p)
        if self.kind == "frechet":
            return self.loc + self.scale * u ** (-1.0 / self.shape)
        if self.kind == "gumbel":
            return self.loc - self.scale * np.log(u)
        return self.loc - self.scale * u ** (1.0 / self.shape)


@dataclass(frozen=True)
class LimitLawQ:
    """(d+1)-dimensional max-stable limit of jointly renormalized
    (componentwise maxima over a random block, block size).

    `base` and `margins` describe the max-stable attractor G of the
    underlying observations; `alpha` is the tail index of the block-size law
    when it is heavy tailed (`size_branch="frechet"`); a light-tailed block
    size uses `size_branch="gumbel"` (alpha is then ignored).

    With m(x) = -ln G(x), the exponent -ln Q(x, y) is

      frechet, alpha <= 1: y^-alpha e^(-y sigma) + sigma^alpha g(1-alpha, y sigma)
                            with sigma = m / Gamma(1-alpha)^(1/alpha)
      frechet, alpha > 1 : m + y^-alpha
      gumbel             : m + e^-y

    where g is the lower incomplete gamma function and, at alpha = 1, the
    conventions Gamma(0) = 1 and g(0, z) = 1 - E1(z) apply (the unique finite
    reading, consistent with the closed-form extremal coefficient below).
    """

    base: PickandsModel
    margins: tuple
    alpha: float
    size_branch: str = "frechet"

    def __post_init__(self):
        if self.size_branch not in ("frechet", "gumbel"):
            raise DomainError(f"unknown size branch {self.size_branch!r}")
        if self.size_branch == "frechet" and not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"tail index must be > 0, got {self.alpha!r}")
        if len(self.margins) != self.base.dim:
            raise DomainError(
                f"need {self.base.dim} margins for the base model, got {len(self.margins)}"
            )

    @property
    def branch(self):
        if self.size_branch == "gumbel":
            return "gumbel"
        return "frechet-heavy" if self.alpha <= 1.0 else "frechet-light"

    def neg_log_g(self, x):
        """-ln G(x) of the base max-stable law."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.base.dim:
            raise DomainError(f"x must be a vector of dimension {self.base.dim}")
        z = np.array([m.neg_log_cdf(v) for m, v in zip(self.margins, x)])
        if np.all(z == 0.0):
            return 0.0
        return stable_tail(self.base, z)

    def neg_log_q(self, x, y):
        """-ln Q(x, y)."""
        m = self.neg_log_g(x)
        y = float(y)
        if self.size_branch == "gumbel":
            if not np.isfinite(y):
                raise DomainError(f"y must be finite, got {y!r}")
            return m + float(np.exp(-y))
        if not (np.isfinite(y) and y > 0.0):
            raise DomainError(f"y must be > 0 on the heavy-tail branch, got {y!r}")
        a = self.alpha
        if a > 1.0:
            return m + y**-a
        g1 = 1.0 if a == 1.0 else float(np.exp(ln_gamma(1.0 - a)))
        sigma = m / g1 ** (1.0 / a)
        head = y**-a * float(np.exp(-y * sigma))
        if m == 0.0:
            return head
        if a == 1.0:
            tail = sigma * (1.0 - exp_integral_e1(y * sigma))
        else:
            tail = sigma**a * lower_incomplete_gamma(1.0 - a, y * sigma)
        return head + tail

    def theta(self):
        """Closed-form extremal coefficient of Q.

        Heavy-tailed size branch: for alpha in (0,1) it combines the gamma
        family at theta(G); at alpha = 1 it uses the logarithmic integral,
        exp(-theta_G) + theta_G (li(exp(-theta_G)) + 1); for alpha > 1 and
        for the light-tailed branch it is theta(G) + 1.
        """
        th = extremal_coefficient(self.base)
        if self.size_branch == "gumbel" or self.alpha > 1.0:
            return th + 1.0
        if self.alpha == 1.0:
            return float(np.exp(-th)) + th * (log_integral(float(np.exp(-th))) + 1.0)
        a = self.alpha
        g1 = float(np.exp(ln_gamma(1.0 - a)))
        s = th / g1 ** (1.0 / a)
        return float(np.exp(-s)) + th**a / g1 * lower_incomplete_gamma(1.0 - a, s)
