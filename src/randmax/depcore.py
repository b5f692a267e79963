"""Dependence-structure core.

Pickands dependence functions A on the unit simplex S_d, the stable-tail
dependence function L(z) = (z_1 + ... + z_d) A(z / sum z), the alpha-scaling
transform that maps the dependence of a max-stable vector Z to that of S * Z
for a positive alpha-stable factor S, its inverse, extremal and upper-tail
coefficients, the Student-t CDF behind the extremal-t family, and the
(d+1)-dimensional limit law of jointly renormalized (componentwise maxima,
block size), whose gamma-family and integral terms come from scipy.special.

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

* Both directions move the point by the one coordinate map of power_points,
  t -> t^p / |t^p|_1 with p = 1/alpha forward and p = alpha back.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError, RangeLinkError, as_integer

__all__ = [
    "check_tail_index",
    "as_simplex_rows",
    "edge_grid",
    "edge_points",
    "power_points",
    "PickandsModel",
    "Logistic",
    "Independence",
    "student_t_cdf",
    "ExtremalT",
    "AlphaScaled",
    "stable_tail",
    "extremal_coefficient",
    "lambda_from_theta",
    "lambda_inverse_link",
    "tail_prob_approx",
    "astar_points",
    "GevMargin",
    "LimitLawQ",
]

_SIMPLEX_TOL = 1e-12
#: clamp deviations larger than this are reported; smaller ones are rounding
CLAMP_TOL = 1e-12


def check_tail_index(alpha):
    """Raise DomainError unless alpha is in (0, 1), the one statement of that
    rule. alpha is both the tail index of the random number of observations
    and the index of the positive stable factor of the alpha-scaling transform."""
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise DomainError(f"tail index must be in (0,1), got {alpha!r}")


def as_simplex_rows(points):
    """Validate and return a (k, d) array of k >= 1 simplex points as a float
    array, checking every row at once; an error names the first bad row."""
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 2:
        raise DomainError(f"need a (k, d) array of k >= 1 simplex points, d >= 2, not {a.shape}")
    # a nan or an infinite entry makes the sum nonfinite
    total = a.sum(axis=1)
    bad_entries = ~np.isfinite(total) | (a.min(axis=1) < 0.0)
    bad_sum = np.abs(total - 1.0) > _SIMPLEX_TOL
    bad = np.flatnonzero(bad_entries | bad_sum)
    if bad.size and bad_entries[bad[0]]:
        raise DomainError(
            f"simplex point in row {bad[0]} must have nonnegative finite entries, "
            f"got {a[bad[0]].tolist()!r}"
        )
    if bad.size:
        raise DomainError(
            f"simplex point in row {bad[0]} must sum to 1, got sum {float(total[bad[0]])!r}"
        )
    return a


def edge_grid(m):
    """Uniform grid of m curve coordinates on [0, 1] (bivariate case)."""
    if as_integer("grid size", m) < 2:
        raise DomainError(f"grid size must be >= 2, got {m}")
    return np.linspace(0.0, 1.0, m)


def edge_points(w):
    """Stack curve coordinates w into simplex points (1 - w, w)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return np.column_stack([1.0 - w, w])


def power_points(points, p):
    """The coordinate map t -> t^p / |t^p|_1 of simplex points (..., d).

    Returns (t^p / |t^p|_1, |t^p|_1), the norm without its last axis. The
    alpha-scaling moves a point with p = 1/alpha (|t^p|_1^alpha is the
    norm |t|_a of the module docstring) and its inverse with p = alpha.
    The norm is one np.sum over the last axis: summing column by column
    gives other bits from d = 8 on, where NumPy sums pairwise.
    """
    tp = np.asarray(points, dtype=float) ** p
    total = np.sum(tp, axis=-1, keepdims=True)
    return tp / total, total[..., 0]


class PickandsModel:
    """A Pickands dependence function A with max(t) <= A(t) <= 1, A(e_j) = 1."""

    dim = 2

    def __post_init__(self):
        if as_integer("dim", self.dim) < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dim!r}")

    def values(self, points):
        """Evaluate A at an array of simplex points, shape (k, d) -> (k,)."""
        raise NotImplementedError

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
        super().__post_init__()

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


def student_t_cdf(x, nu):
    """CDF of the standard Student-t law with nu > 0 degrees of freedom.

    Computed through the regularized incomplete beta function, so the result
    is exact up to that routine's accuracy; T_nu(-x) = 1 - T_nu(x). Scalar
    input gives scalar output.
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
    half_tail = 0.5 * special.betainc(0.5 * nu, 0.5, z)
    out = np.where(a >= 0.0, 1.0 - half_tail, half_tail)
    return float(out) if scalar else out


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
        check_tail_index(self.alpha)
        object.__setattr__(self, "dim", self.base.dim)

    def values(self, points):
        inner, total = power_points(points, 1.0 / self.alpha)
        return total**self.alpha * self.base.values(inner) ** self.alpha


def _z_vector(model, z):
    """z as a float vector of the model's dimension with nonnegative finite entries."""
    a = np.asarray(z, dtype=float)
    if a.ndim != 1 or a.size != model.dim:
        raise DomainError(f"z must be a vector of dimension {model.dim}, got {z!r}")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise DomainError(f"z must have nonnegative finite entries, got {z!r}")
    return a


def stable_tail(model, z):
    """Stable-tail dependence function L(z) = (sum z) * A(z / sum z), z >= 0."""
    a = _z_vector(model, z)
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
    check_tail_index(alpha)
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
    check_tail_index(alpha)
    if as_integer("n", n) < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    a = _z_vector(model, z)
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
    the largest coordinate of that point and 1. The point is the map of
    power_points at p = 1/alpha, fused here with that bound in one column
    loop for speed (its bits equal power_points' for d < 8). With noisy
    input curves astar can exit the envelope, in which case it is clipped,
    and the mask marks the points moved by more than rounding. Exact inputs
    are never flagged. alpha is not validated here, so a clamped tail
    estimate can be passed as it is.
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

    def neg_log_g(self, x):
        """-ln G(x) of the base max-stable law."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.base.dim:
            raise DomainError(f"x must be a vector of dimension {self.base.dim}")
        z = np.array([m.neg_log_cdf(v) for m, v in zip(self.margins, x)])
        if np.all(z == 0.0):
            return 0.0
        return stable_tail(self.base, z)

    @property
    def branch(self):
        """The form of Q: "gumbel", or "frechet_" + heavy/unit/light for alpha <, =, > 1."""
        if self.size_branch == "gumbel":
            return "gumbel"
        if self.alpha < 1.0:
            return "frechet_heavy"
        return "frechet_unit" if self.alpha == 1.0 else "frechet_light"

    def neg_log_q(self, x, y):
        """-ln Q(x, y)."""
        m = self.neg_log_g(x)
        y = float(y)
        if self.branch == "gumbel":
            if not np.isfinite(y):
                raise DomainError(f"y must be finite, got {y!r}")
            return m + float(np.exp(-y))
        if not (np.isfinite(y) and y > 0.0):
            raise DomainError(f"y must be > 0 on the heavy-tail branch, got {y!r}")
        a = self.alpha
        if self.branch == "frechet_light":
            return m + y**-a
        g1 = 1.0 if self.branch == "frechet_unit" else float(np.exp(special.gammaln(1.0 - a)))
        sigma = m / g1 ** (1.0 / a)
        head = y**-a * float(np.exp(-y * sigma))
        if m == 0.0:
            return head
        if self.branch == "frechet_unit":
            tail = sigma * (1.0 - special.exp1(y * sigma))
        else:
            tail = sigma**a * (g1 * special.gammainc(1.0 - a, y * sigma))
        return head + tail

    def theta(self):
        """Closed-form extremal coefficient of Q.

        Heavy-tailed size branch: for alpha in (0,1) it combines the gamma
        family at theta(G); at alpha = 1 it uses the logarithmic integral,
        exp(-theta_G) + theta_G (li(exp(-theta_G)) + 1); for alpha > 1 and
        for the light-tailed branch it is theta(G) + 1.
        """
        th = extremal_coefficient(self.base)
        if self.branch in ("gumbel", "frechet_light"):
            return th + 1.0
        if self.branch == "frechet_unit":
            # li(x) = Ei(ln x)
            e = float(np.exp(-th))
            return e + th * (float(special.expi(np.log(e))) + 1.0)
        a = self.alpha
        g1 = float(np.exp(special.gammaln(1.0 - a)))
        s = th / g1 ** (1.0 / a)
        return float(np.exp(-s)) + th**a / g1 * float(g1 * special.gammainc(1.0 - a, s))
