"""Convex domains and the parabolic weight.

Two domain kinds are supported: an open interval (a, b) and a disk.  Both
are star-shaped with respect to every interior point, which is what the
analysis machinery needs: an anchor point x0 inside the observation region
omega, and the quadratic weight

    phi(x) = -|x - x0|^2 / 4,

whose algebra (phi + |grad phi|^2 = 0, constant Laplacian, explicit normal
derivative) drives every weighted identity downstream.  The time profile,
which logconvexity evaluates, is

    Upsilon(t) = T - t + h,      Phi(x, t) = s * phi(x) / Upsilon(t),

with s in (0, 1) and h > 0.  All evaluators are vectorized over points.

Everything here is immutable after construction; instances may be shared
freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UsageError


def _as_points(domain, x):
    """Return points as an (m, dim) float array."""
    arr = np.asarray(x, dtype=float)
    if domain.dim == 1:
        return np.atleast_1d(arr).reshape(-1, 1)
    pts = np.atleast_2d(arr)
    if pts.shape[1] != 2:
        raise UsageError(f"disk points must have 2 coordinates, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class OmegaSpec:
    """Observation region: subinterval (lo, hi) or open subdisk."""

    lo: float | None = None
    hi: float | None = None
    center: tuple[float, float] | None = None
    radius: float | None = None


@dataclass(frozen=True)
class DomainSpec:
    """Validated domain description with anchor point and observation region.

    Use the ``interval`` / ``disk`` classmethods; they run all geometric
    consistency checks (anchor strictly interior, omega compactly contained,
    anchor inside omega) and raise ConfigurationError on violation.
    """

    kind: str
    a: float = 0.0
    b: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    x0: tuple[float, ...] = (0.0,)
    omega: OmegaSpec = field(default_factory=OmegaSpec)

    @classmethod
    def interval(cls, a, b, x0, omega_lo, omega_hi):
        a, b, x0, omega_lo, omega_hi = map(float, (a, b, x0, omega_lo, omega_hi))
        if not b > a:
            raise ConfigurationError(f"interval needs a < b, got a={a}, b={b}")
        if x0 == a or x0 == b:
            raise ConfigurationError(f"anchor x0={x0} lies on the boundary")
        if not (a < x0 < b):
            raise ConfigurationError(f"anchor x0={x0} is outside ({a}, {b})")
        if not (a < omega_lo < omega_hi < b):
            raise ConfigurationError(
                f"omega=({omega_lo}, {omega_hi}) must satisfy a < lo < hi < b with a={a}, b={b}"
            )
        if not (omega_lo < x0 < omega_hi):
            raise ConfigurationError(f"anchor x0={x0} must lie inside omega=({omega_lo}, {omega_hi})")
        return cls(kind="interval", a=a, b=b, x0=(x0,),
                   omega=OmegaSpec(lo=omega_lo, hi=omega_hi))

    @classmethod
    def disk(cls, center, radius, x0, omega_center, omega_radius):
        center = tuple(float(c) for c in center)
        x0 = tuple(float(c) for c in x0)
        omega_center = tuple(float(c) for c in omega_center)
        radius = float(radius)
        omega_radius = float(omega_radius)
        if len(center) != 2 or len(x0) != 2 or len(omega_center) != 2:
            raise ConfigurationError("disk points need exactly 2 coordinates")
        if radius <= 0:
            raise ConfigurationError(f"disk radius must be positive, got {radius}")
        d0 = float(np.hypot(x0[0] - center[0], x0[1] - center[1]))
        if d0 >= radius:
            raise ConfigurationError(
                f"anchor x0={x0} is not strictly inside the disk (|x0-c|={d0}, R={radius})"
            )
        if omega_radius <= 0:
            raise ConfigurationError(f"omega radius must be positive, got {omega_radius}")
        dc = float(np.hypot(omega_center[0] - center[0], omega_center[1] - center[1]))
        if dc + omega_radius >= radius:
            raise ConfigurationError(
                "closure of omega must stay inside the open disk "
                f"(|c_omega-c|+r_omega={dc + omega_radius}, R={radius})"
            )
        dx0 = float(np.hypot(x0[0] - omega_center[0], x0[1] - omega_center[1]))
        if dx0 >= omega_radius:
            raise ConfigurationError(
                f"anchor x0={x0} must lie inside omega (dist={dx0}, r_omega={omega_radius})"
            )
        return cls(kind="disk", center=center, radius=radius, x0=x0,
                   omega=OmegaSpec(center=omega_center, radius=omega_radius))

    @property
    def dim(self):
        return 1 if self.kind == "interval" else 2

    @property
    def x0_array(self):
        return np.asarray(self.x0, dtype=float)

    @property
    def interval_center(self):
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class WeightParams:
    """Carleman profile parameters: exponent fraction s, pad h, horizon T."""

    s: float
    h: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ConfigurationError(f"s must lie in (0, 1), got {self.s}")
        if self.h <= 0.0:
            raise ConfigurationError(f"h must be positive, got {self.h}")
        if self.T <= 0.0:
            raise ConfigurationError(f"T must be positive, got {self.T}")

    @property
    def C0(self):
        """Drift exponent 1 - s^3 used by the frequency differential bound."""
        return 1.0 - self.s ** 3


@dataclass(frozen=True)
class PhiBundle:
    """Pointwise data of the spatial weight phi at a batch of points."""

    phi: np.ndarray
    grad: np.ndarray
    laplacian: float


def weight_phi_bundle(domain, x):
    """Evaluate phi = -|x-x0|^2/4 with gradient and (constant) Laplacian."""
    diff = _as_points(domain, x) - domain.x0_array.reshape(1, -1)
    phi = -0.25 * np.sum(diff * diff, axis=1)
    grad = -0.5 * diff
    return PhiBundle(phi=phi, grad=grad, laplacian=-0.5 * domain.dim)


def phi_extremes(domain):
    """(min phi over the closure, max phi over closure minus omega).

    Both are closed-form: phi decreases with distance from the anchor, so
    the minimum sits at the farthest point of the closure and the maximum
    outside omega sits at the nearest point of the complement.
    """
    x0 = domain.x0_array
    if domain.kind == "interval":
        far = max(x0[0] - domain.a, domain.b - x0[0])
        near_out = min(x0[0] - domain.omega.lo, domain.omega.hi - x0[0])
    else:
        off = float(np.hypot(x0[0] - domain.center[0], x0[1] - domain.center[1]))
        far = domain.radius + off
        d_oc = float(np.hypot(x0[0] - domain.omega.center[0], x0[1] - domain.omega.center[1]))
        near_out = domain.omega.radius - d_oc
    return -0.25 * far ** 2, -0.25 * near_out ** 2
