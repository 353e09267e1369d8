"""Anisotropic geometry of the degenerate half-space operator.

The natural geometry of the operator

    L u = x_n^{2a} sum_{i,j<n} a_ij D_ij u + 2 x_n^a sum_{i<n} a_in D_in u + D_nn u

on the upper half space {x_n >= 0} is not Euclidean: tangential directions
and the normal direction scale differently.  This module provides the exact
closed-form pieces of that geometry: the gauge level r(x), read by the gauge
d(x) = r^{1/(2(alpha+1))} and by the kernel and its jets in ``closedforms``,
the quasi-distance d_a(y, z), the anisotropic dilations F_h and the
comparison ellipsoids E_h about the origin.

Points are coordinate arrays: ``tangential`` of shape (..., n-1) holds x'
and ``normal`` of shape (...,) holds x_n; every function broadcasts over the
leading axes and returns float64 arrays.  The dilation F_h multiplies x' and
x_n by the two factors of ``scaling_factors``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrushinParams",
    "gauge_level_arrays",
    "gauge_arrays",
    "quasi_distance_arrays",
    "scaling_factors",
    "ellipsoid_level_arrays",
    "sample_points_by_gauge",
]


@dataclass(frozen=True)
class GrushinParams:
    """Dimension ``n`` and degeneracy exponent ``alpha`` plus derived constants.

    ``alpha = 0`` is allowed and reduces everything to the uniformly elliptic
    (Euclidean) situation.
    """

    n: int
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise TypeError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        alpha = float(self.alpha)
        if not np.isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", alpha)

    @property
    def beta(self) -> float:
        """Gauge weight 1/(1+alpha)^2 of the normal coordinate."""
        return 1.0 / (1.0 + self.alpha) ** 2

    @property
    def gamma(self) -> float:
        """Kernel exponent (n-1)/2 + 1/(2(1+alpha)); satisfies Q = 2(1+alpha)*gamma."""
        return (self.n - 1) / 2.0 + 1.0 / (2.0 * (1.0 + self.alpha))

    @property
    def Q(self) -> float:
        """Homogeneous dimension (alpha+1)(n-1) + 1."""
        return (self.alpha + 1.0) * (self.n - 1) + 1.0


def gauge_level_arrays(tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> np.ndarray:
    """Gauge level r(x) = |x'|^2 + beta * x_n^{2(alpha+1)} = d(x)^{2(alpha+1)}, vectorised.

    ``tangential`` has shape (..., n-1), ``normal`` shape (...,).
    """
    tangential = np.asarray(tangential, dtype=float)
    normal = np.asarray(normal, dtype=float)
    return np.sum(tangential**2, axis=-1) + p.beta * normal ** (2.0 * (p.alpha + 1.0))


def gauge_arrays(tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> np.ndarray:
    """Gauge d(x) = r(x)^{1/(2(alpha+1))} of the gauge level r, vectorised."""
    return gauge_level_arrays(tangential, normal, p) ** (1.0 / (2.0 * (p.alpha + 1.0)))


def quasi_distance_arrays(
    yp: np.ndarray, yn: np.ndarray, zp: np.ndarray, zn: np.ndarray, alpha: float
) -> np.ndarray:
    """Quasi-distance |y'-z'| + |y_n^{1+alpha} - z_n^{1+alpha}|, vectorised."""
    yp = np.asarray(yp, dtype=float)
    zp = np.asarray(zp, dtype=float)
    yn = np.asarray(yn, dtype=float)
    zn = np.asarray(zn, dtype=float)
    tang = np.linalg.norm(yp - zp, axis=-1)
    return tang + np.abs(yn ** (1.0 + alpha) - zn ** (1.0 + alpha))


def scaling_factors(h: float, p: GrushinParams) -> tuple[float, float]:
    """Per-direction factors (h^{1/2}, h^{1/(2(1+alpha))}) of the dilation F_h."""
    if h <= 0.0:
        raise ValueError(f"scaling parameter h must be > 0, got {h}")
    return float(h) ** 0.5, float(h) ** (1.0 / (2.0 * (1.0 + p.alpha)))


def ellipsoid_level_arrays(tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> np.ndarray:
    """Level |x'|^2 + |x_n|^{2(1+alpha)}; x lies in E_h, about the origin, iff it is < h."""
    tangential = np.asarray(tangential, dtype=float)
    normal = np.asarray(normal, dtype=float)
    return np.sum(tangential**2, axis=-1) + np.abs(normal) ** (2.0 * (1.0 + p.alpha))


def sample_points_by_gauge(
    p: GrushinParams,
    rng: np.random.Generator,
    count: int,
    gauge_lo: float,
    gauge_hi: float,
    min_normal_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Random points with gauges log-uniform in [gauge_lo, gauge_hi].

    Draws directions in the unit box, projects each to gauge 1 along its
    dilation orbit, then dilates to the target gauge; ``min_normal_fraction``
    bounds x_n away from the flat boundary (relative to the unit box).
    Returns (tangential (count, n-1), normal (count,)).
    """
    if not 0.0 < gauge_lo < gauge_hi:
        raise ValueError("need 0 < gauge_lo < gauge_hi")
    tang = rng.uniform(-1.0, 1.0, (count, p.n - 1))
    norm = rng.uniform(min_normal_fraction, 1.0, count)
    raw_gauge = gauge_arrays(tang, norm, p)
    targets = np.exp(rng.uniform(np.log(gauge_lo), np.log(gauge_hi), count))
    ratio = targets / raw_gauge
    return tang * ratio[:, None] ** (1.0 + p.alpha), norm * ratio
