"""Coefficient fields of the operator and the strip ellipticity audit.

A coefficient field supplies the symmetric tangential block a_ij(x) and the
mixed row a_in(x) together with its declared structure constants: ellipticity
bracket [lambda, Lambda] of the tangential block, the mixed-term margin delta
in (0, 1) with

    1 - lambda^{-1} sum_i sup|a_in|^2 > delta,

and the far-field decay rate s in

    |a_ij(x) - delta_ij| + |a_in(x)| <= d(x)^{-s}.

The audit assembles the full degenerate matrix

    A~(x) = [[ a_ij x_n^{2a}, a_in x_n^a ],
             [ a_in x_n^a,    1          ]]

at sample points and compares its spectrum against the closed-form strip
bound min{(1-tau) lambda eps0^{2a}, 1 - (1-delta)/tau} for x_n >= eps0,
checking bare positivity below the strip.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .geometry import GrushinParams, gauge_arrays
from .runtime import map_chunks

__all__ = [
    "CoefficientField",
    "AuditViolation",
    "EllipticityReport",
    "make_identity_field",
    "make_decaying_perturbation",
    "strip_bound",
    "audit_ellipticity_arrays",
]

FieldFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Evaluable coefficients a_ij, a_in with their declared structure constants.

    ``tangential(xp, xn)`` maps points with shapes (..., n-1) and (...,) to
    symmetric blocks of shape (..., n-1, n-1); ``mixed(xp, xn)`` to rows of
    shape (..., n-1).  Both must be pure, deterministic functions of position.
    ``decay_s`` follows the conventions: 0 claims no decay, ``inf`` means the
    field is exactly the identity (no perturbation at all).
    """

    tangential: FieldFn
    mixed: FieldFn
    lambda_const: float
    Lambda_const: float
    delta_const: float
    decay_s: float

    def __post_init__(self) -> None:
        if self.lambda_const <= 0.0:
            raise ValueError(f"lambda_const must be > 0, got {self.lambda_const}")
        if self.Lambda_const < self.lambda_const:
            raise ValueError("Lambda_const must be >= lambda_const")
        if not 0.0 < self.delta_const < 1.0:
            raise ValueError(f"delta_const must lie in (0, 1), got {self.delta_const}")
        if self.decay_s < 0.0:
            raise ValueError(f"decay_s must be >= 0, got {self.decay_s}")


@dataclass(frozen=True)
class AuditViolation:
    """One audit failure: which check broke, at which sample index, by how much."""

    kind: str
    index: int
    value: float
    bound: float


@dataclass(frozen=True)
class EllipticityReport:
    """Outcome of the strip ellipticity audit over a point sample.

    ``lambda_min`` and ``lambda_max`` hold the extreme eigenvalues of A~ at
    every sample point; they are left out of ``repr`` and ``==``.
    """

    lower_bound_formula: float
    lower_bound_numeric: float
    upper_bound_numeric: float
    epsilon0: float
    tau: float
    violations: tuple[AuditViolation, ...]
    strip_count: int
    total_count: int
    lambda_min: np.ndarray = dataclass_field(repr=False, compare=False)
    lambda_max: np.ndarray = dataclass_field(repr=False, compare=False)


def make_identity_field(p: GrushinParams) -> CoefficientField:
    """The model field a_ij = delta_ij, a_in = 0 (the pure Grushin operator)."""
    m = p.n - 1
    eye = np.eye(m)

    def tangential(xp: np.ndarray, xn: np.ndarray) -> np.ndarray:
        xn = np.asarray(xn, dtype=float)
        return np.broadcast_to(eye, xn.shape + (m, m))

    def mixed(xp: np.ndarray, xn: np.ndarray) -> np.ndarray:
        xn = np.asarray(xn, dtype=float)
        return np.zeros(xn.shape + (m,))

    return CoefficientField(
        tangential=tangential,
        mixed=mixed,
        lambda_const=1.0,
        Lambda_const=1.0,
        delta_const=0.5,
        decay_s=np.inf,
    )


def make_decaying_perturbation(
    p: GrushinParams, s: float, amplitude: float, seed: int
) -> CoefficientField:
    """Smooth seeded perturbation of the identity decaying like d(x)^{-s}.

    a_ij = delta_ij + A phi_ij(x) min(1, d^{-s}) / (2(n-1)) and
    a_in = A psi_i(x) min(1, d^{-s}) / (2(n-1)), with phi, psi products of unit
    sine waves drawn from ``seed`` (so |phi|, |psi| <= 1 and phi_ij = phi_ji).
    The 1/(2(n-1)) normalisation keeps every pairwise deviation
    |a_ij - delta_ij| + |a_in| within the d^{-s} envelope for A <= 1, and the
    declared constants are lambda = 1 - A/2, Lambda = 1 + A/2, delta = 1 - A
    clamped into (0, 1).
    """
    if s <= 0.0:
        raise ValueError(f"decay rate s must be > 0, got {s}")
    if not 0.0 < amplitude <= 1.0:
        raise ValueError(f"amplitude must lie in (0, 1], got {amplitude}")
    m = p.n - 1
    rng = np.random.default_rng(seed)
    # Symmetric wave data for the tangential block, one row for the mixed terms.
    k_tang = rng.uniform(0.4, 1.6, size=(m, m, p.n)) * rng.choice([-1.0, 1.0], size=(m, m, p.n))
    th_tang = rng.uniform(0.0, 2.0 * np.pi, size=(m, m))
    iu = np.triu_indices(m)
    k_tang[iu[1], iu[0]] = k_tang[iu]
    th_tang[iu[1], iu[0]] = th_tang[iu]
    k_mix = rng.uniform(0.4, 1.6, size=(m, p.n)) * rng.choice([-1.0, 1.0], size=(m, p.n))
    th_mix = rng.uniform(0.0, 2.0 * np.pi, size=m)
    eye = np.eye(m)
    scale = amplitude / (2.0 * m)

    def envelope(xp: np.ndarray, xn: np.ndarray) -> np.ndarray:
        d = gauge_arrays(xp, xn, p)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, d**-s)

    def tangential(xp: np.ndarray, xn: np.ndarray) -> np.ndarray:
        xp = np.asarray(xp, dtype=float)
        xn = np.asarray(xn, dtype=float)
        full = np.concatenate([xp, xn[..., None]], axis=-1)
        waves = np.sin(np.einsum("...d,ijd->...ij", full, k_tang) + th_tang)
        env = (scale * envelope(xp, xn))[..., None, None]
        return eye + env * waves

    def mixed(xp: np.ndarray, xn: np.ndarray) -> np.ndarray:
        xp = np.asarray(xp, dtype=float)
        xn = np.asarray(xn, dtype=float)
        full = np.concatenate([xp, xn[..., None]], axis=-1)
        waves = np.sin(np.einsum("...d,id->...i", full, k_mix) + th_mix)
        env = (scale * envelope(xp, xn))[..., None]
        return env * waves

    delta = min(max(1.0 - amplitude, 1e-6), 1.0 - 1e-6)
    return CoefficientField(
        tangential=tangential,
        mixed=mixed,
        lambda_const=1.0 - amplitude / 2.0,
        Lambda_const=1.0 + amplitude / 2.0,
        delta_const=delta,
        decay_s=s,
    )


def _degenerate_matrix(
    a_t: np.ndarray, a_m: np.ndarray, xn: np.ndarray, p: GrushinParams
) -> np.ndarray:
    """A~ from the evaluated blocks a_ij (..., n-1, n-1) and a_in (..., n-1)."""
    out = np.zeros(xn.shape + (p.n, p.n))
    out[..., :-1, :-1] = a_t * xn[..., None, None] ** (2.0 * p.alpha)
    mix = a_m * xn[..., None] ** p.alpha
    out[..., :-1, -1] = mix
    out[..., -1, :-1] = mix
    out[..., -1, -1] = 1.0
    return out


def strip_bound(lam: float, delta: float, epsilon0: float, alpha: float, tau: float) -> float:
    """Closed-form eigenvalue floor min{(1-tau) lam eps0^{2a}, 1 - (1-delta)/tau}."""
    return min((1.0 - tau) * lam * epsilon0 ** (2.0 * alpha), 1.0 - (1.0 - delta) / tau)


_BOUND_SLACK = 1e-10
_RAYLEIGH_SLACK = 1e-10
_SYM_SLACK = 1e-12


def audit_ellipticity_arrays(
    field: CoefficientField,
    p: GrushinParams,
    epsilon0: float,
    tangential: np.ndarray,
    normal: np.ndarray,
    tau: float | None = None,
) -> EllipticityReport:
    """Run the ellipticity audit of ``field`` over points (N, n-1) and (N,).

    Violations are collected into the report rather than raised; a passing
    audit has an empty ``violations`` tuple.  The sample must be nonempty,
    finite and inside the closed unit half-box.
    """
    if not 0.0 < epsilon0 < 1.0:
        raise ValueError(f"epsilon0 must lie in (0, 1), got {epsilon0}")
    delta = field.delta_const
    if tau is None:
        tau = 1.0 - delta / 2.0
    if not 1.0 - delta < tau < 1.0:
        raise ValueError(f"tau must lie in (1 - delta, 1) = ({1 - delta}, 1), got {tau}")
    xp = np.atleast_2d(np.asarray(tangential, dtype=float))
    xn = np.atleast_1d(np.asarray(normal, dtype=float))
    if xn.size == 0:
        raise ValueError("audit sample must be nonempty")
    if xp.shape != (xn.size, p.n - 1):
        raise ValueError(f"expected tangential shape {(xn.size, p.n - 1)}, got {xp.shape}")
    if not (np.all(np.isfinite(xp)) and np.all(np.isfinite(xn))):
        raise ValueError("audit sample must be finite")
    if np.any(np.abs(xp) > 1.0 + 1e-12) or np.any(xn < 0.0) or np.any(xn > 1.0 + 1e-12):
        raise ValueError("audit sample must lie in the closed unit half-box")

    lam, big = field.lambda_const, field.Lambda_const
    formula = strip_bound(lam, delta, epsilon0, p.alpha, tau)

    def chunk(start: int, stop: int):
        cxp, cxn = xp[start:stop], xn[start:stop]
        a_t = np.asarray(field.tangential(cxp, cxn), dtype=float)
        a_m = np.asarray(field.mixed(cxp, cxn), dtype=float)
        asym = np.max(np.abs(a_t - np.swapaxes(a_t, -1, -2)), axis=(-1, -2))
        # eigvalsh reads the lower triangle, so asymmetric blocks are flagged
        # via ``asym`` rather than poisoning the eigenvalues.
        eig_t = np.linalg.eigvalsh(a_t)
        eig_f = np.linalg.eigvalsh(_degenerate_matrix(a_t, a_m, cxn, p))
        return asym, eig_t, a_m, eig_f

    pieces = map_chunks(chunk, xn.size)
    asym, eig_t, a_m, eig_f = (np.concatenate(parts) for parts in zip(*pieces))

    violations: list[AuditViolation] = []
    for i in np.flatnonzero(asym > _SYM_SLACK):
        violations.append(AuditViolation("tangential-asymmetry", int(i), float(asym[i]), _SYM_SLACK))
    for i in np.flatnonzero(eig_t[:, 0] < lam - _RAYLEIGH_SLACK):
        violations.append(AuditViolation("rayleigh-lower", int(i), float(eig_t[i, 0]), lam))
    for i in np.flatnonzero(eig_t[:, -1] > big + _RAYLEIGH_SLACK):
        violations.append(AuditViolation("rayleigh-upper", int(i), float(eig_t[i, -1]), big))

    sup_sq = float(np.sum(np.max(np.abs(a_m), axis=0) ** 2))
    mixed_margin = 1.0 - sup_sq / lam
    if not mixed_margin > delta:
        violations.append(AuditViolation("mixed-condition", -1, mixed_margin, delta))

    on_strip = xn >= epsilon0
    lam_min = eig_f[:, 0]
    lam_max = eig_f[:, -1]
    for i in np.flatnonzero(on_strip & (lam_min < formula - _BOUND_SLACK)):
        violations.append(AuditViolation("strip-bound", int(i), float(lam_min[i]), formula))
    interior = (~on_strip) & (xn > 0.0)
    for i in np.flatnonzero(interior & (lam_min <= 0.0)):
        violations.append(AuditViolation("interior-positivity", int(i), float(lam_min[i]), 0.0))
    on_flat = xn == 0.0
    for i in np.flatnonzero(on_flat & (lam_min < -_BOUND_SLACK)):
        violations.append(AuditViolation("boundary-nonnegativity", int(i), float(lam_min[i]), 0.0))

    violations.sort(key=lambda v: (v.index, v.kind))
    strip_count = int(np.count_nonzero(on_strip))
    return EllipticityReport(
        lower_bound_formula=formula,
        lower_bound_numeric=float(np.min(lam_min[on_strip])) if strip_count else float("nan"),
        upper_bound_numeric=float(np.max(lam_max[on_strip])) if strip_count else float("nan"),
        epsilon0=float(epsilon0),
        tau=float(tau),
        violations=tuple(violations),
        strip_count=strip_count,
        total_count=int(xn.size),
        lambda_min=lam_min,
        lambda_max=lam_max,
    )
