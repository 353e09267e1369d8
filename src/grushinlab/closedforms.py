"""Exact 2-jets of the closed-form functions attached to the operator.

Everything here is hand-differentiated closed forms, no numerics: the
harmonic kernel w(x) = x_n / (|x'|^2 + beta x_n^{2+2a})^gamma, powers of the
gauge, the far-field supersolution w - w^{1+rho}, and the flat-boundary
barrier C x_n + B|x'-x0'|^2 - (C/2) x_n^{2+a}.  The operators

    G u = x_n^{2a} Delta' u + D_nn u                  (Grushin model)
    L u = x_n^{2a} sum a_ij D_ij u + 2 x_n^a sum a_in D_in u + D_nn u

act on jets through ``apply_grushin`` and ``apply_operator``.

Every function takes N points as coordinate arrays, tangential (N, n-1) and
normal (N,), and a jet holds one row per point; every row is checked.

Writing r = |x'|^2 + beta x_n^{2+2a}, the kernel is w = x_n r^{-gamma} and a
gauge power d^t equals r^{t/(2(1+a))} because Q = 2(1+a)*gamma; evaluating
through r avoids nesting fractional powers.  The unique exponent t != 0 with
G(d^t) = 0 is t = 2 - Q (for the Laplacian, a = 0, this is the familiar
|x|^{2-n}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField
from .geometry import GrushinParams

__all__ = [
    "Jet2",
    "BarrierSpec",
    "kernel_jet",
    "kernel_value_arrays",
    "gauge_power_jet",
    "harmonic_gauge_power",
    "apply_grushin",
    "apply_operator",
    "grushin_term_scale",
    "supersolution_jet",
    "supersolution_value_arrays",
    "boundary_barrier_jet",
    "choose_barrier_constants",
]

_SYMMETRY_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Jet2:
    """Values (N,), gradients (N, n) and symmetric Hessians (N, n, n) at N points."""

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self) -> None:
        value = np.array(self.value, dtype=float)
        grad = np.array(self.gradient, dtype=float)
        hess = np.array(self.hessian, dtype=float)
        if value.ndim != 1:
            raise ValueError(f"value must be a vector of N rows, got shape {value.shape}")
        if grad.ndim != 2 or grad.shape[0] != value.size:
            raise ValueError(f"gradient must have shape ({value.size}, n), got {grad.shape}")
        rows, n = grad.shape
        if hess.shape != (rows, n, n):
            raise ValueError(f"hessian must have shape ({rows}, {n}, {n}), got {hess.shape}")
        asym = np.abs(hess - np.swapaxes(hess, 1, 2))
        tol = _SYMMETRY_TOL * np.maximum(1.0, np.abs(hess))
        if np.any(asym > tol):
            raise ValueError("hessian is not symmetric within tolerance")
        for array in (value, grad, hess):
            array.flags.writeable = False
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "gradient", grad)
        object.__setattr__(self, "hessian", hess)

    @property
    def dim(self) -> int:
        return self.gradient.shape[1]


@dataclass(frozen=True)
class BarrierSpec:
    """Constants of the flat-boundary barrier C x_n + B|x'-x0'|^2 - (C/2) x_n^{2+a}."""

    C: float
    B: float
    x0_tangential: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        if self.C < 0.0 or self.B < 0.0:
            raise ValueError("barrier constants C and B must be >= 0")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        x0 = np.asarray(self.x0_tangential, dtype=float).copy()
        if x0.ndim != 1:
            raise ValueError("x0_tangential must be a 1-d vector")
        x0.flags.writeable = False
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "B", float(self.B))
        object.__setattr__(self, "x0_tangential", x0)
        object.__setattr__(self, "alpha", float(self.alpha))


def _points(tangential, normal, n: int | None, singular_at_origin=None, positive_normal=None):
    """Checked (tangential (N, n-1), normal (N,)) arrays: finite rows with x_n >= 0.

    ``n`` (unless None) is the required dimension; ``singular_at_origin`` names
    a jet that rejects the origin; ``positive_normal`` is the error for rows
    with x_n = 0.
    """
    xp = np.asarray(tangential, dtype=float)
    xn = np.asarray(normal, dtype=float)
    if xn.ndim != 1 or xp.ndim != 2 or xp.shape[0] != xn.size:
        raise ValueError(f"expected tangential (N, n-1) and normal (N,), got {xp.shape}, {xn.shape}")
    if not np.all(np.isfinite(xp)):
        raise ValueError("tangential coordinates must be finite")
    bad = np.flatnonzero(~(np.isfinite(xn) & (xn >= 0.0)))
    if bad.size:
        raise ValueError(f"normal coordinate must be finite and >= 0, got {xn[bad[0]]}")
    if n is not None and xp.shape[1] + 1 != n:
        raise ValueError(f"point has dimension {xp.shape[1] + 1}, params have n={n}")
    on_face = xn == 0.0
    if singular_at_origin is not None and np.any(on_face & ~np.any(xp, axis=1)):
        raise ValueError(f"{singular_at_origin} is singular at the origin")
    if positive_normal is not None and np.any(on_face):
        raise ValueError(positive_normal)
    return xp, xn


def _jet_points(j: Jet2, tangential, normal, p: GrushinParams):
    """Checked points an operator evaluates a jet at, one per jet row."""
    xp, xn = _points(tangential, normal, p.n)
    if j.dim != p.n:
        raise ValueError(f"jet has dimension {j.dim}, params have n={p.n}")
    if j.value.size != xn.size:
        raise ValueError(f"jet has {j.value.size} rows, got {xn.size} points")
    return xp, xn


def kernel_value_arrays(tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> np.ndarray:
    """Kernel values x_n / (|x'|^2 + beta x_n^{2+2a})^gamma, vectorised."""
    tangential = np.asarray(tangential, dtype=float)
    normal = np.asarray(normal, dtype=float)
    base = np.sum(tangential**2, axis=-1) + p.beta * normal ** (2.0 + 2.0 * p.alpha)
    return normal * base ** (-p.gamma)


def kernel_jet(tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> Jet2:
    """2-jets of the harmonic kernel w = x_n r^{-gamma}, r = |x'|^2 + beta x_n^{2+2a}.

    The Grushin operator annihilates w on the open half space; w vanishes on
    {x_n = 0} away from the origin and is singular at the origin, which is
    rejected.
    """
    xp, xn = _points(tangential, normal, p.n, singular_at_origin="kernel jet")
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    e = 2.0 + 2.0 * alpha
    xne = xn**e
    r = np.sum(xp**2, axis=1) + beta * xne
    rg = r**-gamma
    rg1 = r ** -(gamma + 1.0)
    rg2 = r ** -(gamma + 2.0)

    value = xn * rg
    grad = np.empty((xn.size, p.n))
    grad[:, :-1] = -2.0 * gamma * xp * xn[:, None] * rg1[:, None]
    grad[:, -1] = rg - gamma * beta * e * xne * rg1

    hess = np.empty((xn.size, p.n, p.n))
    outer = xp[:, :, None] * xp[:, None, :]
    tt = 4.0 * gamma * (gamma + 1.0) * outer * xn[:, None, None] * rg2[:, None, None]
    diag = np.arange(p.n - 1)
    tt[:, diag, diag] -= (2.0 * gamma * xn * rg1)[:, None]
    hess[:, :-1, :-1] = tt
    mixed = (
        -2.0 * gamma * xp * rg1[:, None]
        + 2.0 * gamma * (gamma + 1.0) * beta * e * xp * xne[:, None] * rg2[:, None]
    )
    hess[:, :-1, -1] = mixed
    hess[:, -1, :-1] = mixed
    hess[:, -1, -1] = (
        -gamma * beta * e * xn ** (1.0 + 2.0 * alpha) * rg1
        - gamma * beta * e**2 * xn ** (1.0 + 2.0 * alpha) * rg1
        + gamma * (gamma + 1.0) * beta**2 * e**2 * xn ** (3.0 + 4.0 * alpha) * rg2
    )
    return Jet2(value, grad, hess)


def harmonic_gauge_power(p: GrushinParams) -> float:
    """The unique nonzero exponent t with G(d^t) = 0, namely t = 2 - Q."""
    return 2.0 - p.Q


def gauge_power_jet(
    tangential: np.ndarray, normal: np.ndarray, p: GrushinParams, power: float
) -> Jet2:
    """2-jets of the gauge power d(x)^power, evaluated as r^{power/(2(1+a))}.

    Going through r = |x'|^2 + beta x_n^{2+2a} instead of powering the gauge
    removes a nested fractional power and its cancellation error; the identity
    d^t = r^{t/(2(1+a))} is exact since d = r^{1/(2(1+a))}.  With
    ``power = harmonic_gauge_power(p)`` the result is annihilated by the
    Grushin operator.
    """
    xp, xn = _points(tangential, normal, p.n, singular_at_origin="gauge power jet")
    alpha, beta = p.alpha, p.beta
    k = power / (2.0 * (1.0 + alpha))
    e = 2.0 + 2.0 * alpha
    r = np.sum(xp**2, axis=1) + beta * xn**e
    rk1 = r ** (k - 1.0)
    rk2 = r ** (k - 2.0)
    dr_n = beta * e * xn ** (1.0 + 2.0 * alpha)

    value = r**k
    grad = np.empty((xn.size, p.n))
    grad[:, :-1] = 2.0 * k * xp * rk1[:, None]
    grad[:, -1] = k * dr_n * rk1

    hess = np.empty((xn.size, p.n, p.n))
    outer = xp[:, :, None] * xp[:, None, :]
    tt = 4.0 * k * (k - 1.0) * outer * rk2[:, None, None]
    diag = np.arange(p.n - 1)
    tt[:, diag, diag] += (2.0 * k * rk1)[:, None]
    hess[:, :-1, :-1] = tt
    mixed = 2.0 * k * (k - 1.0) * xp * dr_n[:, None] * rk2[:, None]
    hess[:, :-1, -1] = mixed
    hess[:, -1, :-1] = mixed
    hess[:, -1, -1] = (
        k * beta * e * (1.0 + 2.0 * alpha) * xn ** (2.0 * alpha) * rk1
        + k * (k - 1.0) * dr_n**2 * rk2
    )
    return Jet2(value, grad, hess)


def apply_grushin(j: Jet2, tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> np.ndarray:
    """Grushin operator x_n^{2a} sum_{i<n} H_ii + H_nn applied to each jet row."""
    _, xn = _jet_points(j, tangential, normal, p)
    h = j.hessian
    tang = np.trace(h[:, :-1, :-1], axis1=1, axis2=2)
    return xn ** (2.0 * p.alpha) * tang + h[:, -1, -1]


def grushin_term_scale(
    j: Jet2, tangential: np.ndarray, normal: np.ndarray, p: GrushinParams
) -> np.ndarray:
    """Sum of absolute Grushin terms x_n^{2a} sum |H_ii| + |H_nn|, per jet row.

    Natural normaliser for residuals of identities like G(w) = 0: the
    cancellation happens among exactly these terms.
    """
    _, xn = _jet_points(j, tangential, normal, p)
    h = j.hessian
    tang = np.sum(np.abs(np.diagonal(h, axis1=1, axis2=2)[:, :-1]), axis=1)
    return xn ** (2.0 * p.alpha) * tang + np.abs(h[:, -1, -1])


def apply_operator(
    field: CoefficientField, j: Jet2, tangential: np.ndarray, normal: np.ndarray, p: GrushinParams
) -> np.ndarray:
    """Full operator x_n^{2a} sum a_ij H_ij + 2 x_n^a sum a_in H_in + H_nn, per jet row."""
    xp, xn = _jet_points(j, tangential, normal, p)
    a_t = np.asarray(field.tangential(xp, xn), dtype=float)
    a_m = np.asarray(field.mixed(xp, xn), dtype=float)
    h = j.hessian
    tang = np.sum(a_t * h[:, :-1, :-1], axis=(1, 2))
    mix = np.sum(a_m * h[:, :-1, -1], axis=1)
    return xn ** (2.0 * p.alpha) * tang + 2.0 * xn**p.alpha * mix + h[:, -1, -1]


def supersolution_value_arrays(
    tangential: np.ndarray, normal: np.ndarray, rho: float, p: GrushinParams
) -> np.ndarray:
    """Values of w - w^{1+rho}, vectorised; positive exactly where 0 < w < 1."""
    if rho <= 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    w = kernel_value_arrays(tangential, normal, p)
    return w - w ** (1.0 + rho)


def supersolution_jet(
    tangential: np.ndarray, normal: np.ndarray, rho: float, p: GrushinParams
) -> Jet2:
    """2-jets of the supersolution w - w^{1+rho}, assembled by the chain rule.

    D(w^{1+rho}) = (1+rho) w^rho Dw and
    D^2(w^{1+rho}) = (1+rho) w^rho D^2 w + rho(1+rho) w^{rho-1} Dw (x) Dw.
    For rho < 1 the factor w^{rho-1} blows up as w -> 0, so points on the flat
    boundary are rejected; the sign property L(w - w^{1+rho}) <= 0 needs
    0 < rho < min(s/(n-1), 1) and only holds far enough out, which is the
    caller's responsibility.
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    flat = "supersolution jet needs x_n > 0 when rho < 1 (w^{rho-1} singular)"
    xp, xn = _points(tangential, normal, p.n, positive_normal=flat if rho < 1.0 else None)
    base = kernel_jet(xp, xn, p)
    w = base.value
    dw = base.gradient
    hw = base.hessian
    wr = w**rho
    wr1 = w ** (rho - 1.0)
    value = w - w ** (1.0 + rho)
    grad = dw - ((1.0 + rho) * wr)[:, None] * dw
    hess = (
        hw
        - ((1.0 + rho) * wr)[:, None, None] * hw
        - (rho * (1.0 + rho) * wr1)[:, None, None] * (dw[:, :, None] * dw[:, None, :])
    )
    return Jet2(value, grad, hess)


def boundary_barrier_jet(tangential: np.ndarray, normal: np.ndarray, spec: BarrierSpec) -> Jet2:
    """2-jets of the flat-boundary barrier C x_n + B|x'-x0'|^2 - (C/2) x_n^{2+a}."""
    xp, xn = _points(tangential, normal, None)
    if xp.shape[1] != spec.x0_tangential.size:
        raise ValueError("point and barrier anchor have different tangential dimensions")
    alpha, c, b = spec.alpha, spec.C, spec.B
    dx = xp - spec.x0_tangential
    n = xp.shape[1] + 1
    value = c * xn + b * np.sum(dx * dx, axis=1) - 0.5 * c * xn ** (2.0 + alpha)
    grad = np.empty((xn.size, n))
    grad[:, :-1] = 2.0 * b * dx
    grad[:, -1] = c - 0.5 * c * (2.0 + alpha) * xn ** (1.0 + alpha)
    hess = np.zeros((xn.size, n, n))
    diag = np.arange(n - 1)
    hess[:, diag, diag] = 2.0 * b
    hess[:, -1, -1] = -0.5 * c * (2.0 + alpha) * (1.0 + alpha) * xn**alpha
    return Jet2(value, grad, hess)


def choose_barrier_constants(
    sup_norm_u: float,
    Lambda: float,
    alpha: float,
    n: int,
    x0_tangential: np.ndarray | None = None,
) -> BarrierSpec:
    """Barrier constants making the barrier a supersolution that majorises u.

    Takes B = 16 * sup|u| and the smallest C with both
    2(n-1) Lambda B <= (2+a)(1+a) C / 2   (so L(barrier) <= 0 for x_n in (0,1])
    and C >= 2 sup|u|                     (so the barrier beats sup|u| on the
                                           unit-box boundary even at x' = x0').
    """
    if sup_norm_u < 0.0:
        raise ValueError(f"sup_norm_u must be >= 0, got {sup_norm_u}")
    if Lambda <= 0.0:
        raise ValueError(f"Lambda must be > 0, got {Lambda}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    b = 16.0 * sup_norm_u
    c = max(4.0 * (n - 1) * Lambda * b / ((2.0 + alpha) * (1.0 + alpha)), 2.0 * sup_norm_u)
    if x0_tangential is None:
        x0_tangential = np.zeros(n - 1)
    return BarrierSpec(C=c, B=b, x0_tangential=np.asarray(x0_tangential, dtype=float), alpha=alpha)
