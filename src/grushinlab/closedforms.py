"""Exact 2-jets of the closed-form functions attached to the operator.

Closed forms only, no numerics: the harmonic kernel
w(x) = x_n / (|x'|^2 + beta x_n^{2+2a})^gamma, powers of the gauge, the
far-field supersolution w - w^{1+rho}, and the flat-boundary barrier
C x_n + B|x'-x0'|^2 - (C/2) x_n^{2+a}.  The operators

    G u = x_n^{2a} Delta' u + D_nn u                  (Grushin model)
    L u = x_n^{2a} sum a_ij D_ij u + 2 x_n^a sum a_in D_in u + D_nn u

act on jets through ``apply_grushin`` and ``apply_operator``.

Every function takes N points as coordinate arrays, tangential (N, n-1) and
normal (N,), and a jet holds one row per point; every row is checked.

Writing r = |x'|^2 + beta x_n^{2+2a}, the kernel is w = x_n r^{-gamma} and a
gauge power d^t equals r^{t/(2(1+a))} because Q = 2(1+a)*gamma; evaluating
through r avoids nesting fractional powers.  So one jet of r builds all three:
the chain rule D f(g) = f'(g) Dg, D^2 f(g) = f'(g) D^2 g + f''(g) Dg (x) Dg
gives r^k and w - w^{1+rho} from the jets of r and w, and the product rule
gives x_n r^{-gamma}.  The unique exponent t != 0 with G(d^t) = 0 is
t = 2 - Q (for the Laplacian, a = 0, this is the familiar |x|^{2-n}).  At
Q = 2 (n = 2, a = 0) that exponent is 0, and the harmonic gauge function is
log d, the limit of (d^t - 1)/t as t -> 0, as log|x| is in the plane.
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
    "gauge_log_jet",
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


def _chain(g, f: np.ndarray, df: np.ndarray, d2f: np.ndarray):
    """Jet of f(g) from f, f' and f'' at the value of the jet g, by the chain rule."""
    _, dg, hg = g
    outer = dg[:, :, None] * dg[:, None, :]
    return f, df[:, None] * dg, df[:, None, None] * hg + d2f[:, None, None] * outer


def _times_normal(xn: np.ndarray, g):
    """Jet of the product x_n g: Dg joins the x_n row and column of the Hessian."""
    value, dg, hg = g
    grad = xn[:, None] * dg
    grad[:, -1] += value
    hess = xn[:, None, None] * hg
    hess[:, -1, :] += dg
    hess[:, :, -1] += dg
    return xn * value, grad, hess


def _r_jet(xp: np.ndarray, xn: np.ndarray, p: GrushinParams):
    """Jet of r = |x'|^2 + beta x_n^{2+2a}."""
    e = 2.0 + 2.0 * p.alpha
    r = np.sum(xp**2, axis=1) + p.beta * xn**e
    dr = np.empty((xn.size, p.n))
    dr[:, :-1] = 2.0 * xp
    dr[:, -1] = p.beta * e * xn ** (1.0 + 2.0 * p.alpha)
    hr = np.zeros((xn.size, p.n, p.n))
    diag = np.arange(p.n - 1)
    hr[:, diag, diag] = 2.0
    hr[:, -1, -1] = p.beta * e * (1.0 + 2.0 * p.alpha) * xn ** (2.0 * p.alpha)
    return r, dr, hr


def _r_power(xp: np.ndarray, xn: np.ndarray, p: GrushinParams, k: float):
    """Jet of r^k: the jet of r through the chain rule."""
    g = _r_jet(xp, xn, p)
    r = g[0]
    return _chain(g, r**k, k * r ** (k - 1.0), k * (k - 1.0) * r ** (k - 2.0))


def kernel_jet(tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> Jet2:
    """2-jets of the harmonic kernel w = x_n r^{-gamma}, r = |x'|^2 + beta x_n^{2+2a}.

    The Grushin operator annihilates w on the open half space; w vanishes on
    {x_n = 0} away from the origin and is singular at the origin, which is
    rejected.
    """
    xp, xn = _points(tangential, normal, p.n, singular_at_origin="kernel jet")
    return Jet2(*_times_normal(xn, _r_power(xp, xn, p, -p.gamma)))


def harmonic_gauge_power(p: GrushinParams) -> float:
    """The exponent t = 2 - Q, the unique nonzero t with G(d^t) = 0 when Q != 2.
    At Q = 2 it is 0: d^0 = 1 is harmonic by construction, and ``gauge_log_jet``
    gives the harmonic gauge function log d."""
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
    return Jet2(*_r_power(xp, xn, p, power / (2.0 * (1.0 + p.alpha))))


def gauge_log_jet(tangential: np.ndarray, normal: np.ndarray, p: GrushinParams) -> Jet2:
    """2-jets of log d = log(r) / (2(1+a)), by the chain rule on the jet of r.

    The Grushin operator annihilates log d exactly when Q = 2.
    """
    xp, xn = _points(tangential, normal, p.n, singular_at_origin="gauge log jet")
    g = _r_jet(xp, xn, p)
    c = 2.0 * (1.0 + p.alpha)
    r = g[0]
    return Jet2(*_chain(g, np.log(r) / c, 1.0 / (c * r), -1.0 / (c * r * r)))


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
    """2-jets of the supersolution f(w) = w - w^{1+rho}, by the chain rule on the kernel.

    f'(w) = 1 - (1+rho) w^rho and f''(w) = -rho(1+rho) w^{rho-1}.  For rho < 1
    the factor w^{rho-1} blows up as w -> 0, so points on the flat boundary
    are rejected (for rho >= 1 only the origin is); the sign property
    L(w - w^{1+rho}) <= 0 needs 0 < rho < min(s/(n-1), 1) and only holds far
    enough out, which is the caller's responsibility.
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be > 0, got {rho}")
    singular, flat = "kernel jet", None
    if rho < 1.0:
        singular, flat = None, "supersolution jet needs x_n > 0 when rho < 1 (w^{rho-1} singular)"
    xp, xn = _points(tangential, normal, p.n, singular, flat)
    w = _times_normal(xn, _r_power(xp, xn, p, -p.gamma))
    v = w[0]
    df = 1.0 - (1.0 + rho) * v**rho
    return Jet2(*_chain(w, v - v ** (1.0 + rho), df, -rho * (1.0 + rho) * v ** (rho - 1.0)))


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
