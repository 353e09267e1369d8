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
bound min{(1-tau) lambda eps0^{2a}, 1 - (1-delta)/tau} for x_n >= eps0.
Below the strip, A~ = D [[a_ij, a_in], [a_in^T, 1]] D with D = diag(x_n^a I,
1) is positive definite for x_n > 0 exactly when the Schur complement a_ij -
a_in a_in^T is (Sylvester's law of inertia), and that is checked.  The audit
streams the sample in blocks of ``_AUDIT_BLOCK`` points, so its temporaries
do not grow with the sample, and takes the spectra of 1x1 and 2x2 blocks
(a_ij and the complement for n <= 3, A~ for n = 2) in closed form, bit for
bit those of ``np.linalg.eigvalsh`` (``_eigvalsh``).
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


# np.linalg.eigvalsh runs LAPACK dsyevd, which scales a block whose largest
# entry exceeds 2^485 (sqrt of 1/smlnum, smlnum = safmin / eps, eps = 2^-52
# there) before it reduces it, and dsterf then scales one below 2^-405
# (sqrt(safmin) / eps^2, eps = 2^-53 there).
_UNSCALED = (2.0**-405, 2.0**485)
_DSTERF_EPS = 2.0**-53


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric blocks ``mats`` (..., k, k),
    bit for bit those of ``np.linalg.eigvalsh`` (LAPACK ``dsyevd`` on the
    lower triangle).

    For k = 1 that is a_11 itself.  For k = 2, ``dsyevd`` hands d = (a_11,
    a_22) and e = a_21 to ``dsterf`` unchanged, and the same operations run
    here on whole arrays: d stays as it is when the split test
    |e| <= (sqrt|d_1| sqrt|d_2|) eps or the test e^2 <= eps^2 |d_1 d_2|
    holds; otherwise one step of ``dlae2`` with b = sqrt(e^2) gives the
    roots, on (d_1, d_2) for QL and on (d_2, d_1) for QR, which runs when
    |d_2| < |d_1| and stores the roots in reverse; last comes ``dlasrt``'s
    insertion sort, which swaps only when the second value is strictly
    smaller.  Rows whose largest entry is not finite or lies outside
    ``_UNSCALED``, where LAPACK scales, go to ``np.linalg.eigvalsh``, as do
    blocks with k > 2.
    """
    k = mats.shape[-1]
    if k == 1:
        return mats[..., 0].copy()
    if k > 2:
        return np.linalg.eigvalsh(mats)
    d1, e, d2 = mats[..., 0, 0], mats[..., 1, 0], mats[..., 1, 1]
    with np.errstate(all="ignore"):  # lanes that np.where drops, and rows sent to LAPACK
        ad1, ad2 = np.abs(d1), np.abs(d2)
        top = np.maximum(np.maximum(ad1, np.abs(e)), ad2)
        e2 = e * e
        keep = (np.abs(e) <= np.sqrt(ad1) * np.sqrt(ad2) * _DSTERF_EPS) | (
            e2 <= _DSTERF_EPS**2 * np.abs(d1 * d2)
        )
        qr = ad2 < ad1
        # dlae2(a, b, c): a + c and |a - c| are the same for either order of d.
        b = np.sqrt(e2)
        sm = d1 + d2
        adf = np.abs(d1 - d2)
        ab = b + b
        big, small = np.maximum(adf, ab), np.minimum(adf, ab)
        rt = big * np.sqrt(1.0 + (small / big) ** 2)  # adf == ab gives ab sqrt(2)
        rt1 = 0.5 * (sm + np.where(sm < 0.0, -rt, rt))
        # dlae2's larger |a| or |c| (c on a tie) is d1 under QR and d2 under QL.
        acmx, acmn = np.where(qr, d1, d2), np.where(qr, d2, d1)
        rt2 = np.where(sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
        first = np.where(keep, d1, np.where(qr, rt2, rt1))
        second = np.where(keep, d2, np.where(qr, rt1, rt2))
    swap = second < first
    out = np.stack([np.where(swap, second, first), np.where(swap, first, second)], axis=-1)
    scaled = ~((top >= _UNSCALED[0]) & (top <= _UNSCALED[1]))
    if scaled.any():
        out[scaled] = np.linalg.eigvalsh(mats[scaled])
    return out


_BOUND_SLACK = 1e-10
_RAYLEIGH_SLACK = 1e-10
_SYM_SLACK = 1e-12
# Points per block of the audit.  At 100,000 points and n = 2 the audit took
# 29 ms in blocks of 1024 and 16-17 ms in blocks of 4096 to 16384; the
# smallest of those keeps each block's temporaries near a megabyte at n = 3.
_AUDIT_BLOCK = 4096


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
    audit has an empty ``violations`` tuple, else they are sorted by (index,
    kind); an ``interior-positivity`` value is the smallest eigenvalue of the
    Schur complement.  The sample must be nonempty, finite and inside the
    closed unit half-box.

    ``runtime.map_chunks`` splits the sample among the worker threads, and
    each chunk walks its points in blocks of ``_AUDIT_BLOCK``: a block
    evaluates the field, the asymmetry of a_ij and three spectra
    (``_eigvalsh``), writes lambda_min and lambda_max of A~ into the
    report's arrays and keeps only its violations and its column maxima of
    |a_in|, so memory beyond the sample and the two outputs does not grow
    with N.
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
    # Extremes propagate nan, so they decide both checks without an N-sized temporary.
    extremes = np.array([np.min(xp), np.max(xp), np.min(xn), np.max(xn)])
    if not np.all(np.isfinite(extremes)):
        raise ValueError("audit sample must be finite")
    xp_lo, xp_hi, xn_lo, xn_hi = extremes
    if max(-xp_lo, xp_hi) > 1.0 + 1e-12 or xn_lo < 0.0 or xn_hi > 1.0 + 1e-12:
        raise ValueError("audit sample must lie in the closed unit half-box")

    lam, big = field.lambda_const, field.Lambda_const
    formula = strip_bound(lam, delta, epsilon0, p.alpha, tau)
    lam_min = np.empty(xn.size)
    lam_max = np.empty(xn.size)

    def chunk(start: int, stop: int) -> tuple[list[AuditViolation], np.ndarray]:
        found: list[AuditViolation] = []
        mixed_max = np.zeros(p.n - 1)
        for lo in range(start, stop, _AUDIT_BLOCK):
            hi = min(lo + _AUDIT_BLOCK, stop)
            bxp, bxn = xp[lo:hi], xn[lo:hi]
            a_t = np.asarray(field.tangential(bxp, bxn), dtype=float)
            a_m = np.asarray(field.mixed(bxp, bxn), dtype=float)
            asym = np.max(np.abs(a_t - np.swapaxes(a_t, -1, -2)), axis=(-1, -2))
            # The spectra read the lower triangle, so asymmetric blocks are
            # flagged via ``asym`` rather than poisoning the eigenvalues.
            eig_t = _eigvalsh(a_t)
            eig_f = _eigvalsh(_degenerate_matrix(a_t, a_m, bxn, p))
            schur = _eigvalsh(a_t - a_m[:, :, None] * a_m[:, None, :])[:, 0]
            low = eig_f[:, 0]
            lam_min[lo:hi] = low
            lam_max[lo:hi] = eig_f[:, -1]
            np.maximum(mixed_max, np.max(np.abs(a_m), axis=0), out=mixed_max)
            on_strip = bxn >= epsilon0
            checks = (
                ("tangential-asymmetry", asym > _SYM_SLACK, asym, _SYM_SLACK),
                ("rayleigh-lower", eig_t[:, 0] < lam - _RAYLEIGH_SLACK, eig_t[:, 0], lam),
                ("rayleigh-upper", eig_t[:, -1] > big + _RAYLEIGH_SLACK, eig_t[:, -1], big),
                ("strip-bound", on_strip & (low < formula - _BOUND_SLACK), low, formula),
                ("interior-positivity", ~on_strip & (bxn > 0.0) & (schur <= 0.0), schur, 0.0),
                ("boundary-nonnegativity", (bxn == 0.0) & (low < -_BOUND_SLACK), low, 0.0),
            )
            for kind, hit, value, bound in checks:
                for i in np.flatnonzero(hit):
                    found.append(AuditViolation(kind, lo + int(i), float(value[i]), bound))
        return found, mixed_max

    pieces = map_chunks(chunk, xn.size)
    violations = [v for found, _ in pieces for v in found]
    sup_sq = float(np.sum(np.max([mixed_max for _, mixed_max in pieces], axis=0) ** 2))
    mixed_margin = 1.0 - sup_sq / lam
    if not mixed_margin > delta:
        violations.append(AuditViolation("mixed-condition", -1, mixed_margin, delta))

    violations.sort(key=lambda v: (v.index, v.kind))
    on_strip = xn >= epsilon0
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
