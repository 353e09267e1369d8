"""Desk-scale experiments probing the operator's quantitative behaviour.

Each runner poses a Dirichlet problem (or evaluates closed forms), measures
one phenomenon, and returns a frozen report carrying the measured numbers
plus the raw samples used, so reports can be serialised and rerun
bit-identically from (seed, config):

* ``run_boundary_growth`` -- the linear growth |u| <= C x_n off the flat
  boundary and the normal-ray exponent (expected 1).
* ``run_holder_modulus`` -- two-point quotients in the quasi-distance metric
  at a tested exponent (expected stable at 1/(1+a)).
* ``run_oscillation_decay`` -- the drop 1 - c0 of the sup on the middle
  shell of an ellipsoid annulus, at several scales.
* ``run_supersolution_scan`` -- adversarial-envelope sign scan of
  L(w - w^{1+rho}) over gauge shells, locating the radius R0 past which the
  supersolution inequality holds.
* ``run_decay_fit`` -- far-field exponent of u/x_n against the gauge on an
  exterior domain (expected -Q).
* ``run_global_bound_check`` -- the comparison bound |u| <= C (w - w^{1+rho})
  + eps at every node, with a falsification control.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .closedforms import (
    apply_grushin,
    kernel_value_arrays,
    supersolution_jet,
    supersolution_value_arrays,
)
from .coefficients import CoefficientField
from .fdsolver import (
    AnisotropicGrid,
    SolveReport,
    SparseSystem,
    assemble,
    build_grid,
    grid_interpolator,
    solve,
)
from .geometry import (
    GrushinParams,
    ellipsoid_level_arrays,
    gauge_arrays,
    quasi_distance_arrays,
)

__all__ = [
    "MIN_FIT_SAMPLES",
    "PreconditionError",
    "FitResult",
    "GridSpec",
    "BoundaryGrowthReport",
    "HolderLevel",
    "HolderReport",
    "OscillationReport",
    "ScanViolation",
    "SupersolutionScan",
    "DecayFitReport",
    "GlobalBoundReport",
    "fit_loglog",
    "decay_ray_points",
    "comparison_margin",
    "run_boundary_growth",
    "run_holder_modulus",
    "run_oscillation_decay",
    "run_supersolution_scan",
    "run_decay_fit",
    "run_global_bound_check",
]


MIN_FIT_SAMPLES = 5  # fewest samples a log-log fit accepts; fewer make a runner refuse


class PreconditionError(ValueError):
    """An experiment hypothesis does not hold for the given inputs."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (log x, log y) samples."""

    exponent: float
    intercept: float
    residual_norm: float
    sample_count: int
    range: tuple[float, float]

    def __post_init__(self) -> None:
        if self.sample_count < MIN_FIT_SAMPLES:
            raise ValueError(
                f"a log-log fit needs >= {MIN_FIT_SAMPLES} samples, got {self.sample_count}"
            )
        lo, hi = self.range
        if not hi > lo:
            raise ValueError(f"fit range must be nondegenerate, got ({lo}, {hi})")


def fit_loglog(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit log y = exponent * log x + intercept; x, y must be positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("fit_loglog expects equal-length 1-d arrays")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("fit_loglog needs strictly positive samples")
    lx, ly = np.log(x), np.log(y)
    design = np.column_stack([lx, np.ones_like(lx)])
    coeffs, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = float(np.linalg.norm(design @ coeffs - ly))
    return FitResult(
        exponent=float(coeffs[0]),
        intercept=float(coeffs[1]),
        residual_norm=resid,
        sample_count=int(x.size),
        range=(float(x.min()), float(x.max())),
    )


@dataclass(frozen=True)
class GridSpec:
    """Portable grid description; ``grading=None`` defaults to 1 + alpha."""

    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    counts: tuple[int, ...]
    grading: float | None = None

    def build(self, p: GrushinParams) -> AnisotropicGrid:
        grading = 1.0 + p.alpha if self.grading is None else self.grading
        return build_grid(self.box_lo, self.box_hi, self.counts, grading)

    def refined(self, factor: int) -> "GridSpec":
        counts = tuple((c - 1) * factor + 1 for c in self.counts)
        return GridSpec(self.box_lo, self.box_hi, counts, self.grading)


def _solve_dirichlet(
    field: CoefficientField,
    grid: AnisotropicGrid,
    p: GrushinParams,
    bc,
    extra_dirichlet=None,
    tol: float = 1e-10,
    require_dmp: bool = True,
) -> tuple[np.ndarray, SolveReport, SparseSystem]:
    """Assemble and solve; refuse a failed DMP check (when required) and an
    unconverged solve, so no verdict rests on an unchecked answer."""
    sys = assemble(field, grid, p, bc, extra_dirichlet=extra_dirichlet)
    if require_dmp and not sys.dmp.ok:
        raise PreconditionError(
            "discrete maximum principle fails on this grid/field: "
            f"{sys.mesh_ratio_offenders.size} nodes break the mesh-ratio condition"
        )
    u, report = solve(sys, tol=tol)
    if not report.converged:
        raise PreconditionError(
            f"{report.method} solve did not converge: componentwise backward error "
            f"{report.backward_error:.3e} > {tol:.3e} after {report.iterations} refinement sweeps"
        )
    return u, report, sys


# ----------------------------------------------------------------------
# Boundary growth
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryGrowthReport:
    """Smallest C with |u| <= C x_n, plus the normal-ray log-log exponent."""

    bound_constant: float
    fit: FitResult | None
    refused: bool
    ray_anchor: tuple[float, ...]
    ray_heights: tuple[float, ...]
    ray_values: tuple[float, ...]
    solve: SolveReport


def run_boundary_growth(
    field: CoefficientField,
    p: GrushinParams,
    grid_spec: GridSpec,
    bc,
    ray_height_fraction: float = 0.25,
    solver_tol: float = 1e-10,
) -> BoundaryGrowthReport:
    """Solve with |bc| <= 1, zero on the flat face; measure |u| <= C x_n.

    The ray fit follows the inward normal from the boundary point with the
    strongest first-layer response; the fit is refused (fit=None, the whole
    ray reported) when fewer than ``MIN_FIT_SAMPLES`` ray nodes carry
    |u| > 1e-12.  A solution with max |u| <= 1e-12 has C = 0.
    """
    grid = grid_spec.build(p)
    u, report, sys = _solve_dirichlet(field, grid, p, bc, tol=solver_tol)
    tang, norm = grid.node_coordinates()
    flat = norm == 0.0
    if np.max(np.abs(sys.rhs[flat])) > 1e-12:
        raise PreconditionError("boundary-growth problems need u = 0 on the flat face")
    if np.max(np.abs(sys.rhs[sys.dirichlet_mask])) > 1.0 + 1e-9:
        raise PreconditionError("boundary-growth problems need |bc| <= 1")

    positive = norm > 0.0
    bound_c = 0.0
    if positive.any() and np.max(np.abs(u)) > 1e-12:
        bound_c = float(np.max(np.abs(u[positive]) / norm[positive]))

    columns = u.reshape(-1, grid.shape[-1])
    col = int(np.argmax(np.abs(columns[:, 1])))
    heights = grid.axes[-1][1:]
    values = np.abs(columns[col, 1:])
    anchor = tang.reshape(-1, grid.shape[-1], p.n - 1)[col, 0]

    cutoff = ray_height_fraction * grid.box_hi[-1]
    sel = (heights <= cutoff) & (values > 1e-12)
    refused = np.count_nonzero(sel) < MIN_FIT_SAMPLES
    if refused:
        sel[:] = True
    return BoundaryGrowthReport(
        bound_constant=bound_c,
        fit=None if refused else fit_loglog(heights[sel], values[sel]),
        refused=refused,
        ray_anchor=tuple(anchor),
        ray_heights=tuple(heights[sel]),
        ray_values=tuple(values[sel]),
        solve=report,
    )


# ----------------------------------------------------------------------
# Hoelder modulus
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HolderLevel:
    counts: tuple[int, ...]
    max_quotient: float
    pair_count: int
    solve: SolveReport


@dataclass(frozen=True)
class HolderReport:
    """Worst two-point quotient |u(y)-u(z)| / d_a(y,z)^exponent per level."""

    exponent: float
    levels: tuple[HolderLevel, ...]
    final_change: float
    seed: int


def _holder_pairs(
    grid: AnisotropicGrid, p: GrushinParams, rng: np.random.Generator, pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified node-pair sample inside the inner half-box.

    Strata: uniform pairs, same-tangential-column pairs (pure normal
    separation), and pairs hugging the flat boundary.
    """
    tang, norm = grid.node_coordinates()
    lo, hi = grid.box_lo, grid.box_hi
    inner = norm <= 0.5 * hi[-1]
    for a in range(p.n - 1):
        width = hi[a] - lo[a]
        inner &= (tang[:, a] >= lo[a] + 0.25 * width) & (tang[:, a] <= hi[a] - 0.25 * width)
    idx = np.flatnonzero(inner)
    third = pairs // 3

    a1 = rng.choice(idx, third)
    b1 = rng.choice(idx, third)

    n_nodes = grid.shape[-1]
    cols = np.unique(idx // n_nodes)
    normal_ok = np.flatnonzero(grid.axes[-1] <= 0.5 * hi[-1])
    col_pick = rng.choice(cols, third)
    a2 = col_pick * n_nodes + rng.choice(normal_ok, third)
    b2 = col_pick * n_nodes + rng.choice(normal_ok, third)

    low = idx[norm[idx] <= 0.125 * hi[-1]]
    a3 = rng.choice(low, third)
    b3 = rng.choice(low, third)

    a = np.concatenate([a1, a2, a3])
    b = np.concatenate([b1, b2, b3])
    keep = a != b
    return a[keep], b[keep]


def run_holder_modulus(
    field: CoefficientField,
    p: GrushinParams,
    grid_spec: GridSpec,
    bc,
    exponent: float | None = None,
    levels: int = 3,
    pairs: int = 100_000,
    seed: int = 0,
    solver_tol: float = 1e-10,
) -> HolderReport:
    """Two-point quotient maxima across a refinement sequence.

    At the natural exponent 1/(1+a) the maxima stabilise under refinement;
    larger exponents blow up near the flat boundary (sharpness probe).
    """
    expo = 1.0 / (1.0 + p.alpha) if exponent is None else float(exponent)
    out: list[HolderLevel] = []
    for level in range(levels):
        spec = grid_spec.refined(2**level)
        grid = spec.build(p)
        u, report, sys = _solve_dirichlet(field, grid, p, bc, tol=solver_tol)
        tang, norm = grid.node_coordinates()
        flat = norm == 0.0
        if np.max(np.abs(sys.rhs[flat])) > 1e-12:
            raise PreconditionError("Hoelder runs need u = 0 on the flat face")
        rng = np.random.default_rng(seed + level)
        a, b = _holder_pairs(grid, p, rng, pairs)
        dist = quasi_distance_arrays(tang[a], norm[a], tang[b], norm[b], p.alpha)
        quot = np.abs(u[a] - u[b]) / dist**expo
        out.append(HolderLevel(grid.counts, float(np.max(quot)), int(a.size), report))
    change = abs(out[-1].max_quotient - out[-2].max_quotient) / out[-2].max_quotient
    return HolderReport(exponent=expo, levels=tuple(out), final_change=float(change), seed=seed)


# ----------------------------------------------------------------------
# Oscillation decay
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OscillationReport:
    """Sup of the normalised solution on the middle shell of an annulus.

    ``shell_samples`` holds (ellipsoid level, x_n, u/M) of every measured
    shell node as a (k, 3) array, left out of ``repr`` and ``==``.
    """

    sup_inner: float
    c0_empirical: float
    shells: tuple[float, float, float]
    shell_node_count: int
    data_scale: float
    solve: SolveReport
    shell_samples: np.ndarray = dc_field(repr=False, compare=False)


def run_oscillation_decay(
    field: CoefficientField,
    p: GrushinParams,
    R: float,
    counts: tuple[int, ...] | None = None,
    shell_band: float = 0.15,
    data_scale: float = 1.0,
    curved_value: float = 1.0,
    flat_value: float = 0.5,
    solver_tol: float = 1e-10,
) -> OscillationReport:
    """Annulus E_{4R}+ minus E_R+ with data M*curved_value on the curved
    parts and M*flat_value on the flat ring (M = data_scale); returns
    1 - sup(u/M) over nodes near the middle shell E_{2R}.

    Realised on the bounding box of E_{4R}+ with the inner/outer regions
    excised by Dirichlet masks; the mixed-term mesh-ratio condition is not
    required here (perturbed fields legitimately break it near the flat
    face), so the solve proceeds with ``solve.dmp_ok`` merely reported.
    """
    if R <= 0.0:
        raise ValueError(f"shell scale R must be > 0, got {R}")
    if data_scale <= 0.0:
        raise ValueError(f"data_scale must be > 0, got {data_scale}")
    if not 0.0 <= flat_value <= curved_value <= 1.0:
        raise ValueError("need 0 <= flat_value <= curved_value <= 1")
    if counts is None:
        counts = (129,) * (p.n - 1) + (49,)
    e = 2.0 * (1.0 + p.alpha)
    half_width = (4.0 * R) ** 0.5
    height = (4.0 * R) ** (1.0 / e)
    grid = build_grid(
        [-half_width] * (p.n - 1) + [0.0],
        [half_width] * (p.n - 1) + [height],
        counts,
        1.0 + p.alpha,
    )
    tang, norm = grid.node_coordinates()
    level = ellipsoid_level_arrays(tang, norm, p)
    outer_cut = 4.0 * R * (1.0 - 1e-12)
    hole = (level <= R) | (level >= outer_cut)
    scale = float(data_scale)

    def bc(xp, xn):
        lev = ellipsoid_level_arrays(xp, xn, p)
        values = np.full(xn.shape, scale * curved_value)
        ring = (xn == 0.0) & (lev > R) & (lev < outer_cut)
        values[ring] = scale * flat_value
        return values

    u, report, _ = _solve_dirichlet(
        field, grid, p, bc, extra_dirichlet=hole, tol=solver_tol, require_dmp=False
    )
    shell = np.abs(level - 2.0 * R) <= shell_band * 2.0 * R
    if not shell.any():
        raise PreconditionError("no grid nodes fall on the measured middle shell; refine the grid")
    sup = float(np.max(u[shell])) / scale
    return OscillationReport(
        sup_inner=sup,
        c0_empirical=1.0 - sup,
        shells=(R, 2.0 * R, 4.0 * R),
        shell_node_count=int(np.count_nonzero(shell)),
        data_scale=scale,
        solve=report,
        shell_samples=np.column_stack([level[shell], norm[shell], u[shell] / scale]),
    )


# ----------------------------------------------------------------------
# Supersolution scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanViolation:
    shell: float
    tangential: tuple[float, ...]
    normal: float
    value: float


@dataclass(frozen=True)
class SupersolutionScan:
    """Adversarial-envelope sign scan of L(w - w^{1+rho}) over gauge shells."""

    rho: float
    s: float
    amplitude: float
    R0_empirical: float | None
    violations: tuple[ScanViolation, ...]
    shells_tested: tuple[float, ...]
    per_shell: tuple[tuple[float, int, int, float], ...]  # (R, samples, violations, worst)
    seed: int


def _shell_sample(
    p: GrushinParams,
    R: float,
    count: int,
    rng: np.random.Generator,
    normal_floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection sample of points with gauge in [R, 2R], x_n > 0 and w < 1."""
    lim_t = (2.0 * R) ** (1.0 + p.alpha)
    lim_n = 2.0 * R * (1.0 + p.alpha) ** (1.0 / (1.0 + p.alpha))
    got_t, got_n, got_d = [], [], []
    need = count
    for _ in range(200):
        m = max(4 * need, 64)
        xp = rng.uniform(-lim_t, lim_t, (m, p.n - 1))
        xn = rng.uniform(normal_floor * lim_n, lim_n, m)
        d = gauge_arrays(xp, xn, p)
        w = kernel_value_arrays(xp, xn, p)
        ok = (d >= R) & (d <= 2.0 * R) & (w < 1.0)
        take = np.flatnonzero(ok)[:need]
        got_t.append(xp[take])
        got_n.append(xn[take])
        got_d.append(d[take])
        need -= take.size
        if need == 0:
            break
    if need:
        raise RuntimeError(f"shell sampling failed to fill {count} points at R={R}")
    return np.concatenate(got_t), np.concatenate(got_n), np.concatenate(got_d)


def run_supersolution_scan(
    p: GrushinParams,
    rho: float,
    s: float,
    amplitude: float,
    shells,
    samples_per_shell: int,
    seed: int = 0,
    normal_floor: float = 1e-3,
) -> SupersolutionScan:
    """Scan L(w - w^{1+rho}) with coefficients at their adversarial envelope.

    At every sampled point the deviations |a_ij - delta_ij| and |a_in| are
    pushed to their permitted maximum amplitude * min(1, d^{-s}) with signs
    maximising L, so a clean shell certifies the inequality for every
    admissible field at once.  Requires 0 < rho < min(s/(n-1), 1); amplitude 0
    reproduces the exact model-operator inequality.
    """
    limit = min(s / (p.n - 1), 1.0)
    if not 0.0 < rho < limit:
        raise PreconditionError(
            f"rho must lie in (0, min(s/(n-1), 1)) = (0, {limit}) for the "
            f"supersolution inequality; got rho={rho}"
        )
    if amplitude < 0.0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    shells = tuple(sorted(float(r) for r in shells))
    if not shells or shells[0] < 1.0:
        raise ValueError("shells must be radii >= 1")
    rng = np.random.default_rng(seed)
    violations: list[ScanViolation] = []
    per_shell: list[tuple[float, int, int, float]] = []
    for R in shells:
        xp, xn, d = _shell_sample(p, R, samples_per_shell, rng, normal_floor)
        jet = supersolution_jet(xp, xn, rho, p)
        hess = jet.hessian
        envelope = amplitude * np.minimum(1.0, d**-s)
        adversarial = envelope * (
            xn ** (2.0 * p.alpha) * np.sum(np.abs(hess[:, :-1, :-1]), axis=(1, 2))
            + 2.0 * xn**p.alpha * np.sum(np.abs(hess[:, :-1, -1]), axis=1)
        )
        value = apply_grushin(jet, xp, xn, p) + adversarial
        bad = np.flatnonzero(value > 0.0)
        violations.extend(ScanViolation(R, tuple(xp[k]), float(xn[k]), float(value[k])) for k in bad)
        per_shell.append((R, int(xn.size), int(bad.size), float(np.max(value))))

    r0 = None
    for R, _, n_viol, _ in reversed(per_shell):
        if n_viol == 0:
            r0 = R
        else:
            break
    return SupersolutionScan(
        rho=float(rho),
        s=float(s),
        amplitude=float(amplitude),
        R0_empirical=r0,
        violations=tuple(violations),
        shells_tested=shells,
        per_shell=tuple(per_shell),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Far-field decay fit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFitReport:
    """Slope of log(u/x_n) against log(gauge) along an anisotropic ray."""

    fit: FitResult | None
    expected_exponent: float
    refused: bool
    inner_radius: float
    outer_radius: float
    ray_gauges: tuple[float, ...]
    ray_normals: tuple[float, ...]
    ray_values: tuple[float, ...]
    solve: SolveReport


def decay_ray_points(
    p: GrushinParams, gauge_lo: float, gauge_hi: float, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric gauge ladder along a fixed anisotropic direction.

    Returns (gauges, tangential (count, n-1), normal (count,)); the base
    direction splits the gauge evenly between tangential and normal parts,
    and the ladder is the orbit of that point under the dilations F_h.
    """
    if not 0.0 < gauge_lo < gauge_hi:
        raise ValueError("need 0 < gauge_lo < gauge_hi")
    gauges = np.geomspace(gauge_lo, gauge_hi, count)
    unit_t = np.zeros(p.n - 1)
    unit_t[0] = np.sqrt(0.5)
    unit_n = (0.5 / p.beta) ** (1.0 / (2.0 + 2.0 * p.alpha))
    tang = unit_t[None, :] * gauges[:, None] ** (1.0 + p.alpha)
    norm = unit_n * gauges
    return gauges, tang, norm


def _exterior_problem(
    p: GrushinParams,
    inner_radius: float,
    outer_radius: float,
    counts: tuple[int, ...],
    grading: float | None,
    inner_data,
):
    """Grid, node coordinates, excised inner box and boundary data of an exterior problem.

    The domain is the box of gauge radius ``outer_radius`` minus the inner box
    of gauge radius ``inner_radius``.  Data are ``inner_data(x_n)`` on the
    inner-box nodes with x_n > 0 and 0 on the flat face and the far faces.
    Returns (grid, tangential, normal, inside mask, bc).
    """
    stretch = (1.0 + p.alpha) ** (1.0 / (1.0 + p.alpha))
    outer_t = outer_radius ** (1.0 + p.alpha)
    outer_n = outer_radius * stretch
    inner_t = inner_radius ** (1.0 + p.alpha)
    inner_n = inner_radius * stretch
    grid = build_grid(
        [-outer_t] * (p.n - 1) + [0.0],
        [outer_t] * (p.n - 1) + [outer_n],
        counts,
        1.0 + p.alpha if grading is None else grading,
    )

    def in_box(xp, xn):
        return np.all(np.abs(xp) <= inner_t, axis=1) & (xn <= inner_n)

    def bc(xp, xn):
        values = np.zeros(xn.shape)
        box = in_box(xp, xn) & (xn > 0.0)
        values[box] = inner_data(xn[box])
        return values

    tang, norm = grid.node_coordinates()
    return grid, tang, norm, in_box(tang, norm), bc


def run_decay_fit(
    field: CoefficientField,
    p: GrushinParams,
    inner_radius: float,
    outer_radius: float,
    counts: tuple[int, ...],
    grading: float | None = None,
    ray_lo_factor: float = 2.5,
    ray_hi_factor: float = 0.35,
    ray_points: int = 13,
    solver_tol: float = 1e-10,
    min_ray_value: float = 1e-10,
) -> DecayFitReport:
    """Exterior problem with unit data on an inner box; fit u/x_n ~ gauge^{-Q}.

    The domain is the box of gauge radius ``outer_radius`` minus the inner
    box of gauge radius ``inner_radius``; data are 1 on the inner-box faces
    (x_n > 0), 0 on the flat face and the far faces.  The far faces truncate
    the true problem, so the ray stops at ``ray_hi_factor * outer_radius``
    and the systematic deviation shows up in the fit residual.
    """
    if not 0.0 < inner_radius < outer_radius:
        raise ValueError("need 0 < inner_radius < outer_radius")
    grid, _, _, inside, bc = _exterior_problem(
        p, inner_radius, outer_radius, counts, grading, lambda xn: 1.0
    )
    u, report, _ = _solve_dirichlet(field, grid, p, bc, extra_dirichlet=inside, tol=solver_tol)

    gauges, ray_t, ray_n = decay_ray_points(
        p, ray_lo_factor * inner_radius, ray_hi_factor * outer_radius, ray_points
    )
    values = grid_interpolator(grid, u)(np.column_stack([ray_t, ray_n]))
    usable = values > min_ray_value
    refused = np.count_nonzero(usable) < MIN_FIT_SAMPLES
    if refused:
        usable[:] = True
    return DecayFitReport(
        fit=None if refused else fit_loglog(gauges[usable], values[usable] / ray_n[usable]),
        expected_exponent=-p.Q,
        refused=refused,
        inner_radius=inner_radius,
        outer_radius=outer_radius,
        ray_gauges=tuple(gauges[usable]),
        ray_normals=tuple(ray_n[usable]),
        ray_values=tuple(values[usable]),
        solve=report,
    )


# ----------------------------------------------------------------------
# Global comparison bound
# ----------------------------------------------------------------------


def comparison_margin(
    values: np.ndarray, barrier: np.ndarray, constant: float, epsilon: float
) -> float:
    """Worst slack of |values| <= constant * barrier + epsilon, min over nodes."""
    return float(np.min(constant * np.asarray(barrier) + epsilon - np.abs(np.asarray(values))))


@dataclass(frozen=True)
class GlobalBoundReport:
    """Check of |u| <= C (w - w^{1+rho}) + eps at every exterior node.

    ``interface_samples`` holds (|x'|, x_n, u, w - w^{1+rho}) of every
    inner-interface node as a (k, 4) array, left out of ``repr`` and ``==``.
    """

    passed: bool
    comparison_constant: float
    epsilon: float
    worst_margin: float
    falsification_margin: float
    falsification_failed: bool
    margin_tolerance: float
    interface_count: int
    interface_samples: np.ndarray = dc_field(repr=False, compare=False)
    solve: SolveReport | None = None


def run_global_bound_check(
    field: CoefficientField,
    p: GrushinParams,
    rho: float,
    inner_radius: float,
    outer_radius: float,
    counts: tuple[int, ...],
    grading: float | None = None,
    inner_slope: float = 1.0,
    solver_tol: float = 1e-10,
    margin_tolerance: float = 1e-6,
) -> GlobalBoundReport:
    """Exterior solve with data min(1, slope * x_n) on the inner box, then the
    comparison: C is the smallest constant with |u| <= C (w - w^{1+rho}) on
    the exposed inner-boundary nodes, eps the largest |u| on the far faces,
    and the margin min(C v + eps - |u|) must be nonnegative at every node.

    The inner data vanish linearly at the flat boundary so that both sides of
    the comparison degenerate at the same rate there; the falsification
    control reruns the margin with C/2 and must fail, showing the check bites.
    Fails fast if the supersolution is not positive on the interface (inner
    radius too small) or the discrete maximum principle does not hold.
    """
    if rho <= 0.0:
        raise PreconditionError(f"rho must be > 0, got {rho}")
    grid, tang, norm, inside, bc = _exterior_problem(
        p, inner_radius, outer_radius, counts, grading, lambda xn: np.minimum(1.0, inner_slope * xn)
    )
    u, report, sys = _solve_dirichlet(field, grid, p, bc, extra_dirichlet=inside, tol=solver_tol)

    with np.errstate(divide="ignore", invalid="ignore"):
        barrier = supersolution_value_arrays(tang, norm, rho, p)
    exterior = ~inside

    # Interface: the inner-box nodes above the flat face that some interior row references.
    referenced = np.zeros(inside.size, dtype=bool)
    interior_entries = np.repeat(~sys.dirichlet_mask, np.diff(sys.matrix.indptr))
    referenced[sys.matrix.indices[interior_entries]] = True
    interface = np.flatnonzero(referenced & inside & (norm > 0.0))
    if interface.size == 0:
        raise PreconditionError("inner box is invisible to the grid; refine or enlarge it")
    if np.min(barrier[interface]) <= 0.0:
        raise PreconditionError(
            "supersolution w - w^{1+rho} is not positive on the inner boundary; "
            "increase inner_radius (w must be < 1 there)"
        )

    constant = float(np.max(np.abs(u[interface]) / barrier[interface]))
    far = sys.dirichlet_mask & exterior
    epsilon = float(np.max(np.abs(u[far])))

    worst = comparison_margin(u[exterior], barrier[exterior], constant, epsilon)
    falsified = comparison_margin(u[exterior], barrier[exterior], 0.5 * constant, epsilon)
    # |x'| per row as sqrt(x'.x'), rounded as np.linalg.norm rounds one vector
    # (np.linalg.norm(..., axis=1) sums the squares differently).
    t = tang[interface]
    tangential_norm = np.sqrt((t[:, None, :] @ t[:, :, None]).ravel())
    samples = np.column_stack([tangential_norm, norm[interface], u[interface], barrier[interface]])
    return GlobalBoundReport(
        passed=bool(worst >= -margin_tolerance),
        comparison_constant=constant,
        epsilon=epsilon,
        worst_margin=worst,
        falsification_margin=falsified,
        falsification_failed=bool(falsified < -margin_tolerance),
        margin_tolerance=float(margin_tolerance),
        interface_count=int(interface.size),
        interface_samples=samples,
        solve=report,
    )
