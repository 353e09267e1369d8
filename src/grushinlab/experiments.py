"""Desk-scale experiments probing the operator's quantitative behaviour.

Each runner poses a Dirichlet problem, a ``Problem`` that ``Problem.at``
assembles at any refinement level (or evaluates closed forms), measures one
phenomenon, and returns a frozen report of its numbers and raw samples, so
reports can be serialised and rerun bit-identically from (seed, config):

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
    SOLVER_TOL,
    AnisotropicGrid,
    BoundaryValues,
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
    scaling_factors,
)

__all__ = [
    "MIN_FIT_SAMPLES",
    "SHELL_BAND",
    "RAY_HEIGHT_FRACTION",
    "RAY_WINDOW",
    "DECAY_INNER_RADIUS",
    "BOUND_INNER_RADIUS",
    "RAY_POINTS",
    "MIN_RAY_VALUE",
    "PreconditionError",
    "require_monotone",
    "FitResult",
    "GridSpec",
    "Problem",
    "BoundaryGrowthReport",
    "HolderLevel",
    "HolderReport",
    "OscillationReport",
    "ScanViolation",
    "SupersolutionScan",
    "DecayFitReport",
    "GlobalBoundReport",
    "fit_loglog",
    "decay_ray",
    "comparison_margin",
    "annulus_grid",
    "exterior_grid",
    "run_boundary_growth",
    "run_holder_modulus",
    "run_oscillation_decay",
    "run_supersolution_scan",
    "run_decay_fit",
    "run_global_bound_check",
]


MIN_FIT_SAMPLES = 5  # fewest samples a log-log fit accepts; fewer make a runner refuse
RAY_POINTS = 13  # decay-fit: gauges sampled along the ray
MIN_RAY_VALUE = 1e-10  # decay-fit: ray values at or below this are left out of the fit

# Measurement windows and the inner radii of the exterior problems.  Each is a constant, recorded in
# the result of its command.
SHELL_BAND = 0.15  # oscillation-decay: nodes with |level - 2R| <= band * 2R form the middle shell
RAY_HEIGHT_FRACTION = 0.25  # boundary-growth: the ray fit stops at this fraction of the box height
RAY_WINDOW = (2.5, 0.35)  # decay-fit: the ray runs from 2.5 * inner to 0.35 * outer radius
DECAY_INNER_RADIUS = 1.0  # decay-fit: gauge radius of the inner box ("inner_radius")
BOUND_INNER_RADIUS = 2.0  # global-bound: gauge radius of the inner box ("inner_radius")


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
    """The box and node counts of a grid; ``build`` grades it towards the flat face with exponent 1 + alpha."""

    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    counts: tuple[int, ...]

    def build(self, p: GrushinParams) -> AnisotropicGrid:
        return build_grid(self.box_lo, self.box_hi, self.counts, 1.0 + p.alpha)

    def refined(self, factor: int) -> "GridSpec":
        counts = tuple((c - 1) * factor + 1 for c in self.counts)
        return GridSpec(self.box_lo, self.box_hi, counts)


@dataclass(frozen=True)
class Problem:
    """A Dirichlet problem on the box of ``grid``: ``data(tangential, normal)`` on its Dirichlet nodes,
    the excised ones among them, given by the mask ``hole(tangential, normal)`` (``None``: none)."""

    grid: GridSpec
    data: BoundaryValues
    hole: BoundaryValues | None = None

    def at(self, p: GrushinParams, field: CoefficientField, level: int = 0) -> tuple[AnisotropicGrid, SparseSystem]:
        """The grid of counts refined by 2^level and its system, DMP report included."""
        grid = self.grid.refined(2**level).build(p)
        return grid, assemble(field, grid, p, self.data, extra_dirichlet=self.hole)


def require_monotone(sys: SparseSystem) -> None:
    """Refuse a system that fails the DMP check: its scheme is not monotone.
    The message counts the interior rows of each failure kind."""
    dmp = sys.dmp
    if not dmp.ok:
        raise PreconditionError(
            "discrete maximum principle fails on this grid/field: "
            f"{dmp.positive_offdiagonal_rows.size} rows with a positive off-diagonal "
            f"(mesh-ratio condition), {dmp.nonpositive_diagonal_rows.size} with a "
            f"nonpositive diagonal, {dmp.negative_rowsum_rows.size} with a negative row sum"
        )


def _require_fit_samples(count: int, what: str) -> None:
    """Refuse a log-log fit with fewer than ``MIN_FIT_SAMPLES`` samples."""
    if count < MIN_FIT_SAMPLES:
        raise PreconditionError(
            f"degenerate ray data: {count} {what}, a log-log fit needs >= {MIN_FIT_SAMPLES}"
        )


def _checked_solve(sys: SparseSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve; refuse an unconverged solve, so no verdict rests on an unchecked
    answer.  A runner checks its other preconditions on the assembled system
    first, so none of them waits for a solve."""
    u, report = solve(sys)
    if not report.converged:
        raise PreconditionError(
            f"{report.method} solve did not converge: componentwise backward error "
            f"{report.backward_error:.3e} > {SOLVER_TOL:.3e} after {report.iterations} refinement sweeps"
        )
    return u, report


def _require_zero_flat_face(sys: SparseSystem, grid: AnisotropicGrid, runs: str) -> None:
    """Refuse Dirichlet data that are not 0 on the flat face x_n = 0 (normal index 0)."""
    if np.max(np.abs(sys.rhs.reshape(-1, grid.shape[-1])[:, 0])) > 1e-12:
        raise PreconditionError(f"{runs} need u = 0 on the flat face")


# ----------------------------------------------------------------------
# Boundary growth
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryGrowthReport:
    """Smallest C with |u| <= C x_n, plus the normal-ray log-log exponent."""

    bound_constant: float
    fit: FitResult
    ray_anchor: tuple[float, ...]
    ray_heights: tuple[float, ...]
    ray_values: tuple[float, ...]
    solve: SolveReport


def run_boundary_growth(
    field: CoefficientField,
    p: GrushinParams,
    grid_spec: GridSpec,
    bc,
) -> BoundaryGrowthReport:
    """Solve with |bc| <= 1, zero on the flat face; measure |u| <= C x_n.

    The ray fit follows the inward normal from the boundary point with the
    strongest first-layer response, up to ``RAY_HEIGHT_FRACTION`` of the box
    height; the run is refused when fewer than ``MIN_FIT_SAMPLES`` ray nodes
    carry |u| > 1e-12.
    """
    grid, sys = Problem(grid_spec, bc).at(p, field)
    require_monotone(sys)
    _require_zero_flat_face(sys, grid, "boundary-growth problems")
    if np.max(np.abs(sys.rhs[sys.dirichlet_mask])) > 1.0 + 1e-9:
        raise PreconditionError("boundary-growth problems need |bc| <= 1")
    u, report = _checked_solve(sys)
    tang, norm = grid.node_coordinates()

    columns = u.reshape(-1, grid.shape[-1])
    col = int(np.argmax(np.abs(columns[:, 1])))
    heights = grid.axes[-1][1:]
    values = np.abs(columns[col, 1:])
    anchor = tang.reshape(-1, grid.shape[-1], p.n - 1)[col, 0]
    sel = (heights <= RAY_HEIGHT_FRACTION * grid.box_hi[-1]) & (values > 1e-12)
    _require_fit_samples(np.count_nonzero(sel), "normal-ray nodes with |u| > 1e-12")

    positive = norm > 0.0
    return BoundaryGrowthReport(
        bound_constant=float(np.max(np.abs(u[positive]) / norm[positive])),
        fit=fit_loglog(heights[sel], values[sel]),
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


def _holder_pairs(
    grid: AnisotropicGrid, tang: np.ndarray, norm: np.ndarray, rng: np.random.Generator, pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified node-pair sample inside the inner half-box; ``tang`` and
    ``norm`` are the node coordinates of ``grid``.

    Strata: uniform pairs, same-tangential-column pairs (pure normal
    separation), and pairs hugging the flat boundary.
    """
    lo, hi = grid.box_lo, grid.box_hi
    inner = norm <= 0.5 * hi[-1]
    for a in range(tang.shape[1]):
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


def _require_separated_nodes(grid: AnisotropicGrid, p: GrushinParams, expo: float) -> None:
    """Refuse a grid on which the quotient |u(y) - u(z)| / d(y, z)^expo of
    two distinct sampled nodes divides by 0.  Distinct nodes are at least
    the smallest tangential spacing or the smallest gap of y_n^{1+alpha}
    between normal nodes of the inner half-box apart; at large alpha that
    power underflows, and distinct heights lie 0 apart."""
    normal = grid.axes[-1][grid.axes[-1] <= 0.5 * grid.box_hi[-1]]
    gaps = np.diff(normal ** (1.0 + p.alpha))
    nearest = min([float(np.min(gaps))] + [float(np.min(np.diff(ax))) for ax in grid.axes[:-1]])
    if nearest**expo > 0.0:
        return
    grid_text = "x".join(str(c) for c in grid.counts)
    if nearest == 0.0:
        i = int(np.argmin(gaps))
        why = (
            f"the nodes x_n = {normal[i]:.3g} and {normal[i + 1]:.3g} have the same y_n^(1+alpha) = "
            f"{normal[i] ** (1.0 + p.alpha):.3g} at params.alpha = {p.alpha:g}; lower params.alpha or grid.counts"
        )
    else:
        why = (
            f"the smallest quasi-distance {nearest:.3g} of two nodes to the power {expo:g} is 0; lower the exponent"
        )
    raise PreconditionError(f"the Hoelder quotient of two distinct nodes of the {grid_text} grid divides by 0: {why}")


def run_holder_modulus(
    field: CoefficientField,
    p: GrushinParams,
    grid_spec: GridSpec,
    bc,
    exponent: float | None = None,
    levels: int = 3,
    pairs: int = 100_000,
    seed: int = 0,
) -> HolderReport:
    """Two-point quotient maxima across a refinement sequence.

    At the natural exponent 1/(1+a) the maxima stabilise under refinement;
    larger exponents blow up near the flat boundary (sharpness probe).  A
    finest grid over the node budget is refused before the first assembly.
    """
    expo = 1.0 / (1.0 + p.alpha) if exponent is None else float(exponent)
    problem = Problem(grid_spec, bc)
    # The finest grid is built first, so a ladder over the node budget is refused before any assembly.
    for level in reversed(range(levels)):
        _require_separated_nodes(problem.grid.refined(2**level).build(p), p, expo)
    out: list[HolderLevel] = []
    for level in range(levels):
        grid, sys = problem.at(p, field, level)
        require_monotone(sys)
        _require_zero_flat_face(sys, grid, "Hoelder runs")
        u, report = _checked_solve(sys)
        tang, norm = grid.node_coordinates()
        rng = np.random.default_rng(seed + level)
        a, b = _holder_pairs(grid, tang, norm, rng, pairs)
        dist = quasi_distance_arrays(tang[a], norm[a], tang[b], norm[b], p.alpha)
        quot = np.abs(u[a] - u[b]) / dist**expo
        out.append(HolderLevel(grid.counts, float(np.max(quot)), int(a.size), report))
    if out[-2].max_quotient == 0.0:
        grid_text = "x".join(str(c) for c in out[-2].counts)
        raise PreconditionError(
            f"every sampled two-point quotient is 0 on the {grid_text} grid (u is constant "
            "there), so the change of the maximum quotient is undefined"
        )
    change = abs(out[-1].max_quotient - out[-2].max_quotient) / out[-2].max_quotient
    return HolderReport(exponent=expo, levels=tuple(out), final_change=float(change))


# ----------------------------------------------------------------------
# Oscillation decay
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OscillationReport:
    """Sup of the solution (data at most 1) on the middle shell of an annulus.

    ``shell_samples`` holds (ellipsoid level, x_n, u) of every measured
    shell node as a (k, 3) array, left out of ``repr`` and ``==``.
    """

    sup_inner: float
    c0_empirical: float
    shells: tuple[float, float, float]
    shell_node_count: int
    solve: SolveReport
    shell_samples: np.ndarray = dc_field(repr=False, compare=False)


def run_oscillation_decay(
    field: CoefficientField,
    p: GrushinParams,
    R: float,
    counts: tuple[int, ...],
    curved_value: float = 1.0,
    flat_value: float = 0.5,
) -> OscillationReport:
    """Annulus E_{4R}+ minus E_R+ with data curved_value on the curved parts
    and flat_value on the flat ring; returns 1 - sup u over the nodes within
    ``SHELL_BAND`` (relative) of the middle shell E_{2R}.

    Realised on the bounding box of E_{4R}+ (``annulus_grid``) with the
    inner/outer regions excised as the problem's hole; the mixed-term
    mesh-ratio condition is not required here (perturbed fields
    legitimately break it near the flat face), so the solve proceeds with
    ``solve.dmp_ok`` merely reported.
    """
    if R <= 0.0:
        raise ValueError(f"shell scale R must be > 0, got {R}")
    if not 0.0 <= flat_value <= curved_value <= 1.0:
        raise ValueError("need 0 <= flat_value <= curved_value <= 1")
    outer_cut = 4.0 * R * (1.0 - 1e-12)

    def hole(xp, xn):
        level = ellipsoid_level_arrays(xp, xn, p)
        return (level <= R) | (level >= outer_cut)

    def data(xp, xn):  # the ellipsoid level of a node on the flat face x_n = 0 is |x'|^2
        flat_level = np.sum(xp**2, axis=-1)
        return np.where((xn == 0.0) & (flat_level > R) & (flat_level < outer_cut), flat_value, curved_value)

    grid, sys = Problem(annulus_grid(p, R, counts), data, hole).at(p, field)
    tang, norm = grid.node_coordinates()
    level = ellipsoid_level_arrays(tang, norm, p)
    shell = np.abs(level - 2.0 * R) <= SHELL_BAND * 2.0 * R
    if not shell.any():
        raise PreconditionError("no grid nodes fall on the measured middle shell; raise experiment.counts")
    u, report = _checked_solve(sys)
    sup = float(np.max(u[shell]))
    return OscillationReport(
        sup_inner=sup,
        c0_empirical=1.0 - sup,
        shells=(R, 2.0 * R, 4.0 * R),
        shell_node_count=int(np.count_nonzero(shell)),
        solve=report,
        shell_samples=np.column_stack([level[shell], norm[shell], u[shell]]),
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

    R0_empirical: float | None
    violations: tuple[ScanViolation, ...]
    shells_tested: tuple[float, ...]
    per_shell: tuple[tuple[float, int, int, float], ...]  # (R, samples, violations, worst)


SHELL_NORMAL_FLOOR = 1e-3  # shell samples keep x_n >= this fraction of the shell's normal extent


def _shell_sample(
    p: GrushinParams, R: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection sample of points with gauge in [R, 2R], x_n > 0 and w < 1."""
    lim_t, lim_n = _box_half_widths(p, 2.0 * R)
    got_t, got_n, got_d = [], [], []
    need = count
    for _ in range(200):
        m = max(4 * need, 64)
        xp = rng.uniform(-lim_t, lim_t, (m, p.n - 1))
        xn = rng.uniform(SHELL_NORMAL_FLOOR * lim_n, lim_n, m)
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
        xp, xn, d = _shell_sample(p, R, samples_per_shell, rng)
        jet = supersolution_jet(xp, xn, rho, p)
        hess = jet.hessian
        envelope = amplitude * np.minimum(1.0, d**-s)
        adversarial = envelope * (
            xn ** (2.0 * p.alpha) * np.sum(np.abs(hess[:, :-1, :-1]), axis=(1, 2))
            + 2.0 * xn**p.alpha * np.sum(np.abs(hess[:, :-1, -1]), axis=1)
        )
        value = apply_grushin(jet) + adversarial
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
        R0_empirical=r0,
        violations=tuple(violations),
        shells_tested=shells,
        per_shell=tuple(per_shell),
    )


# ----------------------------------------------------------------------
# Far-field decay fit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFitReport:
    """Slope of log(u/x_n) against log(gauge) along an anisotropic ray."""

    fit: FitResult
    expected_exponent: float
    ray_gauges: tuple[float, ...]
    ray_normals: tuple[float, ...]
    ray_values: tuple[float, ...]
    solve: SolveReport


def decay_ray(
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


def _box_half_widths(p: GrushinParams, radius: float) -> tuple[float, float]:
    """Tangential and normal half-widths of the box of gauge radius ``radius``."""
    return radius ** (1.0 + p.alpha), radius * (1.0 + p.alpha) ** (1.0 / (1.0 + p.alpha))


def _flat_box(p: GrushinParams, half_width: float, height: float, counts: tuple[int, ...]) -> GridSpec:
    """The grid spec of the box |x'_i| <= half_width, 0 <= x_n <= height."""
    return GridSpec((-half_width,) * (p.n - 1) + (0.0,), (half_width,) * (p.n - 1) + (height,), counts)


def exterior_grid(p: GrushinParams, outer_radius: float, counts: tuple[int, ...]) -> GridSpec:
    """The grid spec of an exterior problem: the box of gauge radius ``outer_radius``."""
    return _flat_box(p, *_box_half_widths(p, outer_radius), counts)


def annulus_grid(p: GrushinParams, R: float, counts: tuple[int, ...]) -> GridSpec:
    """The grid spec of ``run_oscillation_decay`` at scale ``R``: the bounding box
    of E_{4R}+, whose half-width and height are the factors of the dilation F_{4R}."""
    return _flat_box(p, *scaling_factors(4.0 * R, p), counts)


def _exterior_problem(
    p: GrushinParams, inner_radius: float, outer_radius: float, counts: tuple[int, ...], inner_data
) -> Problem:
    """The box of gauge radius ``outer_radius`` with the inner box of gauge radius ``inner_radius`` as its
    hole.  Data are ``inner_data(x_n)`` on the inner-box nodes with x_n > 0 and 0 on the other faces."""
    if not 0.0 < inner_radius < outer_radius:
        raise ValueError("need 0 < inner_radius < outer_radius")
    inner_t, inner_n = _box_half_widths(p, inner_radius)

    def in_box(xp, xn):
        return np.all(np.abs(xp) <= inner_t, axis=1) & (xn <= inner_n)

    def data(xp, xn):
        values = np.zeros(xn.shape)
        box = in_box(xp, xn) & (xn > 0.0)
        values[box] = inner_data(xn[box])
        return values

    return Problem(exterior_grid(p, outer_radius, counts), data, in_box)


def run_decay_fit(
    field: CoefficientField,
    p: GrushinParams,
    inner_radius: float,
    outer_radius: float,
    counts: tuple[int, ...],
) -> DecayFitReport:
    """Exterior problem with unit data on an inner box; fit u/x_n ~ gauge^{-Q}.

    The domain is the box of gauge radius ``outer_radius`` minus the inner
    box of gauge radius ``inner_radius``; data are 1 on the inner-box faces
    (x_n > 0), 0 on the flat face and the far faces.  The far faces truncate
    the true problem, so the ray runs from gauge lo * inner_radius to
    hi * outer_radius, (lo, hi) = ``RAY_WINDOW``, and the systematic
    deviation shows up in the fit residual.  The fit takes the ``RAY_POINTS``
    ray values above ``MIN_RAY_VALUE``; the run is refused when fewer than
    ``MIN_FIT_SAMPLES`` remain.
    """
    grid, sys = _exterior_problem(p, inner_radius, outer_radius, counts, lambda xn: 1.0).at(p, field)
    require_monotone(sys)
    u, report = _checked_solve(sys)

    lo, hi = RAY_WINDOW
    gauges, ray_t, ray_n = decay_ray(p, lo * inner_radius, hi * outer_radius, RAY_POINTS)
    values = grid_interpolator(grid, u)(np.column_stack([ray_t, ray_n]))
    usable = values > MIN_RAY_VALUE
    _require_fit_samples(np.count_nonzero(usable), f"ray values above {MIN_RAY_VALUE:g}")
    return DecayFitReport(
        fit=fit_loglog(gauges[usable], values[usable] / ray_n[usable]),
        expected_exponent=-p.Q,
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

    comparison_constant: float
    epsilon: float
    worst_margin: float
    falsification_margin: float
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
) -> GlobalBoundReport:
    """Exterior solve with data min(1, x_n) on the inner box, then the
    comparison: C is the smallest constant with |u| <= C (w - w^{1+rho}) on
    the exposed inner-boundary nodes, eps the largest |u| on the far faces,
    and ``worst_margin`` is min(C v + eps - |u|) over the exterior nodes.

    The inner data vanish linearly at the flat boundary so that both sides of
    the comparison degenerate at the same rate there; the falsification
    control, ``falsification_margin``, is the same margin with C/2.  The
    command judges both: the bound holds when the worst margin is about
    nonnegative and the control's is not, showing the check bites.
    Refuses before the solve a grid whose inner box holds no interface node,
    a supersolution that is not a positive number on the interface (inner
    radius too small, or w = inf where the kernel's base underflows at large
    alpha) and a system that fails the discrete maximum principle.
    """
    if rho <= 0.0:
        raise PreconditionError(f"rho must be > 0, got {rho}")
    problem = _exterior_problem(p, inner_radius, outer_radius, counts, lambda xn: np.minimum(1.0, xn))
    grid, sys = problem.at(p, field)
    require_monotone(sys)
    # Interface: the inner-box nodes off the box faces, all of them above the flat face, that some
    # interior row references.  Only their coordinates are read before the solve, which needs the room.
    interface = np.flatnonzero(sys.referenced_dirichlet() & ~grid.face_mask())
    if interface.size == 0:
        raise PreconditionError(
            f"inner box is invisible to the grid (gauge radius {inner_radius:g}); "
            "raise experiment.counts or lower experiment.outer_radius"
        )
    *tang_index, norm_index = np.unravel_index(interface, grid.shape)
    tang_i = np.column_stack([axis[i] for axis, i in zip(grid.axes, tang_index)])
    norm_i = grid.axes[-1][norm_index]
    # At large alpha the kernel's base underflows to 0 at the lowest interface
    # nodes: w = inf there and the barrier is nan, which is no positive number.
    with np.errstate(divide="ignore", invalid="ignore"):
        barrier_i = supersolution_value_arrays(tang_i, norm_i, rho, p)
    if not np.all(barrier_i > 0.0):
        with np.errstate(divide="ignore"):
            largest = float(np.max(kernel_value_arrays(tang_i, norm_i, p)))
        raise PreconditionError(
            "supersolution w - w^{1+rho} is not positive on the inner boundary: w must be < 1 there, "
            f"and the inner box of gauge radius {inner_radius:g} reaches w = {largest:.6g}"
        )
    u, report = _checked_solve(sys)

    tang, norm = grid.node_coordinates()
    with np.errstate(divide="ignore", invalid="ignore"):
        barrier = supersolution_value_arrays(tang, norm, rho, p)
    exterior = ~problem.hole(tang, norm)

    constant = float(np.max(np.abs(u[interface]) / barrier_i))
    far = sys.dirichlet_mask & exterior
    epsilon = float(np.max(np.abs(u[far])))

    worst = comparison_margin(u[exterior], barrier[exterior], constant, epsilon)
    falsified = comparison_margin(u[exterior], barrier[exterior], 0.5 * constant, epsilon)
    tangential_norm = np.sqrt(np.sum(tang_i * tang_i, axis=1))
    samples = np.column_stack([tangential_norm, norm_i, u[interface], barrier_i])
    return GlobalBoundReport(
        comparison_constant=constant,
        epsilon=epsilon,
        worst_margin=worst,
        falsification_margin=falsified,
        interface_count=int(interface.size),
        interface_samples=samples,
        solve=report,
    )
