"""Finite differences for the degenerate operator on half-space boxes.

The domain is an axis-aligned box sitting on {x_n = 0}, discretised by a
tensor grid, optionally graded towards the flat face.  Interior rows
discretise -L (so diagonals are positive):

* pure second derivatives by the 3-point central stencil on non-uniform
  spacings,
* mixed derivatives by 7-point cross stencils whose corner pair is chosen
  by the sign of the coefficient (positive part on the (+,+)/(-,-) diagonal,
  negative part on the (+,-)/(-,+) diagonal), which keeps corner entries
  nonpositive and pushes the sign burden onto the face entries,

and every boundary node (all box faces, plus any caller-supplied mask such
as an excised inner box) is an identity row carrying Dirichlet data.  The
sign-split cross stencil preserves the M-matrix pattern exactly when the
local mesh-ratio condition holds; nodes where it fails are detected on the
assembled rows and reported, never silently accepted.

``solve`` has two exact direct solvers and picks one from the assembled
system alone.

* **Fast diagonalization** where the coefficients are exactly the identity
  (a_ij = delta_ij, a_in = 0) at every interior node and at most k obstacle
  nodes (Dirichlet nodes off the box faces) remain, with k^2 <= N, the
  number of non-face nodes.  On the non-face nodes the operator T is then
  the Kronecker sum of uniform 3-point tangential differences weighted by
  x_n^{2a} and graded 3-point normal differences.  An orthonormal sine
  transform along each tangential axis diagonalises the tangential part,
  leaving one tridiagonal system lambda x_n^{2a} + T_n in x_n per mode
  (Lynch, Rice & Thomas, *Numer. Math.* 6, 1964; Buzbee, Golub & Nielson,
  *SIAM J. Numer. Anal.* 7, 1970).  Each is a row diagonally dominant
  M-matrix, so the Thomas sweep without pivoting is stable (Higham,
  *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 9.9), and
  the sine basis is orthogonal.  The obstacle nodes S are imposed by the
  capacitance matrix C = (T^{-1})_SS (Buzbee, Dorr, George & Golub, *SIAM
  J. Numer. Anal.* 8, 1971; Proskurowski & Widlund, *Math. Comp.* 30,
  1976): with w = T^{-1} f and C beta = -w_S, T^{-1}(f + E_S beta)
  vanishes on S and solves the other rows.  k^2 <= N is the cost
  crossover: the dense C is no larger than one grid vector.
* **SuperLU** everywhere else, under a symmetric minimum-degree ordering
  of A^T + A and no off-diagonal pivoting.  That is stable here too: where
  the DMP check passes, interior rows are weakly row diagonally dominant
  M-matrix rows and boundary rows are identity rows, so elimination on the
  diagonal has growth factor at most 2 (same theorem).  Pivoting would
  cost fill: a Dirichlet column holds interior entries of size 1/h^2
  against a unit diagonal, so any positive pivot threshold leaves the
  diagonal and breaks the symmetric ordering.

Either way every answer is checked against the assembled matrix, on
systems the DMP check flags as well, by its componentwise backward error
max_i |r_i| / (|A||u| + |b|)_i (Oettli & Prager, *Numer. Math.* 6, 1964),
and refined while that exceeds the tolerance and keeps halving (Skeel,
*Math. Comp.* 35, 1980: one sweep of fixed-precision refinement usually
suffices).  A relative residual ||r|| / ||b|| is no stopping test here:
its floor grows with ||A|| ||u|| / ||b||, and on the R = 1 annulus of
``run_oscillation_decay`` at 257 x 97 (||A||_inf = 5.7e7) it stays above
1e-10 on an answer whose backward error is 5e-16.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from .coefficients import CoefficientField
from .geometry import GrushinParams
from .reports import write_csv

__all__ = [
    "AnisotropicGrid",
    "SparseSystem",
    "SeparableOperator",
    "SolveReport",
    "DmpReport",
    "build_grid",
    "assemble",
    "solve",
    "check_dmp",
    "grid_interpolator",
    "write_grid_function",
]

MAX_NODES_DEFAULT = 2_000_000
MAX_REFINEMENTS = 50

BoundaryValues = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class AnisotropicGrid:
    """Tensor grid on a box [lo, hi] with lo_n = 0 and power grading in x_n."""

    box_lo: np.ndarray
    box_hi: np.ndarray
    counts: tuple[int, ...]
    grading_exponent: float
    axes: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.counts))

    def node_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """All node coordinates in flat C order: tangential (N, n-1), normal (N,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        tang = np.column_stack([m.ravel() for m in mesh[:-1]])
        return tang, mesh[-1].ravel()

    def face_mask(self) -> np.ndarray:
        """Boolean mask of nodes lying on any face of the box."""
        mask = np.zeros(self.shape, dtype=bool)
        for axis, count in enumerate(self.counts):
            index = [slice(None)] * self.dim
            index[axis] = 0
            mask[tuple(index)] = True
            index[axis] = count - 1
            mask[tuple(index)] = True
        return mask.ravel()


def build_grid(
    box_lo,
    box_hi,
    counts,
    grading_exponent: float = 1.0,
    max_nodes: int = MAX_NODES_DEFAULT,
) -> AnisotropicGrid:
    """Build the tensor grid; normal nodes sit at H*(k/K)^grading_exponent.

    Tangential axes are uniform.  Grading 1 is uniform in x_n too; larger
    exponents concentrate nodes near the degenerate face {x_n = 0}.
    """
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    counts = tuple(int(c) for c in counts)
    if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 2:
        raise ValueError("box_lo and box_hi must be equal-length vectors, length >= 2")
    if len(counts) != lo.size:
        raise ValueError(f"counts must have length {lo.size}, got {len(counts)}")
    if np.any(hi <= lo):
        raise ValueError("box must satisfy box_lo < box_hi componentwise")
    if lo[-1] != 0.0:
        raise ValueError(f"box must sit on the flat face: box_lo[-1] must be 0, got {lo[-1]}")
    if min(counts) < 3:
        raise ValueError(f"every axis needs at least 3 nodes, got {counts}")
    if grading_exponent < 1.0:
        raise ValueError(f"grading_exponent must be >= 1, got {grading_exponent}")
    total = int(np.prod(counts))
    if total > max_nodes:
        raise ValueError(f"grid has {total} nodes, exceeding the budget of {max_nodes}")
    axes = [np.linspace(lo[a], hi[a], counts[a]) for a in range(lo.size - 1)]
    k = np.arange(counts[-1], dtype=float) / (counts[-1] - 1)
    axes.append(hi[-1] * k**grading_exponent)
    for ax in axes:
        if np.any(np.diff(ax) <= 0.0):
            raise ValueError("grid axes must be strictly increasing")
    return AnisotropicGrid(
        box_lo=lo,
        box_hi=hi,
        counts=counts,
        grading_exponent=float(grading_exponent),
        axes=tuple(axes),
    )


@dataclass(frozen=True)
class DmpReport:
    """Structural discrete-maximum-principle check on the assembled rows."""

    ok: bool
    positive_offdiagonal_rows: np.ndarray
    nonpositive_diagonal_rows: np.ndarray
    negative_rowsum_rows: np.ndarray


@dataclass(frozen=True, eq=False)
class SeparableOperator:
    """What the fast solver needs of a separable system: its grid, the
    exponent a of the weight x_n^{2a} on the tangential differences and the
    sine basis (``_sine_basis``) of each tangential axis."""

    grid: AnisotropicGrid
    alpha: float
    bases: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """Assembled linear system: CSR matrix, right-hand side, Dirichlet mask,
    the DMP check of its rows, computed once at assembly, and, when the
    operator is separable, what the fast solver needs (else ``None``)."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    dirichlet_mask: np.ndarray
    dmp: DmpReport
    separable: SeparableOperator | None = None

    @property
    def mesh_ratio_offenders(self) -> np.ndarray:
        """Interior nodes where the sign-split cross stencil left a positive off-diagonal."""
        return self.dmp.positive_offdiagonal_rows


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one linear solve; ``==`` ignores the wall time.

    ``method`` names the solver: ``"lu"``, ``"fast-diagonalization"``, or
    ``"dirichlet"`` when every node carries Dirichlet data.
    ``backward_error`` is the componentwise backward error of the answer and
    ``backward_error_history`` its value after the first solve and after each
    refinement sweep (see ``solve``); a report built by hand without them
    carries ``nan`` and an empty history.
    """

    iterations: int
    final_residual: float
    dmp_ok: bool
    wall_time_s: float = dc_field(compare=False)
    converged: bool
    method: str = "lu"
    backward_error: float = float("nan")
    backward_error_history: tuple[float, ...] = ()


def assemble(
    field: CoefficientField,
    grid: AnisotropicGrid,
    p: GrushinParams,
    bc: BoundaryValues,
    extra_dirichlet: np.ndarray | None = None,
) -> SparseSystem:
    """Assemble -L with Dirichlet data ``bc`` on the box faces (and extras).

    ``bc(tangential, normal)`` is evaluated on every Dirichlet node;
    ``extra_dirichlet`` is an optional flat boolean mask of additional
    Dirichlet nodes (e.g. the nodes of an excised inner obstacle), valued by
    the same ``bc``.  The field evaluation is assumed to have passed the
    ellipticity audit on this grid's nodes.  The system is marked separable
    (``separable`` set) when the evaluated coefficients are exactly the
    identity at every interior node and the k Dirichlet nodes off the box
    faces satisfy k^2 <= N, the number of non-face nodes (the capacitance
    rule of the module docstring).
    """
    if grid.dim != p.n:
        raise ValueError(f"grid dimension {grid.dim} does not match params n={p.n}")
    n = p.n
    m = n - 1
    num = grid.num_nodes
    shape = grid.shape

    faces = grid.face_mask()
    dirichlet = faces
    if extra_dirichlet is not None:
        extra = np.asarray(extra_dirichlet, dtype=bool).ravel()
        if extra.size != num:
            raise ValueError(f"extra_dirichlet must have {num} entries, got {extra.size}")
        dirichlet = faces | extra

    tang_all, norm_all = grid.node_coordinates()
    rhs = np.zeros(num)
    rhs[dirichlet] = np.asarray(bc(tang_all[dirichlet], norm_all[dirichlet]), dtype=float)

    interior = np.flatnonzero(~dirichlet)
    rows: list[np.ndarray] = [np.flatnonzero(dirichlet)]
    cols: list[np.ndarray] = [np.flatnonzero(dirichlet)]
    vals: list[np.ndarray] = [np.ones(int(np.count_nonzero(dirichlet)))]
    separable = None

    if interior.size:
        multi = np.unravel_index(interior, shape)
        strides = np.array(
            [int(np.prod(shape[a + 1 :], dtype=np.int64)) for a in range(n)], dtype=np.int64
        )
        spacings = [np.diff(ax) for ax in grid.axes]
        h_minus = [spacings[a][multi[a] - 1] for a in range(n)]
        h_plus = [spacings[a][multi[a]] for a in range(n)]

        xp = tang_all[interior]
        xn = norm_all[interior]
        a_t = np.asarray(field.tangential(xp, xn), dtype=float)
        a_m = np.asarray(field.mixed(xp, xn), dtype=float)
        xn_2a = xn ** (2.0 * p.alpha)
        xn_a = xn**p.alpha
        obstacles = int(np.count_nonzero(dirichlet & ~faces))
        if obstacles**2 <= interior.size + obstacles and not np.any(a_m) and np.all(a_t == np.eye(m)):
            # Built before the stencil arrays: built in ``solve``, a dense
            # basis went into the heap hole those arrays leave when freed
            # whenever the hole happened to be large enough, so peak memory
            # varied from run to run with the heap layout.
            bases = tuple(_sine_basis(c) for c in grid.counts[:-1])
            separable = SeparableOperator(grid, p.alpha, bases)

        def push(col_offset: np.ndarray, values: np.ndarray) -> None:
            rows.append(interior)
            cols.append(interior + col_offset)
            vals.append(values)

        # Second differences: -C * D_aa u.
        for a in range(n):
            coeff = a_t[:, a, a] * xn_2a if a < m else np.ones_like(xn)
            hm, hp = h_minus[a], h_plus[a]
            span = hm + hp
            push(-strides[a], -2.0 * coeff / (hm * span))
            push(np.zeros_like(strides[a]), 2.0 * coeff / (hm * hp))
            push(+strides[a], -2.0 * coeff / (hp * span))

        # Mixed differences: -c_ab * D_ab u, c split by sign across the two
        # diagonal orientations.
        for a in range(n):
            for b in range(a + 1, n):
                if b < m:
                    c = 2.0 * a_t[:, a, b] * xn_2a
                else:  # b = n - 1: tangential-normal term
                    c = 2.0 * a_m[:, a] * xn_a
                if not np.any(c):
                    continue
                cpos = np.maximum(c, 0.0)
                cneg = np.maximum(-c, 0.0)
                sa, sb = strides[a], strides[b]
                w_pp = cpos / (2.0 * h_plus[a] * h_plus[b])
                w_mm = cpos / (2.0 * h_minus[a] * h_minus[b])
                w_pm = cneg / (2.0 * h_plus[a] * h_minus[b])
                w_mp = cneg / (2.0 * h_minus[a] * h_plus[b])
                push(sa + sb, -w_pp)
                push(-sa - sb, -w_mm)
                push(sa - sb, -w_pm)
                push(-sa + sb, -w_mp)
                push(np.zeros_like(sa), -(w_pp + w_mm + w_pm + w_mp))
                push(+sa, w_pp + w_pm)
                push(-sa, w_mm + w_mp)
                push(+sb, w_pp + w_mp)
                push(-sb, w_mm + w_pm)

    matrix = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num, num),
    ).tocsr()
    matrix.sum_duplicates()

    return SparseSystem(
        matrix=matrix,
        rhs=rhs,
        dirichlet_mask=dirichlet,
        dmp=_dmp_report(matrix, ~dirichlet),
        separable=separable,
    )


def _positive_offdiagonal_rows(
    matrix: sparse.csr_matrix, row_mask: np.ndarray, tol: np.ndarray
) -> np.ndarray:
    """Rows of ``row_mask`` holding an off-diagonal entry above their ``tol``.

    Read straight off the CSR arrays of a matrix without duplicate entries
    (``assemble`` sums them): no threshold of ``_dmp_report`` is below
    1e-13, so only entries above it are located in their rows.
    """
    entry = np.flatnonzero(matrix.data > 1e-13)
    row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))[entry]
    hit = (matrix.indices[entry] != row) & (matrix.data[entry] > tol[row])
    offending = np.zeros(matrix.shape[0], dtype=bool)
    offending[row[hit]] = True
    return np.flatnonzero(row_mask & offending)


def _dmp_report(matrix: sparse.csr_matrix, interior: np.ndarray) -> DmpReport:
    diag = matrix.diagonal()
    tol = 1e-13 * np.maximum(np.abs(diag), 1.0)

    bad_diag = np.flatnonzero(interior & (diag <= 0.0))
    bad_off = _positive_offdiagonal_rows(matrix, interior, tol)
    row_sums = matrix @ np.ones(matrix.shape[0])
    bad_sum = np.flatnonzero(interior & (row_sums < -tol))
    ok = bad_diag.size == 0 and bad_off.size == 0 and bad_sum.size == 0
    return DmpReport(
        ok=bool(ok),
        positive_offdiagonal_rows=bad_off,
        nonpositive_diagonal_rows=bad_diag,
        negative_rowsum_rows=bad_sum,
    )


def check_dmp(sys: SparseSystem) -> DmpReport:
    """Check positive diagonals, nonpositive off-diagonals, nonnegative row sums.

    When the check passes the scheme is monotone: ordered boundary data give
    ordered solutions, and zero data force the zero solution.  ``assemble``
    stores this report as ``sys.dmp``; this recomputes it from the rows.
    """
    return _dmp_report(sys.matrix, ~sys.dirichlet_mask)


def _sine_basis(c: int) -> np.ndarray:
    """Orthonormal sine basis sqrt(2/(c-1)) sin(pi j k/(c-1)), j, k = 1 .. c-2,
    with j k reduced modulo the period 2(c-1) so the basis stays orthogonal."""
    k = np.arange(1, c - 1)
    table = np.sqrt(2.0 / (c - 1)) * np.sin(np.pi * np.arange(2 * (c - 1)) / (c - 1))
    return table[np.outer(k, k) % (2 * (c - 1))]


def _fast_inverse(sys: SparseSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of a separable system by fast diagonalization.

    Acts on full vectors like an LU solve: u_D = r_D and u_I solves
    A_II u_I = r_I - A_ID r_D, with A_ID read from the assembled matrix and
    T, C as in the module docstring.  Tangential axis a with c nodes has the
    basis ``sys.separable.bases[a]`` and eigenvalues (4/h^2) sin^2(pi k/(2(c-1)));
    each mode's tridiagonal system in x_n is factored once by a Thomas sweep
    over all modes at once.  C is built from the transformed obstacle unit
    vectors (``modes``) and one Thomas solve per distinct obstacle height.
    """
    grid, alpha = sys.separable.grid, sys.separable.alpha
    interior = ~sys.dirichlet_mask
    nonface = ~grid.face_mask()
    free = interior[nonface]
    inner = tuple(c - 2 for c in grid.counts)
    obstacle = np.unravel_index(np.flatnonzero(~free), inner)

    bases = sys.separable.bases
    eig = np.zeros(())
    modes = np.ones((obstacle[0].size, 1))  # row s: the transform of e_s, (k, M)
    for lo, hi, c, t, basis in zip(
        grid.box_lo[:-1], grid.box_hi[:-1], grid.counts[:-1], obstacle[:-1], bases
    ):
        k = np.arange(1, c - 1)
        h = (hi - lo) / (c - 1)
        eig = np.add.outer(eig, (4.0 / h**2) * np.sin(np.pi * k / (2.0 * (c - 1))) ** 2)
        modes = (modes[:, :, None] * basis[t][:, None, :]).reshape(t.size, eig.size)
    eig = eig.ravel()

    z = grid.axes[-1]
    hm, hp = np.diff(z)[:-1], np.diff(z)[1:]
    lower = -2.0 / (hm * (hm + hp))
    upper = -2.0 / (hp * (hm + hp))
    pivot = (2.0 / (hm * hp))[:, None] + (z[1:-1] ** (2.0 * alpha))[:, None] * eig
    ratio = np.zeros_like(pivot)
    for j in range(1, pivot.shape[0]):
        ratio[j] = lower[j] / pivot[j - 1]
        pivot[j] -= ratio[j] * upper[j - 1]

    def thomas(y: np.ndarray) -> np.ndarray:
        for j in range(1, y.shape[0]):
            y[j] -= ratio[j] * y[j - 1]
        y[-1] /= pivot[-1]
        for j in range(y.shape[0] - 2, -1, -1):
            y[j] = (y[j] - upper[j] * y[j + 1]) / pivot[j]
        return y

    def sine_transform(g: np.ndarray) -> np.ndarray:
        # g has the normal axis first; each contraction moves the next
        # tangential axis to the end, so after all of them the order is back.
        for basis in bases:
            g = np.tensordot(g, basis, axes=(1, 0))
        return g

    height = obstacle[-1]
    if height.size:
        capacitance = np.empty((height.size, height.size))
        for level in np.unique(height):
            unit = np.zeros(pivot.shape)
            unit[level] = 1.0
            capacitance[:, height == level] = (thomas(unit)[height] * modes) @ modes[height == level].T
        capacitance_lu = lu_factor(capacitance)

    def apply(r: np.ndarray) -> np.ndarray:
        u = np.where(interior, 0.0, r)
        f = (r - sys.matrix @ u)[nonface].reshape(inner)  # zero on the obstacle rows
        y = sine_transform(np.moveaxis(f, -1, 0)).reshape(pivot.shape)
        if height.size:
            w = np.einsum("sm,sm->s", thomas(y.copy())[height], modes)
            np.add.at(y, height, lu_solve(capacitance_lu, -w)[:, None] * modes)
        y = thomas(y)
        v = np.moveaxis(sine_transform(y.reshape(inner[-1:] + inner[:-1])), 0, -1).ravel()
        u[interior] = v[free]
        return u

    return apply


def _backward_error(
    residual: np.ndarray, abs_matrix: sparse.csr_matrix, u: np.ndarray, b: np.ndarray
) -> float:
    """Componentwise backward error max_i |r_i| / (|A||u| + |b|)_i.

    By Oettli & Prager (*Numer. Math.* 6, 1964) it is the smallest w such
    that u solves some (A + dA) u = b + db with |dA| <= w|A| and |db| <= w|b|.
    A row whose scale is 0 counts as 0 when r_i = 0 there, else as inf.
    """
    scale = abs_matrix @ np.abs(u) + np.abs(b)
    zero = scale == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(residual) / scale
    ratio[zero] = np.where(residual[zero] == 0.0, 0.0, np.inf)
    return float(np.max(ratio))


def solve(sys: SparseSystem, tol: float = 1e-10) -> tuple[np.ndarray, SolveReport]:
    """Solve the assembled system to a componentwise backward error <= tol.

    A separable system (``sys.separable`` set by ``assemble``: identity
    coefficients, k^2 <= N obstacle nodes) is solved by fast diagonalization
    plus a capacitance matrix, every other one by a SuperLU factorisation
    with the ``MMD_AT_PLUS_A`` ordering and pivots kept on the diagonal
    (``diag_pivot_thresh=0``, ``SymmetricMode``); both are stable on these
    row diagonally dominant M-matrix rows (see the module docstring), and
    ``method`` names the one used.

    The first answer u is followed by sweeps of fixed-precision iterative
    refinement against the assembled matrix, u += inverse(b - A u), while
    its componentwise backward error w = max_i |r_i| / (|A||u| + |b|)_i
    (``_backward_error``) exceeds ``tol`` and the last sweep at least
    halved it, for at most ``MAX_REFINEMENTS`` sweeps.  A fast solve always
    gets one sweep: its first answer carries a residual up to ten times the
    LU one.  One sweep usually brings w to the round-off level (Skeel,
    *Math. Comp.* 35, 1980), while a relative residual ||r|| / ||b|| has a
    floor that grows with ||A|| ||u|| / ||b|| and may never reach ``tol``.
    ``iterations`` counts the sweeps, ``backward_error`` is the final w and
    ``backward_error_history`` holds w of the first answer and after each
    sweep, ``converged`` says whether w <= ``tol``, and ``final_residual`` is
    the relative residual ||r||_2 / ||b||_2 of the answer returned.
    Deterministic for identical inputs.  A singular factorisation raises
    SuperLU's ``RuntimeError``.
    """
    start = time.perf_counter()
    matrix = sys.matrix
    b = sys.rhs
    if bool(sys.dirichlet_mask.all()):
        method, min_sweeps, inverse = "dirichlet", 0, np.copy
    elif sys.separable is not None:
        method, min_sweeps = "fast-diagonalization", 1
        inverse = _fast_inverse(sys)
    else:
        method, min_sweeps = "lu", 0
        inverse = splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).solve
    # |A| shares the index arrays of A: one extra nnz-sized array.
    abs_matrix = sparse.csr_matrix(
        (np.abs(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape
    )
    u = inverse(b)
    r = b - matrix @ u
    history = [_backward_error(r, abs_matrix, u, b)]
    halved = True
    # len(history) - 1 sweeps are done.
    while len(history) <= MAX_REFINEMENTS and (
        len(history) <= min_sweeps or (history[-1] > tol and halved)
    ):
        u = u + inverse(r)
        r = b - matrix @ u
        history.append(_backward_error(r, abs_matrix, u, b))
        halved = history[-1] <= 0.5 * history[-2]

    omega = history[-1]
    report = SolveReport(
        iterations=len(history) - 1,
        final_residual=float(np.linalg.norm(r)) / (float(np.linalg.norm(b)) or 1.0),
        dmp_ok=sys.dmp.ok,
        wall_time_s=time.perf_counter() - start,
        converged=bool(omega <= tol),
        method=method,
        backward_error=omega,
        backward_error_history=tuple(history),
    )
    return u, report


def grid_interpolator(
    grid: AnisotropicGrid, values: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Multilinear interpolator of a flat grid function over the tensor grid.

    The returned function maps points (M, n) to values (M,) and raises
    ``ValueError`` for a point outside the box.
    """
    values = np.asarray(values, dtype=float).reshape(grid.shape)

    def interpolate(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[-1] != grid.dim:
            raise ValueError(f"expected points of dimension {grid.dim}, got {points.shape[-1]}")
        lower, frac = [], []
        for axis, x in zip(grid.axes, points.T):
            if not np.all((axis[0] <= x) & (x <= axis[-1])):
                raise ValueError("interpolation point outside the grid box")
            i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
            lower.append(i)
            frac.append((x - axis[i]) / (axis[i + 1] - axis[i]))
        out = 0.0
        for corner in itertools.product((0, 1), repeat=grid.dim):
            term = values[tuple(i + c for i, c in zip(lower, corner))]
            for t, c in zip(frac, corner):
                term = term * (t if c else 1.0 - t)
            out = out + term
        return out

    return interpolate


def write_grid_function(path, grid: AnisotropicGrid, values: np.ndarray) -> None:
    """Write one line per node, ``x_1 ... x_n u``, space-separated and atomically."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size != grid.num_nodes:
        raise ValueError(f"expected {grid.num_nodes} values, got {values.size}")
    tang, norm = grid.node_coordinates()
    write_csv(path, None, [*tang.T, norm, values], sep=" ")
