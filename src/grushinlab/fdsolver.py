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
  x_n^{2a} and graded 3-point normal differences.  The orthonormal DST-I
  along each tangential axis, computed by a real FFT in O(M log M) per line
  of M nodes with no dense basis (Swarztrauber, *SIAM Rev.* 19, 1977), leaves
  one tridiagonal system lambda x_n^{2a} + T_n in x_n per mode (Lynch,
  Rice & Thomas, *Numer. Math.* 6, 1964; Buzbee, Golub & Nielson, *SIAM J.
  Numer. Anal.* 7, 1970).  Each is a row diagonally dominant M-matrix, so
  the Thomas sweep without pivoting is stable in either direction (Higham,
  *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 9.9), and
  the DST-I is orthogonal.  The obstacle nodes S are imposed by the
  capacitance matrix C = (T^{-1})_SS (Buzbee, Dorr, George & Golub, *SIAM
  J. Numer. Anal.* 8, 1971; Proskurowski & Widlund, *Math. Comp.* 30, 1976):
  with w = T^{-1} f and C beta = -w_S, T^{-1}(f + E_S beta) vanishes on S
  and solves the other rows.  k^2 <= N is the cost crossover: the dense C is
  no larger than one grid vector.  The sweep eliminates from the far face
  toward the flat face, so the entries of T^{-1} in the rows below ``top``,
  the highest obstacle row plus one, need only the end of the elimination
  and the start of the substitution (Meurant, *SIAM J. Matrix Anal. Appl.*
  13, 1992): a column of C at height j eliminates rows j-1 .. 0 and
  substitutes rows 0 .. top-1, and an application costs one full sweep
  pair plus sweeps over the rows below ``top``, whatever the obstacle.
* **SuperLU** everywhere else, on A_II alone: the rows and columns of the
  free (non-Dirichlet) nodes, with the Dirichlet columns moved to the
  right-hand side.  A_II is built from the stencil weights in a geometric
  nested-dissection order of the tensor grid (George, *SIAM J. Numer.
  Anal.* 10, 1973; Lipton, Rose & Tarjan, *SIAM J. Numer. Anal.* 16, 1979):
  each depth bisects the longest axis of the index box, and the mid-plane
  separator is ordered after both halves.  SuperLU factors it in that order
  with no off-diagonal pivoting.  That is stable here too: where the DMP
  check passes, the rows of A_II are weakly row diagonally dominant M-matrix
  rows, so elimination on the diagonal has growth factor at most 2 (same
  theorem).  Pivoting would cost fill, as any pivot off the diagonal breaks
  the symmetric ordering.

Either way every answer is checked against the assembled operator, on
systems the DMP check flags as well, by its componentwise backward error
max_i |r_i| / (|A||u| + |b|)_i (Oettli & Prager, *Numer. Math.* 6, 1964),
and refined while that exceeds ``SOLVER_TOL`` = 1e-10, a constant, and
keeps halving (Skeel, *Math. Comp.* 35, 1980: one sweep of fixed-precision
refinement usually suffices).  A relative residual ||r|| / ||b|| is no stopping test here:
its floor grows with ||A|| ||u|| / ||b||, and on the R = 1 annulus of
``run_oscillation_decay`` at 257 x 97 (||A||_inf = 5.7e7) it stays above
1e-10 on an answer whose backward error is 5e-16.

The assembled system is a stencil operator: one weight array per column
offset, built in place.  ``assemble`` computes each stencil term at every
node at once, broadcasting the 1-D node spacings of each axis against the
coefficients over the tensor grid, sums the terms into one preallocated
(offsets, N) array and then resets the Dirichlet rows to identity rows; it
gathers and scatters nothing node by node.  The products with A and the
DMP check read those arrays directly, by contiguous slices of the grid
vector, and the backward-error check sums A u and |A||u| in the same pass
over them, a cache-sized block of rows at a time, so no copy of the
weights is made.  The fast path needs nothing else but ``numpy.fft`` (the
DST-I) and ``numpy.linalg`` (the capacitance solve).  SciPy is imported
only by the SuperLU branch, which builds the CSR form of A_II to factor it:
the pointwise commands and every identity command whose solve is fast load
no SciPy, which would be most of their start-up time.  One builder lays out
both CSR forms, A_II and the whole operator of ``SparseSystem.matrix``, so
A_II is that matrix restricted to the free rows and columns, bit for bit.

``solve`` takes its residual norms with numpy's pairwise sum, not a BLAS
dot such as ``np.linalg.norm`` (divided by max |x| first only where the sum
of squares overflows): OpenBLAS splits a long dot product across
threads, whose rounding then depends on the thread count, and whose idle
workers spin between solves, doubling the CPU time of a solver run.  The
pairwise sum is single-threaded and its error bound grows only with
log n (Higham, *SIAM J. Sci. Comput.* 14, 1993).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Callable

import numpy as np

from .coefficients import CoefficientField
from .geometry import GrushinParams
from .reports import write_csv

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "AnisotropicGrid",
    "SparseSystem",
    "SeparableOperator",
    "SolveReport",
    "DmpReport",
    "SpacingError",
    "build_grid",
    "assemble",
    "solve",
    "check_dmp",
    "componentwise_ratio",
    "grid_interpolator",
    "write_grid_function",
]

MAX_NODES = 2_000_000  # node budget of one grid; build_grid refuses larger ones
MIN_SPACING = math.nextafter(math.sqrt(2.0 / np.finfo(float).max), math.inf)  # least h with 2/h^2 finite
MAX_REFINEMENTS = 50
SOLVER_TOL = 1e-10  # componentwise backward error at which refinement stops; "converged" below it
STENCIL_BLOCK = 1 << 15  # rows per block of a stencil product (256 KB per vector): its slices stay in cache
DST_BLOCK = 1 << 15  # doubles of odd extension per FFT call of the DST-I (256 KB): bounds its transient
DISSECTION_LEAF = 8  # index boxes of at most this many nodes end the nested dissection (leaves of 64 fill more)

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
        return math.prod(self.counts)

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


class SpacingError(ValueError):
    """Grid axis number ``axis``, of ``nodes`` nodes, has a spacing h below ``MIN_SPACING``."""

    def __init__(self, axis: int, nodes: int, h: float):
        super().__init__(
            f"axis {axis} of {nodes} nodes has smallest spacing {h:.3g} < MIN_SPACING = {MIN_SPACING:.3g}, "
            "below which the stencil weight 2/h^2 overflows"
        )
        self.axis = axis


def build_grid(box_lo, box_hi, counts, grading_exponent: float = 1.0) -> AnisotropicGrid:
    """Build the tensor grid; normal nodes sit at H*(k/K)^grading_exponent.

    Tangential axes are uniform.  Grading 1 is uniform in x_n too; larger
    exponents concentrate nodes near the degenerate face {x_n = 0}.  A grid
    of more than ``MAX_NODES`` nodes, counted exactly, is refused, and so is
    an axis whose smallest spacing h is below ``MIN_SPACING``, where the
    largest stencil weight 2/h^2 overflows (``SpacingError``).
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
    total = math.prod(counts)
    if total > MAX_NODES:
        raise ValueError(f"grid has {total} nodes, exceeding the budget of {MAX_NODES}")
    axes = [np.linspace(lo[a], hi[a], counts[a]) for a in range(lo.size - 1)]
    k = np.arange(counts[-1], dtype=float) / (counts[-1] - 1)
    axes.append(hi[-1] * k**grading_exponent)
    for a, ax in enumerate(axes):
        h = float(np.min(np.diff(ax)))
        if not h >= MIN_SPACING:
            raise SpacingError(a, ax.size, h)
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
    """What the fast solver needs of a separable system: its grid and the
    exponent a of the weight x_n^{2a} on the tangential differences; no array,
    as the orthonormal DST-I is computed by FFT, O(M log M) per line."""

    grid: AnisotropicGrid
    alpha: float


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """Assembled linear system A u = rhs, held as a stencil operator.

    Row i of A is sum_k weights[k, i] u[i + offsets[k]] over the sorted
    column ``offsets`` (0 among them); a weight whose column i + offsets[k]
    leaves the grid is ignored.  A Dirichlet row (``dirichlet_mask``) holds
    its unit diagonal and zero weights elsewhere.  ``dmp`` is the DMP check
    of the rows, computed once by ``from_stencil``, and ``separable`` what the
    fast solver needs when the operator is separable (else ``None``).
    ``shape`` is the tensor grid the nodes lie on, in C order; a system
    built by hand is one axis of N nodes.  ``matrix`` is the CSR form of the
    whole operator, built on first use and importing SciPy; ``solve`` does
    not use it.
    """

    offsets: tuple[int, ...]
    weights: np.ndarray  # (len(offsets), N)
    rhs: np.ndarray
    dirichlet_mask: np.ndarray
    dmp: DmpReport
    shape: tuple[int, ...]
    separable: SeparableOperator | None = None

    @classmethod
    def from_stencil(
        cls,
        offsets,
        weights: np.ndarray,
        rhs: np.ndarray,
        dirichlet_mask: np.ndarray,
        separable: SeparableOperator | None = None,
        shape: tuple[int, ...] | None = None,
    ) -> "SparseSystem":
        """The system of these stencil weights, with its DMP check; without a
        grid ``shape`` the nodes are one axis of N."""
        offsets = tuple(offsets)
        dmp = _dmp_report(offsets, weights, ~dirichlet_mask)
        shape = (rhs.size,) if shape is None else tuple(shape)
        return cls(offsets, weights, rhs, dirichlet_mask, dmp, shape, separable)

    @property
    def mesh_ratio_offenders(self) -> np.ndarray:
        """Interior nodes where the sign-split cross stencil left a positive off-diagonal."""
        return self.dmp.positive_offdiagonal_rows

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """A u, equal to the CSR product bit for bit (see ``_stencil_product``)."""
        return _stencil_product(self.offsets, self.weights, u)

    def referenced_dirichlet(self) -> np.ndarray:
        """Mask of the Dirichlet nodes that some interior row references,
        zero weights included, as in the CSR pattern."""
        interior = ~self.dirichlet_mask
        referenced = np.zeros(interior.size, dtype=bool)
        for offset in self.offsets:
            lo, hi = _rows_in_grid(offset, interior.size)
            referenced[lo + offset : hi + offset] |= interior[lo:hi]
        return referenced & self.dirichlet_mask

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """Canonical CSR form of the whole operator, for tests and tracing:
        a Dirichlet row holds its unit diagonal, an interior row one entry
        per offset whose column lies in the grid, in increasing column
        order, zero weights kept."""
        nodes = np.arange(self.rhs.size)
        return _csr(self, nodes, nodes)


def _csr(sys: SparseSystem, rows: np.ndarray, position: np.ndarray) -> sparse.csr_matrix:
    """CSR form of the operator's ``rows``, in that order, column j renumbered ``position[j]`` and
    dropped where that is -1: a Dirichlet row keeps its diagonal alone, and zero weights are kept."""
    from scipy import sparse

    offsets = np.array(sys.offsets)
    columns = rows[:, None] + offsets
    keep = (columns >= 0) & (columns < position.size) & (~sys.dirichlet_mask[rows, None] | (offsets == 0))
    renumbered = position[columns[keep]]
    keep[keep] = renumbered >= 0
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    shape = (rows.size, np.count_nonzero(position >= 0))
    return sparse.csr_matrix((sys.weights[:, rows].T[keep], renumbered[renumbered >= 0], indptr), shape=shape)


def _rows_in_grid(offset: int, num: int) -> tuple[int, int]:
    """The rows lo <= i < hi whose column i + offset lies in a grid of ``num`` nodes."""
    return max(0, -offset), min(num, num - offset)


def _stencil_product(
    offsets, weights: np.ndarray, u: np.ndarray, magnitudes: np.ndarray | None = None
) -> np.ndarray:
    """sum_k weights[k, i] u[i + offsets[k]] for every row i; given a zeroed
    buffer ``magnitudes``, the same pass adds sum_k |weights[k, i] u[i + offsets[k]]|,
    row i of |A||u|, into it.

    Each row is summed in increasing offset order starting from +0.0, as
    SciPy's ``csr_matvec`` sums a canonical CSR row, so for finite u the
    result equals the product with the CSR form bit for bit, signed zeros
    included: the zero weights of a Dirichlet row add only zeros.  Rounding
    is symmetric, so |fl(w u)| = fl(|w| |u|) and ``magnitudes`` equals the
    product of the CSR form of |A| with |u| bit for bit; the weights are
    read once for both sums, and no copy of |A| or of |u| is made.  The rows
    are taken ``STENCIL_BLOCK`` at a time, every offset per block, so a
    block's slices stay in cache between the offsets; a row's sum is the
    same either way.
    """
    out = np.zeros(u.size)
    term = np.empty(min(u.size, STENCIL_BLOCK))
    for start in range(0, u.size, STENCIL_BLOCK):
        for offset, w in zip(offsets, weights):
            lo, hi = _rows_in_grid(offset, u.size)
            lo = max(lo, start)
            hi = max(lo, min(hi, start + STENCIL_BLOCK))
            t = term[: hi - lo]
            np.multiply(w[lo:hi], u[lo + offset : hi + offset], out=t)
            out[lo:hi] += t
            if magnitudes is not None:
                magnitudes[lo:hi] += np.abs(t, out=t)
    return out


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one linear solve.  ``==`` and ``jsonable`` leave out the
    wall time: it is run-dependent, so the command writes it to
    ``telemetry.json``, not to ``report.json``.

    ``method`` names the solver: ``"lu"``, ``"fast-diagonalization"``, or
    ``"dirichlet"`` when every node carries Dirichlet data.
    ``backward_error`` is the componentwise backward error of the answer and
    ``backward_error_history`` its value after the first solve and after each
    refinement sweep (see ``solve``); a report built by hand without them
    carries ``nan`` and an empty history.  ``fill`` is the count of nonzeros
    SuperLU stores in its factors (its ``nnz``), 0 for the other methods;
    like the wall time it goes to ``telemetry.json`` only.
    """

    iterations: int
    final_residual: float
    dmp_ok: bool
    wall_time_s: float = dc_field(compare=False, repr=False)
    converged: bool
    method: str = "lu"
    backward_error: float = float("nan")
    backward_error_history: tuple[float, ...] = ()
    fill: int = dc_field(default=0, compare=False, repr=False)


def assemble(
    field: CoefficientField,
    grid: AnisotropicGrid,
    p: GrushinParams,
    bc: BoundaryValues,
    extra_dirichlet: np.ndarray | None = None,
) -> SparseSystem:
    """Assemble -L with Dirichlet data ``bc`` on the box faces (and extras).

    ``bc(tangential, normal)`` is evaluated on every Dirichlet node, and a
    value that is not finite there is a ``ValueError``; ``extra_dirichlet``
    is an optional flat boolean mask of additional Dirichlet nodes (e.g. the
    nodes of an excised inner obstacle), valued by the same ``bc``.  The
    field evaluation is assumed to have passed the ellipticity audit on this
    grid's nodes.  The system is marked separable
    (``separable`` set) when the evaluated coefficients are exactly the
    identity at every interior node and the k Dirichlet nodes off the box
    faces satisfy k^2 <= N, the number of non-face nodes (the capacitance
    rule of the module docstring).  Each stencil term is computed at every
    node at once, by broadcasting the 1-D spacings of each axis against the
    coefficients over the grid (the field is evaluated at every node), and
    summed in a fixed order into one preallocated weight array per column
    offset; the Dirichlet rows are then reset to identity rows.  Which cross
    terms exist and whether the system is separable are read at the
    interior nodes only.  Those arrays, zero weights kept, are the returned
    operator.  An axis whose largest weight 2 C/(h_- h_+), coefficient C
    included, is not finite is a ``ValueError`` naming the axis, raised
    before any of its weights is computed.
    """
    if grid.dim != p.n:
        raise ValueError(f"grid dimension {grid.dim} does not match params n={p.n}")
    num = grid.num_nodes
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
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        at = ", ".join(f"{x:g}" for x in (*tang_all[bad[0]], norm_all[bad[0]]))
        raise ValueError(
            f"non-finite boundary data at {bad.size} Dirichlet node(s); the first is node {bad[0]} at ({at})"
        )
    obstacles = int(np.count_nonzero(dirichlet & ~faces))
    offsets, weights, separable = _stencil_weights(field, grid, p, tang_all, norm_all, dirichlet, obstacles)
    del tang_all, norm_all  # the DMP check runs in the room they held
    return SparseSystem.from_stencil(offsets, weights, rhs, dirichlet, separable, grid.shape)


def _node_spacings(axis: np.ndarray, a: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """h_- and h_+ at every node of grid axis ``a`` of ``n``, shaped to
    broadcast over the grid.  An end node, a face node, repeats the spacing
    of its neighbour; only Dirichlet rows read it."""
    spacing = np.diff(axis)
    shape = [1] * n
    shape[a] = axis.size
    return np.append(spacing[:1], spacing).reshape(shape), np.append(spacing, spacing[-1:]).reshape(shape)


def _stencil_weights(
    field: CoefficientField,
    grid: AnisotropicGrid,
    p: GrushinParams,
    tang_all: np.ndarray,
    norm_all: np.ndarray,
    dirichlet: np.ndarray,
    obstacles: int,
) -> tuple[list[int], np.ndarray, SeparableOperator | None]:
    """Offsets, weights and separability of ``assemble``'s operator.

    The first term of an offset is stored into its row and later ones are
    added, in a fixed order, so every interior weight, a -0.0 included, has
    the bits of summing the same terms over the interior nodes alone.
    """
    n, m, shape, num = p.n, p.n - 1, grid.shape, grid.num_nodes
    inner = ~dirichlet.reshape(shape)
    if not inner.any():
        return [0], np.ones((1, num)), None

    strides = [int(np.prod(shape[a + 1 :], dtype=np.int64)) for a in range(n)]
    h_minus, h_plus = zip(*(_node_spacings(ax, a, n) for a, ax in enumerate(grid.axes)))
    a_t = np.asarray(field.tangential(tang_all, norm_all), dtype=float).reshape(shape + (m, m))
    a_m = np.asarray(field.mixed(tang_all, norm_all), dtype=float).reshape(shape + (m,))
    xn = grid.axes[-1].reshape(h_minus[-1].shape)
    with np.errstate(over="ignore"):  # an infinite x_n^{2a} is refused with the weights below
        xn_2a = xn ** (2.0 * p.alpha)
    xn_a = xn**p.alpha
    separable = None
    if (
        obstacles**2 <= np.count_nonzero(inner) + obstacles
        and not np.any(a_m, where=inner[..., None])
        and np.all(a_t == np.eye(m), where=inner[..., None, None])
    ):
        separable = SeparableOperator(grid, p.alpha)

    # Mixed differences -c_ab * D_ab u (b = n - 1: the tangential-normal term),
    # kept where c is nonzero at some interior node.
    pairs = (
        (a, b, 2.0 * a_t[..., a, b] * xn_2a if b < m else 2.0 * a_m[..., a] * xn_a)
        for a, b in itertools.combinations(range(n), 2)
    )
    cross = [(a, b, c) for a, b, c in pairs if np.any(c, where=inner)]
    offsets = {0, *strides, *(-s for s in strides)}
    for a, b, _ in cross:
        sa, sb = strides[a], strides[b]
        offsets |= {sa + sb, -sa - sb, sa - sb, -sa + sb}
    offsets = sorted(offsets)

    weights = np.empty((len(offsets), num))
    rows = {offset: w.reshape(shape) for offset, w in zip(offsets, weights)}
    unwritten = set(offsets)

    def push(col_offset: int, values) -> None:
        if col_offset in unwritten:
            unwritten.remove(col_offset)
            rows[col_offset][...] = values
        else:
            rows[col_offset] += values

    # Second differences: -C * D_aa u.  Every weight of axis a is at most its
    # diagonal 2 C / (h_- h_+) in size, so that bound is checked first.
    for a in range(n):
        hm, hp = h_minus[a], h_plus[a]
        with np.errstate(over="ignore"):
            coeff = a_t[..., a, a] * xn_2a if a < m else 1.0
            largest_coeff = np.max(np.abs(coeff))
            largest = 2.0 * largest_coeff / np.min(hm * hp)
        if not np.isfinite(largest):
            raise ValueError(
                f"axis {a} has a stencil weight 2 C/(h_- h_+) that overflows: coefficient C up to "
                f"{largest_coeff:.3g} at spacing {np.min(np.diff(grid.axes[a])):.3g}"
            )
        span = hm + hp
        push(-strides[a], -2.0 * coeff / (hm * span))
        push(0, 2.0 * coeff / (hm * hp))
        push(+strides[a], -2.0 * coeff / (hp * span))

    # Mixed differences, c split by sign across the two diagonal orientations.
    for a, b, c in cross:
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
        push(0, -(w_pp + w_mm + w_pm + w_mp))
        push(+sa, w_pp + w_pm)
        push(-sa, w_mm + w_mp)
        push(+sb, w_pp + w_mp)
        push(-sb, w_mm + w_pm)

    weights[:, dirichlet] = 0.0
    weights[offsets.index(0), dirichlet] = 1.0
    return offsets, weights, separable


def _positive_offdiagonal_rows(
    offsets, weights: np.ndarray, row_mask: np.ndarray, tol: np.ndarray
) -> np.ndarray:
    """Rows of ``row_mask`` holding an off-diagonal weight above their ``tol``."""
    offending = np.zeros(row_mask.size, dtype=bool)
    for offset, w in zip(offsets, weights):
        if offset:
            lo, hi = _rows_in_grid(offset, row_mask.size)
            offending[lo:hi] |= w[lo:hi] > tol[lo:hi]
    return np.flatnonzero(row_mask & offending)


def _dmp_report(offsets, weights: np.ndarray, interior: np.ndarray) -> DmpReport:
    diag = weights[offsets.index(0)]
    tol = 1e-13 * np.maximum(np.abs(diag), 1.0)

    bad_diag = np.flatnonzero(interior & (diag <= 0.0))
    bad_off = _positive_offdiagonal_rows(offsets, weights, interior, tol)
    row_sums = np.zeros(diag.size)  # the in-grid weights of each row, in offset order: A times ones
    for offset, w in zip(offsets, weights):
        lo, hi = _rows_in_grid(offset, diag.size)
        row_sums[lo:hi] += w[lo:hi]
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
    return _dmp_report(sys.offsets, sys.weights, ~sys.dirichlet_mask)


def _sine_rows(c: int, rows: np.ndarray) -> np.ndarray:
    """Rows j - 1 = ``rows`` of the DST-I basis sqrt(2/(c-1)) sin(pi j k/(c-1)),
    k = 1 .. c-2, read at j k reduced modulo 2(c-1) to keep them orthonormal."""
    k = np.arange(1, c - 1)
    table = np.sqrt(2.0 / (c - 1)) * np.sin(np.pi * np.arange(2 * (c - 1)) / (c - 1))
    return table[np.outer(rows + 1, k) % (2 * (c - 1))]


def _dst1(g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I along the last axis of ``g`` (two axes or more), its
    own inverse, written into ``out`` (a new array by default; ``g`` itself
    is allowed).

    The real FFT of the odd extension [0, g, 0, -g reversed], of length
    2(M+1), has imaginary part -2 sum_j g_j sin(pi j k/(M+1)); it is scaled
    by 1/sqrt(2(M+1)) rounded from long double, as pocketfft scales it, so
    the result equals ``scipy.fft.dst(g, type=1, norm="ortho")`` bit for bit.
    The extension is built in one reused buffer, as many slabs g[i] at a
    time as fit in ``DST_BLOCK`` values (at least one), so the transform
    holds that buffer and its spectrum beside the result, not two copies of
    g; each line's FFT is the same either way, and the cache-sized calls are
    no slower than one call for all of g.  A block of slabs is copied into
    the buffer before its result is written, so ``out=g`` transforms in place.
    """
    m = g.shape[-1]
    scale = -float(1 / np.sqrt(np.longdouble(2 * (m + 1))))
    slab = g.shape[1:-1] + (2 * (m + 1),)
    slabs = max(1, DST_BLOCK // int(np.prod(slab)))
    out = np.empty(g.shape) if out is None else out
    odd = np.zeros((min(slabs, len(g)),) + slab)
    for start in range(0, len(g), slabs):
        part = g[start : start + slabs]
        ext = odd[: len(part)]
        ext[..., 1 : m + 1] = part
        np.negative(part[..., ::-1], out=ext[..., m + 2 :])
        np.multiply(np.fft.rfft(ext).imag[..., 1 : m + 1], scale, out=out[start : start + len(part)])
    return out


def _add_rows(target: np.ndarray, rows: np.ndarray, coefficients: np.ndarray, vectors: np.ndarray) -> None:
    """target[rows[s]] += coefficients[s] * vectors[s] for s = 0, 1, ... in
    turn: ``np.add.at(target, rows, coefficients[:, None] * vectors)`` bit
    for bit, one row at a time, without the (k, M) array of products."""
    product = np.empty(vectors.shape[1:])
    for row, coefficient, vector in zip(rows, coefficients, vectors):
        target[row] += np.multiply(coefficient, vector, out=product)


def _fast_inverse(sys: SparseSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of a separable system by fast diagonalization.

    Acts on full vectors like an LU solve: u_D = r_D and u_I solves
    A_II u_I = r_I - A_ID r_D, with A_ID r_D the product of the assembled
    operator with r_D, and T, C as in the module docstring.  Tangential axis
    a with c nodes has the orthonormal DST-I (``_dst1``, a ``numpy.fft`` real
    FFT in O(c log c) per line, no dense basis) and eigenvalues (4/h^2)
    sin^2(pi k/(2(c-1))); each mode's tridiagonal system in x_n is factored
    once, over all modes at once, by eliminating from the last normal row
    toward the flat face.  C is built from the k obstacle rows of each basis
    (``modes``) and, per distinct obstacle height j, a unit vector's
    elimination over rows j-1 .. 0 and substitution over rows 0 .. top-1.
    An application eliminates its right-hand side in place, substitutes a
    copy of the first ``top`` rows to read w_S, solves C beta = -w_S by
    ``numpy.linalg.solve`` (LAPACK's LU with partial pivoting), adds the
    elimination of E_S beta over those rows, substitutes once and
    transforms back in place.  E_S beta is added one obstacle row at a
    time in obstacle order (``_add_rows``), not by a matrix product, which
    OpenBLAS splits across threads at these sizes and whose workers then
    spin between applications.  The product A_ID r_D is skipped when
    r_D = 0, as in every refinement sweep, and the argument is never
    written.
    """
    grid, alpha = sys.separable.grid, sys.separable.alpha
    interior = ~sys.dirichlet_mask
    nonface = ~grid.face_mask()
    inner = tuple(c - 2 for c in grid.counts)
    free = interior[nonface].reshape(inner)
    obstacle = np.nonzero(~free)

    eig = np.zeros(())
    modes = np.ones((obstacle[0].size, 1))  # row s: the transform of e_s, (k, M)
    for lo, hi, c, t in zip(grid.box_lo[:-1], grid.box_hi[:-1], grid.counts[:-1], obstacle[:-1]):
        k = np.arange(1, c - 1)
        h = (hi - lo) / (c - 1)
        eig = np.add.outer(eig, (4.0 / h**2) * np.sin(np.pi * k / (2.0 * (c - 1))) ** 2)
        modes = (modes[:, :, None] * _sine_rows(c, t)[:, None, :]).reshape(t.size, eig.size)
    eig = eig.ravel()

    z = grid.axes[-1]
    hm, hp = np.diff(z)[:-1], np.diff(z)[1:]
    lower = -2.0 / (hm * (hm + hp))
    upper = -2.0 / (hp * (hm + hp))
    pivot = (2.0 / (hm * hp))[:, None] + (z[1:-1] ** (2.0 * alpha))[:, None] * eig
    ratio = np.zeros_like(pivot)
    for j in range(pivot.shape[0] - 2, -1, -1):
        ratio[j] = upper[j] / pivot[j + 1]
        pivot[j] -= ratio[j] * lower[j + 1]

    row = np.empty(pivot.shape[1:])

    def eliminate(y: np.ndarray) -> np.ndarray:  # rows len(y)-2 .. 0 of a vector that is 0 past y
        for j in range(y.shape[0] - 2, -1, -1):
            y[j] -= np.multiply(ratio[j], y[j + 1], out=row)
        return y

    def substitute(y: np.ndarray) -> np.ndarray:  # rows 0 .. len(y)-1 of the solution
        y[0] /= pivot[0]
        for j in range(1, y.shape[0]):
            np.subtract(y[j], np.multiply(lower[j], y[j - 1], out=row), out=row)
            np.divide(row, pivot[j], out=y[j])
        return y

    def sine_transform(g: np.ndarray, out: np.ndarray) -> np.ndarray:  # normal axis first; its own inverse
        for axis in range(1, g.ndim):
            g = np.moveaxis(_dst1(np.moveaxis(g, axis, -1), out=np.moveaxis(out, axis, -1)), -1, axis)
        return g

    height = obstacle[-1]
    top = height.max(initial=-1) + 1  # rows 0 .. top - 1 hold every obstacle node
    capacitance = np.empty((height.size, height.size))
    for level in np.unique(height):
        unit = np.zeros((top,) + pivot.shape[1:])
        unit[level] = 1.0
        eliminate(unit[: level + 1])
        capacitance[:, height == level] = (substitute(unit)[height] * modes) @ modes[height == level].T

    block = (slice(1, -1),) * grid.dim  # the non-face nodes, shaped ``inner``

    def apply(r: np.ndarray) -> np.ndarray:
        u, f = _lifted(sys, r)
        f = np.moveaxis(f.reshape(grid.shape)[block], -1, 0)  # zero on the obstacle rows
        y = eliminate(sine_transform(f, out=np.empty(f.shape)).reshape(pivot.shape))
        del f  # dead: free it before the back transform
        if top:
            part = substitute(y[:top].copy())
            w = np.einsum("sm,sm->s", part[height], modes)
            part[...] = 0.0
            _add_rows(part, height, np.linalg.solve(capacitance, -w), modes)
            y[:top] += eliminate(part)
        y = substitute(y).reshape(inner[-1:] + inner[:-1])
        sine_transform(y, out=y)
        np.copyto(u.reshape(grid.shape)[block], np.moveaxis(y, 0, -1), where=free)
        return u

    return apply


def _dissection_order(shape: tuple[int, ...], free: np.ndarray) -> np.ndarray:
    """The flat indices of the ``free`` nodes of the tensor grid ``shape`` in
    geometric nested-dissection order (George, 1973).

    Each depth bisects the longest axis of the index box at its middle; the
    mid-plane is the separator, ordered after both halves, and boxes of at
    most ``DISSECTION_LEAF`` nodes keep flat order.  Every box of one depth
    is split along the same axis, so the node's side at each depth (0 low,
    1 high, 2 separator) is one base-3 digit per axis, the digits of the
    axes add into one key per node, and the free nodes are stable-sorted by
    it.  One axis alone is banded and keeps flat order.
    """
    extents = list(shape)
    splits = []  # the axis bisected at each depth
    while len(shape) > 1 and math.prod(extents) > DISSECTION_LEAF:
        axis = int(np.argmax(extents))
        splits.append(axis)
        extents[axis] //= 2
    codes = [np.zeros(c, dtype=np.int64) for c in shape]
    lo = [np.zeros(c, dtype=np.int64) for c in shape]
    hi = [np.full(c, c, dtype=np.int64) for c in shape]
    for depth, axis in enumerate(splits):
        index = np.arange(shape[axis])
        mid = (lo[axis] + hi[axis]) // 2  # a separator node keeps its own index as the middle
        low, high = index < mid, index > mid
        codes[axis] += np.where(low, 0, np.where(high, 1, 2)) * 3 ** (len(splits) - 1 - depth)
        lo[axis] = np.where(high, mid + 1, np.where(low, lo[axis], mid))
        hi[axis] = np.where(low, mid, np.where(high, hi[axis], mid + 1))
    key = reduce(np.add.outer, codes).ravel()
    nodes = np.flatnonzero(free)
    return nodes[np.argsort(key[nodes], kind="stable")]


def _lu_inverse(sys: SparseSystem) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Exact inverse by a SuperLU factorisation of A_II, the free rows and
    columns, and the count of nonzeros SuperLU stores in its factors.

    A_II is built straight from the stencil weights by ``_csr``, its rows
    and columns in ``_dissection_order`` and the Dirichlet columns dropped,
    and factored in that order (``NATURAL``), pivots kept on the diagonal.
    Acts on full vectors like ``_fast_inverse``: u_D = r_D and u_I solves
    A_II u_I = r_I - A_ID r_D, the product skipped when r_D = 0.
    """
    from scipy.sparse.linalg import splu

    order = _dissection_order(sys.shape, ~sys.dirichlet_mask)
    position = np.full(sys.rhs.size, -1, dtype=np.int64)
    position[order] = np.arange(order.size)
    block = _csr(sys, order, position).tocsc()
    lu = splu(block, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def apply(r: np.ndarray) -> np.ndarray:
        u, f = _lifted(sys, r)
        u[order] = lu.solve(f[order])
        return u

    return apply, int(lu.nnz)


def _lifted(sys: SparseSystem, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = r on the Dirichlet nodes and 0 elsewhere, and r - A u, whose free
    rows are the right-hand side of A_II; A u is skipped when it is 0."""
    u = np.where(sys.dirichlet_mask, r, 0.0)
    return u, (r - sys.matvec(u) if u.any() else r)


def componentwise_ratio(value: np.ndarray, scale: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|value_i| / scale_i per entry, written into ``out`` (a new array by
    default; ``scale`` itself is allowed); a zero scale gives 0 where the
    value is 0, else inf."""
    zero = scale == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(np.abs(value), scale, out=out)
    ratio[zero] = np.where(value[zero] == 0.0, 0.0, np.inf)
    return ratio


def _norm(x: np.ndarray) -> float:
    """||x||_2 as the square root of numpy's pairwise sum of x_i^2.  Only where
    that sum overflows and x is finite is x first divided by max |x|, so the
    bits are those of the plain sum wherever it is finite."""
    with np.errstate(over="ignore"):
        total = np.sum(x * x)
    if np.isfinite(total) or not np.all(np.isfinite(x)):
        return float(np.sqrt(total))
    largest = np.max(np.abs(x))
    x = x / largest
    return float(largest * np.sqrt(np.sum(x * x)))


def solve(sys: SparseSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the assembled system to a componentwise backward error <= ``SOLVER_TOL``.

    A separable system (``sys.separable`` set by ``assemble``: identity
    coefficients, k^2 <= N obstacle nodes) is solved by fast diagonalization
    plus a capacitance matrix, every other one by a SuperLU factorisation
    of the free block A_II in nested-dissection order (``_lu_inverse``,
    ``permc_spec="NATURAL"``) with pivots kept on the diagonal
    (``diag_pivot_thresh=0``, ``SymmetricMode``); both are stable on these
    row diagonally dominant M-matrix rows (see the module docstring), and
    ``method`` names the one used.

    The first answer u is followed by sweeps of fixed-precision iterative
    refinement against the assembled operator, u += inverse(b - A u) in place, while
    its componentwise backward error w = max_i |r_i| / (|A||u| + |b|)_i
    (``componentwise_ratio``; Oettli & Prager, *Numer. Math.* 6, 1964: the
    least w with u solving some (A + dA) u = b + db, |dA| <= w|A|,
    |db| <= w|b|) exceeds ``SOLVER_TOL`` and the last sweep at least halved
    it, for at most ``MAX_REFINEMENTS`` sweeps.  A fast solve always
    gets one sweep: its first answer carries a residual up to ten times the
    LU one.  One sweep usually brings w to the round-off level (Skeel,
    *Math. Comp.* 35, 1980), while a relative residual ||r|| / ||b|| has a
    floor that grows with ||A|| ||u|| / ||b|| and may never reach ``SOLVER_TOL``.
    Each check is one pass over the weights (``_stencil_product`` with
    ``magnitudes``) that sums A u and |A||u| together; r and then the ratio
    are written into that pass's own two buffers, and |b| is taken once per
    solve, so no copy of |A| is made.
    ``iterations`` counts the sweeps, ``backward_error`` is the final w and
    ``backward_error_history`` holds w of the first answer and after each
    sweep, ``converged`` says whether w <= ``SOLVER_TOL``, and ``final_residual`` is
    the relative residual ||r||_2 / ||b||_2 of the answer returned (b = 0
    divides by 1), its norms taken by a pairwise sum, with no BLAS call
    (``_norm``, which rescales only a sum of squares that overflows).
    ``fill`` is SuperLU's count of stored factor entries.  Deterministic for
    identical inputs.  Only the SuperLU branch imports SciPy; it builds A_II
    from the weights and never builds ``sys.matrix``.  A singular factorisation raises
    SuperLU's ``RuntimeError``.
    """
    start = time.perf_counter()
    b = sys.rhs
    fill = 0
    if bool(sys.dirichlet_mask.all()):
        method, min_sweeps, inverse = "dirichlet", 0, np.copy
    elif sys.separable is not None:
        method, min_sweeps = "fast-diagonalization", 1
        inverse = _fast_inverse(sys)
    else:
        method, min_sweeps = "lu", 0
        inverse, fill = _lu_inverse(sys)
    abs_b = np.abs(b)

    def check(u: np.ndarray) -> tuple[np.ndarray, float]:  # r = b - A u and the backward error of u
        scale = np.zeros(b.size)
        r = _stencil_product(sys.offsets, sys.weights, u, magnitudes=scale)
        np.subtract(b, r, out=r)
        scale += abs_b
        return r, float(np.max(componentwise_ratio(r, scale, out=scale)))

    u = inverse(b)
    r, omega = check(u)
    history = [omega]
    halved = True
    # len(history) - 1 sweeps are done.
    while len(history) <= MAX_REFINEMENTS and (
        len(history) <= min_sweeps or (history[-1] > SOLVER_TOL and halved)
    ):
        u += inverse(r)
        r, omega = check(u)
        history.append(omega)
        halved = history[-1] <= 0.5 * history[-2]

    report = SolveReport(
        iterations=len(history) - 1,
        final_residual=_norm(r) / (_norm(b) or 1.0),
        dmp_ok=sys.dmp.ok,
        wall_time_s=time.perf_counter() - start,
        converged=bool(omega <= SOLVER_TOL),
        method=method,
        backward_error=omega,
        backward_error_history=tuple(history),
        fill=fill,
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
