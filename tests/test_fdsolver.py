import dataclasses
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.fft import dst
from scipy.sparse.linalg import splu

import grushinlab
from grushinlab import fdsolver
from grushinlab.closedforms import kernel_value_arrays
from grushinlab.coefficients import CoefficientField, make_decaying_perturbation, make_identity_field
from grushinlab.experiments import annulus_grid
from grushinlab.fdsolver import (
    DmpReport,
    SolveReport,
    SparseSystem,
    assemble,
    build_grid,
    check_dmp,
    grid_interpolator,
    solve,
    write_grid_function,
)
from grushinlab.geometry import GrushinParams, ellipsoid_level_arrays
from grushinlab.reports import jsonable

P21 = GrushinParams(2, 1.0)
P31 = GrushinParams(3, 1.0)
IDENT = make_identity_field(P21)


def bc_kernel(xp, xn):
    return kernel_value_arrays(xp, xn, P21)


def inner_box(grid):
    """Nodes with |x' - 2| <= 1/4 and x_n <= 1/2: an excised box, so the system is not separable."""
    tang, norm = grid.node_coordinates()
    return np.all(np.abs(tang - 2.0) <= 0.25, axis=1) & (norm <= 0.5)


def three_node_system(weights) -> SparseSystem:
    """Nodes 0 and 2 Dirichlet identity rows, interior row 1 given by the
    weights at offsets -1, 0, 1."""
    stencil = np.zeros((3, 3))
    stencil[1] = 1.0
    stencil[:, 1] = weights
    dirichlet = np.array([True, False, True])
    return SparseSystem.from_stencil([-1, 0, 1], stencil, np.array([1.0, 0.0, 1.0]), dirichlet)


def constant_field(p, a11=1.0, a1n=0.0):
    m = p.n - 1

    def tangential(xp, xn):
        xn = np.asarray(xn, dtype=float)
        return np.broadcast_to(np.eye(m) * a11, xn.shape + (m, m))

    def mixed(xp, xn):
        xn = np.asarray(xn, dtype=float)
        out = np.zeros(xn.shape + (m,))
        out[..., 0] = a1n
        return out

    return CoefficientField(
        tangential=tangential,
        mixed=mixed,
        lambda_const=a11,
        Lambda_const=a11,
        delta_const=0.5,
        decay_s=0.0,
    )


class TestBuildGrid:
    def test_uniform_normal_axis(self):
        g = build_grid([0, 0], [1, 1], (3, 3), 1.0)
        np.testing.assert_allclose(g.axes[1], [0.0, 0.5, 1.0], atol=0)

    def test_graded_normal_axis(self):
        g = build_grid([0, 0], [1, 1], (3, 5), 2.0)
        np.testing.assert_allclose(g.axes[1], [0, 1 / 16, 1 / 4, 9 / 16, 1], rtol=1e-15)

    def test_node_count(self):
        g = build_grid([0, 0, 0], [1, 2, 1], (4, 5, 3), 1.5)
        assert g.num_nodes == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid([0, 0], [1, 1], (2, 3))  # too few nodes
        with pytest.raises(ValueError):
            build_grid([0, 0], [1, 1], (3, 3), 0.5)  # grading < 1
        with pytest.raises(ValueError):
            build_grid([0, 0.1], [1, 1], (3, 3))  # box off the flat face
        with pytest.raises(ValueError):
            build_grid([0, 0], [0, 1], (3, 3))  # degenerate box
        with pytest.raises(ValueError, match="budget"):
            build_grid([0, 0], [1, 1], (1500, 1500))  # over the node budget

    def test_spacing_rule(self):
        # MIN_SPACING is the least spacing h whose largest stencil weight 2/h^2 is finite.
        smallest, below = np.float64(fdsolver.MIN_SPACING), np.float64(math.nextafter(fdsolver.MIN_SPACING, 0.0))
        with np.errstate(over="ignore"):
            assert np.isfinite(2.0 / smallest**2) and np.isinf(2.0 / below**2)
        # Three tangential nodes at 0, h and 2h are spaced by exactly h.
        assert np.diff(build_grid([0, 0], [2 * smallest, 1], (3, 3)).axes[0]).min() == smallest
        with pytest.raises(fdsolver.SpacingError, match="^axis 0 of 3 nodes has smallest spacing 1.05e-154 < MIN_SPACING") as refused:
            build_grid([0, 0], [2 * below, 1], (3, 3))
        assert refused.value.axis == 0
        # 33 normal nodes on a height of 2, graded 1 + alpha: alpha = 101 is the last that fits.
        build_grid([1, 0], [3, 2], (33, 33), 102.0)
        with pytest.raises(fdsolver.SpacingError, match="^axis 1 of 33 nodes has smallest spacing 1.86e-155") as refused:
            build_grid([1, 0], [3, 2], (33, 33), 103.0)
        assert refused.value.axis == 1
        # Normal nodes whose spacing underflows to 0 are refused by the same rule.
        with pytest.raises(fdsolver.SpacingError, match="smallest spacing 0 < MIN_SPACING"):
            build_grid([1, 0], [3, 2], (33, 33), 221.0)

    @pytest.mark.parametrize(
        "box_lo, box_hi, alpha, message",
        [
            # 2/h^2 is finite at h = 1.1e-154, but the coefficient x_n^2 reaches 4.
            ([1e-140, 0], [1e-140 + 32 * 1.1e-154, 2], 1.0, "coefficient C up to 4 at spacing 1.1e-154"),
            # x_n^{2a} itself overflows at the top of a box of height 1e10.
            ([1, 0], [3, 1e10], 16.0, "coefficient C up to inf at spacing 0.0625"),
        ],
        ids=["narrow", "tall"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_is_refused_before_it_is_computed(self, box_lo, box_hi, alpha, message):
        p = GrushinParams(2, alpha)
        grid = build_grid(box_lo, box_hi, (33, 33))
        with pytest.raises(ValueError, match=rf"^axis 0 has a stencil weight 2 C/\(h_- h_\+\) that overflows: {message}$"):
            assemble(make_identity_field(p), grid, p, lambda xp, xn: np.zeros(xn.shape))

    def test_node_budget_is_an_exact_count(self):
        # 33**13 nodes wrap round in int64 to a negative count; the exact product is refused.
        with pytest.raises(ValueError, match="^grid has 55040353993448503713 nodes, exceeding the budget"):
            build_grid((1.0,) * 12 + (0.0,), (3.0,) * 12 + (2.0,), (33,) * 13)


class TestAssembleAndSolve:
    def test_constants_are_discretely_harmonic(self):
        g = build_grid([1, 0], [3, 2], (17, 17), 2.0)
        sys = assemble(IDENT, g, P21, lambda xp, xn: np.ones(xn.shape))
        ones = np.ones(g.num_nodes)
        rowsum = sys.matrix @ ones
        diag = sys.matrix.diagonal()
        interior = ~sys.dirichlet_mask
        assert np.max(np.abs(rowsum[interior]) / np.maximum(diag[interior], 1.0)) <= 1e-10
        u, rep = solve(sys)
        assert np.max(np.abs(u - 1.0)) <= 1e-12
        assert rep.final_residual <= 1e-12

    @pytest.mark.parametrize("which", ["normal", "tangential"])
    def test_linear_exactness(self, which):
        g = build_grid([1, 0], [3, 2], (17, 13), 2.0)
        bc = (lambda xp, xn: 0.5 * xn) if which == "normal" else (lambda xp, xn: 2.0 * xp[:, 0])
        sys = assemble(IDENT, g, P21, bc)
        u, _ = solve(sys)
        tang, norm = g.node_coordinates()
        expect = 0.5 * norm if which == "normal" else 2.0 * tang[:, 0]
        assert np.max(np.abs(u - expect)) <= 1e-10

    def test_all_dirichlet_returns_bc_in_zero_iterations(self):
        g = build_grid([0, 0], [1, 1], (3, 3), 1.0)
        sys = assemble(IDENT, g, P21, lambda xp, xn: xp[:, 0] + xn, extra_dirichlet=fixed_mask(np.ones(9, bool)))
        u, rep = solve(sys)
        assert rep.iterations == 0
        np.testing.assert_array_equal(u, sys.rhs)

    def test_non_finite_boundary_data_are_refused(self):
        g = build_grid([-1, 0], [1, 2], (9, 9), 2.0)
        message = r"^non-finite boundary data at 9 Dirichlet node\(s\); the first is node 8 at \(-1, 2\)$"
        with pytest.raises(ValueError, match=message):
            assemble(IDENT, g, P21, lambda xp, xn: np.where(xn == 2.0, np.nan, 0.0))
        # An obstacle node counts like a face node.
        obstacle = np.zeros(g.num_nodes, bool)
        obstacle[40] = True  # x = (0, 0.5)

        def inf_at_obstacle(xp, xn):
            return np.where((xp[:, 0] == 0.0) & (xn == 0.5), np.inf, 0.0)

        with pytest.raises(ValueError, match=r"at 1 Dirichlet node\(s\); the first is node 40 at \(0, 0\.5\)$"):
            assemble(IDENT, g, P21, inf_at_obstacle, extra_dirichlet=fixed_mask(obstacle))

    def test_singular_factorisation_raises(self):
        # Interior row 1 is all zeros.
        sys = three_node_system([0.0, 0.0, 0.0])
        none = np.array([], dtype=np.int64)
        assert not sys.dmp.ok
        np.testing.assert_array_equal(sys.dmp.nonpositive_diagonal_rows, [1])
        for name in ("positive_offdiagonal_rows", "negative_rowsum_rows"):
            np.testing.assert_array_equal(getattr(sys.dmp, name), none)
        with pytest.raises(RuntimeError):
            solve(sys)

    def test_one_column_reduction_gives_exact_linear(self):
        # one interior tangential column: a pinned tridiagonal problem in x_n
        g = build_grid([0, 0], [1, 1], (3, 21), 1.0)
        sys = assemble(IDENT, g, P21, lambda xp, xn: xn)
        u, rep = solve(sys)
        _, norm = g.node_coordinates()
        assert np.max(np.abs(u - norm)) <= 1e-12
        assert rep.converged

    def test_manufactured_kernel_convergence(self):
        errs = []
        for count in (17, 33, 65):
            g = build_grid([1, 0], [3, 2], (count, count), 2.0)
            sys = assemble(IDENT, g, P21, bc_kernel)
            u, rep = solve(sys)
            assert rep.converged and rep.dmp_ok
            tang, norm = g.node_coordinates()
            errs.append(np.max(np.abs(u - kernel_value_arrays(tang, norm, P21))))
        assert errs[0] > errs[1] > errs[2]
        order = np.log2(errs[1] / errs[2])
        assert order >= 1.0

    def test_mixed_stencil_is_exact_on_tensor_quadratics(self):
        # u = x1 * xn has -L u = -2 a_1n x_n^a; both stencil legs must see it
        for a1n in (0.35, -0.35):
            field = constant_field(P21, a11=1.0, a1n=a1n)
            for grading in (1.0, 2.0):
                g = build_grid([1, 0], [3, 2], (15, 15), grading)
                sys = assemble(field, g, P21, lambda xp, xn: xp[:, 0] * xn)
                tang, norm = g.node_coordinates()
                u_exact = tang[:, 0] * norm
                resid = sys.matrix @ u_exact - sys.rhs
                interior = ~sys.dirichlet_mask
                expect = -2.0 * a1n * norm[interior] ** P21.alpha
                np.testing.assert_allclose(resid[interior], expect, rtol=1e-10, atol=1e-10)

    def test_tangential_cross_stencil_in_three_dimensions(self):
        # constant a_01 cross coefficient; u = x0*x1 gives L u = 2 a_01 x_n^{2a}
        p = GrushinParams(3, 1.0)
        for a01 in (0.3, -0.3):

            def tangential(xp, xn, a01=a01):
                xn = np.asarray(xn, dtype=float)
                m = np.eye(2)
                m[0, 1] = m[1, 0] = a01
                return np.broadcast_to(m, xn.shape + (2, 2))

            field = CoefficientField(
                tangential=tangential,
                mixed=lambda xp, xn: np.zeros(np.shape(xn) + (2,)),
                lambda_const=1.0 - abs(a01),
                Lambda_const=1.0 + abs(a01),
                delta_const=0.5,
                decay_s=0.0,
            )
            g = build_grid([1, 1, 0], [3, 3, 2], (9, 9, 9), 2.0)
            sys = assemble(field, g, p, lambda xp, xn: xp[:, 0] * xp[:, 1])
            tang, norm = g.node_coordinates()
            u_exact = tang[:, 0] * tang[:, 1]
            resid = sys.matrix @ u_exact - sys.rhs
            interior = ~sys.dirichlet_mask
            expect = -2.0 * a01 * norm[interior] ** 2
            np.testing.assert_allclose(resid[interior], expect, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_manufactured_convergence_other_alphas(self, alpha):
        p = GrushinParams(2, alpha)
        field = make_identity_field(p)
        errs = []
        for count in (17, 33):
            g = build_grid([1, 0], [3, 2], (count, count), 1.0 + alpha)
            sys = assemble(field, g, p, lambda xp, xn: kernel_value_arrays(xp, xn, p))
            u, _ = solve(sys)
            tang, norm = g.node_coordinates()
            errs.append(np.max(np.abs(u - kernel_value_arrays(tang, norm, p))))
        assert errs[0] > errs[1]
        assert np.log2(errs[0] / errs[1]) >= 1.0

    def test_manufactured_convergence_three_dimensions(self):
        p = GrushinParams(3, 1.0)
        field = make_identity_field(p)
        errs = []
        for count in (9, 17):
            g = build_grid([1, 1, 0], [3, 3, 2], (count, count, count), 2.0)
            sys = assemble(field, g, p, lambda xp, xn: kernel_value_arrays(xp, xn, p))
            u, _ = solve(sys)
            tang, norm = g.node_coordinates()
            errs.append(np.max(np.abs(u - kernel_value_arrays(tang, norm, p))))
        assert errs[0] > errs[1]

    @pytest.mark.parametrize("perturbed", [False, True], ids=["identity", "perturbed"])
    @pytest.mark.parametrize("p, counts", [(P21, (17, 13)), (P31, (7, 6, 8))], ids=["2d", "3d"])
    def test_matrix_is_canonical_csr(self, p, counts, perturbed):
        field = make_decaying_perturbation(p, 2.0, 0.3, 42) if perturbed else make_identity_field(p)
        grid = build_grid([1] * (p.n - 1) + [0], [3] * (p.n - 1) + [2], counts, 2.0)
        sys = assemble(field, grid, p, lambda xp, xn: kernel_value_arrays(xp, xn, p))
        matrix = sys.matrix
        assert matrix.has_canonical_format
        row_nnz = np.diff(matrix.indptr)
        stencil = 2 * p.n + 1 + (2 * p.n * (p.n - 1) if perturbed else 0)  # 4 corners per axis pair
        np.testing.assert_array_equal(row_nnz, np.where(sys.dirichlet_mask, 1, stencil))
        dirichlet = np.flatnonzero(sys.dirichlet_mask)
        np.testing.assert_array_equal(matrix.indices[matrix.indptr[dirichlet]], dirichlet)
        np.testing.assert_array_equal(matrix.data[matrix.indptr[dirichlet]], 1.0)

    def test_large_exterior_assembly_peak(self):
        # The weights are 2.7 MB and their CSR form 4.1 MB; the assembly
        # peaked at 14.6 MB here.
        grid = build_grid([-4, 0], [4, 4], (2049, 33), 2.0)
        tang, norm = grid.node_coordinates()
        box = (np.abs(tang[:, 0]) <= 0.03) & (norm <= 1.0)
        tracemalloc.start()
        try:
            sys = assemble(IDENT, grid, P21, lambda xp, xn: np.where(xn > 0, 1.0, 0.0), fixed_mask(box))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys.separable is not None and sys.matrix.has_canonical_format
        assert peak < 25e6

    def test_solver_is_deterministic(self):
        g = build_grid([1, 0], [3, 2], (21, 21), 2.0)
        sys = assemble(IDENT, g, P21, bc_kernel)
        u1, _ = solve(sys)
        u2, _ = solve(sys)
        np.testing.assert_array_equal(u1, u2)


@pytest.fixture
def factors(monkeypatch):
    """The SuperLU factor objects that ``solve`` makes, in call order.

    ``solve`` imports ``splu`` from ``scipy.sparse.linalg`` at call time, so
    the patch goes there.
    """
    made = []

    def record(*args, **kwargs):
        made.append(splu(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr("scipy.sparse.linalg.splu", record)
    return made


class TestFactorisation:
    # The identity systems get an excised inner box, which keeps them off the
    # fast path and on SuperLU.
    @pytest.mark.parametrize(
        "field, p, counts, excise",
        [
            (IDENT, P21, (33, 33), True),
            (make_identity_field(P31), P31, (9, 9, 9), True),
            (make_decaying_perturbation(P21, 2.0, 0.3, 42), P21, (33, 33), False),
        ],
        ids=["identity-2d", "identity-3d", "perturbed-2d"],
    )
    def test_no_offdiagonal_pivots_and_bounded_growth(self, factors, field, p, counts, excise):
        # Row diagonally dominant M-matrix rows plus identity rows: elimination
        # on the diagonal has growth factor <= 2 (Higham, 2nd ed., Thm 9.9).
        grid = build_grid([1] * (p.n - 1) + [0], [3] * (p.n - 1) + [2], counts, 2.0)
        extra = inner_box(grid) if excise else None
        sys = assemble(field, grid, p, lambda xp, xn: kernel_value_arrays(xp, xn, p), extra_dirichlet=fixed_mask(extra))
        u, rep = solve(sys)
        assert rep.method == "lu"
        (lu,) = factors
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        assert abs(lu.U).max() <= 2.0 * abs(sys.matrix).max()
        dense = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        assert rep.converged
        assert np.linalg.norm(u - dense) <= fdsolver.SOLVER_TOL * np.linalg.norm(dense)

    def test_fill_is_below_minimum_degree_and_colamd(self, factors):
        # On the perturbed 17^3 box (19-point stencils) the nested-dissection
        # order of the free nodes has 690,710 nonzeros in L + U, against
        # 1,240,634 for the symmetric minimum-degree order of the same block
        # and 2,061,039 for SuperLU's default (COLAMD with partial pivoting)
        # on the full matrix.
        g = build_grid([1, 1, 0], [3, 3, 2], (17, 17, 17), 2.0)
        bc = lambda xp, xn: kernel_value_arrays(xp, xn, P31)
        sys = assemble(make_decaying_perturbation(P31, 2.0, 0.3, 42), g, P31, bc)
        _, rep = solve(sys)
        (lu,) = factors
        assert rep.method == "lu" and rep.converged and rep.fill == lu.nnz
        free = np.flatnonzero(~sys.dirichlet_mask)
        block = sys.matrix[free][:, free].tocsc()
        options = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        minimum_degree = splu(block, permc_spec="MMD_AT_PLUS_A", **options)
        colamd = splu(sys.matrix.tocsc())
        fill = lu.L.nnz + lu.U.nnz
        assert fill <= 0.6 * (minimum_degree.L.nnz + minimum_degree.U.nnz)
        assert fill <= 0.4 * (colamd.L.nnz + colamd.U.nnz)

    def test_factors_the_free_block_only(self, factors):
        # A_II alone, in the dissection order: u_D = b_D on the Dirichlet
        # nodes, and A_II u_I = b_I - A_ID b_D on the free ones.
        g = build_grid([1, 0], [3, 2], (33, 17), 2.0)
        sys = assemble(make_decaying_perturbation(P21, 2.0, 0.3, 42), g, P21, bc_kernel)
        u, rep = solve(sys)
        (lu,) = factors
        order = fdsolver._dissection_order(sys.shape, ~sys.dirichlet_mask)
        assert lu.shape == (order.size, order.size) == (31 * 15, 31 * 15)
        np.testing.assert_array_equal(lu.perm_c, np.arange(order.size))
        block = sys.matrix[order][:, order].toarray()
        np.testing.assert_allclose((lu.L @ lu.U).toarray(), block, rtol=0.0, atol=1e-12 * abs(block).max())
        np.testing.assert_array_equal(u[sys.dirichlet_mask], sys.rhs[sys.dirichlet_mask])
        assert rep.fill == lu.nnz > 0


@pytest.mark.parametrize("case", ["annulus", "box"])
def test_free_block_is_the_matrix_restricted(monkeypatch, case):
    # One builder lays out both CSR forms: the A_II that SuperLU factors is the whole matrix
    # restricted to the free rows and columns in the dissection order, bit for bit.
    given = []

    def record(block, **kwargs):
        given.append(block)
        return splu(block, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.splu", record)
    if case == "annulus":  # the perturbed R = 1 annulus of oscillation-decay, with its hole excised
        p, grid = P21, annulus_grid(P21, 1.0, (65, 33)).build(P21)
        level = ellipsoid_level_arrays(*grid.node_coordinates(), P21)
        extra = (level <= 1.0) | (level >= 4.0 * (1.0 - 1e-12))
    else:
        p, grid, extra = P31, build_grid([1, 1, 0], [3, 3, 2], (9, 8, 7), 2.0), None
    field = make_decaying_perturbation(p, 2.0, 0.3, 42)
    sys = assemble(field, grid, p, lambda xp, xn: np.ones(xn.shape), extra_dirichlet=fixed_mask(extra))
    assert solve(sys)[1].method == "lu"
    (block,) = given
    order = fdsolver._dissection_order(sys.shape, ~sys.dirichlet_mask)
    restricted = sys.matrix[order][:, order].tocsc()
    assert block.shape == restricted.shape == (order.size, order.size)
    assert np.count_nonzero(block.data == 0.0) > 0  # zero weights are kept in both
    np.testing.assert_array_equal(block.indptr, restricted.indptr)
    np.testing.assert_array_equal(block.indices, restricted.indices)
    assert_same_bits(block.data, restricted.data)


class TestDissectionOrder:
    @staticmethod
    def check_box(position, box):
        """Recursively: a box of more than ``DISSECTION_LEAF`` nodes has a
        longest axis whose mid-plane follows both halves; a leaf keeps flat
        order.  ``position`` holds each node's place in the order."""
        part = position[tuple(slice(lo, hi) for lo, hi in box)]
        if part.size <= fdsolver.DISSECTION_LEAF:
            assert np.all(np.diff(part.ravel()) > 0)
            return
        extents = [hi - lo for lo, hi in box]
        for axis in np.flatnonzero(np.array(extents) == max(extents)):
            lo, hi = box[axis]
            mid = (lo + hi) // 2
            halves = [(lo, mid), (mid + 1, hi)]
            sides = [[*box[:axis], half, *box[axis + 1 :]] for half in halves]
            plane = position[tuple(slice(l, h) if a != axis else mid for a, (l, h) in enumerate(box))]
            before = [position[tuple(slice(l, h) for l, h in side)] for side in sides]
            if all(b.size == 0 or b.max() < plane.min() for b in before):
                for side in sides:
                    TestDissectionOrder.check_box(position, side)
                return
        pytest.fail(f"no longest axis of {box} has its mid-plane after both halves")

    @pytest.mark.parametrize("shape", [(15, 7), (31, 31), (7, 7, 3), (15, 15, 15)], ids=str)
    def test_each_separator_follows_both_halves(self, shape):
        # Axes of 2^k - 1 nodes: the halves of every box are equal.
        order = fdsolver._dissection_order(shape, np.ones(math.prod(shape), dtype=bool))
        position = np.empty(order.size, dtype=np.int64)
        position[order] = np.arange(order.size)
        self.check_box(position.reshape(shape), [(0, c) for c in shape])

    @pytest.mark.parametrize("shape", [(257, 97), (33, 17), (9, 8, 7), (49, 49, 25)], ids=str)
    def test_is_a_permutation_of_the_free_nodes(self, shape):
        free = np.random.default_rng(3).random(math.prod(shape)) < 0.6
        order = fdsolver._dissection_order(shape, free)
        np.testing.assert_array_equal(np.sort(order), np.flatnonzero(free))

    def test_a_hand_built_system_keeps_flat_order(self):
        sys = tiny_pivot_system()
        assert sys.shape == (5,)
        free = np.ones(40, dtype=bool)
        free[[0, 17, 39]] = False
        np.testing.assert_array_equal(fdsolver._dissection_order((40,), free), np.flatnonzero(free))

    def test_assemble_records_the_grid_shape(self):
        g = build_grid([1, 1, 0], [3, 3, 2], (9, 8, 7), 2.0)
        assert assemble(make_identity_field(P31), g, P31, lambda xp, xn: xn).shape == (9, 8, 7)


def tiny_pivot_system(pivot: float = 1e-20, coupling: float = 0.0) -> SparseSystem:
    """A tiny pivot kept on the diagonal and eliminated before nodes 1 and 2
    (a hand-built system is one axis, factored in flat order): its Schur update swamps the
    block of nodes 1 and 2.  At 1e-20 that block is lost, and refinement with
    those factors cannot restore it.  Every row is an interior row, and the
    stencil holds each diagonal of the matrix that has a nonzero entry."""
    a = np.zeros((5, 5))
    a[0, 0] = pivot
    a[0, 1] = a[0, 2] = a[1, 0] = a[2, 0] = 1.0
    a[1:, 1:] = 4.0 * np.eye(4) + 0.5
    a[1, 1] = a[2, 2] = 1.0
    a[1, 2] = a[2, 1] = coupling
    offsets = [k for k in range(-4, 5) if np.any(a.diagonal(k))]
    weights = np.zeros((len(offsets), 5))
    for row, k in zip(weights, offsets):
        row[max(0, -k) : 5 - max(0, k)] = a.diagonal(k)
    return SparseSystem.from_stencil(offsets, weights, np.arange(1.0, 6.0), np.zeros(5, dtype=bool))


def recomputed_backward_error(sys: SparseSystem, u: np.ndarray) -> float:
    """max |r| / (|A||u| + |b|) with 0/0 rows counted as 0."""
    r = np.abs(sys.rhs - sys.matrix @ u)
    scale = abs(sys.matrix) @ np.abs(u) + np.abs(sys.rhs)
    assert not np.any(r[scale == 0.0])
    return float(np.max(np.divide(r, scale, out=np.zeros_like(r), where=scale > 0.0)))


class TestRefinementStop:
    @pytest.mark.parametrize("excise", [False, True], ids=["fast", "lu"])
    def test_backward_error_is_recomputed_exactly(self, excise):
        # Zero data on the flat face: those rows have r = 0 over a zero
        # scale, which counts as 0.
        g = build_grid([1, 0], [3, 2], (33, 33), 2.0)
        extra = inner_box(g) if excise else None
        sys = assemble(IDENT, g, P21, lambda xp, xn: np.sin(3.0 * xp[:, 0]) * xn, extra_dirichlet=fixed_mask(extra))
        u, rep = solve(sys)
        scale = abs(sys.matrix) @ np.abs(u) + np.abs(sys.rhs)
        assert np.count_nonzero(scale == 0.0) > 0
        assert rep.backward_error == recomputed_backward_error(sys, u)
        assert rep.backward_error_history[-1] == rep.backward_error
        assert len(rep.backward_error_history) == rep.iterations + 1
        assert rep.converged == (rep.backward_error <= 1e-10)
        r = sys.rhs - sys.matrix @ u
        assert rep.final_residual == np.sqrt(np.sum(r * r)) / np.sqrt(np.sum(sys.rhs * sys.rhs))

    @pytest.mark.parametrize("counts", [(33, 33), (257, 129)], ids=str)
    def test_final_residual_matches_exact_sum(self, counts):
        # math.fsum is correctly rounded; the pairwise sum that ``solve`` uses
        # has a relative error bound growing with log n, and no thread count
        # enters it.
        g = build_grid([1, 0], [3, 2], counts, 2.0)
        sys = assemble(IDENT, g, P21, bc_kernel, extra_dirichlet=fixed_mask(inner_box(g)))
        u, rep = solve(sys)
        r = sys.rhs - sys.matrix @ u
        exact = math.sqrt(math.fsum(r * r)) / math.sqrt(math.fsum(sys.rhs * sys.rhs))
        assert exact > 0.0
        assert abs(rep.final_residual - exact) <= 1e-15 * exact

    @pytest.mark.filterwarnings("error")
    def test_final_residual_of_huge_data_is_finite(self):
        # |b| near 1e200: the sums of squares overflow, so both norms are
        # taken of x / max |x|.
        weights = np.array([[-1.0] * 9, [2.5] * 9, [-1.0] * 9])
        rhs = 1e200 * np.random.default_rng(9).uniform(1.0, 2.0, 9)
        sys_ = SparseSystem.from_stencil((-1, 0, 1), weights, rhs, np.zeros(9, dtype=bool))
        u, rep = solve(sys_)
        r = sys_.rhs - sys_.matrix @ u
        exact = math.sqrt(math.fsum((r / 1e200) ** 2)) / math.sqrt(math.fsum((rhs / 1e200) ** 2))
        assert rep.converged and np.isfinite(rep.final_residual)
        assert abs(rep.final_residual - exact) <= 1e-14 * exact

    def test_zero_data_divide_by_one(self):
        g = build_grid([1, 0], [3, 2], (17, 17), 2.0)
        sys = assemble(IDENT, g, P21, lambda xp, xn: np.zeros(xn.shape))
        u, rep = solve(sys)
        assert not np.any(sys.rhs) and not np.any(u)
        assert rep.final_residual == 0.0 and rep.converged

    def test_zero_scale_rows(self):
        # Row 0 has a zero scale: r = 0 there counts as 0, r != 0 (NaN included) as inf.
        scale = np.array([0.0, 6.0])
        assert fdsolver.componentwise_ratio(np.array([0.0, -1.0]), scale).tolist() == [0.0, 1.0 / 6.0]
        assert fdsolver.componentwise_ratio(np.array([1e-300, 0.0]), scale).tolist() == [np.inf, 0.0]
        assert fdsolver.componentwise_ratio(np.array([np.nan, np.nan]), scale)[0] == np.inf

    def test_ratio_bits_are_those_of_abs_over_scale(self):
        # Dividing first and dropping the sign after gives |v| / s bit for bit for s >= 0.
        rng = np.random.default_rng(3)
        value = rng.normal(size=4000) * 10.0 ** rng.integers(-320, 300, 4000)
        value[:6] = [-0.0, 0.0, np.inf, -np.inf, np.nan, -5e-324]
        scale = np.abs(rng.normal(size=4000)) * 10.0 ** rng.integers(-320, 300, 4000)
        scale[6:12] = [np.inf, 5e-324, 0.0, -0.0, 1e-310, np.inf]
        nonzero = scale != 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            expected = np.abs(value) / scale
            got = fdsolver.componentwise_ratio(value, scale)
            shared = scale.copy()
            fdsolver.componentwise_ratio(value, shared, out=shared)
        for ratio in (got, shared):
            assert ratio[nonzero].tobytes() == expected[nonzero].tobytes()
            assert ratio[~nonzero].tolist() == [0.0 if v == 0.0 else np.inf for v in value[~nonzero].tolist()]

    def test_stagnation_stops_unconverged(self):
        sys = tiny_pivot_system()
        u, rep = solve(sys)
        assert not rep.converged and rep.method == "lu"
        assert 1 <= rep.iterations < fdsolver.MAX_REFINEMENTS
        history = rep.backward_error_history
        assert min(history) > 1e-10
        assert history[-1] > 0.5 * history[-2]  # the last sweep did not halve it
        assert all(new <= 0.5 * old for old, new in zip(history[:-2], history[1:-1]))
        assert rep.backward_error == recomputed_backward_error(sys, u)

    def test_max_refinements_caps_the_loop(self, monkeypatch):
        # A 1e-14 pivot: every sweep shrinks the backward error about
        # tenfold, and several are needed to reach the tolerance.
        sys = tiny_pivot_system(1e-14, 0.9)
        _, free = solve(sys)
        assert free.converged and free.iterations > 3
        monkeypatch.setattr(fdsolver, "MAX_REFINEMENTS", 3)
        _, capped = solve(sys)
        assert capped.iterations == 3 and not capped.converged
        assert capped.backward_error_history == free.backward_error_history[:4]

    def test_fast_path_keeps_its_forced_sweep(self, monkeypatch):
        g = build_grid([1, 0], [3, 2], (33, 33), 2.0)
        sys = assemble(IDENT, g, P21, bc_kernel)
        monkeypatch.setattr(fdsolver, "SOLVER_TOL", 1.0)
        _, rep = solve(sys)
        assert rep.method == "fast-diagonalization"
        assert rep.iterations == 1 and rep.backward_error_history[0] <= 1.0


class TestSolveReport:
    def test_benchmark_fields_keep_their_places(self):
        # The benchmark builds reports positionally and reads these three fields.
        names = [f.name for f in dataclasses.fields(SolveReport)]
        assert names[:5] == ["iterations", "final_residual", "dmp_ok", "wall_time_s", "converged"]
        rep = SolveReport(50, 1.2e-10, True, 0.1, False)
        assert (rep.iterations, rep.final_residual, rep.converged) == (50, 1.2e-10, False)

    def test_wall_time_is_left_out_of_reports_and_equality(self):
        assert "wall_time_s" not in jsonable(SolveReport(3, 1e-13, True, 0.1, True))
        assert SolveReport(3, 1e-13, True, 0.1, True) == SolveReport(3, 1e-13, True, 9.0, True)


def fixed_mask(mask):
    """The excision predicate whose mask is ``mask`` at any node coordinates (``None``: none)."""
    return None if mask is None else lambda tangential, normal: mask


def assert_same_bits(got, expected):
    """Equal as IEEE bit patterns: the sign of a zero counts."""
    assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestStencilOperator:
    """The operator's products, DMP report and referenced Dirichlet nodes
    against the same computations on its CSR form."""

    @staticmethod
    def copied_report(matrix, interior):
        """The DMP report with the off-diagonal scan run on a copy of the
        matrix whose diagonal is dropped."""
        diag = matrix.diagonal()
        tol = 1e-13 * np.maximum(np.abs(diag), 1.0)
        off = matrix.copy()
        off.setdiag(0.0)
        off.eliminate_zeros()
        row_max = np.asarray(off.max(axis=1).todense()).ravel()
        bad_off = np.flatnonzero(interior & (row_max > tol))
        bad_diag = np.flatnonzero(interior & (diag <= 0.0))
        bad_sum = np.flatnonzero(interior & (matrix @ np.ones(matrix.shape[0]) < -tol))
        ok = bad_off.size == 0 and bad_diag.size == 0 and bad_sum.size == 0
        return DmpReport(ok, bad_off, bad_diag, bad_sum)

    @pytest.mark.parametrize("excise", [False, True], ids=["box", "excised"])
    @pytest.mark.parametrize("grading", [1.0, 2.0], ids=["uniform", "graded"])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["identity", "perturbed"])
    @pytest.mark.parametrize("p, counts", [(P21, (33, 17)), (P31, (9, 8, 7))], ids=["2d", "3d"])
    def test_matches_csr_bit_for_bit(self, monkeypatch, p, counts, perturbed, grading, excise):
        field = make_decaying_perturbation(p, 2.0, 0.3, 42) if perturbed else make_identity_field(p)
        grid = build_grid([1] * (p.n - 1) + [0], [3] * (p.n - 1) + [2], counts, grading)
        extra = inner_box(grid) if excise else None
        sys = assemble(field, grid, p, lambda xp, xn: kernel_value_arrays(xp, xn, p), extra_dirichlet=fixed_mask(extra))
        matrix = sys.matrix
        u = np.random.default_rng(sum(counts)).standard_normal(grid.num_nodes)
        u[::7] = 0.0
        u[3::7] = -0.0
        ones = np.ones(grid.num_nodes)

        for block in (fdsolver.STENCIL_BLOCK, 61):  # one block, and blocks shorter than some offsets
            monkeypatch.setattr(fdsolver, "STENCIL_BLOCK", block)
            assert_same_bits(sys.matvec(u), matrix @ u)
            magnitudes = np.zeros(grid.num_nodes)  # the fused pass of the backward-error check
            product = fdsolver._stencil_product(sys.offsets, sys.weights, u, magnitudes=magnitudes)
            assert_same_bits(product, matrix @ u)
            assert_same_bits(magnitudes, abs(matrix) @ np.abs(u))
            assert_same_bits(fdsolver._stencil_product(sys.offsets, sys.weights, ones), matrix @ ones)

        expected = self.copied_report(matrix, ~sys.dirichlet_mask)
        assert expected.ok == (not perturbed or grading == 1.0)  # grading breaks the mesh ratio
        for got in (sys.dmp, check_dmp(sys)):
            assert got.ok == expected.ok
            for name in ("positive_offdiagonal_rows", "nonpositive_diagonal_rows", "negative_rowsum_rows"):
                np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

        referenced = np.zeros(grid.num_nodes, dtype=bool)
        referenced[matrix.indices[np.repeat(~sys.dirichlet_mask, np.diff(matrix.indptr))]] = True
        np.testing.assert_array_equal(sys.referenced_dirichlet(), referenced & sys.dirichlet_mask)
        assert np.any(sys.referenced_dirichlet() & ~grid.face_mask()) == excise


def reference_assembly(field, grid, p, bc, extra_dirichlet=None):
    """The stencil weights as ``assemble`` built them before it broadcast over
    the grid: the interior rows alone, with spacings and coordinates gathered
    node by node, summed into one array per offset in a dict and scattered
    into the weights at the end.  Returns the ``from_stencil`` arguments and
    whether the system is separable."""
    n, m, num, shape = p.n, p.n - 1, grid.num_nodes, grid.shape
    faces = grid.face_mask()
    dirichlet = faces if extra_dirichlet is None else faces | extra_dirichlet
    tang_all, norm_all = grid.node_coordinates()
    rhs = np.zeros(num)
    rhs[dirichlet] = bc(tang_all[dirichlet], norm_all[dirichlet])
    interior = np.flatnonzero(~dirichlet)
    stencil = {}
    separable = False
    if interior.size:
        multi = np.unravel_index(interior, shape)
        strides = [int(np.prod(shape[a + 1 :], dtype=np.int64)) for a in range(n)]
        spacings = [np.diff(ax) for ax in grid.axes]
        h_minus = [spacings[a][multi[a] - 1] for a in range(n)]
        h_plus = [spacings[a][multi[a]] for a in range(n)]
        xp, xn = tang_all[interior], norm_all[interior]
        a_t = np.asarray(field.tangential(xp, xn), dtype=float)
        a_m = np.asarray(field.mixed(xp, xn), dtype=float)
        xn_2a, xn_a = xn ** (2.0 * p.alpha), xn**p.alpha
        obstacles = int(np.count_nonzero(dirichlet & ~faces))
        separable = bool(
            obstacles**2 <= interior.size + obstacles and not np.any(a_m) and np.all(a_t == np.eye(m))
        )

        def push(offset, values):
            if offset in stencil:
                stencil[offset] += values
            else:
                stencil[offset] = values

        for a in range(n):
            coeff = a_t[:, a, a] * xn_2a if a < m else np.ones_like(xn)
            hm, hp = h_minus[a], h_plus[a]
            span = hm + hp
            push(-strides[a], -2.0 * coeff / (hm * span))
            push(0, 2.0 * coeff / (hm * hp))
            push(+strides[a], -2.0 * coeff / (hp * span))
        for a in range(n):
            for b in range(a + 1, n):
                c = 2.0 * a_t[:, a, b] * xn_2a if b < m else 2.0 * a_m[:, a] * xn_a
                if not np.any(c):
                    continue
                cpos, cneg = np.maximum(c, 0.0), np.maximum(-c, 0.0)
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
    offsets = sorted({0, *stencil})
    weights = np.zeros((len(offsets), num))
    for k, offset in enumerate(offsets):
        weights[k, interior] = stencil.pop(offset, 0.0)
    weights[offsets.index(0), dirichlet] = 1.0
    return (offsets, weights, rhs, dirichlet), separable


def exterior_identity_problem(counts, width, top, half_width, height):
    """Grid, Dirichlet data and excised inner box of an exterior problem on
    [-width, width] x [0, top] (grading 2): data 1 on the box
    |x'| <= half_width, 0 < x_n <= height, and 0 on the faces."""
    grid = build_grid([-width, 0], [width, top], counts, 2.0)
    in_box = lambda xp, xn: (np.abs(xp[:, 0]) <= half_width) & (xn <= height)
    bc = lambda xp, xn: np.where(in_box(xp, xn) & (xn > 0.0), 1.0, 0.0)
    return grid, bc, in_box(*grid.node_coordinates())


class TestAssemblyBits:
    """``assemble`` reproduces the gathered, scattered assembly bit for bit."""

    @pytest.mark.parametrize("case", ["graded-2d-excised", "perturbed-3d", "exterior-identity", "all-dirichlet"])
    def test_matches_reference_bit_for_bit(self, case):
        if case == "graded-2d-excised":
            p, field = P21, make_decaying_perturbation(P21, 2.0, 0.3, 42)
            grid = build_grid([1, 0], [3, 2], (33, 17), 2.0)
            bc, extra = bc_kernel, inner_box(grid)
        elif case == "perturbed-3d":  # every tangential-tangential and tangential-normal cross term
            p, field = P31, make_decaying_perturbation(P31, 2.0, 0.3, 7)
            grid = build_grid([1, 1, 0], [3, 3, 2], (9, 8, 7), 2.0)
            bc, extra = (lambda xp, xn: kernel_value_arrays(xp, xn, P31)), None
        elif case == "exterior-identity":
            p, field = P21, IDENT
            grid, bc, extra = exterior_identity_problem((129, 17), 64.0, 8.0, 1.0, 2.0)
        else:
            p, field = P21, IDENT
            grid = build_grid([0, 0], [1, 1], (4, 3), 1.0)
            bc, extra = (lambda xp, xn: xp[:, 0] - xn), np.ones(12, dtype=bool)
        sys = assemble(field, grid, p, bc, extra_dirichlet=fixed_mask(extra))
        (offsets, weights, rhs, dirichlet), separable = reference_assembly(field, grid, p, bc, extra)
        expected = SparseSystem.from_stencil(offsets, weights, rhs, dirichlet)

        assert sys.offsets == tuple(offsets)
        assert_same_bits(sys.weights, weights)
        assert_same_bits(sys.rhs, rhs)
        np.testing.assert_array_equal(sys.dirichlet_mask, dirichlet)
        assert sys.dmp.ok == expected.dmp.ok
        for name in ("positive_offdiagonal_rows", "nonpositive_diagonal_rows", "negative_rowsum_rows"):
            np.testing.assert_array_equal(getattr(sys.dmp, name), getattr(expected.dmp, name))
        assert (sys.separable is not None) == separable == (case in ("exterior-identity",))
        if field is not IDENT:
            # The first term stored at a corner offset is -0.0 wherever c has the
            # other sign, so the comparison sees the sign of every zero.
            assert np.any((weights == 0.0) & np.signbit(weights))
            assert len(offsets) == (9 if p.n == 2 else 19)
        if case == "exterior-identity":
            assert np.count_nonzero(extra & ~grid.face_mask()) > 1  # obstacle nodes off the faces


class TestMemory:
    """Transient memory of ``assemble`` and ``solve``: the ``tracemalloc`` peak
    above the memory live at the call, in multiples of the assembled weights."""

    @staticmethod
    def traced(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_exterior_assembly_and_solve_peaks(self):
        # The default decay-fit problem (1025 x 65, five offsets, 2.7 MB of
        # weights).  Gathered and scattered, the assembly peaked at 5.5x the
        # weights; the solve, with a full copy of |weights| and of the DST-I
        # extension, at 3.3x.  Now they peak at 2.5x and 1.9x.
        root2 = math.sqrt(2.0)
        grid, bc, box = exterior_identity_problem((1025, 65), 1024.0, 32.0 * root2, 1.0, root2)
        sys, assembly_peak = self.traced(assemble, IDENT, grid, P21, bc, fixed_mask(box))
        (_, rep), solve_peak = self.traced(solve, sys)
        assert sys.separable is not None and rep.method == "fast-diagonalization" and rep.converged
        assert assembly_peak < 3.0 * sys.weights.nbytes
        assert solve_peak < 2.2 * sys.weights.nbytes


class TestFastDiagonalization:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    @pytest.mark.parametrize("counts", [(3, 21), (13, 9), (5, 7, 6), (4, 3, 9)], ids=str)
    def test_matches_dense_solve(self, factors, alpha, graded, counts):
        p = GrushinParams(len(counts), alpha)
        grid = build_grid([1] * (p.n - 1) + [0], [3] * (p.n - 1) + [2], counts, 1.0 + alpha * graded)
        sys = assemble(make_identity_field(p), grid, p, lambda xp, xn: kernel_value_arrays(xp, xn, p))
        dense = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        # The fast inverse alone is already exact up to round-off ...
        first = fdsolver._fast_inverse(sys)(sys.rhs)
        assert np.linalg.norm(first - dense) <= 1e-12 * np.linalg.norm(dense)
        # ... and solve adds its one refinement sweep without calling SuperLU.
        u, rep = solve(sys)
        assert factors == []
        assert rep.method == "fast-diagonalization"
        assert rep.converged and rep.iterations == 1
        assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_selection(self, factors):
        grid = build_grid([1, 0], [3, 2], (17, 17), 2.0)
        perturbed = make_decaying_perturbation(P21, 2.0, 0.3, 42)
        faces_only = grid.face_mask()
        faces_only[:17] = False  # a mask that names some face nodes again
        cases = [
            (perturbed, None, "lu"),
            (IDENT, inner_box(grid), "lu"),
            (IDENT, None, "fast-diagonalization"),
            (IDENT, faces_only, "fast-diagonalization"),
        ]
        for field, extra, method in cases:
            sys = assemble(field, grid, P21, bc_kernel, extra_dirichlet=fixed_mask(extra))
            assert (sys.separable is not None) == (method != "lu")
            _, rep = solve(sys)
            assert rep.method == method and rep.converged
        assert len(factors) == 2

    @pytest.mark.parametrize("c", [2049, 100])
    def test_sine_transform_matches_dense_basis(self, c):
        # The dense orthonormal DST-I basis sqrt(2/(c-1)) sin(pi j k/(c-1)),
        # in long double so that it is a reference for the FFT transform.
        j = np.arange(1, c - 1, dtype=np.longdouble)
        angle = np.pi * (np.outer(j, j) % (2 * (c - 1))) / (c - 1)
        basis = (np.sqrt(np.longdouble(2) / (c - 1)) * np.sin(angle)).astype(float)
        x = np.random.default_rng(c).standard_normal((4, c - 2))
        y = fdsolver._dst1(x)
        assert np.linalg.norm(y - x @ basis) <= 1e-15 * np.linalg.norm(x)
        twice = fdsolver._dst1(y)
        assert np.linalg.norm(twice - x) <= 1e-15 * np.linalg.norm(x)
        rows = np.array([0, c // 3, c - 3])
        np.testing.assert_allclose(fdsolver._sine_rows(c, rows), basis[rows], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("m", [*range(1, 40), 95, 255, 1023, 2047])
    def test_sine_transform_matches_scipy_bit_for_bit(self, m):
        # The numpy FFT and its long-double scale reproduce SciPy's DST-I,
        # which the fast solver used before, on every line of a batch and, for
        # m >= 95, across the blocks of at most DST_BLOCK values that _dst1
        # transforms at a time (the last one partial).
        lines = 3 * (fdsolver.DST_BLOCK // (2 * (m + 1))) + 2
        x = np.random.default_rng(m).standard_normal((min(lines, 400), m))
        x[0] = 0.0
        assert_same_bits(fdsolver._dst1(x), dst(x, type=1, norm="ortho", axis=-1))

    def test_sine_transform_of_strided_slabs(self):
        # The fast solver transforms moved-axis views of 3-D arrays.
        g = np.moveaxis(np.random.default_rng(3).standard_normal((99, 130, 4)), 0, -1)  # blocks of 40 slabs
        assert_same_bits(fdsolver._dst1(g), dst(g, type=1, norm="ortho", axis=-1))

    @pytest.mark.parametrize("shape, axis", [((400, 95), 1), ((99, 130, 4), 0), ((9, 8, 7), 1)], ids=str)
    def test_sine_transform_in_place(self, shape, axis):
        # In place, on a contiguous array and on the moved-axis views that the
        # back transform of the fast solver writes, across DST_BLOCK blocks.
        g = np.random.default_rng(len(shape)).standard_normal(shape)
        g[0, 0] = -0.0
        view = np.moveaxis(g, axis, -1)
        expected = fdsolver._dst1(view)
        assert fdsolver._dst1(view, out=view) is view
        assert_same_bits(view, expected)

    def test_capacitance_rows_add_as_add_at(self):
        # Several obstacle nodes per height, heights out of order, as the
        # capacitance correction adds beta_s times row s of the sine basis.
        rng = np.random.default_rng(5)
        heights = np.array([3, 0, 3, 1, 3, 0, 2, 1, 3])
        coefficients = rng.standard_normal(heights.size)
        vectors = rng.standard_normal((heights.size, 31))
        vectors[:, 0] = -0.0
        got = np.zeros((5, 31))
        fdsolver._add_rows(got, heights, coefficients, vectors)
        expected = np.zeros((5, 31))
        np.add.at(expected, heights, coefficients[:, None] * vectors)
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("method", ["fast", "lu"])
    def test_inverse_leaves_its_argument_unchanged(self, method):
        # ``solve`` passes its residual to the inverse and then overwrites it.
        g = build_grid([1, 0], [3, 2], (33, 17), 2.0)
        extra = inner_box(g) if method == "lu" else None
        sys_ = assemble(IDENT, g, P21, bc_kernel, extra_dirichlet=fixed_mask(extra))
        inverse = fdsolver._fast_inverse(sys_) if method == "fast" else fdsolver._lu_inverse(sys_)[0]
        for r in (sys_.rhs, np.where(sys_.dirichlet_mask, 0.0, sys_.rhs + 1.0)):  # A u is lifted, then skipped
            kept = r.copy()
            inverse(r)
            assert_same_bits(r, kept)

    def test_exterior_solve_builds_no_dense_basis(self):
        # One dense basis at 2049 nodes is 2047^2 doubles, 33.5 MB.
        p = GrushinParams(2, 1.0)
        grid = build_grid([-4, 0], [4, 4], (2049, 17), 2.0)
        tang, norm = grid.node_coordinates()
        box = (np.abs(tang[:, 0]) <= 0.03) & (norm <= 1.0)  # 15 x 8 obstacle nodes
        tracemalloc.start()
        try:
            sys = assemble(make_identity_field(p), grid, p, lambda xp, xn: np.where(xn > 0, 1.0, 0.0), fixed_mask(box))
            u, rep = solve(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys.separable is not None and np.count_nonzero(box & ~grid.face_mask()) == 120
        assert rep.method == "fast-diagonalization" and rep.converged
        assert peak < 16e6

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    @pytest.mark.parametrize("counts", [(13, 9), (7, 6, 8)], ids=str)
    @pytest.mark.parametrize("shape", ["single", "flat-face-column", "next-to-far-face", "several-heights"])
    def test_obstacles_match_dense_solve(self, factors, alpha, graded, counts, shape):
        # Dirichlet nodes off the box faces are handled by the capacitance
        # matrix on top of the same fast inverse.
        p = GrushinParams(len(counts), alpha)
        grid = build_grid([1] * (p.n - 1) + [0], [3] * (p.n - 1) + [2], counts, 1.0 + alpha * graded)
        mid, top, far = tuple(c // 2 for c in counts[:-1]), counts[-1] - 2, tuple(c - 2 for c in counts[:-1])
        nodes = {
            "single": [mid + (top // 2,)],
            "flat-face-column": [mid + (j,) for j in range(4)],  # the node at j = 0 is a face node
            "next-to-far-face": [far + (top,)],
            "several-heights": [
                (1,) * len(mid) + (1,),
                (1,) * len(mid) + (2,),
                mid + (2,),
                far + (top // 2,),
                mid + (top,),
            ],
        }[shape]
        extra = np.zeros(counts, dtype=bool)
        for node in nodes:
            extra[node] = True
        bc = lambda xp, xn: kernel_value_arrays(xp, xn, p)
        sys = assemble(make_identity_field(p), grid, p, bc, extra_dirichlet=fixed_mask(extra.ravel()))
        assert sys.separable is not None
        dense = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        first = fdsolver._fast_inverse(sys)(sys.rhs)
        assert np.linalg.norm(first - dense) <= 1e-12 * np.linalg.norm(dense)
        u, rep = solve(sys)
        assert factors == []
        assert rep.method == "fast-diagonalization"
        assert rep.converged and rep.iterations == 1
        assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("counts", [(9, 8), (6, 5, 7)], ids=str)
    @pytest.mark.parametrize("shape", ["flat-face-row", "last-row", "gapped-heights"])
    def test_capacitance_matches_dense_inverse(self, counts, shape):
        # C = (T^-1)_SS is built from eliminations that stop at the highest
        # obstacle row; T is the operator on the non-face nodes with no obstacle.
        p = GrushinParams(len(counts), 1.0)
        grid = build_grid([1] * (p.n - 1) + [0], [3] * (p.n - 1) + [2], counts, 2.0)
        last = counts[-1] - 3  # the last non-face row
        rows = {"flat-face-row": [0, 0], "last-row": [1, last], "gapped-heights": [0, 2, 4]}[shape]
        extra = np.zeros(counts, dtype=bool)
        for i, j in enumerate(rows):
            extra[(1 + i,) * (p.n - 1) + (1 + j,)] = True
        field, bc = make_identity_field(p), lambda xp, xn: kernel_value_arrays(xp, xn, p)
        sys_ = assemble(field, grid, p, bc, extra_dirichlet=fixed_mask(extra.ravel()))
        assert sys_.separable is not None
        inverse = fdsolver._fast_inverse(sys_)
        capacitance = inspect.getclosurevars(inverse).nonlocals["capacitance"]

        nonface = ~grid.face_mask()
        t_dense = assemble(field, grid, p, bc).matrix.toarray()[np.ix_(nonface, nonface)]
        obstacle = np.flatnonzero(extra.ravel()[nonface])
        expected = np.linalg.inv(t_dense)[np.ix_(obstacle, obstacle)]
        assert capacitance.shape == (len(rows), len(rows))
        assert np.linalg.norm(capacitance - expected) <= 1e-13 * np.linalg.norm(expected)
        dense = np.linalg.solve(sys_.matrix.toarray(), sys_.rhs)
        assert np.linalg.norm(inverse(sys_.rhs) - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.skipif(
        sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2, reason="reads /proc; needs 2 CPUs"
    )
    def test_solves_leave_blas_threads_idle(self, tmp_path):
        # A BLAS call in the fast solver's applications, such as a matrix
        # product for the capacitance correction, wakes OpenBLAS workers that
        # spin between calls: in ten default global-bound solves they gained
        # as much CPU time as the main thread.  Without one they gain none.
        probe = """
import os
import numpy as np
from grushinlab.config import parse_config
from grushinlab.experiments import BOUND_INNER_RADIUS, _exterior_problem
from grushinlab.fdsolver import solve

def ticks():  # utime + stime of each thread of this process
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        out[int(tid)] = int(fields[11]) + int(fields[12])
    return out

cfg = parse_config(raw={"command": "global-bound"})
p, exp = cfg.params, cfg.experiment
problem = _exterior_problem(
    p, BOUND_INNER_RADIUS, exp["outer_radius"], exp["counts"], lambda xn: np.minimum(1.0, xn)
)
grid, system = problem.at(p, cfg.build_field())
before = ticks()
for _ in range(10):
    assert solve(system)[1].method == "fast-diagonalization"
gained = {tid: t - before.get(tid, 0) for tid, t in ticks().items()}
print(gained.pop(os.getpid()), sum(gained.values()))
"""
        src = str(Path(grushinlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"},
            cwd=tmp_path,
            capture_output=True,
            text=True,
            check=True,
        )
        main, workers = map(int, done.stdout.split())
        assert main > 0 and workers < 0.1 * main

    @pytest.mark.parametrize(
        "counts, obstacles, perturbed, method",
        [
            ((18, 18), 16, False, "fast-diagonalization"),  # k^2 = N = 256
            ((17, 19), 16, False, "lu"),  # k^2 = N + 1 = 256
            ((17, 19), 15, False, "fast-diagonalization"),
            ((17, 19), 1, True, "lu"),
        ],
        ids=["k2-eq-N", "k2-eq-N+1", "k2-below-N", "perturbed"],
    )
    def test_selection_by_obstacle_count(self, factors, counts, obstacles, perturbed, method):
        grid = build_grid([1, 0], [3, 2], counts, 2.0)
        field = make_decaying_perturbation(P21, 2.0, 0.3, 42) if perturbed else IDENT
        extra = np.zeros(grid.num_nodes, dtype=bool)
        extra[np.flatnonzero(~grid.face_mask())[:obstacles]] = True
        sys = assemble(field, grid, P21, bc_kernel, extra_dirichlet=fixed_mask(extra))
        u, rep = solve(sys)
        assert rep.method == method and rep.converged
        assert len(factors) == (method == "lu")
        dense = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_identity_3d_at_65_65_33(self):
        # The 3-D identity size SuperLU cannot factor in memory.
        p = P31
        grid = build_grid([1, 1, 0], [3, 3, 2], (65, 65, 33), 2.0)
        sys = assemble(make_identity_field(p), grid, p, lambda xp, xn: kernel_value_arrays(xp, xn, p))
        u, rep = solve(sys)
        assert rep.method == "fast-diagonalization"
        assert rep.converged and rep.dmp_ok
        tang, norm = grid.node_coordinates()
        assert np.max(np.abs(u - kernel_value_arrays(tang, norm, p))) <= 1e-4


class TestDmp:
    def test_identity_field_is_monotone(self):
        g = build_grid([1, 0], [3, 2], (25, 25), 2.0)
        sys = assemble(IDENT, g, P21, bc_kernel)
        rep = check_dmp(sys)
        assert rep.ok
        assert sys.mesh_ratio_offenders.size == 0

    def test_mixed_terms_break_monotonicity_near_flat_face(self):
        # near x_n = 0 the tangential diffusion collapses like x_n^{2a} while
        # the mixed coefficient only like x_n^a: offenders must be reported
        f = make_decaying_perturbation(P21, 2.0, 0.3, 42)
        g = build_grid([1, 0], [3, 2], (33, 33), 2.0)
        sys = assemble(f, g, P21, bc_kernel)
        assert sys.mesh_ratio_offenders.size > 0
        rep = check_dmp(sys)
        assert not rep.ok
        assert rep.positive_offdiagonal_rows.size > 0

    def test_mesh_ratio_threshold_is_sharp_for_uniform_elliptic_case(self):
        # alpha = 0 on uniform spacings: the split cross stencil keeps the
        # M-matrix pattern exactly while |a_1n| <= min(h_n/h_1, h_1/h_n)
        p = GrushinParams(2, 0.0)

        def make(a1n):
            return constant_field(p, a11=1.0, a1n=a1n)

        square = build_grid([0, 0], [2, 2], (33, 33), 1.0)  # h_1 = h_n
        for a1n in (0.4, -0.4, 0.999):
            sys = assemble(make(a1n), square, p, lambda xp, xn: np.sin(xp[:, 0]) * xn)
            assert check_dmp(sys).ok
            assert sys.mesh_ratio_offenders.size == 0

        tall = build_grid([0, 0], [2, 1], (33, 33), 1.0)  # h_1 = 2 h_n: threshold 0.5
        for a1n, expect_ok in ((0.45, True), (0.7, False)):
            sys = assemble(make(a1n), tall, p, lambda xp, xn: np.asarray(xn, dtype=float))
            assert check_dmp(sys).ok == expect_ok

        # with active mixed terms and the condition satisfied, ordered data
        # still give ordered solutions
        field = make(0.4)
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = rng.uniform(-1, 1, 2)
            gap = rng.uniform(0, 1)

            def lo(xp, xn, c=c):
                return c[0] * np.sin(xp[:, 0]) + c[1] * xn

            def hi(xp, xn, gap=gap, c=c):
                return lo(xp, xn) + gap * (1.2 + np.cos(xp[:, 0] * xn))

            u_lo, _ = solve(assemble(field, square, p, lo))
            u_hi, _ = solve(assemble(field, square, p, hi))
            assert np.all(u_lo <= u_hi + 1e-9)

    def test_zero_data_uniqueness(self):
        g = build_grid([1, 0], [3, 2], (21, 21), 2.0)
        sys = assemble(IDENT, g, P21, lambda xp, xn: np.zeros(xn.shape))
        u, _ = solve(sys)
        assert np.max(np.abs(u)) <= 1e-12

    def test_comparison_principle(self):
        g = build_grid([1, 0], [3, 2], (17, 17), 2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            c0, c1, gap = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)

            def bc_lo(xp, xn, c0=c0, c1=c1):
                return c0 + c1 * np.sin(xp[:, 0] + xn)

            def bc_hi(xp, xn, gap=gap):
                return bc_lo(xp, xn) + gap * (1.0 + np.cos(xp[:, 0] - xn))

            u_lo, _ = solve(assemble(IDENT, g, P21, bc_lo))
            u_hi, _ = solve(assemble(IDENT, g, P21, bc_hi))
            assert np.all(u_lo <= u_hi + 1e-9)


class TestSerialization:
    def test_grid_function_round_trip(self, tmp_path):
        g = build_grid([1, 0], [3, 2], (5, 7), 2.0)
        rng = np.random.default_rng(1)
        values = rng.normal(size=g.num_nodes)
        path = tmp_path / "u.txt"
        write_grid_function(path, g, values)
        data = np.loadtxt(path, ndmin=2)
        coords, back = data[:, :-1], data[:, -1]
        tang, norm = g.node_coordinates()
        np.testing.assert_array_equal(back, values)  # 17 digits round-trip float64
        np.testing.assert_array_equal(coords[:, 0], tang[:, 0])
        np.testing.assert_array_equal(coords[:, 1], norm)
        expected = [
            f"{x:.17g} {y:.17g} {v:.17g}" for x, y, v in zip(tang[:, 0], norm, values)
        ]
        assert path.read_text() == "\n".join(expected) + "\n"


class TestInterpolation:
    def test_multilinear_reproduces_linears(self):
        g = build_grid([1, 0], [3, 2], (9, 9), 2.0)
        tang, norm = g.node_coordinates()
        values = 2.0 * tang[:, 0] - 3.0 * norm + 1.0
        interp = grid_interpolator(g, values)
        pts = np.array([[1.3, 0.4], [2.9, 1.7], [1.0, 0.0]])
        np.testing.assert_allclose(
            interp(pts), 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0, rtol=1e-13
        )

    def test_trilinear_reproduces_products(self):
        # Multilinear interpolation is exact for products of one linear factor per axis.
        g = build_grid([-1, 0, 0], [2, 1, 3], (5, 7, 6), 1.5)
        tang, norm = g.node_coordinates()
        f = lambda c: (c[:, 0] + 1.0) * (c[:, 1] - 2.0) * c[:, 2] + c[:, 0]
        interp = grid_interpolator(g, f(np.column_stack([tang, norm])))
        rng = np.random.default_rng(4)
        pts = rng.uniform([-1, 0, 0], [2, 1, 3], (200, 3))
        pts[0] = [2.0, 1.0, 3.0]  # the far corner of the box
        np.testing.assert_allclose(interp(pts), f(pts), rtol=1e-12, atol=1e-12)

    def test_point_outside_box_raises(self):
        g = build_grid([1, 0], [3, 2], (9, 9), 2.0)
        interp = grid_interpolator(g, np.zeros(g.num_nodes))
        for bad in ([3.0 + 1e-12, 1.0], [1.5, -1e-300], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="outside the grid box"):
                interp(np.array([[2.0, 1.0], bad]))
        with pytest.raises(ValueError, match="dimension"):
            interp(np.array([[2.0, 1.0, 0.5]]))
