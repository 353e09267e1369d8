import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from grushinlab import fdsolver
from grushinlab.closedforms import kernel_value_arrays
from grushinlab.coefficients import CoefficientField, make_decaying_perturbation, make_identity_field
from grushinlab.fdsolver import (
    DmpReport,
    SparseSystem,
    assemble,
    build_grid,
    check_dmp,
    grid_interpolator,
    solve,
    write_grid_function,
)
from grushinlab.geometry import GrushinParams

P21 = GrushinParams(2, 1.0)
P31 = GrushinParams(3, 1.0)
IDENT = make_identity_field(P21)


def bc_kernel(xp, xn):
    return kernel_value_arrays(xp, xn, P21)


def inner_box(grid):
    """Nodes with |x' - 2| <= 1/4 and x_n <= 1/2: an excised box, so the system is not separable."""
    tang, norm = grid.node_coordinates()
    return np.all(np.abs(tang - 2.0) <= 0.25, axis=1) & (norm <= 0.5)


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
        with pytest.raises(ValueError):
            build_grid([0, 0], [1, 1], (2000, 2000), max_nodes=10_000)


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
        sys = assemble(IDENT, g, P21, lambda xp, xn: xp[:, 0] + xn, extra_dirichlet=np.ones(9, bool))
        u, rep = solve(sys)
        assert rep.iterations == 0
        np.testing.assert_array_equal(u, sys.rhs)

    def test_singular_factorisation_raises(self):
        # Rows 0 and 2 are Dirichlet identity rows; interior row 1 is all zeros.
        matrix = sparse.csr_matrix(np.diag([1.0, 0.0, 1.0]))
        none = np.array([], dtype=np.int64)
        sys = SparseSystem(
            matrix=matrix,
            rhs=np.array([1.0, 0.0, 1.0]),
            dirichlet_mask=np.array([True, False, True]),
            dmp=DmpReport(False, none, np.array([1]), none),
        )
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

    def test_solver_is_deterministic(self):
        g = build_grid([1, 0], [3, 2], (21, 21), 2.0)
        sys = assemble(IDENT, g, P21, bc_kernel)
        u1, _ = solve(sys)
        u2, _ = solve(sys)
        np.testing.assert_array_equal(u1, u2)


@pytest.fixture
def factors(monkeypatch):
    """The SuperLU factor objects that ``solve`` makes, in call order."""
    made = []

    def record(*args, **kwargs):
        made.append(splu(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fdsolver, "splu", record)
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
        sys = assemble(field, grid, p, lambda xp, xn: kernel_value_arrays(xp, xn, p), extra_dirichlet=extra)
        tol = 1e-10
        u, rep = solve(sys, tol=tol)
        assert rep.method == "lu"
        (lu,) = factors
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        assert abs(lu.U).max() <= 2.0 * abs(sys.matrix).max()
        dense = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        assert rep.converged
        assert np.linalg.norm(u - dense) <= tol * np.linalg.norm(dense)

    def test_fill_is_below_the_default_ordering(self, factors):
        # The symmetric minimum-degree ordering halves the fill of SuperLU's
        # default (COLAMD with partial pivoting) on the 13^3 identity system
        # with a 54-node inner box excised: 89,836 against 185,587 nonzeros in
        # L + U.
        g = build_grid([1, 1, 0], [3, 3, 2], (13, 13, 13), 2.0)
        bc = lambda xp, xn: kernel_value_arrays(xp, xn, P31)
        sys = assemble(make_identity_field(P31), g, P31, bc, extra_dirichlet=inner_box(g))
        solve(sys)
        (lu,) = factors
        default = splu(sys.matrix.tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)


def tiny_pivot_system(pivot: float = 1e-20, coupling: float = 0.0) -> SparseSystem:
    """A tiny pivot eliminated first (node 0 has the smallest degree) and kept
    on the diagonal: its Schur update swamps the block of nodes 1 and 2.  At
    1e-20 that block is lost, and refinement with those factors cannot
    restore it."""
    a = np.zeros((5, 5))
    a[0, 0] = pivot
    a[0, 1] = a[0, 2] = a[1, 0] = a[2, 0] = 1.0
    a[1:, 1:] = 4.0 * np.eye(4) + 0.5
    a[1, 1] = a[2, 2] = 1.0
    a[1, 2] = a[2, 1] = coupling
    none = np.array([], dtype=np.int64)
    return SparseSystem(
        matrix=sparse.csr_matrix(a),
        rhs=np.arange(1.0, 6.0),
        dirichlet_mask=np.zeros(5, dtype=bool),
        dmp=DmpReport(False, none, none, none),
    )


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
        sys = assemble(IDENT, g, P21, lambda xp, xn: np.sin(3.0 * xp[:, 0]) * xn, extra_dirichlet=extra)
        u, rep = solve(sys)
        scale = abs(sys.matrix) @ np.abs(u) + np.abs(sys.rhs)
        assert np.count_nonzero(scale == 0.0) > 0
        assert rep.backward_error == recomputed_backward_error(sys, u)
        assert rep.backward_error_history[-1] == rep.backward_error
        assert len(rep.backward_error_history) == rep.iterations + 1
        assert rep.converged == (rep.backward_error <= 1e-10)
        assert rep.final_residual == np.linalg.norm(sys.rhs - sys.matrix @ u) / np.linalg.norm(sys.rhs)

    def test_zero_scale_rows(self):
        # Row 0 has a zero scale: r = 0 there counts as 0, r != 0 as inf.
        abs_matrix = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 2.0]]))
        u, b = np.array([0.0, 1.0]), np.array([0.0, 4.0])
        assert fdsolver._backward_error(np.array([0.0, 1.0]), abs_matrix, u, b) == 1.0 / 6.0
        assert fdsolver._backward_error(np.array([1e-300, 0.0]), abs_matrix, u, b) == np.inf

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

    def test_fast_path_keeps_its_forced_sweep(self):
        g = build_grid([1, 0], [3, 2], (33, 33), 2.0)
        sys = assemble(IDENT, g, P21, bc_kernel)
        _, rep = solve(sys, tol=1.0)
        assert rep.method == "fast-diagonalization"
        assert rep.iterations == 1 and rep.backward_error_history[0] <= 1.0


class TestDmpScan:
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

    @pytest.mark.parametrize(
        "field, p, counts, excise, monotone",
        [
            (IDENT, P21, (33, 33), False, True),
            (IDENT, P21, (33, 33), True, True),
            (make_identity_field(P31), P31, (9, 9, 9), True, True),
            (make_decaying_perturbation(P21, 2.0, 0.3, 42), P21, (33, 33), False, False),
            (make_decaying_perturbation(P21, 2.0, 0.3, 42), P21, (33, 33), True, False),
            (make_decaying_perturbation(P31, 2.0, 0.3, 7), P31, (9, 9, 9), False, False),
        ],
        ids=["identity-2d", "excised-2d", "excised-3d", "perturbed-2d", "perturbed-excised-2d", "perturbed-3d"],
    )
    def test_report_matches_the_copied_scan(self, field, p, counts, excise, monotone):
        grid = build_grid([1] * (p.n - 1) + [0], [3] * (p.n - 1) + [2], counts, 2.0)
        extra = inner_box(grid) if excise else None
        sys = assemble(field, grid, p, lambda xp, xn: kernel_value_arrays(xp, xn, p), extra_dirichlet=extra)
        expected = self.copied_report(sys.matrix, ~sys.dirichlet_mask)
        assert expected.ok == monotone
        for got in (sys.dmp, check_dmp(sys)):
            assert got.ok == expected.ok
            for name in ("positive_offdiagonal_rows", "nonpositive_diagonal_rows", "negative_rowsum_rows"):
                np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


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
            sys = assemble(field, grid, P21, bc_kernel, extra_dirichlet=extra)
            assert (sys.separable is not None) == (method != "lu")
            _, rep = solve(sys)
            assert rep.method == method and rep.converged
        assert len(factors) == 2

    def test_sine_basis_is_orthogonal_to_round_off(self):
        # sin(pi j k/(c-1)) taken at the reduced argument j k mod 2(c-1);
        # the unreduced argument gives 9.8e-14 at this size.
        basis = fdsolver._sine_basis(2049)
        assert np.abs(basis @ basis - np.eye(2047)).max() <= 1e-15

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
        sys = assemble(make_identity_field(p), grid, p, bc, extra_dirichlet=extra.ravel())
        assert sys.separable is not None
        dense = np.linalg.solve(sys.matrix.toarray(), sys.rhs)
        first = fdsolver._fast_inverse(sys)(sys.rhs)
        assert np.linalg.norm(first - dense) <= 1e-12 * np.linalg.norm(dense)
        u, rep = solve(sys)
        assert factors == []
        assert rep.method == "fast-diagonalization"
        assert rep.converged and rep.iterations == 1
        assert np.linalg.norm(u - dense) <= 1e-12 * np.linalg.norm(dense)

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
        sys = assemble(field, grid, P21, bc_kernel, extra_dirichlet=extra)
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
