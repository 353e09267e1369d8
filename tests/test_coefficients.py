import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from test_fdsolver import assert_same_bits

from grushinlab import coefficients
from grushinlab.coefficients import (
    CoefficientField,
    audit_ellipticity_arrays,
    make_decaying_perturbation,
    make_identity_field,
    strip_bound,
)
from grushinlab.geometry import GrushinParams, gauge_arrays

P21 = GrushinParams(2, 1.0)
P31 = GrushinParams(3, 1.0)


def degenerate_matrix(field, xp, xn, p):
    """A~(x) of shape (N, n, n) from the field's blocks and the powers of x_n."""
    out = np.zeros(xn.shape + (p.n, p.n))
    out[:, :-1, :-1] = field.tangential(xp, xn) * (xn ** (2.0 * p.alpha))[:, None, None]
    mix = field.mixed(xp, xn) * (xn**p.alpha)[:, None]
    out[:, :-1, -1] = mix
    out[:, -1, :-1] = mix
    out[:, -1, -1] = 1.0
    return out


def unit_box_sample(p, count, seed, strip_only=False):
    rng = np.random.default_rng(seed)
    xp = rng.uniform(-1.0, 1.0, (count, p.n - 1))
    lo = 0.5 if strip_only else 0.0
    xn = rng.uniform(lo, 1.0, count)
    return xp, xn


class TestIdentityField:
    def test_constants(self):
        f = make_identity_field(P31)
        assert f.lambda_const == f.Lambda_const == 1.0
        assert 0.0 < f.delta_const < 1.0
        assert f.decay_s == np.inf

    def test_degenerate_matrix_eigenvalues(self):
        f = make_identity_field(P31)
        xn = np.array([0.0, 0.3, 1.0])
        mats = degenerate_matrix(f, np.zeros((3, 2)), xn, P31)
        for k, t in enumerate(xn):
            expect = sorted([t**2, t**2, 1.0])
            np.testing.assert_allclose(sorted(np.linalg.eigvalsh(mats[k])), expect, atol=1e-14)

    def test_audit_passes_any_epsilon(self):
        f = make_identity_field(P21)
        xp, xn = unit_box_sample(P21, 400, 1)
        for eps0 in (0.1, 0.5, 0.9):
            rep = audit_ellipticity_arrays(f, P21, eps0, xp, xn)
            assert not rep.violations
            assert rep.lower_bound_formula > 0.0

    def test_worked_formula_bound(self):
        # alpha=1, eps0=1/2, delta=1/2, lambda=1, tau=3/4:
        # min{(1/4)(1/4), 1 - (4/3)(1/2)} = 1/16
        f = make_identity_field(P21)
        xp, xn = unit_box_sample(P21, 200, 2, strip_only=True)
        rep = audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        assert rep.lower_bound_formula == pytest.approx(0.0625, abs=0)
        assert rep.lower_bound_numeric >= 0.0625 - 1e-10
        assert rep.upper_bound_numeric <= 1.0 + 1e-12


class TestDecayingPerturbation:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_decaying_perturbation(P21, 0.0, 0.3, 0)
        with pytest.raises(ValueError):
            make_decaying_perturbation(P21, 2.0, 0.0, 0)
        with pytest.raises(ValueError):
            make_decaying_perturbation(P21, 2.0, 1.2, 0)

    def test_small_amplitude_limit_is_identity(self):
        f = make_decaying_perturbation(P31, 2.0, 1e-9, 5)
        xp, xn = unit_box_sample(P31, 50, 3)
        a = f.tangential(xp, xn)
        m = f.mixed(xp, xn)
        np.testing.assert_allclose(a, np.broadcast_to(np.eye(2), a.shape), atol=1e-9)
        np.testing.assert_allclose(m, np.zeros_like(m), atol=1e-9)

    def test_blocks_are_symmetric(self):
        f = make_decaying_perturbation(P31, 2.0, 0.5, 7)
        xp, xn = unit_box_sample(P31, 100, 4)
        a = f.tangential(xp, xn)
        np.testing.assert_allclose(a, np.swapaxes(a, -1, -2), atol=0)

    def test_pairwise_envelope(self):
        # |a_ij - delta_ij| + |a_in| <= d^{-s} for every pair, any amplitude <= 1
        for p in (P21, P31):
            f = make_decaying_perturbation(p, 2.0, 1.0, 11)
            rng = np.random.default_rng(6)
            xp = rng.uniform(-30.0, 30.0, (300, p.n - 1))
            xn = rng.uniform(0.0, 30.0, 300)
            env = np.minimum(1.0, gauge_arrays(xp, xn, p) ** -2.0)
            dev = np.abs(f.tangential(xp, xn) - np.eye(p.n - 1))
            mix = np.abs(f.mixed(xp, xn))
            worst = dev.max(axis=(-1, -2)) + mix.max(axis=-1)
            assert np.all(worst <= env + 1e-15)

    def test_far_field_total_deviation(self):
        # at gauge >= 10 with s=2 the summed deviation is below 1e-2
        f = make_decaying_perturbation(P31, 2.0, 0.3, 13)
        rng = np.random.default_rng(8)
        xp = rng.uniform(-500.0, 500.0, (500, 2))
        xn = rng.uniform(0.0, 40.0, 500)
        d = gauge_arrays(xp, xn, P31)
        keep = d >= 10.0
        total = np.abs(f.tangential(xp, xn) - np.eye(2)).sum(axis=(-1, -2)) + np.abs(
            f.mixed(xp, xn)
        ).sum(axis=-1)
        assert keep.any()
        assert np.all(total[keep] <= 1e-2)

    def test_mixed_condition_margin(self):
        f = make_decaying_perturbation(P31, 2.0, 0.3, 17)
        xp, xn = unit_box_sample(P31, 2000, 9)
        sup_sq = np.sum(np.max(np.abs(f.mixed(xp, xn)), axis=0) ** 2)
        assert 1.0 - sup_sq / f.lambda_const > f.delta_const

    def test_deterministic_in_seed(self):
        a = make_decaying_perturbation(P21, 2.0, 0.4, 42)
        b = make_decaying_perturbation(P21, 2.0, 0.4, 42)
        xp, xn = unit_box_sample(P21, 20, 10)
        np.testing.assert_array_equal(a.tangential(xp, xn), b.tangential(xp, xn))
        np.testing.assert_array_equal(a.mixed(xp, xn), b.mixed(xp, xn))

    def test_audit_passes_on_thousand_points(self):
        f = make_decaying_perturbation(P21, 2.0, 0.3, 42)
        xp, xn = unit_box_sample(P21, 1000, 12)
        rep = audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        assert not rep.violations
        assert rep.lower_bound_numeric >= rep.lower_bound_formula - 1e-10

    def test_rayleigh_quotients_within_declared_bracket(self):
        f = make_decaying_perturbation(P31, 2.0, 0.6, 19)
        xp, xn = unit_box_sample(P31, 500, 13)
        eigs = np.linalg.eigvalsh(f.tangential(xp, xn))
        assert np.all(eigs[:, 0] >= f.lambda_const - 1e-12)
        assert np.all(eigs[:, -1] <= f.Lambda_const + 1e-12)


class TestAudit:
    def test_point_interface(self):
        f = make_identity_field(P21)
        xp, xn = np.array([[0.3], [-0.5], [0.9]]), np.array([0.7, 0.0, 0.2])
        rep = audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        assert not rep.violations
        assert rep.total_count == 3
        assert rep.strip_count == 1
        # A~ = diag(x_n^2, 1) for the identity field at alpha = 1.
        np.testing.assert_array_equal(rep.lambda_min, xn**2)
        np.testing.assert_array_equal(rep.lambda_max, [1.0, 1.0, 1.0])
        assert "lambda_min" not in repr(rep)

    def test_rejects_empty_sample(self):
        f = make_identity_field(P21)
        with pytest.raises(ValueError, match="nonempty"):
            audit_ellipticity_arrays(f, P21, 0.5, np.empty((0, 1)), np.empty(0))

    def test_rejects_nonfinite_points(self):
        f = make_identity_field(P21)
        xp = np.array([[0.1], [np.nan], [0.2]])
        xn = np.array([0.7, 0.6, np.nan])
        with pytest.raises(ValueError, match="finite"):
            audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        with pytest.raises(ValueError, match="finite"):
            audit_ellipticity_arrays(f, P21, 0.5, xp[[0, 2]], np.array([0.7, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            audit_ellipticity_arrays(f, P21, 0.5, np.array([[np.inf]]), np.array([0.5]))

    def test_boundary_degeneracy_allowed(self):
        f = make_decaying_perturbation(P21, 2.0, 0.5, 23)
        xp = np.array([[0.4], [-0.7]])
        xn = np.zeros(2)
        rep = audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        assert not rep.violations

    def test_interior_positivity_reads_the_schur_complement(self):
        # At n = 3, alpha = 2.5 the smallest eigenvalue of A~ drowns in round-off near the flat face:
        # the command's sample holds points where it reads <= 0 while a_ij - a_in a_in^T is positive.
        p = GrushinParams(3, 2.5)
        field = make_decaying_perturbation(p, 1.5, 0.9, 0)
        rng = np.random.default_rng(0)
        xp, xn = rng.uniform(-1.0, 1.0, (30_000, 2)), rng.uniform(0.0, 1.0, 30_000)
        xn[:600] = 0.0
        rep = audit_ellipticity_arrays(field, p, 0.5, xp, xn)
        assert not rep.violations
        assert np.count_nonzero((rep.lambda_min <= 0.0) & (xn > 0.0)) == 6  # A~'s arrays, as written to the CSV

    def test_indefinite_schur_complement_is_flagged(self):
        # a_11 = 1, a_12 = 1.5: the Schur complement 1 - 1.5^2 < 0, so A~ is indefinite off the face.
        field = CoefficientField(
            tangential=lambda xp, xn: np.ones(xn.shape + (1, 1)),
            mixed=lambda xp, xn: np.full(xn.shape + (1,), 1.5),
            lambda_const=1.0,
            Lambda_const=1.0,
            delta_const=0.5,
            decay_s=0.0,
        )
        rep = audit_ellipticity_arrays(field, P21, 0.5, np.array([[0.1], [0.2]]), np.array([0.25, 0.0]))
        [hit] = [v for v in rep.violations if v.kind == "interior-positivity"]
        assert (hit.index, hit.value, hit.bound) == (0, 1.0 - 1.5**2, 0.0)

    def test_lying_declaration_is_reported_not_raised(self):
        honest = make_identity_field(P21)
        liar = CoefficientField(
            tangential=honest.tangential,
            mixed=honest.mixed,
            lambda_const=2.0,  # identity block cannot reach this floor
            Lambda_const=2.0,
            delta_const=0.5,
            decay_s=np.inf,
        )
        xp, xn = unit_box_sample(P21, 50, 14)
        rep = audit_ellipticity_arrays(liar, P21, 0.5, xp, xn)
        assert rep.violations
        assert any(v.kind == "rayleigh-lower" for v in rep.violations)

    def test_epsilon0_validation(self):
        f = make_identity_field(P21)
        xp, xn = unit_box_sample(P21, 10, 15)
        with pytest.raises(ValueError):
            audit_ellipticity_arrays(f, P21, 1.5, xp, xn)

    def test_sample_must_lie_in_unit_halfbox(self):
        f = make_identity_field(P21)
        with pytest.raises(ValueError):
            audit_ellipticity_arrays(f, P21, 0.5, np.array([[2.0]]), np.array([0.5]))

    @pytest.mark.parametrize(
        "tau, expected",
        [(0.6, 0.1), (0.75, 0.0625), (0.9, 0.025), (0.52, 1.0 - 0.5 / 0.52)],
        ids=["0.6", "0.75", "0.9", "0.52"],
    )
    def test_strip_bound_closed_form(self, tau, expected):
        # lambda = 1, delta = 1/2, eps0 = 1/2, alpha = 1: min{(1 - tau)/4, 1 - 1/(2 tau)};
        # the second term is the smaller below tau = (sqrt(17) - 3)/2 = 0.56.
        assert strip_bound(1.0, 0.5, 0.5, 1.0, tau) == pytest.approx(expected, rel=1e-15)

    def test_audit_takes_tau_at_the_midpoint(self):
        f = make_decaying_perturbation(P21, 2.0, 0.3, 29)
        xp, xn = unit_box_sample(P21, 300, 16, strip_only=True)
        rep = audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        tau = 1.0 - f.delta_const / 2.0
        assert rep.tau == tau
        assert rep.lower_bound_formula == strip_bound(f.lambda_const, f.delta_const, 0.5, P21.alpha, tau)
        assert not rep.violations


class TestThreading:
    def test_thread_budget_env(self, monkeypatch):
        from grushinlab.runtime import thread_budget

        monkeypatch.delenv("GRUSHINLAB_THREADS", raising=False)
        assert thread_budget() == 1
        monkeypatch.setenv("GRUSHINLAB_THREADS", "4")
        assert thread_budget() == 4
        monkeypatch.setenv("GRUSHINLAB_THREADS", "0")
        assert thread_budget() == 1
        monkeypatch.setenv("GRUSHINLAB_THREADS", "nope")
        with pytest.raises(ValueError):
            thread_budget()

    def test_parallel_audit_matches_serial(self, monkeypatch):
        f = make_decaying_perturbation(P21, 2.0, 0.3, 31)
        xp, xn = unit_box_sample(P21, 512, 17)
        monkeypatch.setenv("GRUSHINLAB_THREADS", "1")
        serial = audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        monkeypatch.setenv("GRUSHINLAB_THREADS", "4")
        threaded = audit_ellipticity_arrays(f, P21, 0.5, xp, xn)
        assert serial == threaded
        np.testing.assert_array_equal(serial.lambda_min, threaded.lambda_min)
        np.testing.assert_array_equal(serial.lambda_max, threaded.lambda_max)


def lower_blocks(d1, e, d2, upper=None):
    """Stacked 2x2 blocks with lower triangle (d1, e, d2); the upper entry,
    which the spectra never read, is ``upper`` (default: e)."""
    mats = np.empty(np.shape(d1) + (2, 2))
    mats[..., 0, 0], mats[..., 1, 0], mats[..., 1, 1] = d1, e, d2
    mats[..., 0, 1] = e if upper is None else upper
    return mats


class TestClosedFormSpectrum:
    def test_random_blocks_match_eigvalsh_bit_for_bit(self):
        rng = np.random.default_rng(20)
        count = 200_000

        def wide():  # mixed signs, exponents -300..300
            sign = rng.choice([-1.0, 1.0], count)
            return sign * rng.uniform(1.0, 2.0, count) * 2.0 ** rng.integers(-300, 301, count)

        diag = wide()
        sets = [
            (wide(), wide(), wide()),
            (diag, wide(), diag),  # equal diagonals: |d1 - d2| = 0
            (wide(), np.zeros(count), wide()),
            (diag, diag * rng.uniform(-1e-17, 1e-17, count), wide()),  # below the split test
            tuple(rng.integers(-4, 5, (3, count)).astype(float)),
        ]
        mats = np.concatenate([lower_blocks(*s) for s in sets])
        mats[:, 0, 1] = rng.permutation(mats[:, 1, 0])  # an upper triangle that disagrees is not read
        assert mats.shape == (10**6, 2, 2)
        assert_same_bits(coefficients._eigvalsh(mats), np.linalg.eigvalsh(mats))

    def test_signed_zeros_subnormals_infinities_and_nan(self):
        values = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310, -1e-310]
        values += [np.inf, -np.inf, np.nan]
        mats = lower_blocks(*np.array(list(itertools.product(values, repeat=3))).T)
        assert mats.shape == (2197, 2, 2)
        assert_same_bits(coefficients._eigvalsh(mats), np.linalg.eigvalsh(mats))

    def test_edges_of_the_unscaled_window(self):
        # Just inside and just outside the range where LAPACK leaves the block unscaled.
        rows = []
        for edge in coefficients._UNSCALED:
            tops = edge * np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
            for top, e, d2 in itertools.product(tops, (0.5, 1e-3, 0.7), (0.3, -1.0, 0.999, 1e-8)):
                rows += [(top, e * edge, d2 * edge), (d2 * edge, top, e * edge)]
        mats = lower_blocks(*np.array(rows).T)
        assert_same_bits(coefficients._eigvalsh(mats), np.linalg.eigvalsh(mats))

    def test_one_by_one_and_larger_blocks(self):
        ones = np.array([0.0, -0.0, -2.5, 5e-324, np.inf, np.nan, 1e300]).reshape(-1, 1, 1)
        assert_same_bits(coefficients._eigvalsh(ones), np.linalg.eigvalsh(ones))
        threes = np.random.default_rng(21).normal(size=(50, 3, 3))
        assert_same_bits(coefficients._eigvalsh(threes), np.linalg.eigvalsh(threes))


def marked_field(p, low_at, asym_at, mixed_at):
    """Identity-like field marked by the value of x_1: the tangential block
    is -0.1 I where x_1 = ``low_at`` (below lambda, and below the strip bound
    or 0 off the flat face) and gains 1e-6 in its last column, off the
    diagonal for n > 2, where x_1 = ``asym_at``; the mixed row is 0.9 where x_1 = ``mixed_at``, which breaks
    the mixed condition, and 0.2 elsewhere."""
    m = p.n - 1

    def tangential(xp, xn):
        out = np.where((xp[:, 0] == low_at)[:, None, None], -0.1, 1.0) * np.eye(m)
        out[:, 0, -1] += np.where(xp[:, 0] == asym_at, 1e-6, 0.0)
        return out

    def mixed(xp, xn):
        return np.where((xp[:, 0] == mixed_at)[:, None], 0.9, np.full(xp.shape, 0.2))

    return CoefficientField(tangential, mixed, 1.0, 1.0, 0.5, np.inf)


class TestAuditBlocks:
    @pytest.mark.parametrize("p", [P21, P31], ids=["n2", "n3"])
    def test_block_edges_leave_report_unchanged(self, monkeypatch, p):
        block = coefficients._AUDIT_BLOCK
        count = 2 * block + 3
        xp, xn = unit_box_sample(p, count, 22)
        xn[block - 2 : block + 2] = [0.0, 0.7, 0.2, 0.0]
        low = [block - 1, block, 2 * block - 1, 2 * block, count - 1]
        asym = [0, block - 2, block + 1, 2 * block + 1]
        xp[low, 0], xp[asym, 0], xp[block + 5, 0] = 0.25, -0.25, 0.5
        field = marked_field(p, 0.25, -0.25, 0.5)
        monkeypatch.setenv("GRUSHINLAB_THREADS", "1")
        monkeypatch.setattr(coefficients, "_AUDIT_BLOCK", count)
        whole = audit_ellipticity_arrays(field, p, 0.5, xp, xn)
        kinds = {v.kind for v in whole.violations}
        # At n = 2 the 1x1 block takes the mark on its diagonal: 1 + 1e-6 > Lambda.
        marked = "tangential-asymmetry" if p.n > 2 else "rayleigh-upper"
        assert kinds == {"rayleigh-lower", marked, "strip-bound", "interior-positivity", "mixed-condition"}
        assert {v.index for v in whole.violations if v.kind == "rayleigh-lower"} == set(low)
        monkeypatch.setattr(coefficients, "_AUDIT_BLOCK", block)
        for threads in ("1", "3"):
            monkeypatch.setenv("GRUSHINLAB_THREADS", threads)
            # More threads than cores, switching often, write one pair of output arrays.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                rep = audit_ellipticity_arrays(field, p, 0.5, xp, xn)
            finally:
                sys.setswitchinterval(interval)
            assert rep == whole
            assert_same_bits(rep.lambda_min, whole.lambda_min)
            assert_same_bits(rep.lambda_max, whole.lambda_max)

    def test_peak_memory_stays_near_the_outputs(self):
        f = make_decaying_perturbation(P31, 2.0, 0.3, 23)
        xp, xn = unit_box_sample(P31, 200_000, 24)
        tracemalloc.start()
        try:
            rep = audit_ellipticity_arrays(f, P31, 0.5, xp, xn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (rep.lambda_min.nbytes + rep.lambda_max.nbytes)
