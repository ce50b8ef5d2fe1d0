import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randx import matcore
from randx.convexity import random_psd
from randx.matcore import (
    HermEig,
    NegativeEigenvalueError,
    NonFiniteError,
    NonHermitianError,
    NotAResolutionError,
    bracket,
    ginibre,
    haar_pvm,
    haar_unitary,
    herm_eig,
    matrix_from_pairs,
    matrix_to_pairs,
    check_resolution,
    pinch,
    psd_defect,
    psd_power,
    resolution_defects,
    schatten,
    snorm,
    tensor,
)

EPS_GRID = (0.01, 0.1, 0.5, 1.0)

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([2, 3, 4, 6])
eps_values = st.sampled_from(EPS_GRID)


class TestHermEig:
    def test_diagonal(self):
        eig = herm_eig(np.diag([2.0, 1.0]))
        assert np.allclose(eig.eigenvalues, [1.0, 2.0])

    def test_identity(self):
        eig = herm_eig(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_off_diagonal(self):
        # characteristic polynomial x^2 - 1 by hand
        eig = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(seeds, dims)
    @settings(max_examples=30, deadline=None)
    def test_reconstruction(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = random_psd(dim, rng)
        eig = herm_eig(m)
        rel = np.linalg.norm(eig.reconstruct() - m) / max(np.linalg.norm(m), 1e-30)
        assert rel < 1e-9
        v = eig.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-9


class TestPsdPower:
    def test_sqrt(self):
        assert np.allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))

    def test_pseudo_inverse(self):
        assert np.allclose(psd_power(np.diag([4.0, 0.0]), -1.0), np.diag([0.25, 0.0]))

    def test_identity_power(self):
        rng = np.random.default_rng(3)
        m = random_psd(4, rng)
        assert np.allclose(psd_power(m, 1.0), m, atol=1e-10)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalueError):
            psd_power(np.diag([1.0, -0.5]), 0.5)

    def test_support_convention(self):
        m = np.diag([1.0, 1e-15])
        out = psd_power(m, -1.0)
        assert out[1, 1] == 0.0

    @given(seeds, dims, st.sampled_from([0.25, 0.5, 1.5]), st.sampled_from([0.5, 2.0]))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, seed, dim, a, b):
        rng = np.random.default_rng(seed)
        m = random_psd(dim, rng)
        left = psd_power(psd_power(m, a), b)
        right = psd_power(m, a * b)
        rel = np.linalg.norm(left - right) / max(np.linalg.norm(right), 1e-30)
        assert rel < 1e-8


class TestPsdDefect:
    @pytest.mark.parametrize("spectrum", [
        [1.0, -0.5], [1.0, -2e-8], [1.0, -1e-9], [1.0, 0.0], [0.0, -1e-15], [0.0, -2e-14],
        [1e-6, -1e-14], [-1.0, -2.0], [2.0],
    ])
    def test_positive_exactly_where_psd_power_raises(self, spectrum):
        m = np.diag(spectrum)
        defect = psd_defect(herm_eig(m).eigenvalues)
        try:
            psd_power(m, 0.5)
            raised = False
        except NegativeEigenvalueError:
            raised = True
        assert (defect > 0) == raised

    def test_floor(self):
        assert psd_defect(np.array([-3e-8, 1.0])) == pytest.approx(2e-8 - 1e-14, rel=1e-9)
        assert psd_defect(np.array([-1e-14, 0.0])) == 0.0
        assert psd_defect(np.array([])) == 0.0


class TestResolutionDefects:
    def test_non_projector(self):
        proj, comp, orth = resolution_defects([np.diag([0.5, 0.0]), np.diag([0.5, 1.0])], 2)
        assert (proj, comp, orth) == pytest.approx((0.25, 0.0, 0.25))

    def test_incomplete(self):
        blocks = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]
        assert resolution_defects(blocks, 3) == (0.0, 1.0, 0.0)

    def test_overlapping(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        proj, comp, orth = resolution_defects([np.diag([1.0, 0.0]), plus], 2)
        assert proj < 1e-15
        assert orth == pytest.approx(0.5)

    @given(seeds, dims, st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_haar_pvm_is_a_resolution(self, seed, dim, parts):
        blocks = haar_pvm(dim, parts, np.random.default_rng(seed))
        assert max(resolution_defects(blocks, dim)) <= 1e-12
        check_resolution(blocks, dim)

    def test_check_resolution_raises_above_validation_tol(self):
        blocks = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 1e-5])]
        with pytest.raises(NotAResolutionError, match="completeness 1.000e-05"):
            check_resolution(blocks, 2)


class TestSchatten:
    def test_identity(self):
        for eps in EPS_GRID:
            val = schatten(np.eye(5), eps)
            assert val.bracket == pytest.approx(5.0, rel=1e-12)
            assert val.norm == pytest.approx(5.0 ** (1.0 / (1.0 + eps)), rel=1e-12)

    def test_rank_one_projector(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2)
        p = np.outer(v, v.conj())
        for eps in EPS_GRID:
            val = schatten(p, eps)
            assert val.bracket == pytest.approx(1.0, abs=1e-12)
            assert val.norm == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_eps_one(self):
        val = schatten(np.diag([3.0, 4.0]), 1.0)
        assert val.bracket == pytest.approx(25.0, rel=1e-12)
        assert val.norm == pytest.approx(5.0, rel=1e-12)

    def test_trace_norm_at_zero(self):
        assert bracket(np.diag([3.0, -4.0]), 0.0) == pytest.approx(7.0, rel=1e-12)

    @given(seeds, dims, eps_values)
    @settings(max_examples=40, deadline=None)
    def test_norm_bracket_relation(self, seed, dim, eps):
        rng = np.random.default_rng(seed)
        val = schatten(ginibre((dim, dim), rng), eps)
        assert val.norm ** (1.0 + eps) == pytest.approx(val.bracket, rel=1e-10)

    @given(seeds, dims, eps_values)
    @settings(max_examples=40, deadline=None)
    def test_unitary_invariance(self, seed, dim, eps):
        rng = np.random.default_rng(seed)
        z = ginibre((dim, dim), rng)
        u = haar_unitary(dim, rng)
        v = haar_unitary(dim, rng)
        assert snorm(u @ z @ v, eps) == pytest.approx(snorm(z, eps), rel=1e-9)

    @given(seeds, dims, eps_values)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed, dim, eps):
        rng = np.random.default_rng(seed)
        x = ginibre((dim, dim), rng)
        y = ginibre((dim, dim), rng)
        assert snorm(x + y, eps) <= snorm(x, eps) + snorm(y, eps) + 1e-10

    @given(seeds, dims, eps_values)
    @settings(max_examples=40, deadline=None)
    def test_superadditivity_psd(self, seed, dim, eps):
        rng = np.random.default_rng(seed)
        x = random_psd(dim, rng)
        y = random_psd(dim, rng)
        assert bracket(x, eps) + bracket(y, eps) <= bracket(x + y, eps) * (1 + 1e-10) + 1e-10


class TestPinch:
    def blocks_computational(self, dim):
        out = []
        for i in range(dim):
            p = np.zeros((dim, dim), dtype=complex)
            p[i, i] = 1.0
            out.append(p)
        return out

    def test_diagonal_fixed_point(self):
        a = np.diag([1.0, 2.0, 3.0])
        assert np.allclose(pinch(a, self.blocks_computational(3)), a)

    def test_off_diagonal_killed(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(pinch(a, self.blocks_computational(2)), np.diag([0.5, 0.5]))

    def test_single_block(self):
        rng = np.random.default_rng(5)
        a = ginibre((3, 3), rng)
        assert np.allclose(pinch(a, [np.eye(3)]), a)

    def test_bad_resolution_rejected(self):
        with pytest.raises(NotAResolutionError):
            pinch(np.eye(2), [np.diag([1.0, 0.0])])
        with pytest.raises(NotAResolutionError):
            pinch(np.eye(2), [np.diag([1.0, 0.0]), np.eye(2)])

    @given(seeds, dims, eps_values)
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_psd(self, seed, dim, eps):
        rng = np.random.default_rng(seed)
        a = random_psd(dim, rng)
        u = haar_unitary(dim, rng)
        blocks = [u @ p @ u.conj().T for p in self.blocks_computational(dim)]
        assert bracket(pinch(a, blocks), eps) <= bracket(a, eps) + 1e-9


class TestTensor:
    def test_identities(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(
            tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
        )

    def test_trivial_factor(self):
        rng = np.random.default_rng(11)
        a = ginibre((3, 3), rng)
        assert np.allclose(tensor(a, np.eye(1)), a)


@pytest.mark.parametrize(
    "dim, parts, ranks",
    [(5, 2, [3, 2]), (3, 3, [1, 1, 1]), (4, 8, [1] * 4 + [0] * 4), (4, [1], [1, 3]), (4, [3], [3, 1])],
)
def test_haar_pvm(dim, parts, ranks):
    pvm = haar_pvm(dim, parts, np.random.default_rng(17))
    assert [round(float(np.trace(p).real)) for p in pvm] == ranks
    for j, p in enumerate(pvm):
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        for other in pvm[j + 1 :]:
            assert np.max(np.abs(p @ other)) < 1e-12
    assert np.max(np.abs(sum(pvm) - np.eye(dim))) < 1e-12


def test_matrix_pairs_roundtrip():
    rng = np.random.default_rng(2)
    m = ginibre((3, 3), rng)
    assert np.allclose(matrix_from_pairs(matrix_to_pairs(m)), m)
