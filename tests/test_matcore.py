import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randx import matcore
from randx.matcore import (
    MatcoreError,
    block_psd_brackets,
    block_psd_power,
    block_psd_spectra,
    block_rank_one,
    ginibre,
    haar_pvm,
    haar_unitary,
    matrix_from_pairs,
    matrix_json_parts,
    check_resolution,
    psd_defect,
    random_psd,
    resolution_defects,
    schatten_stack,
    spectral_brackets,
    split_blocks,
    support_blocks,
)
from tests.dense import matrix_to_pairs, psd_bracket, psd_power, schatten, snorm

EPS_GRID = (0.01, 0.1, 0.5, 1.0)

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([2, 3, 4, 6])
eps_values = st.sampled_from(EPS_GRID)


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
        with pytest.raises(MatcoreError, match="matrix is not PSD"):
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
        defect = psd_defect(np.linalg.eigvalsh(m))
        try:
            psd_power(m, 0.5)
            raised = False
        except MatcoreError as exc:
            assert str(exc).startswith("matrix is not PSD")
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
        with pytest.raises(MatcoreError, match="completeness 1.000e-05"):
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
        assert schatten(np.diag([3.0, -4.0]), 0.0).bracket == pytest.approx(7.0, rel=1e-12)

    @given(seeds, dims, st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_one_matrix_at_a_time(self, seed, dim, k):
        rng = np.random.default_rng(seed)
        stack = ginibre((k, dim, dim), rng)
        eps = [EPS_GRID[int(i)] for i in rng.integers(len(EPS_GRID), size=k)]
        singles = [schatten(m, e) for m, e in zip(stack, eps)]
        assert schatten_stack(stack, eps) == (
            [v.bracket for v in singles],
            [v.norm for v in singles],
        )
        brackets, norms = schatten_stack(stack, 0.5)
        assert norms == [snorm(m, 0.5) for m in stack]
        assert brackets == [schatten(m, 0.5).bracket for m in stack]

    def test_stack_rejects_what_schatten_rejects(self):
        stack = np.stack([np.eye(2), np.eye(2)])
        for eps in (-0.1, 1.5, math.nan):
            with pytest.raises(MatcoreError, match="eps must lie in"):
                schatten(stack[0], eps)
            with pytest.raises(MatcoreError, match="eps must lie in"):
                schatten_stack(stack, eps)
            with pytest.raises(MatcoreError, match="eps must lie in"):
                schatten_stack(stack, [0.5, eps])
        bad = stack.copy()
        bad[1, 0, 0] = np.inf
        with pytest.raises(MatcoreError, match="matrix has non-finite entries"):
            schatten(bad[1], 0.5)
        with pytest.raises(MatcoreError, match="matrix has non-finite entries"):
            schatten_stack(bad, 0.5)

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
        assert schatten(x, eps).bracket + schatten(y, eps).bracket <= (
            schatten(x + y, eps).bracket * (1 + 1e-10) + 1e-10
        )


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


def test_matrix_json_parts_are_json_dumps_in_short_strings():
    # A witness is joined once from these parts.  A string per matrix (about
    # 27 kB at d = 16) lives on the C heap, and releasing megabytes of them
    # made the process's peak memory depend on the heap's layout.
    m = ginibre((16, 16), np.random.default_rng(4))
    parts = matrix_json_parts(m, "  ", "  ")  # on the line '  "m": ' at indent 2
    text = json.dumps({"m": matrix_to_pairs(m)}, indent=2)
    assert text == '{\n  "m": ' + "".join(parts) + "\n}"
    assert len(parts) == 4 * 16 * 16 + 1
    assert max(map(len, parts)) <= 64
    assert matrix_json_parts(np.zeros((0, 0)), "  ", "  ") == ["[]"]


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for b in blocks:
        out[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return out


class TestSupportBlocks:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_recovers_permuted_block_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [1, 1, 2, 3, 3, 4]
        m = block_diagonal([ginibre((s, s), rng) for s in sizes])
        perm = rng.permutation(m.shape[0])
        blocks = support_blocks([m[np.ix_(perm, perm)]], m.shape[0])
        # position i of the permuted matrix holds index perm[i] of the original
        found = {frozenset(perm[row].tolist()) for idx in blocks for row in idx}
        starts = np.cumsum([0] + sizes)
        assert found == {frozenset(range(a, b)) for a, b in zip(starts, starts[1:])}
        assert [idx.shape for idx in blocks] == [(2, 1), (1, 2), (2, 3), (1, 4)]
        for idx in blocks:
            assert np.all(np.diff(idx, axis=1) > 0)
            assert np.all(np.diff(idx[:, 0]) > 0)
            assert not idx.flags.writeable

    def test_one_off_block_entry_merges_two_blocks(self):
        m = block_diagonal([np.ones((2, 2)), np.ones((2, 2))])
        assert [idx.shape for idx in support_blocks([m], 4)] == [(2, 2)]
        off = np.zeros((4, 4))
        off[3, 0] = 1e-300
        assert [idx.shape for idx in support_blocks([m, off], 4)] == [(1, 4)]

    def test_no_tolerance(self):
        assert [idx.shape for idx in support_blocks([np.diag([1.0, 0.0]) + 5e-324], 2)] == [(1, 2)]
        assert [idx.shape for idx in support_blocks([np.zeros((3, 3))], 3)] == [(3, 1)]

    def test_wrong_shape_raises_matcore_error(self):
        with pytest.raises(MatcoreError, match="3 x 3"):
            support_blocks([np.eye(3), np.eye(2)], 3)
        with pytest.raises(MatcoreError):
            support_blocks([np.ones(3)], 3)


class TestBlockKernels:
    def test_psd_kernels_are_the_one_block_case(self):
        rng = np.random.default_rng(5)
        m = random_psd(5, rng)
        spectra = block_psd_spectra([m[None, None]])
        vals = np.linalg.eigh((m + m.conj().T) / 2)[0]
        assert [v.shape for v in spectra] == [(1, 5)]
        assert np.array_equal(spectra[0][0], np.clip(vals, 0.0, None))
        assert psd_bracket(m, 0.3) == float(spectral_brackets(spectra, 0.3)[0])
        assert np.array_equal(psd_power(m, -0.5), block_psd_power([m[None]], -0.5)[0][0])

    def test_spectra_kept_once_bracket_every_eps(self):
        # L = 3 matrices, each of two 1-blocks and one 2-block: their kept
        # spectra, powered at each eps, are the one-call brackets bit for bit
        rng = np.random.default_rng(8)
        stacks = [np.stack([np.stack([random_psd(s, rng) for _ in range(k)]) for _ in range(3)])
                  for k, s in ((2, 1), (1, 2))]
        stacks[0][1, 0] = -1e-17  # a roundoff-negative eigenvalue, clipped to 0
        spectra = block_psd_spectra(stacks)
        assert [v.shape for v in spectra] == [(3, 2), (3, 2)]
        assert all(v.flags.c_contiguous and v.min() >= 0.0 for v in spectra)
        assert spectra[0][1, 0] == 0.0
        for eps in (0.0, *EPS_GRID):
            want = block_psd_brackets(stacks, eps)
            assert np.array_equal(spectral_brackets(spectra, eps), want)
            for ell in range(3):
                dense = block_diagonal([*stacks[0][ell], *stacks[1][ell]])
                assert want[ell] == pytest.approx(psd_bracket(dense, eps), rel=1e-12)

    @given(seed=seeds, eps=eps_values)
    @settings(max_examples=20, deadline=None)
    def test_block_bracket_and_power_match_dense(self, seed, eps):
        rng = np.random.default_rng(seed)
        m = block_diagonal([random_psd(s, rng) for s in (1, 2, 1, 2, 3)])
        perm = rng.permutation(m.shape[0])
        m = m[np.ix_(perm, perm)]
        blocks = support_blocks([m], m.shape[0])
        stacks = split_blocks(m, blocks)
        blocked = float(block_psd_brackets([b[None] for b in stacks], eps)[0])
        assert blocked == pytest.approx(psd_bracket(m, eps), rel=1e-12)
        # The dense eigh perturbs every block by about ulp * top, top being the
        # largest eigenvalue of m, and x^(-1/2) amplifies that by about
        # lam^(-3/2) at a block's least eigenvalue lam.  So the two routes may
        # differ by ulp * cond * lam^(-1/2) with cond = top / lam; the bound
        # allows 4 * dim times that (seeds 0-19999 reach at most 10.1 times).
        ulp = np.finfo(np.float64).eps
        spectra = [np.linalg.eigvalsh(stack) for stack in stacks]
        top = max(spectrum.max() for spectrum in spectra)
        dense = psd_power(m, -0.5)
        for idx, spectrum, powered in zip(blocks, spectra, block_psd_power(stacks, -0.5)):
            lam = spectrum[:, :1, None]
            bound = 4 * m.shape[0] * ulp * (top / lam) * lam ** -0.5
            assert np.all(np.abs(powered - split_blocks(dense, [idx])[0]) <= bound)

    @pytest.mark.parametrize("p", [0.5, -0.5])
    def test_rank_cutoff_reads_the_global_top(self, p):
        # block B lies below 1e-12 x the global top but far above 1e-12 x its own top
        rng = np.random.default_rng(3)
        a, b = haar_unitary(2, rng), haar_unitary(2, rng)
        big = a @ np.diag([1.0, 0.5]) @ a.conj().T
        tiny = b @ np.diag([3e-13, 2e-13]) @ b.conj().T
        m = block_diagonal([big, tiny])
        blocks = support_blocks([m], 4)
        assert [idx.tolist() for idx in blocks] == [[[0, 1], [2, 3]]]
        stacked = block_psd_power(split_blocks(m, blocks), p)[0]
        dense = psd_power(m, p)
        assert np.all(stacked[1] == 0)
        assert np.max(np.abs(dense[2:, 2:])) < 1e-15
        assert np.allclose(stacked[0], dense[:2, :2], rtol=0, atol=1e-12)
        # the tiny block alone keeps its support
        assert np.max(np.abs(block_psd_power([tiny[None]], p)[0])) > 1e-7

    def test_psd_floor_reads_the_global_spectrum(self):
        # -1e-9 fails the floor of its own block (top 1e-9) but not the global one (top 1)
        m = np.diag([1.0, 1e-9, -1e-9]).astype(np.complex128)
        stacks = [m[None, :1, :1], m[None, 1:, 1:]]
        block_psd_power(stacks, 0.5)
        psd_power(m, 0.5)
        with pytest.raises(MatcoreError, match="matrix is not PSD"):
            block_psd_power(stacks[1:], 0.5)

    def test_rank_one_vectors_span_each_matrix_or_none(self):
        # L = 4 matrices on a 1-block and a 2-block: rank 1 in either block,
        # or 0; a fifth with rank 1 in each block has rank 2 over its blocks
        rng = np.random.default_rng(4)
        u = haar_unitary(2, rng)
        one, two = np.zeros((5, 1, 1, 1), complex), np.zeros((5, 1, 2, 2), complex)
        one[0] = one[4] = 1.0
        two[1] = two[4] = np.outer(u[:, 0], u[:, 0].conj())
        two[2] = np.outer(u[:, 1], u[:, 1].conj())
        vectors = block_rank_one([one[:4], two[:4]])
        assert [v.shape for v in vectors] == [(4, 1, 1), (4, 1, 2)]
        for ell in range(4):
            v = np.concatenate([vectors[0][ell, 0], vectors[1][ell, 0]])
            dense = block_diagonal([one[ell, 0], two[ell, 0]])
            assert np.allclose(np.outer(v, v.conj()), dense, rtol=0, atol=1e-15)
            assert np.linalg.norm(v) == pytest.approx(float(ell < 3), abs=1e-15)
        assert block_rank_one([one, two]) is None
        assert block_rank_one([np.eye(2, dtype=complex)[None, None]]) is None

    def test_inputs_are_checked(self):
        with pytest.raises(MatcoreError, match="matrix has non-finite entries"):
            block_psd_spectra([np.full((1, 2, 1, 1), np.nan)])
        with pytest.raises(MatcoreError, match="matrix is not Hermitian"):
            block_psd_spectra([np.array([[[[0.0, 1.0], [0.0, 0.0]]]])])
        with pytest.raises(MatcoreError, match=r"expected \(L, k, s, s\) stacks"):
            block_psd_spectra([np.eye(2)[None]])
        with pytest.raises(MatcoreError):
            block_psd_power([np.eye(2)], 0.5)
