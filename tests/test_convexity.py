import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randx.convexity import (
    MARGIN_TOL,
    SUITE_CHUNK,
    SUITE_DIMS,
    SUITE_EPS_GRID,
    SUITES,
    ConvexityError,
    check_binary_disturbance,
    check_chain_disturbance,
    check_uniform_convexity,
    run_suite,
)
from randx.matcore import MatcoreError, ginibre, haar_pvm, random_psd
from tests.dense import snorm

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([2, 3, 4, 6, 8])
eps_values = st.sampled_from([0.01, 0.1, 0.5, 1.0])


class TestUniformConvexity:
    def test_equal_inputs_margin_zero(self):
        w = np.diag([1.0, 0.0])
        chk = check_uniform_convexity(w, w, 0.5)
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)
        assert chk.holds

    def test_orthogonal_diagonal_hand_values(self):
        w = np.diag([1.0, 0.0])
        z = np.diag([0.0, 1.0])
        chk = check_uniform_convexity(w, z, 1.0)
        assert chk.lhs == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert chk.rhs == pytest.approx(0.75, abs=1e-12)
        assert chk.holds

    def test_inputs_scaled_to_unit_norm_and_zero_rejected(self):
        w, z = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert check_uniform_convexity(3 * w, z / 2, 1.0) == check_uniform_convexity(w, z, 1.0)
        with pytest.raises(ConvexityError, match="Z is zero"):
            check_uniform_convexity(w, 0 * z, 0.5)
        with pytest.raises(ConvexityError, match="tau is zero"):
            check_binary_disturbance(np.zeros((2, 2)), w, 0.5)

    @given(seeds, dims, eps_values)
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_hold(self, seed, dim, eps):
        rng = np.random.default_rng(seed)
        chk = check_uniform_convexity(ginibre((dim, dim), rng), ginibre((dim, dim), rng), eps)
        assert chk.holds


class TestBinaryDisturbance:
    def test_plus_state_hand_values(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        r0 = np.diag([1.0, 0.0])
        chk = check_binary_disturbance(plus, r0, 1.0)
        assert chk.lhs == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert chk.rhs == pytest.approx(0.75, abs=1e-12)
        assert chk.holds

    def test_diagonal_state_undisturbed(self):
        tau = np.diag([0.8, 0.6]) / snorm(np.diag([0.8, 0.6]), 0.3)
        chk = check_binary_disturbance(tau, np.diag([1.0, 0.0]), 0.3)
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)

    def test_not_projector_rejected(self):
        with pytest.raises(ConvexityError, match="R0 is not a projector"):
            check_binary_disturbance(np.eye(2) / 2, np.diag([0.5, 0.0]), 0.5)

    @given(seeds, dims, eps_values)
    @settings(max_examples=60, deadline=None)
    def test_random_instances_hold(self, seed, dim, eps):
        rng = np.random.default_rng(seed)
        tau = random_psd(dim, rng)
        blocks = haar_pvm(dim, 2, rng)
        chk = check_binary_disturbance(tau, blocks[0], eps)
        assert chk.holds


class TestChainDisturbance:
    def test_two_blocks_reduce_to_binary(self):
        rng = np.random.default_rng(12)
        tau = random_psd(4, rng)
        blocks = haar_pvm(4, 2, rng)
        final, chain = check_chain_disturbance(tau, blocks, 0.4)
        binary = check_binary_disturbance(tau, blocks[0], 0.4)
        assert len(chain) == 1
        assert final.lhs == pytest.approx(binary.lhs, abs=1e-12)
        assert final.rhs == pytest.approx(binary.rhs, abs=1e-12)

    def test_uniform_superposition_hand_values(self):
        v = np.ones(3) / math.sqrt(3.0)
        tau = np.outer(v, v)  # rank-1 projector: unit Schatten norm for all eps
        blocks = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        final, chain = check_chain_disturbance(tau, blocks, 1.0)
        assert final.lhs == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert final.holds
        assert len(chain) == 2
        assert all(c.holds for c in chain)

    def test_bad_resolution_rejected(self):
        with pytest.raises(MatcoreError, match="not an orthogonal resolution of the identity"):
            check_chain_disturbance(np.eye(2) / 2, [np.diag([1.0, 0.0])], 0.5)

    @given(seeds, st.sampled_from([3, 4, 6, 8]), eps_values, st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_random_chains_hold(self, seed, dim, eps, n_blocks):
        rng = np.random.default_rng(seed)
        n_blocks = min(n_blocks, dim)
        tau = random_psd(dim, rng)
        blocks = haar_pvm(dim, n_blocks, rng)
        final, chain = check_chain_disturbance(tau, blocks, eps)
        assert final.holds
        assert all(c.holds for c in chain)


def test_run_suite_summary():
    result = run_suite("uniform-convexity", trials=200, seed=5)
    assert len(result.rows) == 200
    assert result.violations == 0
    assert result.min_margin >= MARGIN_TOL


def test_run_suite_deterministic():
    a = run_suite("chain-disturbance", trials=50, seed=9)
    b = run_suite("chain-disturbance", trials=50, seed=9)
    assert [(r.lhs, r.rhs) for r in a.rows] == [(r.lhs, r.rhs) for r in b.rows]


def test_run_suite_rejects_fewer_than_one_trial():
    for trials in (0, -3):
        with pytest.raises(ConvexityError, match="trials must be at least 1"):
            run_suite("uniform-convexity", trials=trials, seed=1)


def test_run_suite_rejects_a_negative_seed():
    with pytest.raises(ConvexityError, match="seed must be a non-negative integer, got seed -2"):
        run_suite("chain-disturbance", trials=5, seed=-2)


# Trial-by-trial reference for run_suite: one np.linalg.svd per matrix, with
# the draws and the arithmetic of a per-trial evaluation written out here.


def _ref_norm(m, eps):
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.sum(s ** (1.0 + eps))) ** (1.0 / (1.0 + eps))


def _ref_normalized(m, eps):
    n = _ref_norm(m, eps)
    return m if abs(n - 1.0) <= 1e-9 else m / n


def _ref_ginibre(dim, rng):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _ref_pvm(dim, parts, rng):
    q, r = np.linalg.qr(_ref_ginibre(dim, rng))
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    return [c @ np.conj(c.T) for c in np.array_split(u, parts, axis=1)]


def _ref_row(suite, seed, trial):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    dim = int(SUITE_DIMS[int(rng.integers(len(SUITE_DIMS)))])
    eps = float(SUITE_EPS_GRID[int(rng.integers(len(SUITE_EPS_GRID)))])
    if suite == "uniform-convexity":
        w = _ref_normalized(_ref_ginibre(dim, rng), eps)
        z = _ref_normalized(_ref_ginibre(dim, rng), eps)
        lhs = _ref_norm((w + z) / 2.0, eps)
        rhs = 1.0 - (eps / 8.0) * _ref_norm(w - z, eps) ** 2
        return dim, eps, lhs, rhs
    if suite == "binary-disturbance":
        rank = int(rng.integers(1, dim))
        g = _ref_ginibre(dim, rng)
        t = _ref_normalized(np.conj(g.T) @ g, eps)
        p0 = _ref_pvm(dim, [rank], rng)[0]
        p1 = np.eye(dim, dtype=np.complex128) - p0
        pinched = p0 @ t @ p0 + p1 @ t @ p1
        rhs = 1.0 - (eps / 2.0) * _ref_norm(t - pinched, eps) ** 2
        return dim, eps, _ref_norm(pinched, eps), rhs
    n_blocks = int(rng.integers(2, min(5, dim) + 1))
    g = _ref_ginibre(dim, rng)
    t = _ref_normalized(np.conj(g.T) @ g, eps)
    blocks = _ref_pvm(dim, n_blocks, rng)
    n = n_blocks - 1
    states = [t]
    for i in range(1, n + 1):
        head = np.zeros_like(t)
        for k in range(i):
            head += blocks[k] @ t @ blocks[k]
        tail = np.zeros_like(t)
        for k in range(i, n + 1):
            tail += blocks[k]
        states.append(head + tail @ t @ tail)
    rhs = 1.0
    for i in range(1, n + 1):
        rhs *= 1.0 - (eps / 2.0) * _ref_norm(states[i] - states[i - 1], eps) ** 2
    return dim, eps, _ref_norm(states[n], eps), rhs


@pytest.mark.parametrize("suite", SUITES)
def test_run_suite_rows_equal_the_trial_by_trial_reference(suite):
    seed = 20250810
    expected = [_ref_row(suite, seed, k) for k in range(SUITE_CHUNK + 1)]
    for trials in (1, SUITE_CHUNK, SUITE_CHUNK + 1):
        rows = run_suite(suite, trials=trials, seed=seed).rows
        assert [r.trial for r in rows] == list(range(trials))
        assert [(r.dim, r.eps, r.lhs, r.rhs) for r in rows] == expected[:trials]
