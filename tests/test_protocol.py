import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randx import catalog, protocol
from randx.devicemodel import components_device, make_device, validate_device
from randx.gamedefs import GameError, nonlocal_game
from randx.matcore import block_psd_power, dagger, ginibre, haar_pvm, haar_unitary, random_psd
from randx.protocol import (
    GuardError,
    ProtocolError,
    ProtocolParams,
    _branches,
    _branch_brackets,
    _round_plan,
    _traces,
    binomial_tail,
    entropy_lower_bound,
    enumerate_success_state,
    extractable_bits,
    hmin_classical_adversary,
    simulate,
    simulate_outcomes,
)
from randx.scoring import quadratic_rate_curve
from tests import dense
from tests.dense import psd_bracket, psd_power

CHSH_W = 0.5 + math.sqrt(2.0) / 4.0


def chsh_setup():
    entry = catalog.chsh()
    return entry.game, entry.devices["optimal"], entry.devices["classical"]


def magic_square_combined():
    entry = catalog.magic_square()
    return entry.game, entry.devices["combined"]


def toy_setup():
    """One-player qutrit game with scores 0, 0.5 and 1, and a rank-2 state.

    The scores give non-unit lattice units; the rank-2 state gives branches
    with zero born probability and zero bracket.
    """
    scores = {}
    for a, row in {(0,): (0.0, 0.5, 1.0), (1,): (1.0, 0.0, 0.5)}.items():
        for x, h in enumerate(row):
            scores[(a, (x,))] = h
    game = nonlocal_game(
        "toy",
        player_inputs=[(0, 1)],
        player_outputs=[(0, 1, 2)],
        distribution={(0,): 0.5, (1,): 0.5},
        scores=scores,
        distinguished_input=(0,),
    )
    rng = np.random.default_rng(7)
    m = ginibre((2, 2), rng)
    state = np.zeros((3, 3), dtype=complex)
    state[:2, :2] = m @ m.conj().T / np.trace(m @ m.conj().T).real
    u = haar_unitary(3, rng)
    eye = np.eye(3, dtype=complex)
    measurements = {
        (0,): {(x,): np.outer(eye[x], eye[x]) for x in range(3)},
        (1,): {(x,): np.outer(u[:, x], u[:, x].conj()) for x in range(3)},
    }
    return game, make_device("general", (3,), state, measurements, name="toy")


def tree_reference(g, d, n, q, chi, eps):
    """Leaf-by-leaf expansion of every fresh-state sequence: (mass, ksum, branches).

    Each branch's Born weight is read from the round plan and its bracket
    is taken densely.  A round's branch is zero, and dropped, when its born
    probability is at most ``PRUNE_FLOOR`` times tr phi; ``branches`` counts
    the success leaves.
    """
    plan = _round_plan(g, d)
    sandwich = psd_power(d.state, 1.0 / (2.0 + 2.0 * eps))
    branches = []  # (p_i, born, bracket, score) of every branch of one round
    for p_i, i, test in protocol._supported_inputs(plan, q):
        projectors = d.measurements[g.input_alphabet[i]].values()
        for j, proj in zip(plan.outputs[i], projectors, strict=True):
            w = psd_bracket(sandwich @ proj @ sandwich, eps)
            h = float(plan.scores[i, j]) if test else 0.0
            branches.append((p_i, float(plan.born[i, j]), w, h))
    floor = protocol.PRUNE_FLOOR * float(np.trace(d.state).real)
    leaves = [(1.0, 1.0, 1.0, 0.0)]  # (p_q product, born product, bracket product, score)
    for _ in range(n):
        leaves = [
            (pq * p_i, born * b_born, w * b_w, score + b_h)
            for pq, born, w, score in leaves
            for p_i, b_born, b_w, b_h in branches if b_born > floor
        ]
    won = [leaf for leaf in leaves if leaf[3] >= chi * q * n]
    mass = sum(pq * born for pq, born, _w, _s in won)
    ksum = sum(pq * w for pq, _born, w, _s in won)
    return mass, ksum, len(won)


def fresh_leaf_reference(g, d, n, q, chi, eps):
    """Leaf-by-leaf sum over every fresh-state sequence from the dense
    projectors alone: (mass, K, branches).

    A round's branch weighs tr(P phi) and brackets psd_bracket(s P s, eps),
    s = phi^(1/(2+2eps)), both taken densely, with its row's weight p_q; it
    is dropped when its weight is at most ``PRUNE_FLOOR`` tr phi.  A leaf
    wins when its exact score, a sum of Fractions, meets the float chi*q*N.
    """
    sandwich = psd_power(d.state, 1.0 / (2.0 + 2.0 * eps))
    floor = protocol.PRUNE_FLOOR * float(np.trace(d.state).real)
    rows = [(1.0 - q, g.distinguished_input, False),
            *((q * g.prob(a), a, True) for a in g.input_alphabet)]
    branches = []  # (p_q born, p_q bracket, score) of every branch of one round
    for p_i, a, test in rows:
        for x in g.output_alphabet if p_i > 0.0 else ():
            proj = dense.projector(d, a, x)
            born = float(np.trace(proj @ d.state).real)
            if born > floor:
                branches.append((p_i * born, p_i * psd_bracket(sandwich @ proj @ sandwich, eps),
                                 Fraction(g.score(a, x) if test else 0.0)))
    leaves = [(1.0, 1.0, Fraction(0))]
    for _ in range(n):
        leaves = [(m * bm, w * bw, s + bs) for m, w, s in leaves for bm, bw, bs in branches]
    threshold = Fraction(ProtocolParams(n, q, chi).threshold)
    won = [leaf for leaf in leaves if leaf[2] >= threshold]
    ksum = math.fsum(w for _, w, _ in won)
    k = -(1.0 / eps) * math.log2(ksum) if ksum > 0.0 else math.inf
    return math.fsum(m for m, _, _ in won), k, len(won)


def two_block_setup():
    """The toy game on a qutrit + qubit direct sum with a unitary per input.

    Every matrix is block diagonal on {0, 1, 2} and {3, 4}, and the
    projector of output 2 is zero on the qubit block.
    """
    game, _ = toy_setup()
    rng = np.random.default_rng(11)
    a, b = ginibre((3, 3), rng), ginibre((2, 2), rng)
    state = np.zeros((5, 5), dtype=complex)
    state[:3, :3] = 0.6 * a @ a.conj().T / np.trace(a @ a.conj().T).real
    state[3:, 3:] = 0.4 * b @ b.conj().T / np.trace(b @ b.conj().T).real
    measurements, unitaries = {}, {}
    for letter in game.input_alphabet:
        u3, u2 = haar_unitary(3, rng), haar_unitary(2, rng)
        outs = {}
        for x in range(3):
            p = np.zeros((5, 5), dtype=complex)
            p[:3, :3] = np.outer(u3[:, x], u3[:, x].conj())
            if x < 2:
                p[3:, 3:] = np.outer(u2[:, x], u2[:, x].conj())
            outs[(x,)] = p
        measurements[letter] = outs
        w = np.zeros((5, 5), dtype=complex)
        w[:3, :3], w[3:, 3:] = haar_unitary(3, rng), haar_unitary(2, rng)
        unitaries[letter] = w
    return game, make_device("general", (5,), state, measurements, unitaries, name="two-block")


def memory_tree_reference(g, d, n, q, chi, eps):
    """Leaf-by-leaf dense expansion of the --memory tree: (mass, ksum, branches).

    Each node is one dense branch operator m with its Born weight
    tr(m phi m†), on a last-in first-out stack.  A child whose weight is at
    most ``PRUNE_FLOOR`` times its parent's is dropped at every depth; the sums
    add the success leaves in the order they are popped, and ``branches``
    counts them.
    """
    plan = _round_plan(g, d)
    rows = list(protocol._supported_inputs(plan, q))
    threshold = chi * q * n
    sandwich = psd_power(d.state, 1.0 / (2.0 + 2.0 * eps))
    n_out = len(g.output_alphabet)
    mass = ksum = 0.0
    branches = 0
    stack = [(0, 1.0, np.eye(d.dim, dtype=np.complex128), float(np.trace(d.state).real), 0)]
    while stack:
        depth, pq, m, born, score = stack.pop()
        if depth == n:
            if not protocol._meets_threshold(score, plan.den, threshold):
                continue
            w = psd_bracket(sandwich @ dagger(m) @ m @ sandwich, eps)
            mass += pq * born
            ksum += pq * w
            branches += 1
            continue
        for p_i, i, test in rows:
            a = g.input_alphabet[i]
            uni = dense.unitary(d, a)
            for j, proj in zip(plan.outputs[i], d.measurements[a].values()):
                nm = uni @ proj @ m
                weight = float(np.trace(nm @ d.state @ dagger(nm)).real)
                if weight <= protocol.PRUNE_FLOOR * born:
                    continue
                h = plan.units[i * n_out + j] if test else 0
                stack.append((depth + 1, pq * p_i, nm, weight, score + h))
    return mass, ksum, branches


def memory_state_mass(g, d, n, q, chi):
    """--memory mass by a route independent of the tree: a DP over score classes.

    Class s carries the summed unnormalised state sum pq m phi m† over the
    sequences of score s, densely; one round maps it through each child's
    U_a P_a^x into class s + units.  The mass is the summed trace of the
    winning classes.  No branch is dropped.
    """
    plan = _round_plan(g, d)
    n_out = len(g.output_alphabet)
    children = []  # (pq, units, U_a P_a^x)
    for p_i, i, test in protocol._supported_inputs(plan, q):
        a = g.input_alphabet[i]
        for j, proj in zip(plan.outputs[i], d.measurements[a].values()):
            children.append((p_i, plan.units[i * n_out + j] if test else 0, dense.unitary(d, a) @ proj))
    classes = {0: d.state}
    for _ in range(n):
        nxt = {}
        for s, rho in classes.items():
            for p_i, units, op in children:
                term = p_i * (op @ rho @ dagger(op))
                nxt[s + units] = nxt[s + units] + term if s + units in nxt else term
        classes = nxt
    threshold = chi * q * n
    return math.fsum(
        float(np.trace(rho).real)
        for s, rho in classes.items() if protocol._meets_threshold(s, plan.den, threshold)
    )


def memory_reference_summary(g, d, n, q, chi, eps):
    """(mass, renyi_randomness, branches) of ``memory_tree_reference``."""
    mass, ksum, branches = memory_tree_reference(g, d, n, q, chi, eps)
    return mass, -(1.0 / eps) * math.log2(ksum) if ksum > 0.0 else math.inf, branches


def memory_transcript_reference(g, d, params):
    """(output indices, c, success) of a --memory run, stepped by the dense
    loop: one dim x dim state update per round."""
    plan = _round_plan(g, d)
    n = params.n_rounds
    u = np.random.Generator(np.random.Philox(key=params.seed)).random(3 * n).reshape(n, 3)
    test = np.flatnonzero(u[:, 0] < params.q)
    a_idx = np.full(n, plan.abar, dtype=np.int64)
    a_idx[test] = protocol._draw(plan.input_cdf, u[test, 1])
    state = d.state.copy()
    x_idx = np.zeros(n, dtype=np.int64)
    for j in range(n):
        a = g.input_alphabet[a_idx[j]]
        tr = float(np.trace(state).real)
        born = [float(np.einsum("ij,ji->", p, state).real) for p in d.measurements[a].values()]
        born = [p if p > protocol.PRUNE_FLOOR * tr else 0.0 for p in born]  # the zero rule
        cdf = np.cumsum([p / tr for p in born])
        cdf[-1] = max(cdf[-1], 1.0)
        x_idx[j] = plan.outputs[a_idx[j]][protocol._draw(cdf, u[j, 2])]
        proj = d.measurements[a][g.output_alphabet[x_idx[j]]]
        uni = dense.unitary(d, a)
        state = uni @ proj @ state @ proj @ dagger(uni)
        tr = float(np.trace(state).real)
        if tr > 0:
            state = state / tr
    cells = a_idx[test] * len(g.output_alphabet) + x_idx[test]
    counts = np.bincount(cells, minlength=len(plan.units)).tolist()
    units = sum(k * h for k, h in zip(counts, plan.units))  # exact: Python ints
    return x_idx, units / plan.den, protocol._meets_threshold(units, plan.den, params.threshold)


def memory_summary(g, d, n, q, chi, eps, branch_cap=protocol.BRANCH_CAP):
    s = enumerate_success_state(g, d, n, q=q, chi=chi, eps=eps, fresh_state=False,
                                branch_cap=branch_cap)
    return s.mass, s.renyi_randomness, s.branches


def memory_tree_summary(g, d, n, q, chi, eps):
    """``memory_summary`` with the batched tree as the --memory sums,
    whatever the rank of the device's projectors."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_memory_sums", protocol._memory_tree)
        return memory_summary(g, d, n, q, chi, eps)


class TestParams:
    def test_threshold(self):
        p = ProtocolParams(n_rounds=100, q=0.05, chi=0.84, seed=1)
        assert p.threshold == pytest.approx(0.84 * 0.05 * 100)

    def test_ranges(self):
        with pytest.raises(ProtocolError):
            ProtocolParams(n_rounds=0, q=0.5, chi=0.5)
        with pytest.raises(ProtocolError):
            ProtocolParams(n_rounds=1, q=0.0, chi=0.5)
        # chi has the one domain of enumeration and the rate-curve pipeline
        for chi in (-0.5, math.nan, math.inf):
            with pytest.raises(ProtocolError, match="chi must be nonnegative and finite"):
                ProtocolParams(n_rounds=1, q=0.5, chi=chi)
        for chi in (0.0, 1.0, 1.5):
            assert ProtocolParams(n_rounds=4, q=0.5, chi=chi).threshold == chi * 2.0

    def test_a_threshold_that_overflows_is_never_met(self):
        # chi is finite, but chi*q*N overflows to inf: no run and no sequence succeeds
        g, opt, _ = chsh_setup()
        params = ProtocolParams(4, 0.5, 1e308, seed=3)
        assert params.threshold == math.inf
        assert not simulate_outcomes(g, opt, params, 5)[1].any()
        for fresh in (True, False):
            assert not simulate(g, opt, params, fresh_state=fresh).success
            s = enumerate_success_state(g, opt, 4, q=0.5, chi=1e308, eps=0.2, fresh_state=fresh)
            assert (s.mass, s.branches) == (0.0, 0)

    def test_chi_zero_and_chi_above_one(self):
        # at chi 0 every run succeeds; at chi 1.5 a run needs 38 wins in 50 rounds at q 0.5
        g, opt, _ = chsh_setup()
        for chi, won in ((0.0, True), (1.5, False)):
            _, success = simulate_outcomes(g, opt, ProtocolParams(50, 0.5, chi, seed=3), 20)
            assert set(success.tolist()) == {won}


class TestSimulate:
    def test_seeded_reproducibility(self):
        g, opt, _ = chsh_setup()
        params = ProtocolParams(n_rounds=200, q=0.3, chi=0.5, seed=123)
        a = simulate(g, opt, params)
        b = simulate(g, opt, params)
        assert np.array_equal(a.test_flags, b.test_flags)
        assert np.array_equal(a.input_indices, b.input_indices)
        assert np.array_equal(a.output_indices, b.output_indices)
        assert a.c == b.c and a.success == b.success

    def test_different_seeds_differ(self):
        g, opt, _ = chsh_setup()
        a = simulate(g, opt, ProtocolParams(n_rounds=200, q=0.3, chi=0.5, seed=1))
        b = simulate(g, opt, ProtocolParams(n_rounds=200, q=0.3, chi=0.5, seed=2))
        assert not np.array_equal(a.output_indices, b.output_indices)

    def test_all_generation_rounds_abort_on_positive_threshold(self):
        # documented edge: with essentially no test rounds c stays 0, and the
        # run succeeds only if chi*q*N <= 0, which never happens for q > 0
        g, opt, _ = chsh_setup()
        tr = simulate(g, opt, ProtocolParams(n_rounds=100, q=1e-12, chi=0.5, seed=4))
        assert tr.c == 0.0
        assert not tr.success
        assert np.all(tr.test_flags == 0)

    def test_generation_rounds_use_distinguished_input(self):
        g, opt, _ = chsh_setup()
        tr = simulate(g, opt, ProtocolParams(n_rounds=300, q=0.2, chi=0.5, seed=5))
        abar_idx = g.input_alphabet.index(g.distinguished_input)
        gen = tr.input_indices[tr.test_flags == 0]
        assert np.all(gen == abar_idx)

    def test_scores_only_on_test_rounds(self):
        g, opt, _ = chsh_setup()
        tr = simulate(g, opt, ProtocolParams(n_rounds=300, q=0.2, chi=0.5, seed=6))
        assert np.all(tr.scores[tr.test_flags == 0] == 0.0)
        assert tr.c == pytest.approx(float(np.sum(tr.scores)))

    @pytest.mark.parametrize("fresh", [True, False])
    def test_generation_round_scores_are_positive_zero(self, fresh):
        # the toy distinguished input scores -1 on one output; 0 * -1 would be -0.0
        g, d = toy_setup()
        tr = simulate(g, d, ProtocolParams(30, 0.3, 0.1, seed=1), fresh_state=fresh)
        gen = tr.scores[tr.test_flags == 0]
        assert gen.size and not np.any(np.signbit(gen))

    def test_mean_score_near_quantum_value(self):
        g, opt, _ = chsh_setup()
        tr = simulate(g, opt, ProtocolParams(n_rounds=50_000, q=0.5, chi=0.5, seed=7))
        games = int(np.sum(tr.test_flags))
        assert tr.c / games == pytest.approx(CHSH_W, abs=0.02)

    def test_memory_semantics_deterministic_device_matches_fresh(self):
        g, _, cls = chsh_setup()
        params = ProtocolParams(n_rounds=100, q=0.4, chi=0.5, seed=9)
        fresh = simulate(g, cls, params, fresh_state=True)
        mem = simulate(g, cls, params, fresh_state=False)
        assert fresh.c == mem.c
        assert np.array_equal(fresh.output_indices, mem.output_indices)

    def test_memory_semantics_collapses_optimal_device(self):
        # after one projective round the shared state is product, so later
        # rounds cannot sustain the optimal correlation
        g, opt, _ = chsh_setup()
        scores = []
        for seed in range(40):
            tr = simulate(
                g, opt, ProtocolParams(n_rounds=400, q=0.999, chi=0.5, seed=seed),
                fresh_state=False,
            )
            scores.append(tr.c / np.sum(tr.test_flags))
        assert np.mean(scores) < 0.8

    @pytest.mark.parametrize("device", ["chsh", "toy", "two-block", "magic-square"])
    def test_memory_rounds_equal_the_dense_loop(self, device):
        g, d = {
            "chsh": lambda: chsh_setup()[:2],
            "toy": toy_setup,
            "two-block": two_block_setup,
            "magic-square": magic_square_combined,
        }[device]()
        for n in (1, 5, 200):
            for seed in range(4):
                params = ProtocolParams(n_rounds=n, q=0.3, chi=0.5, seed=seed)
                tr = simulate(g, d, params, fresh_state=False)
                x_idx, c, success = memory_transcript_reference(g, d, params)
                assert np.array_equal(tr.output_indices, x_idx)
                assert (tr.c, tr.success) == (c, success)

    def test_rounds_iterator(self):
        g, opt, _ = chsh_setup()
        tr = simulate(g, opt, ProtocolParams(n_rounds=5, q=0.5, chi=0.5, seed=2))
        rounds = list(tr.rounds())
        assert len(rounds) == 5
        for t, a, x, s in rounds:
            assert a in g.input_alphabet and x in g.output_alphabet


class TestEnumerate:
    def test_trivial_threshold_gives_full_mass(self):
        g, opt, _ = chsh_setup()
        summary = enumerate_success_state(g, opt, 1, q=0.5, chi=0.0, eps=0.3)
        assert summary.mass == pytest.approx(1.0, abs=1e-10)

    def test_single_round_perfect_win_mass(self):
        g, opt, _ = chsh_setup()
        q = 0.37
        summary = enumerate_success_state(g, opt, 1, q=q, chi=1.0, eps=0.3)
        # success iff a test round is won; cross-check by direct Born sums
        direct = 0.0
        for a in g.input_alphabet:
            for x, p in opt.measurements[a].items():
                if g.score(a, x) >= 1.0:
                    direct += q * g.prob(a) * np.trace(p @ opt.state).real
        assert summary.mass == pytest.approx(direct, abs=1e-12)
        assert summary.mass == pytest.approx(q * CHSH_W, abs=1e-12)

    def test_mass_monotone_in_chi(self):
        g, opt, _ = chsh_setup()
        masses = [
            enumerate_success_state(g, opt, 3, q=0.3, chi=chi, eps=0.2).mass
            for chi in (0.0, 0.4, 0.8, 1.0)
        ]
        assert all(masses[i] >= masses[i + 1] - 1e-12 for i in range(len(masses) - 1))

    def test_subnormalized(self):
        g, opt, _ = chsh_setup()
        s = enumerate_success_state(g, opt, 2, q=0.4, chi=0.5, eps=0.5)
        assert 0.0 <= s.mass <= 1.0 + 1e-9

    def test_randomness_increases_as_eps_decreases(self):
        g, opt, _ = chsh_setup()
        vals = [
            enumerate_success_state(g, opt, 3, q=0.3, chi=0.8, eps=eps).renyi_randomness / 3
            for eps in (0.4, 0.2, 0.1)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_deterministic_device_generates_no_randomness(self):
        g, _, cls = chsh_setup()
        s = enumerate_success_state(g, cls, 3, q=1e-3, chi=0.0, eps=0.1)
        assert s.renyi_randomness / 3 <= 0.01

    def test_fresh_matches_memory_for_classical_device(self):
        g, _, cls = chsh_setup()
        a = enumerate_success_state(g, cls, 2, q=0.3, chi=0.5, eps=0.2, fresh_state=True)
        b = enumerate_success_state(g, cls, 2, q=0.3, chi=0.5, eps=0.2, fresh_state=False)
        assert a.mass == pytest.approx(b.mass, abs=1e-12)
        assert a.renyi_randomness == pytest.approx(b.renyi_randomness, abs=1e-9)

    def test_fresh_and_memory_differ_for_entangled_device(self):
        g, opt, _ = chsh_setup()
        a = enumerate_success_state(g, opt, 2, q=0.5, chi=0.9, eps=0.2, fresh_state=True)
        b = enumerate_success_state(g, opt, 2, q=0.5, chi=0.9, eps=0.2, fresh_state=False)
        assert abs(a.mass - b.mass) > 1e-4

    def test_simulation_consistency_small(self):
        g, opt, _ = chsh_setup()
        q, chi, n = 0.3, 0.8, 2
        summary = enumerate_success_state(g, opt, n, q=q, chi=chi, eps=0.2)
        trials = 20_000
        hits = 0
        for k in range(trials):
            tr = simulate(g, opt, ProtocolParams(n_rounds=n, q=q, chi=chi, seed=10_000 + k))
            hits += tr.success
        freq = hits / trials
        sd = math.sqrt(summary.mass * (1 - summary.mass) / trials)
        assert abs(freq - summary.mass) <= 4 * sd

    def test_branch_cap(self):
        g, opt, _ = chsh_setup()
        with pytest.raises(GuardError, match="exceeds the 1000 branch cap"):
            enumerate_success_state(g, opt, 10, q=0.3, chi=0.5, eps=0.2, branch_cap=1000)

    @pytest.mark.parametrize("chi", [0.0, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("device", ["optimal", "classical", "toy"])
    def test_lattice_matches_tree(self, device, n, chi):
        if device == "toy":
            g, d = toy_setup()
        else:
            entry = catalog.chsh()
            g, d = entry.game, entry.devices[device]
        self._check_against_tree(g, d, n, q=0.3, chi=chi, eps=0.2)

    def test_lattice_matches_tree_magic_square(self):
        entry = catalog.magic_square()
        self._check_against_tree(entry.game, entry.devices["combined"], 1, q=0.3, chi=0.5, eps=0.1)

    @staticmethod
    def _check_against_tree(g, d, n, q, chi, eps):
        mass, ksum, branches = tree_reference(g, d, n, q, chi, eps)
        s = enumerate_success_state(g, d, n, q=q, chi=chi, eps=eps)
        assert s.branches == branches
        assert math.isclose(s.mass, mass, rel_tol=1e-11)
        k_ref = -(1.0 / eps) * math.log2(ksum) if ksum > 0.0 else math.inf
        # K is 0 for the classical device at chi = 0, where only an absolute bound applies
        assert math.isclose(s.renyi_randomness, k_ref, rel_tol=1e-11, abs_tol=1e-11)

    def test_lattice_scales_to_sixty_rounds(self):
        # every CHSH test win scores 1, so the success mass is a binomial tail
        g, opt, _ = chsh_setup()
        n, q, chi = 60, 0.3, 0.8
        s = enumerate_success_state(g, opt, n, q=q, chi=chi, eps=0.2, branch_cap=10**100)
        p = q * CHSH_W
        tail = math.fsum(
            math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
            for k in range(math.ceil(chi * q * n), n + 1)
        )
        assert s.mass == pytest.approx(tail, rel=1e-12)
        assert binomial_tail(n, p, math.ceil(chi * q * n)) == pytest.approx(tail, rel=1e-12)
        # the exact limits of a device that never or always wins
        for k, always in ((1, 1.0), (5, 1.0), (10, 1.0), (11, 0.0)):
            assert binomial_tail(10, 0.0, k) == 0.0
            assert binomial_tail(10, 1.0, k) == always

    def test_non_finite_chi_and_scores_rejected(self):
        g, opt, _ = chsh_setup()
        for chi in (math.inf, math.nan):
            with pytest.raises(ProtocolError):
                enumerate_success_state(g, opt, 1, q=0.3, chi=chi, eps=0.2)
        toy, _ = toy_setup()
        scores = dict(toy.scores)
        scores[((1,), (2,))] = math.inf
        with pytest.raises(GameError, match="score-range"):
            replace(toy, scores=scores, unbounded=True)


class TestSharedSuccessRule:
    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "memory"])
    def test_exact_sum_decides_at_the_threshold(self, fresh):
        # Every test-round output scores 0.1, N = 3, q = 0.5.  At chi = 0.2 the
        # float sum 0.1 + 0.1 + 0.1 equals the float chi*q*N, but the exact sum
        # 3*fl(0.1) lies below it, so no run succeeds; at chi = 0.19 exactly the
        # all-test-round runs succeed.
        base, opt, _ = chsh_setup()
        g = replace(base, scores={
            (a, x): 0.1 for a in base.input_alphabet for x in base.output_alphabet
        })
        assert ProtocolParams(n_rounds=3, q=0.5, chi=0.2).threshold == 0.1 + 0.1 + 0.1
        for chi, mass in ((0.2, 0.0), (0.19, 0.5**3)):
            s = enumerate_success_state(g, opt, 3, q=0.5, chi=chi, eps=0.2, fresh_state=fresh)
            assert s.mass == pytest.approx(mass, abs=1e-12)
            all_test_runs = 0
            for seed in range(100):
                params = ProtocolParams(n_rounds=3, q=0.5, chi=chi, seed=seed)
                tr = simulate(g, opt, params, fresh_state=fresh)
                all_test = bool(tr.test_flags.all())
                all_test_runs += all_test
                assert tr.success == (mass > 0.0 and all_test)
                if all_test:
                    assert tr.c == 0.1 + 0.1 + 0.1  # the exact sum, rounded once
                assert pairs(simulate_outcomes(g, opt, params, 1, fresh)) == [(tr.c, tr.success)]
            assert all_test_runs > 0


MEMORY_GRID = [(0.3, 0.8, 0.1), (0.5, 0.5, 0.2), (0.2, 0.0, 1.0), (0.7, 1.0, 0.05)]


class TestMemoryTree:
    """The batched, per-block --memory tree against the leaf-by-leaf dense tree."""

    @pytest.mark.parametrize("q,chi,eps", MEMORY_GRID)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("device", ["optimal", "classical"])
    def test_chsh_equals_the_leaf_by_leaf_tree(self, device, n, q, chi, eps):
        entry = catalog.chsh()
        g, d = entry.game, entry.devices[device]
        assert memory_tree_summary(g, d, n, q, chi, eps) == memory_reference_summary(
            g, d, n, q, chi, eps)

    @pytest.mark.parametrize("chi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_toy_equals_the_leaf_by_leaf_tree(self, n, chi):
        g, d = toy_setup()
        assert memory_tree_summary(g, d, n, 0.3, chi, 0.2) == memory_reference_summary(
            g, d, n, 0.3, chi, 0.2)

    @pytest.mark.parametrize("chi", [0.2, 0.19])
    def test_exact_threshold_game_equals_the_leaf_by_leaf_tree(self, chi):
        base, opt, _ = chsh_setup()
        g = replace(base, scores={
            (a, x): 0.1 for a in base.input_alphabet for x in base.output_alphabet
        })
        assert memory_tree_summary(g, opt, 3, 0.5, chi, 0.2) == memory_reference_summary(
            g, opt, 3, 0.5, chi, 0.2)

    @pytest.mark.parametrize("device", ["optimal", "toy"])
    def test_small_batches_give_the_same_sums(self, monkeypatch, device):
        if device == "toy":
            g, d = toy_setup()
        else:
            g, d = chsh_setup()[:2]
        expected = memory_reference_summary(g, d, 3, 0.3, 0.5, 0.2)
        batches = []
        real = protocol.matcore.block_psd_brackets
        # room for a node and its at most 20 children: one batch per node at depth 2
        monkeypatch.setattr(protocol, "MEMORY_BATCH_ENTRIES", 21 * d.dim**2)
        monkeypatch.setattr(
            protocol.matcore, "block_psd_brackets",
            lambda stacks, eps: batches.append(1) or real(stacks, eps),
        )
        assert memory_tree_summary(g, d, 3, 0.3, 0.5, 0.2) == expected
        assert len(batches) >= 3

    def test_block_device_with_unitaries(self):
        g, d = two_block_setup()
        assert [idx.shape for idx in d.blocks] == [(1, 2), (1, 3)]
        for n, chi in ((1, 0.0), (2, 0.5), (3, 0.5)):
            mass, k, branches = memory_summary(g, d, n, 0.3, chi, 0.2)
            ref_mass, ref_k, ref_branches = memory_reference_summary(g, d, n, 0.3, chi, 0.2)
            assert branches == ref_branches
            assert mass == pytest.approx(ref_mass, rel=1e-12)
            assert k == pytest.approx(ref_k, rel=1e-12)

    def test_magic_square_per_block_roundoff(self):
        # The combined device splits into 80 blocks of size 1 and 8 of size 4,
        # so products, traces and eigenvalues round differently from the dense
        # 112 x 112 reference; each leaf's bracket moves by a few ulp times the
        # block condition number, far inside 1e-12 relative.
        entry = catalog.magic_square()
        g, d = entry.game, entry.devices["combined"]
        mass, k, branches = memory_summary(g, d, 1, 0.3, 0.5, 0.1)
        ref_mass, ref_k, ref_branches = memory_reference_summary(g, d, 1, 0.3, 0.5, 0.1)
        assert branches == ref_branches == 72
        assert mass == pytest.approx(ref_mass, rel=1e-12, abs=0)
        assert k == pytest.approx(ref_k, rel=1e-12, abs=0)


def assert_close_to_tree(summary, tree):
    """Equal ``branches``, and mass and K within 1e-12 relative.  K of a
    deterministic device at chi 0 is 0 up to roundoff, where only an
    absolute bound applies."""
    (mass, k, branches), (tree_mass, tree_k, tree_branches) = summary, tree
    assert branches == tree_branches
    assert math.isclose(mass, tree_mass, rel_tol=1e-12)
    assert math.isclose(k, tree_k, rel_tol=1e-12, abs_tol=1e-12)


class TestTransferDP:
    """The rank-1 transfer DP against the batched tree, and the one dispatch
    between them in ``_memory_sums``."""

    @pytest.mark.parametrize("q,chi,eps", MEMORY_GRID)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("device", ["optimal", "classical"])
    def test_chsh_matches_the_tree(self, device, n, q, chi, eps):
        entry = catalog.chsh()
        g, d = entry.game, entry.devices[device]
        assert_close_to_tree(memory_summary(g, d, n, q, chi, eps),
                             memory_tree_summary(g, d, n, q, chi, eps))

    @pytest.mark.parametrize("chi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_toy_matches_the_tree(self, n, chi):
        g, d = toy_setup()
        assert_close_to_tree(memory_summary(g, d, n, 0.3, chi, 0.2),
                             memory_tree_summary(g, d, n, 0.3, chi, 0.2))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("chi", [0.2, 0.19])
    def test_exact_threshold_game_matches_the_tree(self, chi, n):
        base, opt, _ = chsh_setup()
        g = replace(base, scores={
            (a, x): 0.1 for a in base.input_alphabet for x in base.output_alphabet
        })
        assert_close_to_tree(memory_summary(g, opt, n, 0.5, chi, 0.2),
                             memory_tree_summary(g, opt, n, 0.5, chi, 0.2))

    def test_dispatch_reads_the_rank_of_the_supported_inputs(self, monkeypatch):
        routes = []
        for name in ("_transfer_sums", "_memory_tree", "_lattice_sums"):
            real = getattr(protocol, name)
            monkeypatch.setattr(protocol, name,
                                lambda *args, real=real, name=name: routes.append(name) or real(*args))
        ms = catalog.magic_square()
        pair = ms.devices["pair-000-001"]
        # the pair device's projectors have rank 1 on these four inputs only
        rank_one = [a for a, v in zip(ms.game.input_alphabet, _round_plan(ms.game, pair).rank_one)
                    if v is not None]
        assert len(rank_one) == 4
        restricted = replace(ms.game, distinguished_input=rank_one[0], distribution={
            a: 0.25 if a in rank_one else 0.0 for a in ms.game.input_alphabet})
        cases = [
            (chsh_setup()[:2], "_transfer_sums"),
            (toy_setup(), "_transfer_sums"),
            (two_block_setup(), "_memory_tree"),  # rank 2 on the qutrit + qubit blocks
            (magic_square_combined(), "_memory_tree"),
            ((ms.game, pair), "_memory_tree"),
            ((restricted, pair), "_transfer_sums"),
        ]
        for (g, d), route in cases:
            routes.clear()
            memory_summary(g, d, 1, 0.3, 0.5, 0.1)
            # one lattice DP: one call on the rank-1 route, none in the tree
            core = ["_lattice_sums"] if route == "_transfer_sums" else []
            assert routes == [route, *core], d.name
            routes.clear()
            enumerate_success_state(g, d, 2, q=0.3, chi=0.5, eps=0.1)
            assert routes == ["_lattice_sums"], d.name
        # on the restricted game both routes give the same sums
        assert_close_to_tree(memory_summary(restricted, pair, 2, 0.3, 0.5, 0.1),
                             memory_tree_summary(restricted, pair, 2, 0.3, 0.5, 0.1))

    def test_rank_test_is_built_on_the_first_memory_enumeration(self):
        g, opt, _ = chsh_setup()
        d = replace(opt)
        plan = _round_plan(g, d)
        params = ProtocolParams(n_rounds=3, q=0.3, chi=0.8)
        simulate_outcomes(g, d, params, 5)
        simulate(g, d, params, fresh_state=False)
        enumerate_success_state(g, d, 2, q=0.3, chi=0.5, eps=0.1)
        assert "rank_one" not in vars(plan)
        enumerate_success_state(g, d, 2, q=0.3, chi=0.5, eps=0.1, fresh_state=False)
        assert "rank_one" in vars(plan)

    def test_fifty_rounds_with_exact_counts(self):
        g, opt, cls = chsh_setup()
        start = time.perf_counter()
        mass, k, branches = memory_summary(g, opt, 50, 0.3, 0.8, 0.1, branch_cap=20**50)
        assert time.perf_counter() - start < 1.0
        assert mass == pytest.approx(memory_state_mass(g, opt, 50, 0.3, 0.8), rel=1e-12, abs=0)
        assert 0.0 < k < math.inf and isinstance(branches, int) and branches > 2**63
        # the classical device's outputs are deterministic, so at chi 0 each
        # round keeps one output of each of its 5 inputs: 5^50 sequences
        mass, _, branches = memory_summary(g, cls, 50, 0.3, 0.0, 0.1, branch_cap=20**50)
        assert branches == 5**50
        assert mass == pytest.approx(1.0, rel=1e-12)


def round_counter_device(d, n):
    """E_n(d), the round-counter extension of a device without unitaries: the
    state is n copies of d's, every letter measures copy 1 with d's
    projectors, and its unitary shifts the copies cyclically (copy j + 1 to
    copy j), so round j of an in-place run measures a fresh copy.  Dense, of
    dimension d.dim^n; its projectors have rank d.dim^(n-1) times d's."""
    at = np.arange(d.dim**n).reshape((d.dim,) * n)
    shift = np.zeros((d.dim**n, d.dim**n))
    shift[np.moveaxis(at, -1, 0).ravel(), at.ravel()] = 1.0  # |x_1 .. x_n> -> |x_2 .. x_n x_1>
    rest = np.eye(d.dim ** (n - 1))
    return make_device(
        "general", (d.dim**n,), reduce(np.kron, [d.state] * n),
        {a: {x: np.kron(p, rest) for x, p in outs.items()} for a, outs in d.measurements.items()},
        {a: shift for a in d.measurements},
        input_alphabet=d.input_alphabet, output_alphabet=d.output_alphabet, name=f"E{n}",
    )


class TestRoundCounter:
    """Fresh-state semantics is the --memory model of the round-counter
    extension: --memory on E_N(d) equals the fresh run on d at N rounds, in
    the success-state aggregates and in every transcript."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("device", ["optimal", "classical"])
    def test_memory_on_the_extension_is_the_fresh_run(self, device, n):
        entry = catalog.chsh()
        g, d = entry.game, entry.devices[device]
        ext = round_counter_device(d, n)
        assert validate_device(ext).ok
        # the extension's projectors have rank d.dim^(n-1): 4 on the optimal
        # device at n = 2, whose sequences the tree expands (the classical
        # device has dimension 1)
        assert all((v is None) == (d.dim ** (n - 1) > 1) for v in _round_plan(g, ext).rank_one)
        for q, chi, eps in ((0.3, 0.8, 0.1), (0.5, 0.0, 0.5)):
            fresh = enumerate_success_state(g, d, n, q=q, chi=chi, eps=eps)
            assert_close_to_tree(memory_summary(g, ext, n, q, chi, eps),
                                 (fresh.mass, fresh.renyi_randomness, fresh.branches))
        for seed in range(50):
            params = ProtocolParams(n_rounds=n, q=0.3, chi=0.8, seed=seed)
            want = simulate(g, d, params)
            got = simulate(g, ext, params, fresh_state=False)
            assert np.array_equal(got.input_indices, want.input_indices)
            assert np.array_equal(got.output_indices, want.output_indices)
            assert (got.c, got.success) == (want.c, want.success)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_random_devices(self, rng_seed):
        # fresh enumeration on d, the one-state lattice DP, against --memory
        # on E_n(d): the rank-1 DP at n = 1, and the tree at n = 2, where the
        # projectors of E_2(d) have rank 4
        rng = np.random.default_rng(rng_seed)
        g, d = random_dyadic_pair(rng, (2, 2))
        q, chi, eps = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.0)), 0.5
        for n in (1, 2):
            fresh = enumerate_success_state(g, d, n, q=q, chi=chi, eps=eps)
            assert_close_to_tree(memory_summary(g, round_counter_device(d, n), n, q, chi, eps),
                                 (fresh.mass, fresh.renyi_randomness, fresh.branches))


class TestZeroRule:
    """One zero rule for a branch: both enumerators drop a child whose Born
    weight is at most PRUNE_FLOOR times its parent's, at every round."""

    @pytest.mark.parametrize(("n", "branches"), [(1, 20), (2, 220), (3, 2444)])
    def test_memory_branches_count_the_nonzero_leaves(self, n, branches):
        # At chi 0 every sequence succeeds.  A round that repeats a site's
        # input of the round before with another output of that site has a
        # projector product of about 1e-17, not 0, so its leaves weigh 2.5e-33
        # down to 1.9e-70 and are dropped: of the 400 leaves at n = 2, 220 count.
        g, opt, _ = chsh_setup()
        s = enumerate_success_state(g, opt, n, q=0.3, chi=0.0, eps=0.1, fresh_state=False)
        assert s.branches == branches

    @pytest.mark.parametrize("chi", [0.0, 0.5])
    @pytest.mark.parametrize("name", [
        f"{entry.name}:{dev}" for entry in (catalog.chsh(), catalog.magic_square())
        for dev in entry.devices
    ])
    def test_one_round_semantics_agree(self, name, chi):
        # one round starts from phi under both semantics
        g, d = catalog.get_game(name.split(":")[0]), catalog.get_device(name)
        fresh = enumerate_success_state(g, d, 1, q=0.3, chi=chi, eps=0.1)
        memory = enumerate_success_state(g, d, 1, q=0.3, chi=chi, eps=0.1, fresh_state=False)
        assert memory.branches == fresh.branches
        assert math.isclose(memory.mass, fresh.mass, rel_tol=1e-12)
        # K is 0 up to roundoff for a deterministic device at chi 0
        assert math.isclose(
            memory.renyi_randomness, fresh.renyi_randomness, rel_tol=1e-12, abs_tol=1e-12
        )

    @pytest.mark.parametrize(("device", "rounds"), [("optimal", 4), ("classical", 4),
                                                    ("combined", 2)])
    def test_memory_mass_equals_the_state_dp(self, device, rounds):
        if device == "combined":
            g, d = magic_square_combined()
        else:
            entry = catalog.chsh()
            g, d = entry.game, entry.devices[device]
        for n in range(1, rounds + 1):
            for chi in (0.0, 0.5):
                mass = memory_summary(g, d, n, 0.3, chi, 0.1)[0]
                assert mass == pytest.approx(memory_state_mass(g, d, n, 0.3, chi), rel=1e-12, abs=0)

    def test_memory_rule_is_relative_to_the_parent(self):
        # A qubit in |0>, measured in the computational basis (input 0) or in
        # {v, v⊥} with |<0|v>|^2 = 1e-20 (input 1).  After output v, whose
        # weight is 1e-20, output 0 of input 0 weighs 1e-40: 1e-20 of its
        # parent's, so it is kept, where an absolute 1e-30 floor would drop
        # both such leaves at n = 2.
        scores = {((a,), (x,)): float(x == 0) for a in (0, 1) for x in (0, 1)}
        g = nonlocal_game("two-bases", [(0, 1)], [(0, 1)], {(0,): 0.5, (1,): 0.5}, scores, (0,))
        v, v_perp = np.array([1e-10, 1.0]), np.array([1.0, -1e-10])
        measurements = {
            (0,): {(0,): np.diag([1.0, 0.0]), (1,): np.diag([0.0, 1.0])},
            (1,): {(0,): np.outer(v, v), (1,): np.outer(v_perp, v_perp)},
        }
        d = make_device("general", (2,), np.diag([1.0, 0.0]), measurements, name="two-bases")
        # 6 children a node; per level-1 state, |0>: 4 kept, v: 5 kept, v⊥: 5 kept
        for n, branches in ((1, 4), (2, 18)):
            assert memory_summary(g, d, n, 0.3, 0.0, 0.1)[2] == branches
            assert memory_tree_reference(g, d, n, 0.3, 0.0, 0.1)[2] == branches


def pairs(columns) -> list[tuple[float, bool]]:
    """The (c, success) pair of each run, from ``simulate_outcomes``' two
    columns, which must be a float and a bool array of one length."""
    c, success = columns
    assert c.dtype == np.float64 and success.dtype == bool and c.shape == success.shape
    return list(zip(c.tolist(), success.tolist()))


class TestSimulateOutcomes:
    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "memory"])
    @pytest.mark.parametrize("device", ["optimal", "classical", "toy", "magic-square"])
    def test_trial_k_is_simulate_at_seed_plus_k(self, device, fresh):
        if device == "toy":
            g, d = toy_setup()
        elif device == "magic-square":
            g, d = magic_square_combined()
        else:
            entry = catalog.chsh()
            g, d = entry.game, entry.devices[device]
        params = ProtocolParams(n_rounds=40, q=0.3, chi=0.5, seed=123)
        expected = []
        for k in range(5):
            tr = simulate(g, d, replace(params, seed=123 + k), fresh_state=fresh)
            expected.append((tr.c, tr.success))
        assert pairs(simulate_outcomes(g, d, params, 5, fresh_state=fresh)) == expected

    @pytest.mark.parametrize(
        "setup, n, q, trials, seed, shape",
        [
            pytest.param("optimal", 5000, 0.02, 30, 11, "chunks", id="several-chunks"),
            pytest.param("optimal", 40, 0.3, 6, 2**64 - 3, None, id="keys-cross-2^64"),
            pytest.param("toy", 40, 0.3, 50, 7, None, id="fractional-negative-scores"),
            pytest.param("magic-square", 30, 0.3, 20, 5, None, id="magic-square-combined"),
            pytest.param("optimal", 3, 0.05, 80, 0, "idle", id="runs-without-test-rounds"),
        ],
    )
    def test_batched_runs_are_simulate_at_seed_plus_k(self, setup, n, q, trials, seed, shape):
        if setup == "toy":
            g, d = toy_setup()
        elif setup == "magic-square":
            g, d = magic_square_combined()
        else:
            g, d, _ = chsh_setup()
        params = ProtocolParams(n_rounds=n, q=q, chi=0.5, seed=seed)
        runs = [simulate(g, d, replace(params, seed=seed + k)) for k in range(trials)]
        assert pairs(simulate_outcomes(g, d, params, trials)) == [(tr.c, tr.success) for tr in runs]
        if shape == "chunks":  # several chunks of several runs, the last one short
            rows = protocol._CHUNK_UNIFORMS // (3 * n)
            assert 1 < rows < trials and trials % rows != 0
        if shape == "idle":  # some runs have no test round, others do
            assert len({bool(tr.test_flags.any()) for tr in runs}) == 2

    @pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1, 2**64, 2**128 - 1])
    def test_rekeyed_generator_equals_a_new_philox(self, seed):
        # one generator re-keyed between draws whose counts are not multiples
        # of 4, so a stale counter or buffer would show
        gen = protocol._generator()
        for count in (1, 3, 9, 14, 4099):
            got = protocol._keyed_uniforms(gen, seed, np.empty(count))
            want = np.random.Generator(np.random.Philox(key=seed)).random(count)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("row", [4, 21844, 2**40])
    def test_rekeyed_from_a_later_round_equals_an_advanced_philox(self, row):
        # round row's first uniform is word 3 * row, the start of block 3 * row / 4
        seed = 2**64 + 7
        got = protocol._keyed_uniforms(protocol._generator(), seed, np.empty((5, 3)), row)
        want = np.random.Generator(np.random.Philox(key=seed).advance(3 * row // 4)).random(15)
        assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))

    @example(m_seed=(3, 2**64 + 5), rows=5)  # a nonzero high key word
    @example(m_seed=(4, 7 * 2**64 - 2), rows=3)  # keys carry across a multiple of 2^64
    @example(m_seed=(2, 2**64 - 1), rows=1)  # 3 words: a block cut short
    @example(m_seed=(6, 2**128 - 6), rows=7)  # the last keys below 2^128
    @given(
        st.integers(1, 6).flatmap(lambda m: st.tuples(
            st.just(m),
            st.one_of(
                st.integers(0, 2**128 - m),
                # just below a multiple of 2^64, so that the piece's keys carry
                st.tuples(st.integers(1, 2**64 - 1), st.integers(1, m)).map(
                    lambda hj: hj[0] * 2**64 - hj[1]),
                st.just(2**128 - m),
            ),
        )),
        st.integers(1, 2 * protocol._ARRAY_ROUNDS),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_array_fill_is_numpys_philox(self, m_seed, rows):
        # run j of the piece is Generator(Philox(key=seed + j)), bit for bit,
        # over 3 * rows words (not a multiple of 4 unless 4 divides rows)
        m, seed = m_seed
        got = protocol._philox_uniforms(seed, m, rows)
        assert got.shape == (m, rows, 3)
        for j in range(m):
            want = np.random.Generator(np.random.Philox(key=seed + j)).random(3 * rows)
            assert np.array_equal(got[j].ravel().view(np.uint64), want.view(np.uint64))

    def test_mulhilo_is_the_128_bit_product(self):
        words = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, *np.random.default_rng(5).integers(
            0, 2**64, size=200, dtype=np.uint64, endpoint=False).tolist()]
        for m in protocol._PHILOX_MUL:
            hi, lo = protocol._mulhilo(m, np.array(words, dtype=np.uint64))
            assert hi.tolist() == [m * w >> 64 for w in words]
            assert lo.tolist() == [m * w & 2**64 - 1 for w in words]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("setup", ["optimal", "magic-square"])
    def test_runs_at_the_cut_off_are_simulate_at_seed_plus_k(self, monkeypatch, setup, offset):
        # runs just below, at and just above the array fill's cut-off, with
        # keys that cross 2^64, against transcripts drawn by the C fill
        g, d = magic_square_combined() if setup == "magic-square" else chsh_setup()[:2]
        n = protocol._ARRAY_ROUNDS + offset
        params = ProtocolParams(n, 0.3, 0.5, seed=2**64 - 3)
        fills = []
        for fill in ("_keyed_uniforms", "_philox_uniforms"):
            real = getattr(protocol, fill)
            monkeypatch.setattr(protocol, fill,
                                lambda *a, fill=fill, real=real: fills.append(fill) or real(*a))
        got = pairs(simulate_outcomes(g, d, params, 7))
        assert set(fills) == {"_philox_uniforms" if offset <= 0 else "_keyed_uniforms"}
        arrays = [simulate(g, d, replace(params, seed=params.seed + k)) for k in range(7)]
        monkeypatch.setattr(protocol, "_ARRAY_ROUNDS", 0)
        fills.clear()
        runs = [simulate(g, d, replace(params, seed=params.seed + k)) for k in range(7)]
        assert set(fills) == {"_keyed_uniforms"}
        assert got == [(tr.c, tr.success) for tr in runs]
        for a, b in zip(arrays, runs):
            for field in ("test_flags", "input_indices", "output_indices", "scores"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_many_runs_are_held_as_two_columns(self):
        # 9 bytes a run once the scores are formed; a list of (c, success)
        # tuples took over 100 bytes a run
        g, opt, _ = chsh_setup()
        params = ProtocolParams(1, 0.3, 0.5, seed=3)
        simulate_outcomes(g, opt, params, 1)  # the round plan is built outside the trace
        tracemalloc.start()
        try:
            c, success = simulate_outcomes(g, opt, params, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.dtype == np.float64 and success.dtype == bool and len(c) == 200_000
        assert peak < 20 * 200_000

    def test_pieces_hold_whole_runs_or_slices_at_multiples_of_four(self):
        S = protocol._SLICE_ROWS
        assert S % 4 == 0 and 3 * S <= protocol._CHUNK_UNIFORMS < 3 * (S + 4)
        assert protocol._pieces(5000, 10, 4) == [(0, 4, 0, 5000), (4, 4, 0, 5000), (8, 2, 0, 5000)]
        assert protocol._pieces(21845, 2, 4) == [(0, 1, 0, 21845), (1, 1, 0, 21845)]
        assert protocol._pieces(21846, 2, 4) == [
            (0, 1, 0, S), (0, 1, S, 2), (1, 1, 0, S), (1, 1, S, 2)
        ]
        assert len(protocol._pieces(3, 2500, 16)) == 1  # sim-short's call

    def test_a_piece_counts_at_most_a_chunk_of_cells(self):
        # Magic Square's plan has 9 x 64 = 576 cells: 65536 // 576 = 113 runs a piece
        pieces = protocol._pieces(3, 5000, 576)
        assert pieces[:2] == [(0, 113, 0, 3), (113, 113, 0, 3)]
        assert len(pieces) == 45 and pieces[-1] == (4972, 28, 0, 3)
        assert protocol._pieces(100, 5000, 576)[0] == (0, 113, 0, 100)
        assert protocol._pieces(3, 3, 2**17) == [(0, 1, 0, 3), (1, 1, 0, 3), (2, 1, 0, 3)]
        assert all(m * 576 <= protocol._CHUNK_UNIFORMS for _, m, _, _ in pieces)

    @pytest.mark.parametrize("n", [21843, 21844, 21845, 43691, 100003])
    @pytest.mark.parametrize("setup", ["optimal", "classical", "magic-square"])
    def test_pieces_are_simulate_at_seed_plus_k(self, monkeypatch, setup, n):
        # whole runs at the edge of a piece (21843 and 21845 rounds) and runs
        # sliced at piece boundaries, on one worker and on two; keys cross 2^64
        if setup == "magic-square":
            g, d = magic_square_combined()
        else:
            entry = catalog.chsh()
            g, d = entry.game, entry.devices[setup]
        params = ProtocolParams(n_rounds=n, q=0.3, chi=0.5, seed=2**64 - 2)
        runs = [simulate(g, d, replace(params, seed=params.seed + k)) for k in range(3)]
        for workers in (1, 2):
            monkeypatch.setattr(protocol, "_workers", lambda: workers)
            for trials in (1, 2, 3):
                want = [(tr.c, tr.success) for tr in runs[:trials]]
                assert pairs(simulate_outcomes(g, d, params, trials)) == want

    def test_more_workers_than_cpus_with_fast_switching(self, monkeypatch):
        # workers share only the read-only plan and piece list; each writes its
        # pieces' scores to their own slots, so switching threads every
        # microsecond changes no result
        g, opt, _ = chsh_setup()
        params = ProtocolParams(n_rounds=5000, q=0.3, chi=0.5, seed=2**64 - 5)
        want = [(tr.c, tr.success) for tr in
                (simulate(g, opt, replace(params, seed=params.seed + k)) for k in range(30))]
        monkeypatch.setattr(protocol, "_workers", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert pairs(simulate_outcomes(g, opt, params, 30)) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["started thread", "calling thread"])
    def test_a_worker_error_reaches_the_caller(self, monkeypatch, failing):
        monkeypatch.setattr(protocol, "_workers", lambda: 2)
        real = protocol._draw

        def sample(*args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "calling thread"):
                raise RuntimeError(f"piece failed on the {failing}")
            return real(*args)

        monkeypatch.setattr(protocol, "_draw", sample)
        g, opt, _ = chsh_setup()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"piece failed on the {failing}"):
            simulate_outcomes(g, opt, ProtocolParams(43691, 0.3, 0.5), 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "n, trials, started", [(3, 2500, 0), (1, 10**5, 0), (5000, 30, 1), (100003, 1, 1)]
    )
    def test_threads_start_and_end_within_the_call(self, monkeypatch, n, trials, started):
        # many pieces of short runs take the array fill on the calling thread alone
        monkeypatch.setattr(protocol, "_workers", lambda: 2)
        threads = []
        real = threading.Thread
        monkeypatch.setattr(
            protocol.threading, "Thread", lambda *a, **k: threads.append(1) or real(*a, **k)
        )
        g, opt, _ = chsh_setup()
        before = threading.active_count()
        simulate_outcomes(g, opt, ProtocolParams(n, 0.3, 0.5), trials)
        assert len(threads) == started
        assert threading.active_count() == before

    def test_one_philox_per_worker(self, monkeypatch):
        # C-fill pieces (slices of long runs) build one generator per worker;
        # many pieces of short runs take the array fill and build none
        built = []
        real = np.random.Philox
        monkeypatch.setattr(
            protocol.np.random, "Philox", lambda *a, **k: built.append(1) or real(*a, **k)
        )
        g, opt, _ = chsh_setup()
        for workers in (1, 2):
            monkeypatch.setattr(protocol, "_workers", lambda: workers)
            built.clear()
            simulate_outcomes(g, opt, ProtocolParams(100003, 0.05, 0.84), 2)
            assert len(built) == workers
            built.clear()
            simulate_outcomes(g, opt, ProtocolParams(protocol._ARRAY_ROUNDS, 0.3, 0.5), 5000)
            assert len(built) == 0

    def test_a_long_run_takes_two_pieces_of_memory(self):
        g, opt, _ = chsh_setup()
        params = ProtocolParams(100000, 0.05, 0.84, seed=1)
        simulate_outcomes(g, opt, params, 1)  # the round plan is built outside the trace
        tracemalloc.start()
        try:
            simulate_outcomes(g, opt, params, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 512 KiB buffer and one piece's temporaries per worker; one
        # (1e5, 3) buffer of the whole run would take 2.4 MB
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("n", [3, 100])
    def test_many_trials_take_no_trials_by_cells_table(self, n):
        g, d = magic_square_combined()
        params = ProtocolParams(n, 0.3, 0.5, seed=2)
        simulate_outcomes(g, d, params, 1)  # the round plan is built outside the trace
        tracemalloc.start()
        try:
            simulate_outcomes(g, d, params, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (5000, 576) int64 table of cell counts would take 22 MiB
        assert peak < 16 * 2**20

    def test_a_long_transcript_gathers_no_cdf_row_per_round(self):
        g, d = magic_square_combined()
        params = ProtocolParams(100000, 0.05, 0.84, seed=1)
        simulate_outcomes(g, d, params, 1)  # the round plan is built outside the trace
        tracemalloc.start()
        try:
            simulate(g, d, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (1e5, 64) float gather of CDF rows alone would take 49 MiB, and
        # a (1e5, 64) bool comparison for the generation rounds 6.1 MiB
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "memory"])
    def test_philox_builds_per_call(self, monkeypatch, fresh):
        # short fresh runs take the array fill and build no generator, as
        # does a short transcript; --memory runs re-key one per call
        built = []
        real = np.random.Philox
        monkeypatch.setattr(
            protocol.np.random, "Philox", lambda *a, **k: built.append(1) or real(*a, **k)
        )
        g, opt, _ = chsh_setup()
        params = ProtocolParams(5, 0.3, 0.5, seed=4)
        for trials in (1, 7, 300):
            built.clear()
            simulate_outcomes(g, opt, params, trials, fresh_state=fresh)
            assert len(built) == (0 if fresh else 1)
        built.clear()
        simulate(g, opt, params, fresh_state=fresh)
        assert built == []

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "memory"])
    def test_trial_count_checked_before_any_run(self, monkeypatch, fresh):
        # both fills are hooked; the calls that pass the check draw through them
        drawn = []
        for fill in ("_keyed_uniforms", "_philox_uniforms"):
            real = getattr(protocol, fill)
            monkeypatch.setattr(protocol, fill, lambda *a, real=real: drawn.append(1) or real(*a))
        g, opt, _ = chsh_setup()
        for trials in (0, -5):
            with pytest.raises(ProtocolError, match=f"trials must be at least 1, got {trials}"):
                simulate_outcomes(g, opt, ProtocolParams(3, 0.3, 0.5), trials, fresh_state=fresh)
        assert drawn == []
        for n in (3, 100):  # the array fill and the C fill
            simulate_outcomes(g, opt, ProtocolParams(n, 0.3, 0.5), 2, fresh_state=fresh)
            assert drawn
            drawn.clear()

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "memory"])
    def test_seed_domain_checked_before_any_run(self, monkeypatch, fresh):
        drawn = []
        for fill in ("_keyed_uniforms", "_philox_uniforms"):  # both fills are hooked
            real = getattr(protocol, fill)
            monkeypatch.setattr(protocol, fill, lambda *a, real=real: drawn.append(1) or real(*a))
        g, opt, _ = chsh_setup()
        top = 2**128 - 1
        for seed, trials in ((-1, 1), (-3, 5), (top, 2), (top - 2, 4)):
            params = ProtocolParams(3, 0.3, 0.5, seed=seed)
            with pytest.raises(ProtocolError, match=r"run seeds must lie in \[0, 2\*\*128\)"):
                simulate_outcomes(g, opt, params, trials, fresh_state=fresh)
            if trials == 1:
                with pytest.raises(ProtocolError):
                    simulate(g, opt, params, fresh_state=fresh)
        assert drawn == []
        # both ends of the domain are keys
        for seed, trials in ((0, 1), (top - 1, 2), (top, 1)):
            params = ProtocolParams(3, 0.3, 0.5, seed=seed)
            c, _ = simulate_outcomes(g, opt, params, trials, fresh_state=fresh)
            assert len(c) == trials
            simulate(g, opt, replace(params, seed=seed + trials - 1), fresh_state=fresh)
        assert drawn  # the runs at both ends drew through the hooks

    def test_compatibility_checked_once_per_call(self, monkeypatch):
        calls = []
        real = protocol.require_compatible
        monkeypatch.setattr(
            protocol, "require_compatible", lambda g, d: calls.append(1) or real(g, d)
        )
        g, opt, _ = chsh_setup()
        params = ProtocolParams(n_rounds=20, q=0.3, chi=0.5)
        for fresh in (True, False):
            # each call on a new device checks once; its round plan then
            # holds the check for every later call on the same pair
            calls.clear()
            d = replace(opt)
            simulate_outcomes(g, d, params, 5, fresh_state=fresh)
            assert len(calls) == 1
            simulate(g, d, params, fresh_state=fresh)
            enumerate_success_state(g, d, 2, q=0.3, chi=0.5, eps=0.2, fresh_state=fresh)
            assert len(calls) == 1
            calls.clear()
            enumerate_success_state(g, replace(opt), 2, q=0.3, chi=0.5, eps=0.2,
                                    fresh_state=fresh)
            assert len(calls) == 1


def random_dyadic_pair(rng: np.random.Generator, inputs: tuple[int, int]):
    """A two-player game with 2 outputs a player and scores k / 2^e in [0, 1]
    (e <= 70, so lattice units can pass 2^63), on a device of Haar bases and
    a random state."""
    player_inputs = [tuple(range(k)) for k in inputs]
    letters = [(i, j) for i in player_inputs[0] for j in player_inputs[1]]
    probs = rng.dirichlet(np.ones(len(letters)))
    exps = rng.integers(0, 71, size=4 * len(letters)).tolist()
    cells = [(a, (x, y)) for a in letters for x in (0, 1) for y in (0, 1)]
    scores = {  # k <= 2^53 is a float, so the score is exactly k / 2^e
        c: math.ldexp(int(rng.integers(0, 2 ** min(e, 53) + 1)), -e) for c, e in zip(cells, exps)
    }
    abar = letters[int(rng.integers(len(letters)))]
    g = nonlocal_game("dyadic", player_inputs, [(0, 1), (0, 1)],
                      dict(zip(letters, probs.tolist())), scores, abar)
    state = random_psd(4, rng)
    sites = [{a: dict(enumerate(haar_pvm(2, 2, rng))) for a in ins} for ins in player_inputs]
    return g, components_device((2, 2), state / np.trace(state).real, sites)


def random_rank_one_pair(rng: np.random.Generator):
    """A one-player game of 2 inputs, 2 to 4 outputs and scores k / 2^e in
    [0, 1], on a device whose every projector has rank at most 1.

    The device is a direct sum of 1 to 3 blocks, of total dimension from 2
    to the output count, held densely: a random mixed state on each block,
    weighted; per letter, a Haar basis of each block spread over randomly
    chosen outputs, the outputs left over measuring 0; and on about half the
    letters a block-diagonal Haar unitary.
    """
    m = int(rng.integers(2, 5))
    k = int(rng.integers(1, min(3, m) + 1))
    dim = int(rng.integers(max(k, 2), m + 1))
    cuts = [0, *sorted(rng.choice(np.arange(1, dim), size=k - 1, replace=False).tolist()), dim]
    spans = [slice(a, b) for a, b in zip(cuts, cuts[1:])]

    def block_diagonal(draw):
        out = np.zeros((dim, dim), dtype=complex)
        for s in spans:
            out[s, s] = draw(s.stop - s.start)
        return out

    weights = iter(rng.dirichlet(np.ones(k)))
    state = block_diagonal(lambda s: next(weights) * (r := random_psd(s, rng)) / np.trace(r).real)
    measurements, unitaries = {}, {}
    for a in ((0,), (1,)):
        basis = block_diagonal(lambda s: haar_unitary(s, rng))
        slot = rng.permutation(m)  # output x measures basis vector slot[x], if there is one
        measurements[a] = {
            (x,): np.outer(basis[:, j], basis[:, j].conj()) if j < dim else np.zeros((dim, dim))
            for x, j in enumerate(slot.tolist())
        }
        if rng.random() < 0.5:
            unitaries[a] = block_diagonal(lambda s: haar_unitary(s, rng))
    exps = rng.integers(0, 71, size=2 * m).tolist()
    cells = [((a,), (x,)) for a in (0, 1) for x in range(m)]
    scores = {c: math.ldexp(int(rng.integers(0, 2 ** min(e, 53) + 1)), -e)
              for c, e in zip(cells, exps)}
    g = nonlocal_game("dyadic", [(0, 1)], [tuple(range(m))],
                      dict(zip([(0,), (1,)], rng.dirichlet(np.ones(2)).tolist())), scores,
                      (int(rng.integers(2)),))
    return g, make_device("general", (dim,), state, measurements, unitaries, name="rank-one")


def random_higher_rank_pair(rng: np.random.Generator):
    """A one-player game of 2 inputs, 2 or 3 outputs and scores k / 2^e in
    [0, 1], on a dense device of dimension 3 or 4 some of whose projectors
    have rank 2 or more.

    Per letter, the vectors of a Haar basis are cut into runs, one run an
    output, so that a projector may have any rank from 0 up; output 0 of
    letter (0,) takes at least 2 vectors.  The state is a random mixed
    state, and about half the letters carry a Haar unitary.
    """
    dim, m = int(rng.integers(3, 5)), int(rng.integers(2, 4))
    state = random_psd(dim, rng)
    measurements, unitaries = {}, {}
    for a in ((0,), (1,)):
        cuts = sorted(rng.integers(2 if a == (0,) else 0, dim + 1, size=m - 1).tolist())
        basis = haar_unitary(dim, rng)
        measurements[a] = {(x,): basis[:, lo:hi] @ dagger(basis[:, lo:hi])
                           for x, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, dim]))}
        if rng.random() < 0.5:
            unitaries[a] = haar_unitary(dim, rng)
    exps = rng.integers(0, 71, size=2 * m).tolist()
    cells = [((a,), (x,)) for a in (0, 1) for x in range(m)]
    scores = {c: math.ldexp(int(rng.integers(0, 2 ** min(e, 53) + 1)), -e)
              for c, e in zip(cells, exps)}
    g = nonlocal_game("dyadic", [(0, 1)], [tuple(range(m))],
                      dict(zip([(0,), (1,)], rng.dirichlet(np.ones(2)).tolist())), scores,
                      (int(rng.integers(2)),))
    d = make_device("general", (dim,), state / np.trace(state).real, measurements, unitaries,
                    name="higher-rank")
    return g, d


class TestRandomInstances:
    @given(st.integers(0, 2**32 - 1), st.tuples(st.integers(2, 3), st.integers(2, 3)))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_fresh_enumeration_matches_a_dense_leaf_sum(self, rng_seed, inputs):
        rng = np.random.default_rng(rng_seed)
        g, d = random_dyadic_pair(rng, inputs)
        q, chi = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.0))
        eps, n = float(rng.uniform(0.05, 1.0)), int(rng.integers(1, 3))
        s = enumerate_success_state(g, d, n, q=q, chi=chi, eps=eps)
        assert_close_to_tree((s.mass, s.renyi_randomness, s.branches),
                             fresh_leaf_reference(g, d, n, q, chi, eps))

    @pytest.mark.parametrize("rng_seed", range(5))
    def test_fresh_enumeration_matches_a_dense_leaf_sum_at_three_rounds(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        g, d = random_dyadic_pair(rng, (2, 2))
        q, chi = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.0))
        s = enumerate_success_state(g, d, 3, q=q, chi=chi, eps=0.3)
        assert_close_to_tree((s.mass, s.renyi_randomness, s.branches),
                             fresh_leaf_reference(g, d, 3, q, chi, 0.3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_tree_on_devices_of_higher_rank(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        g, d = random_higher_rank_pair(rng)
        assert validate_device(d).ok
        assert any(v is None for v in _round_plan(g, d).rank_one)  # the tree's route
        q, chi = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.0))
        eps, n = float(rng.uniform(0.05, 1.0)), int(rng.integers(1, 3))
        summary = memory_summary(g, d, n, q, chi, eps)
        assert summary == memory_reference_summary(g, d, n, q, chi, eps)
        assert math.isclose(summary[0], memory_state_mass(g, d, n, q, chi), rel_tol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_transfer_dp_matches_the_tree_and_the_state_dp(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        g, d = random_rank_one_pair(rng)
        n = int(rng.integers(1, 4))
        assert validate_device(d).ok
        assert all(v is not None for v in _round_plan(g, d).rank_one)  # the DP's route
        q, chi = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.05, 1.0))
        summary = memory_summary(g, d, n, q, chi, eps)
        assert_close_to_tree(summary, memory_reference_summary(g, d, n, q, chi, eps))
        assert math.isclose(summary[0], memory_state_mass(g, d, n, q, chi), rel_tol=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(2, 3), st.integers(2, 3)),
        st.integers(1, 40),
        st.integers(1, 4),
        st.sampled_from([0, 2**64 - 2, 2**128 - 4]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_runs_are_simulate_and_sum_their_rounds_exactly(
        self, rng_seed, inputs, n, trials, seed, fresh
    ):
        rng = np.random.default_rng(rng_seed)
        g, d = random_dyadic_pair(rng, inputs)
        params = ProtocolParams(n, float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.01, 0.99)),
                                seed=seed)
        runs = [simulate(g, d, replace(params, seed=seed + k), fresh) for k in range(trials)]
        assert pairs(simulate_outcomes(g, d, params, trials, fresh)) == [
            (tr.c, tr.success) for tr in runs
        ]
        plan = _round_plan(g, d)
        for k, tr in enumerate(runs):
            total = sum(map(Fraction, tr.scores.tolist()), Fraction(0))
            assert tr.c == float(total)
            assert tr.success == (total >= Fraction(params.threshold))
            if fresh:  # every round's output is drawn from its own input's CDF row
                u = np.random.Generator(np.random.Philox(key=seed + k)).random((n, 3))
                rows = plan.output_cdfs[tr.input_indices]
                want = np.minimum((u[:, 2:] >= rows).sum(axis=1), rows.shape[1] - 1)
                assert np.array_equal(tr.output_indices, want)

    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(2, 3), st.integers(2, 3)),
        st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_success_counts_match_the_enumerated_mass(self, rng_seed, inputs, n):
        # the successes of the runs are Binomial(trials, mass) on both
        # semantics; each count must lie in the two-sided region that holds
        # it with probability at least 1 - alarm
        trials, alarm = 200, 1e-6
        rng = np.random.default_rng(rng_seed)
        g, d = random_dyadic_pair(rng, inputs)
        q, chi = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 1.0))
        for fresh in (True, False):
            mass = enumerate_success_state(g, d, n, q=q, chi=chi, eps=0.5, fresh_state=fresh).mass
            p = min(max(mass, 0.0), 1.0)  # roundoff can take mass past 1
            params = ProtocolParams(n, q, chi, seed=rng_seed)
            won = int(simulate_outcomes(g, d, params, trials, fresh)[1].sum())
            upper = binomial_tail(trials, p, won)  # P(X >= won)
            lower = binomial_tail(trials, 1.0 - p, trials - won)  # P(X <= won)
            assert min(upper, lower) > alarm / 2, (fresh, won, mass)


class TestNegativeBornWeight:
    """A valid device whose Born table holds a negative roundoff weight: the
    zero rule sets it to 0 before any CDF is built, so no row decreases, the
    searchsorted and count forms of the one draw rule agree, and neither
    semantics ever draws the output that enumeration drops."""

    @staticmethod
    def pair():
        # state diag(1e-17, 0, 1); output 1's projector carries -1e-18 on the
        # third axis, within every validation tolerance
        g = nonlocal_game("negative-born", [(0,)], [(0, 1, 2)], {(0,): 1.0},
                          {((0,), (2,)): 1.0}, (0,))
        meas = {(0,): {(0,): np.diag([1.0, 0.0, 0.0]), (1,): np.diag([0.0, 1.0, -1e-18]),
                       (2,): np.diag([0.0, 0.0, 1.0])}}
        d = make_device("general", (3,), np.diag([1e-17, 0.0, 1.0]), meas, name="negative-born")
        return g, d

    def test_cdf_rows_do_not_decrease(self):
        g, d = self.pair()
        assert validate_device(d).ok
        plan = _round_plan(g, d)
        assert plan.born[0].tolist() == [1e-17, -1e-18, 1.0]
        raw = np.cumsum(plan.born[0])
        assert raw[1] < raw[0]  # the raw weights' CDF decreases
        row = plan.output_cdfs[0]
        assert row.tolist() == [1e-17, 1e-17, 1.0]
        u = np.array([0.0, 5e-18, 9.5e-18, 1e-17, 0.5, 1.0 - 2**-53])
        want = [0, 0, 0, 2, 2, 2]
        assert protocol._draw(row, u).tolist() == want
        assert protocol._draw(np.broadcast_to(row, (len(u), 3)), u).tolist() == want
        # on the raw row the count rule drew the negative output at 9.5e-18
        assert protocol._draw(np.broadcast_to(raw, (len(u), 3)), u)[2] == 1

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "memory"])
    def test_simulation_drops_what_enumeration_drops(self, monkeypatch, fresh):
        g, d = self.pair()
        s = enumerate_success_state(g, d, 2, q=0.5, chi=0.0, eps=0.5, fresh_state=fresh)
        # 2 rows of G_q (generation and test) times outputs 0 and 2 per round;
        # in memory the state after output 0 or 2 is that output's axis, so a
        # second round keeps that output alone
        assert s.branches == (4 * 4 if fresh else 4 * 2)
        # every output CDF row a run draws from gives output 1 no weight: in
        # memory, after output 2 its raw weight is 1e-36, as (-1e-18)^2
        rows = []
        real = protocol._draw
        monkeypatch.setattr(protocol, "_draw", lambda cdf, u: rows.append(cdf) or real(cdf, u))
        simulate(g, d, ProtocolParams(50, 0.5, 0.5, seed=1), fresh_state=fresh)
        outputs = [r for r in rows if r.shape[-1] == 3]  # the input CDF has one entry
        assert outputs and all(np.array_equal(r[..., 1], r[..., 0]) for r in outputs)


class TestRoundPlanMemo:
    def test_same_pair_same_plan(self):
        g, opt, _ = chsh_setup()
        plan = _round_plan(g, opt)
        assert _round_plan(g, opt) is plan
        assert plan.game is g and plan.device is opt
        assert not any(a.flags.writeable
                       for a in (plan.input_cdf, plan.born, plan.output_cdfs, plan.scores))

    def test_second_game_on_the_same_device_gets_its_own_plan(self):
        g, opt, _ = chsh_setup()
        d = replace(opt)
        other = replace(g, scores={k: 1.0 - h for k, h in g.scores.items()})
        plan, other_plan = _round_plan(g, d), _round_plan(other, d)
        assert other_plan is not plan and other_plan.game is other
        assert _round_plan(g, d) is plan and _round_plan(other, d) is other_plan
        assert np.array_equal(other_plan.scores, 1.0 - plan.scores)

    def test_plan_dies_with_its_device(self):
        g, opt, _ = chsh_setup()
        d = replace(opt)
        simulate(g, d, ProtocolParams(n_rounds=3, q=0.3, chi=0.8))
        ref = weakref.ref(d)
        del d
        gc.collect()
        assert ref() is None


class TestEntropyBound:
    def test_delta_one_penalty(self):
        g, opt, _ = chsh_setup()
        s = enumerate_success_state(g, opt, 2, q=0.3, chi=0.0, eps=0.25)
        bound = entropy_lower_bound(s, 1.0)
        assert bound.hmin_lower == pytest.approx(s.renyi_randomness - 1.0 / 0.25, abs=1e-12)

    def test_exact_identity_n4(self):
        g, opt, _ = chsh_setup()
        s = enumerate_success_state(g, opt, 4, q=0.3, chi=0.5, eps=0.2)
        bound = entropy_lower_bound(s, 2.0 ** -3)
        assert bound.hmin_lower == pytest.approx(s.renyi_randomness - 35.0, abs=1e-12)
        assert bound.bits_per_round == pytest.approx(bound.hmin_lower / 4.0, abs=1e-15)

    def test_monotone_in_delta(self):
        g, opt, _ = chsh_setup()
        s = enumerate_success_state(g, opt, 2, q=0.3, chi=0.0, eps=0.2)
        bounds = [entropy_lower_bound(s, delta).hmin_lower
                  for delta in (0.01, 0.1, 0.5, 1.0)]
        assert all(bounds[i] < bounds[i + 1] for i in range(len(bounds) - 1))

    def test_bad_delta(self):
        g, opt, _ = chsh_setup()
        s = enumerate_success_state(g, opt, 1, q=0.3, chi=0.0, eps=0.2)
        with pytest.raises(ProtocolError, match=r"delta must lie in \(0, 1\], got 0.0"):
            entropy_lower_bound(s, 0.0)
        with pytest.raises(ProtocolError, match=r"delta must lie in \(0, 1\], got 1.5"):
            entropy_lower_bound(s, 1.5)


class TestExtractableBits:
    def test_at_threshold_rate_zero(self):
        curve = quadratic_rate_curve(0.75, 4)
        bound = extractable_bits(curve, chi=0.75, q=0.05, b=0.1, n_rounds=1000)
        assert bound.ideal_bits == 0.0

    def test_idealized_bits_large_n(self):
        curve = quadratic_rate_curve(0.75, 4)
        bound = extractable_bits(curve, chi=0.8535533, q=0.05, b=0.1, n_rounds=10**6)
        assert bound.ideal_bits == pytest.approx(10**6 * curve.evaluate(0.8535533), rel=1e-12)
        assert bound.ideal_bits == pytest.approx(10313.5, abs=1.0)

    def test_soundness_and_eps_star(self):
        curve = quadratic_rate_curve(0.75, 4)
        n, q, b = 10**6, (math.log(10**6) ** 2) / 10**6 * 10, 0.05
        bound = extractable_bits(curve, chi=0.85, q=q, b=b, n_rounds=n, slack_constant=1.0)
        assert bound.soundness_error == pytest.approx(3.0 * 2.0 ** (-b * q * n), rel=1e-12)
        log_term = 2.0 * b * q * n  # log2(2/delta^2) in closed form
        assert bound.eps_star == pytest.approx(min(1.0, math.sqrt(q * log_term / n)), rel=1e-12)
        assert bound.delta_term == pytest.approx(q + math.sqrt(log_term / (q * n)), rel=1e-12)
        assert bound.hmin_lower == pytest.approx(
            n * (curve.evaluate(0.85) - bound.delta_term), rel=1e-12
        )

    def test_param_validation(self):
        curve = quadratic_rate_curve(0.75, 4)
        with pytest.raises(ProtocolError):
            extractable_bits(curve, chi=0.8, q=0.0, b=0.1, n_rounds=100)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_and_slack_constant_rejected(self, value):
        curve = quadratic_rate_curve(0.75, 4)
        with pytest.raises(ProtocolError, match="finite b > 0"):
            extractable_bits(curve, chi=0.8, q=0.1, b=value, n_rounds=1000)
        with pytest.raises(ProtocolError, match="slack_constant must be finite"):
            extractable_bits(curve, chi=0.8, q=0.1, b=0.5, n_rounds=1000, slack_constant=value)


class TestHminClassical:
    def test_uniform_two_values(self):
        assert hmin_classical_adversary([[0.5], [0.5]]) == pytest.approx(1.0, abs=1e-12)

    def test_perfectly_correlated(self):
        assert hmin_classical_adversary([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(0.0, abs=1e-12)

    def test_partial_knowledge(self):
        table = [[0.5, 0.0], [0.25, 0.25]]
        assert hmin_classical_adversary(table) == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)

    def test_bad_tables(self):
        with pytest.raises(ProtocolError, match="table mass .* exceeds 1"):
            hmin_classical_adversary([[0.9, 0.3]])
        with pytest.raises(ProtocolError, match="table has negative entries"):
            hmin_classical_adversary([[-0.1, 0.5]])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ProtocolError, match="non-finite"):
                hmin_classical_adversary(np.array([[0.5, bad], [0.2, 0.1]]))


class TestRoundTablesPerBlock:
    """The fresh-state table's per-input brackets (``_branch_brackets``)."""

    @staticmethod
    def brackets(g, d, eps):
        plan = _round_plan(g, d)
        sandwich = block_psd_power(d.state_blocks, 1.0 / (2.0 + 2.0 * eps))
        return plan, [_branch_brackets(plan, i, sandwich, eps) for i in range(len(plan.outputs))]

    @pytest.mark.parametrize("eps", (0.01, 0.05, 0.1, 0.2, 0.5, 1.0))
    def test_block_brackets_match_dense(self, eps):
        entry = catalog.magic_square()
        g, d = entry.game, entry.devices["combined"]
        sandwich = psd_power(d.state, 1.0 / (2.0 + 2.0 * eps))
        _, brackets = self.brackets(g, d, eps)
        for a, row in zip(g.input_alphabet, brackets, strict=True):
            for w, p in zip(row, d.measurements[a].values(), strict=True):
                dense = psd_bracket(sandwich @ p @ sandwich, eps)
                assert w == pytest.approx(dense, rel=1e-12, abs=0)

    def test_haar_rotated_device_gives_the_same_tables(self, combined_and_rotated):
        d, rotated = combined_and_rotated
        g = catalog.magic_square().game
        plan, brackets = self.brackets(g, d, 0.1)
        rotated_plan, rotated_brackets = self.brackets(g, rotated, 0.1)
        assert rotated_plan.outputs == plan.outputs
        assert rotated_plan.units == plan.units
        np.testing.assert_allclose(rotated_plan.born, plan.born, rtol=1e-12, atol=1e-12)
        for row, rotated_row in zip(brackets, rotated_brackets, strict=True):
            assert rotated_row == pytest.approx(row, rel=1e-12)


def test_traces_do_not_depend_on_the_block_layout():
    """Every Magic Square letter's first-round branch weights, from the device's
    round operators as stored and from C-contiguous copies of the branches."""
    for name, d in catalog.magic_square().devices.items():
        for a in d.input_alphabet:
            branches = _branches(d.round_ops[a], d.state_blocks)
            weights = _traces([np.ascontiguousarray(b) for b in branches])
            assert _traces(branches).tobytes() == weights.tobytes(), (name, a)
