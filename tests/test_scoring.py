import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randx import catalog, matcore, protocol, scoring
from randx.devicemodel import GENERAL, direct_sum, make_device
from randx.gamedefs import GameError, nonlocal_game
from randx.scoring import (
    ScoringError,
    eps_randomness,
    eps_score,
    quadratic_rate_curve,
    randomness_report,
    weighted_randomness,
)
from tests import dense
from tests.conftest import haar_rotated
from tests.dense import game_operator
from tests.test_protocol import random_dyadic_pair

CHSH_W = 0.5 + math.sqrt(2.0) / 4.0
REPORT_EPS = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)


def constant_score_game(value):
    g = catalog.chsh().game
    scores = {(a, x): value for a in g.input_alphabet for x in g.output_alphabet}
    return nonlocal_game(
        f"const-{value}",
        player_inputs=g.player_inputs,
        player_outputs=g.player_outputs,
        distribution={a: g.prob(a) for a in g.input_alphabet},
        scores=scores,
        distinguished_input=(0, 0),
    )


def single_input_device(phi, projectors):
    """One-input device used for randomness hand checks."""
    meas = {0: dict(enumerate(projectors))}
    return make_device(GENERAL, (phi.shape[0],), phi, meas)


class TestGameOperator:
    def test_zero_scores(self):
        g = constant_score_game(0.0)
        d = catalog.chsh().devices["optimal"]
        op = game_operator(g, d)
        assert np.max(np.abs(op.matrix)) == 0.0

    def test_constant_one_gives_identity(self):
        g = constant_score_game(1.0)
        d = catalog.chsh().devices["optimal"]
        op = game_operator(g, d)
        assert np.max(np.abs(op.matrix - np.eye(4))) < 1e-12

    def test_chsh_top_eigenvalue(self):
        entry = catalog.chsh()
        op = game_operator(entry.game, entry.devices["optimal"])
        assert np.linalg.eigvalsh(op.matrix)[-1] == pytest.approx(CHSH_W, abs=1e-12)

    def test_operator_below_identity(self):
        entry = catalog.chsh()
        op = game_operator(entry.game, entry.devices["optimal"])
        assert np.linalg.eigvalsh(op.matrix)[-1] <= 1.0 + 1e-9

    def test_rebuild_matches(self):
        entry = catalog.chsh()
        d = entry.devices["optimal"]
        g = entry.game
        k = np.zeros((4, 4), dtype=complex)
        for a in g.input_alphabet:
            for x, p in d.measurements[a].items():
                k += g.prob(a) * g.score(a, x) * p
        op = game_operator(g, d)
        assert np.max(np.abs(op.matrix - k)) < 1e-12

    def test_incompatible_rejected(self):
        with pytest.raises(GameError, match="game and device input alphabets differ"):
            game_operator(catalog.chsh().game, catalog.magic_square().devices["mixture"])


class TestEpsScore:
    def test_chsh_optimal_at_zero(self):
        entry = catalog.chsh()
        assert eps_score(entry.game, entry.devices["optimal"], 0.0) == pytest.approx(
            CHSH_W, abs=1e-9
        )

    def test_matches_born_rule_at_zero(self):
        entry = catalog.chsh()
        d = entry.devices["optimal"]
        g = entry.game
        born = sum(
            g.prob(a) * g.score(a, x) * np.trace(p @ d.state).real
            for a in g.input_alphabet
            for x, p in d.measurements[a].items()
        )
        assert eps_score(g, d, 0.0) == pytest.approx(born, abs=1e-9)

    def test_constant_game_scores_one_for_all_eps(self):
        g = constant_score_game(1.0)
        d = catalog.chsh().devices["optimal"]
        for eps in (0.0, 0.1, 0.5, 1.0):
            assert eps_score(g, d, eps) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_device(self):
        entry = catalog.chsh()
        assert eps_score(entry.game, entry.devices["classical"], 0.0) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_continuity_in_eps(self):
        entry = catalog.chsh()
        d = entry.devices["optimal"]
        gaps = [
            abs(eps_score(entry.game, d, eps) - eps_score(entry.game, d, 0.0))
            for eps in (0.4, 0.2, 0.1, 0.05)
        ]
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))

    def test_eps_range(self):
        entry = catalog.chsh()
        with pytest.raises(ScoringError, match=r"eps must lie in \[0, 1\], got 1.5"):
            eps_score(entry.game, entry.devices["optimal"], 1.5)


class TestEpsRandomness:
    def test_deterministic_branch_gives_zero(self):
        # state already diagonal in the measurement basis: pinching fixed point
        phi = np.diag([0.5, 0.5])
        d = single_input_device(phi, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert eps_randomness(0, d, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_gives_one_bit(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        d = single_input_device(plus, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert eps_randomness(0, d, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_game_variant_weights(self):
        entry = catalog.chsh()
        d = entry.devices["optimal"]
        val = weighted_randomness(entry.game, d, 0.5, 0.0)
        per_input = [eps_randomness(a, d, 0.5) for a in entry.game.input_alphabet]
        assert min(per_input) - 1e-9 <= val <= max(per_input) + 1e-9

    def test_nonnegative_up_to_clamp(self):
        entry = catalog.chsh()
        for eps in (0.01, 0.1, 1.0):
            val = eps_randomness((0, 0), entry.devices["optimal"], eps)
            assert val >= -2e-9 / eps


class TestWeightedRandomness:
    def test_s_zero_matches_game_randomness(self):
        # at s = 0 the ratio is the p-weighted mean of each input's ratio
        entry = catalog.chsh()
        d = entry.devices["optimal"]
        g = entry.game
        mean = sum(g.prob(a) * 2.0 ** (-0.3 * eps_randomness(a, d, 0.3)) for a in g.input_alphabet)
        assert weighted_randomness(g, d, 0.3, 0.0) == pytest.approx(
            -math.log2(mean) / 0.3, rel=1e-12
        )
        # every projector I: the bracket ratio is 4, beyond the clamp, on both routes
        eye = np.eye(d.dim, dtype=complex)
        bad = replace(d, measurements={
            a: {x: eye for x in outs} for a, outs in d.measurements.items()
        })
        with pytest.raises(scoring.ScoringError):
            eps_randomness((0, 0), bad, 0.3)
        with pytest.raises(scoring.ScoringError):
            weighted_randomness(entry.game, bad, 0.3, 0.0)

    def test_zero_scores_match_for_any_s(self):
        g = constant_score_game(0.0)
        d = catalog.chsh().devices["optimal"]
        for s in (-2.0, 1.0, 5.0):
            assert weighted_randomness(g, d, 0.2, s) == weighted_randomness(g, d, 0.2, 0.0)

    def test_weighted_lower_bound_slack(self):
        # slack of the weighted-vs-plain relation stays O(eps)
        entry = catalog.chsh()
        d = entry.devices["optimal"]
        s = 1.0
        ratios = []
        for eps in (0.1, 0.05, 0.01):
            slack = (
                weighted_randomness(entry.game, d, eps, s)
                - weighted_randomness(entry.game, d, eps, 0.0)
                + s * eps_score(entry.game, d, eps)
            )
            ratios.append(slack / eps)
        assert all(r > -5.0 for r in ratios)
        assert all(abs(r) < 10.0 for r in ratios)


class TestRateCurves:
    def test_quadratic_zero_at_threshold(self):
        curve = quadratic_rate_curve(0.75, 4)
        assert curve.evaluate(0.75) == 0.0
        assert curve.evaluate(0.5) == 0.0
        assert curve.derivative(0.6) == 0.0

    def test_quadratic_value_above_threshold(self):
        curve = quadratic_rate_curve(0.75, 4)
        x = 0.8535533
        expected = 2.0 * math.log2(math.e) * (x - 0.75) ** 2 / 3.0
        assert curve.evaluate(x) == pytest.approx(expected, rel=1e-12)
        assert curve.evaluate(x) == pytest.approx(0.0103135, abs=5e-7)

    def test_quadratic_monotone(self):
        curve = quadratic_rate_curve(0.75, 4)
        assert curve.evaluate(0.85) < curve.evaluate(0.853)

    def test_quadratic_convex_nondecreasing(self):
        curve = quadratic_rate_curve(0.75, 4)
        xs = np.linspace(0.0, CHSH_W, 200)
        vals = [curve.evaluate(x) for x in xs]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-15)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-12)

    def test_bad_params(self):
        with pytest.raises(ScoringError, match=r"threshold w must lie in \[0, 1\), got -0.1"):
            quadratic_rate_curve(-0.1, 4)
        with pytest.raises(ScoringError, match="output alphabet size must be >= 2, got 1"):
            quadratic_rate_curve(0.5, 1)


def test_randomness_report_fields():
    entry = catalog.chsh()
    g, d = entry.game, entry.devices["optimal"]
    rep = randomness_report(g, d, 0.2)
    assert rep.w_eps > 0.8
    # one shared branch table gives the same bits as the separate calls
    assert rep.w_eps == eps_score(g, d, 0.2)
    assert rep.r_input == eps_randomness(g.distinguished_input, d, 0.2)
    assert rep.r_game == weighted_randomness(g, d, 0.2, 0.0)


def test_randomness_report_brackets_each_branch_once(monkeypatch):
    decomposed = []  # each call's number of matrices L
    real_spectra = matcore.block_psd_spectra
    monkeypatch.setattr(
        matcore, "block_psd_spectra",
        lambda stacks: decomposed.append(len(stacks[0])) or real_spectra(stacks),
    )
    entry = catalog.magic_square()
    d = replace(entry.devices["combined"])  # a cold copy: it keeps no spectra yet
    for eps in REPORT_EPS:
        randomness_report(entry.game, d, eps)
    branches = sum(len(outs) for outs in d.measurements.values())
    # over the whole eps sweep: every branch once, plus phi and the K sandwich
    assert sum(decomposed) == branches + 2
    # one call per input, plus phi and the K sandwich
    assert len(decomposed) == len(d.measurements) + 2 == 11
    # the other entry points read the same spectra
    for eps in REPORT_EPS:
        eps_score(entry.game, d, eps)
        eps_randomness(entry.game.distinguished_input, d, eps)
        weighted_randomness(entry.game, d, eps, 1.0)
    assert len(decomposed) == 11


def scoring_calls(g, eps):
    """The four scoring entry points at eps, each a function of the device;
    a report compares field by field."""
    return {
        "eps_score": lambda d: eps_score(g, d, eps),
        "eps_randomness": lambda d: eps_randomness(g.distinguished_input, d, eps),
        "weighted_randomness": lambda d: weighted_randomness(g, d, eps, 1.0),
        "randomness_report": lambda d: randomness_report(g, d, eps),
    }


def test_kept_spectra_give_the_same_bits_in_any_order():
    # every value on a cold copy of its device, against one warm copy per
    # device queried in a shuffled order that interleaves devices, entry
    # points and eps
    cases = {}
    warm = {}
    for entry in (catalog.chsh(), catalog.magic_square()):
        for name, d in entry.devices.items():
            warm[name] = replace(d)
            for eps in REPORT_EPS:
                for call, f in scoring_calls(entry.game, eps).items():
                    cases[name, call, eps] = (f, f(replace(d)))
    assert len(cases) == 13 * 4 * 6
    order = list(cases)
    for seed in (1, 2):
        random.Random(seed).shuffle(order)
        for key in order:
            f, cold = cases[key]
            assert f(warm[key[0]]) == cold, key


@given(st.integers(0, 2**32 - 1), st.tuples(st.integers(2, 3), st.integers(2, 3)),
       st.integers(1, 3), st.sampled_from(REPORT_EPS))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_block_report_matches_a_haar_rotated_dense_copy(rng_seed, inputs, parts, eps):
    # a direct sum of random components blocks, against the same device
    # conjugated by one Haar unitary into a single dense block
    rng = np.random.default_rng(rng_seed)
    pairs = [random_dyadic_pair(rng, inputs) for _ in range(parts)]
    weights = rng.dirichlet(np.ones(parts)).tolist()
    d = direct_sum([(w, dk) for w, (_, dk) in zip(weights, pairs)], "random-blocks")
    rotated = haar_rotated(d, rng)
    assert len(d.blocks[0]) >= parts and [idx.shape for idx in rotated.blocks] == [(1, d.dim)]
    g = pairs[0][0]
    rep, rot = randomness_report(g, d, eps), randomness_report(g, rotated, eps)
    # -(1/eps) log2 of a ratio carries its rounding times 1/eps
    assert rot.w_eps == pytest.approx(rep.w_eps, rel=1e-11)
    assert rot.r_input == pytest.approx(rep.r_input, rel=1e-9, abs=1e-11 / eps)
    assert rot.r_game == pytest.approx(rep.r_game, rel=1e-9, abs=1e-11 / eps)


def test_each_pair_is_checked_once(monkeypatch):
    checks = []
    real = protocol.require_compatible
    monkeypatch.setattr(
        protocol, "require_compatible", lambda g, d: checks.append(1) or real(g, d)
    )
    entry = catalog.chsh()
    g, d = entry.game, replace(entry.devices["optimal"])
    params = protocol.ProtocolParams(n_rounds=10, q=0.3, chi=0.5)

    def every_entry_point():
        eps_score(g, d, 0.1)
        weighted_randomness(g, d, 0.1, 1.0)
        randomness_report(g, d, 0.1)
        protocol.simulate_outcomes(g, d, params, 3)
        protocol.enumerate_success_state(g, d, 2, q=0.3, chi=0.5, eps=0.1)

    every_entry_point()
    assert len(checks) == 1
    every_entry_point()
    assert len(checks) == 1
    with pytest.raises(GameError, match="input alphabets differ"):
        eps_score(g, catalog.magic_square().devices["mixture"], 0.1)


def test_repeated_report_and_round_plan_split_nothing(monkeypatch):
    entry = catalog.magic_square()
    d = entry.devices["combined"]
    randomness_report(entry.game, d, 0.1)
    split = []
    real_split = matcore.split_blocks
    monkeypatch.setattr(
        matcore, "split_blocks", lambda m, blocks: split.append(m.shape) or real_split(m, blocks)
    )
    randomness_report(entry.game, d, 0.2)
    protocol._round_plan(entry.game, d)
    # the device keeps its state and projector stacks, and K and the Born
    # table are formed from them
    assert split == []


@pytest.mark.parametrize("entry", ["chsh", "magic-square"])
def test_block_k_equals_dense_k(entry):
    e = catalog.get_entry(entry)
    for d in e.devices.values():
        k = scoring._k_blocks(d, scoring._game_terms(e.game, d))
        ref = matcore.split_blocks(dense.game_operator(e.game, d).matrix, d.blocks)
        assert len(k) == len(ref)
        assert all(np.array_equal(kb, rb) for kb, rb in zip(k, ref)), d.name


def test_block_kernels_never_see_a_matrix_wider_than_a_block(monkeypatch):
    entry = catalog.magic_square()
    d = replace(entry.devices["combined"])  # a cold copy, whose spectra are decomposed here
    widths = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, real=real, **kwargs):
            widths.append(a.shape[-1])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    scoring._branch_table(d, list(d.measurements), 0.1)
    for fresh in (True, False):
        protocol.enumerate_success_state(entry.game, d, 2, q=0.3, chi=0.5, eps=0.1,
                                         fresh_state=fresh)
    randomness_report(entry.game, d, 0.1)
    assert widths and max(widths) <= 4


@pytest.mark.parametrize("eps", REPORT_EPS)
def test_block_brackets_match_dense_brackets(eps):
    entry = catalog.magic_square()
    d = entry.devices["combined"]
    table = scoring._branch_table(d, list(d.measurements), eps)
    phi = dense.psd_bracket(d.state, eps)
    assert table.state == pytest.approx(phi, rel=1e-12, abs=0)
    assert list(table.branches) == list(d.measurements)
    for a, outs in d.measurements.items():
        assert len(table.branches[a]) == len(outs)
        for p, w in zip(outs.values(), table.branches[a]):
            assert w == pytest.approx(dense.psd_bracket(p @ d.state @ p, eps), rel=1e-12, abs=0)
    dense_score = dense.psd_bracket(game_operator(entry.game, d).device_state, eps) / phi
    assert eps_score(entry.game, d, eps) == pytest.approx(dense_score, rel=1e-12, abs=0)


@pytest.mark.parametrize("eps", (0.01, 0.5))
def test_haar_rotated_device_is_one_block_with_the_same_report(combined_and_rotated, eps):
    d, rotated = combined_and_rotated
    assert [idx.shape for idx in rotated.blocks] == [(1, d.dim)]
    g = catalog.magic_square().game
    rep, rot = randomness_report(g, d, eps), randomness_report(g, rotated, eps)
    assert rot.w_eps == pytest.approx(rep.w_eps, rel=1e-12)
    assert rot.r_game == pytest.approx(rep.r_game, rel=1e-12)
    assert rot.r_input == pytest.approx(rep.r_input, abs=1e-12)
