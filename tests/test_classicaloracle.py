import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randx import catalog, classicaloracle, devicemodel, scoring
from randx.classicaloracle import (
    OracleError,
    classical_value,
    known_values,
    seesaw,
)
from randx.devicemodel import validate_device
from randx.gamedefs import nonlocal_game
from randx.protocol import GuardError
from tests.dense import is_classically_predictable, seesaw_oracle, strategy_device

CHSH_W = 0.5 + math.sqrt(2.0) / 4.0


def random_two_player_game(seed, n_in=2, n_out=2):
    rng = np.random.default_rng(seed)
    inputs = tuple(range(n_in))
    outputs = tuple(range(n_out))
    joint_inputs = list(itertools.product(inputs, inputs))
    p_raw = rng.random(len(joint_inputs))
    p_raw /= p_raw.sum()
    dist = dict(zip(joint_inputs, p_raw))
    scores = {}
    for a in joint_inputs:
        for x in itertools.product(outputs, outputs):
            scores[(a, x)] = float(rng.integers(0, 2))
    return nonlocal_game(
        f"random-{seed}",
        player_inputs=[inputs, inputs],
        player_outputs=[outputs, outputs],
        distribution=dist,
        scores=scores,
        distinguished_input=joint_inputs[0],
    )


def classical_value_reference(g):
    """The per-term loop of the exact enumeration: (best value, strategy, count)."""
    s = len(g.player_inputs)
    count = math.prod(len(o) ** len(i) for i, o in zip(g.player_inputs, g.player_outputs))
    best_value, best_strategy = -math.inf, None
    outer_spaces = [
        itertools.product(g.player_outputs[i], repeat=len(g.player_inputs[i]))
        for i in range(s - 1)
    ]
    for outer in itertools.product(*outer_spaces):
        outer_maps = [dict(zip(g.player_inputs[i], outer[i])) for i in range(s - 1)]
        last_map = {}
        for a_last in g.player_inputs[-1]:
            best_g, best_x = -math.inf, g.player_outputs[-1][0]
            for x_last in g.player_outputs[-1]:
                val = 0.0
                for a in g.input_alphabet:
                    if a[-1] != a_last or g.prob(a) == 0.0:
                        continue
                    x = tuple(outer_maps[i][a[i]] for i in range(s - 1)) + (x_last,)
                    val += g.prob(a) * g.score(a, x)
                if val > best_g + 1e-15:
                    best_g, best_x = val, x_last
            last_map[a_last] = best_x
        strategy = tuple(outer_maps) + (last_map,)
        value = math.fsum(
            g.prob(a) * g.score(a, tuple(strategy[i][a[i]] for i in range(s)))
            for a in g.input_alphabet if g.prob(a) != 0.0
        )
        if value > best_value + 1e-15:
            best_value, best_strategy = value, strategy
    return best_value, best_strategy, count


def three_player_game(seed):
    rng = np.random.default_rng(seed)
    inputs, outputs = (0, 1), ("a", "b", "c")
    joint = list(itertools.product(inputs, inputs, inputs))
    weights = rng.random(len(joint)) * (rng.random(len(joint)) > 0.3)
    scores = {
        (a, x): float(rng.integers(0, 3)) / 2.0
        for a in joint for x in itertools.product(outputs, outputs, outputs)
    }
    return nonlocal_game(
        f"three-{seed}",
        player_inputs=[inputs, inputs, inputs],
        player_outputs=[outputs, outputs, outputs],
        distribution=dict(zip(joint, weights / weights.sum())),
        scores=scores,
        distinguished_input=joint[0],
    )


class TestClassicalValue:
    @pytest.mark.parametrize("game", ["chsh", "magic-square", "random", "three"])
    def test_equals_the_per_term_loop(self, game):
        if game == "random":
            games = [random_two_player_game(seed, n_in=3, n_out=3) for seed in range(6)]
        elif game == "three":
            games = [three_player_game(seed) for seed in range(3)]
        else:
            games = [catalog.get_game(game)]
        for g in games:
            res = classical_value(g)
            assert (res.best_value, res.best_strategy, res.count) == classical_value_reference(g)

    def test_chsh(self):
        res = classical_value(catalog.chsh().game)
        assert res.best_value == 0.75
        assert res.count == 16  # (2 outputs ^ 2 inputs) per player

    def test_magic_square(self):
        res = classical_value(catalog.magic_square().game)
        assert res.best_value == 8.0 / 9.0
        assert res.count == (8 ** 3) ** 2

    def test_single_player_copy_game(self):
        inputs = (0, 1, 2)
        scores = {((a,), (a,)): 1.0 for a in inputs}
        g = nonlocal_game(
            "copy",
            player_inputs=[inputs],
            player_outputs=[inputs],
            distribution={(a,): 1.0 / 3.0 for a in inputs},
            scores=scores,
            distinguished_input=(0,),
        )
        assert classical_value(g).best_value == pytest.approx(1.0, abs=1e-15)

    def test_guard(self):
        inputs = tuple(range(6))
        outputs = tuple(range(10))
        g = nonlocal_game(
            "huge",
            player_inputs=[inputs, inputs],
            player_outputs=[outputs, outputs],
            distribution={a: 1 / 36 for a in itertools.product(inputs, inputs)},
            scores={},
            distinguished_input=(0, 0),
        )
        with pytest.raises(GuardError, match="strategies exceed the 10000000 guard"):
            classical_value(g)

    def test_strategy_rescoring_matches(self):
        g = catalog.chsh().game
        res = classical_value(g)
        d = strategy_device(g, res.best_strategy)
        assert validate_device(d).ok
        assert scoring.eps_score(g, d, 0.0) == pytest.approx(res.best_value, abs=1e-12)

    def test_perturbing_best_never_improves(self):
        g = catalog.chsh().game
        res = classical_value(g)
        rng = np.random.default_rng(0)
        for _ in range(50):
            strategy = [dict(player) for player in res.best_strategy]
            player = int(rng.integers(len(strategy)))
            a = g.player_inputs[player][int(rng.integers(len(g.player_inputs[player])))]
            strategy[player][a] = g.player_outputs[player][
                int(rng.integers(len(g.player_outputs[player])))
            ]
            d = strategy_device(g, strategy)
            assert scoring.eps_score(g, d, 0.0) <= res.best_value + 1e-12

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 3), min_size=2, max_size=2),
           st.lists(st.integers(2, 3), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_random_games_rescore_their_best_strategy(self, rng_seed, n_in, n_out):
        # the enumeration's value against the best strategy embedded as a
        # device and scored by the Born rule; no other strategy scores more
        rng = np.random.default_rng(rng_seed)
        player_inputs = [tuple(range(k)) for k in n_in]
        player_outputs = [tuple(range(k)) for k in n_out]
        letters = list(itertools.product(*player_inputs))
        cells = [(a, x) for a in letters for x in itertools.product(*player_outputs)]
        g = nonlocal_game("random", player_inputs, player_outputs,
                          dict(zip(letters, rng.dirichlet(np.ones(len(letters))).tolist())),
                          dict(zip(cells, rng.random(len(cells)).tolist())), letters[0])
        res = classical_value(g)
        assert scoring.eps_score(g, strategy_device(g, res.best_strategy), 0.0) == pytest.approx(
            res.best_value, abs=1e-12)
        other = [{a: outs[int(rng.integers(len(outs)))] for a in ins}
                 for ins, outs in zip(player_inputs, player_outputs)]
        assert scoring.eps_score(g, strategy_device(g, other), 0.0) <= res.best_value + 1e-12

    def test_deterministic_tie_break(self):
        a = classical_value(catalog.chsh().game)
        b = classical_value(catalog.chsh().game)
        assert a.best_strategy == b.best_strategy


class TestSeesaw:
    def test_chsh_unconstrained_reaches_quantum_value(self):
        res = seesaw(catalog.chsh().game, (2, 2), restarts=8, seed=11)
        assert res.value >= CHSH_W - 1e-5
        assert validate_device(res.device).ok

    def test_value_matches_rescored_device(self):
        res = seesaw(catalog.chsh().game, (2, 2), restarts=4, seed=3)
        rescored = scoring.eps_score(catalog.chsh().game, res.device, 0.0)
        assert res.value == pytest.approx(rescored, abs=1e-8)

    def test_chsh_constrained_hits_three_quarters(self):
        res = seesaw(catalog.chsh().game, (2, 2), constrain_abar=True, restarts=8, seed=5)
        assert res.value >= 0.75 - 1e-6
        assert res.value <= 0.75 + 1e-6
        ok, dev = is_classically_predictable(res.device, (0, 0))
        assert ok, f"constrained witness not predictable (defect {dev})"

    def test_zero_scores_give_zero(self):
        g = catalog.chsh().game
        zero = nonlocal_game(
            "zero",
            player_inputs=g.player_inputs,
            player_outputs=g.player_outputs,
            distribution={a: g.prob(a) for a in g.input_alphabet},
            scores={},
            distinguished_input=(0, 0),
        )
        res = seesaw(zero, (2, 2), restarts=2, iters=20, seed=0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_classical_never_beats_quantum(self):
        for seed in (1, 2, 3):
            g = random_two_player_game(seed)
            cv = classical_value(g)
            sw = seesaw(g, (2, 2), restarts=6, seed=seed)
            assert cv.best_value <= sw.value + 1e-9

    def test_constrained_never_beats_unconstrained(self):
        for seed in (4, 5):
            g = random_two_player_game(seed)
            un = seesaw(g, (2, 2), restarts=6, seed=seed)
            con = seesaw(g, (2, 2), constrain_abar=True, restarts=6, seed=seed)
            assert con.value <= un.value + 1e-9

    def test_seeded_reproducibility(self):
        a = seesaw(catalog.chsh().game, (2, 2), restarts=3, seed=7)
        b = seesaw(catalog.chsh().game, (2, 2), restarts=3, seed=7)
        assert a.value == b.value

    def test_guards(self):
        g = catalog.chsh().game
        with pytest.raises(GuardError, match=r"per-player dims must lie in \[1, 8\]"):
            seesaw(g, (9, 2))
        for bad in ({"restarts": 0}, {"iters": 0}, {"restarts": -1}):
            with pytest.raises(OracleError, match="must be at least 1"):
                seesaw(g, (2, 2), **bad)
        with pytest.raises(OracleError, match="seed must be a non-negative integer, got seed -1"):
            seesaw(g, (2, 2), seed=-1)
        three = nonlocal_game(
            "three",
            player_inputs=[(0,), (0,), (0,)],
            player_outputs=[(0, 1)] * 3,
            distribution={(0, 0, 0): 1.0},
            scores={},
            distinguished_input=(0, 0, 0),
        )
        with pytest.raises(GuardError, match="see-saw supports exactly 2-player nonlocal games"):
            seesaw(three, (2, 2, 2))


# (game, dims, constrain_abar, restarts, iters, seed): the stacked see-saw
# against the one-restart loop; more restarts than one block in the last rows.
SEESAW_GRID = [
    ("chsh", (2, 2), False, 4, 500, 3),
    ("chsh", (2, 2), True, 6, 500, 5),
    ("chsh", (1, 2), False, 5, 500, 2),
    ("chsh", (3, 2), True, 7, 500, 8),
    ("chsh", (8, 8), False, 2, 5, 9),
    ("magic-square", (1, 1), False, 3, 20, 3),
    ("magic-square", (3, 3), False, 2, 4, 1),
    ("magic-square", (4, 4), True, 2, 3, 4),
    *[(seed, dims, False, 4, 500, seed) for seed in (1, 2, 3) for dims in ((2, 2), (3, 2))],
    ("chsh", (2, 2), False, 2 * classicaloracle._SEESAW_BLOCK + 3, 500, 13),
    ("chsh", (2, 2), True, classicaloracle._SEESAW_BLOCK + 4, 500, 1),
    # one-dimensional restarts all tie at 0.75, with two different strategies
    # (restart 0 and the last one differ): the first restart must win
    ("chsh", (1, 1), False, classicaloracle._SEESAW_BLOCK + 2, 50, 0),
]


def seesaw_game(name):
    return random_two_player_game(name) if isinstance(name, int) else catalog.get_game(name)


def witness_digest(device):
    digest = hashlib.sha256()
    devicemodel.json_write(device, 1, lambda chunk: digest.update(chunk.encode()))
    return digest.hexdigest()


@pytest.mark.parametrize("name, dims, constrained, restarts, iters, seed", SEESAW_GRID)
def test_stacked_seesaw_equals_one_restart_loop(name, dims, constrained, restarts, iters, seed):
    g = seesaw_game(name)
    kwargs = dict(constrain_abar=constrained, restarts=restarts, iters=iters, seed=seed)
    got, want = seesaw(g, dims, **kwargs), seesaw_oracle(g, dims, **kwargs)
    assert got.value == want.value
    assert got.iterations == want.iterations
    assert got.restart_values == want.restart_values
    # digests: a failing diff of two multi-megabyte witness texts takes minutes
    assert witness_digest(got.device) == witness_digest(want.device)


class TestRestartValues:
    def test_one_entry_per_restart_in_order(self):
        res = seesaw(catalog.get_game("magic-square"), (4, 4), restarts=2, iters=10, seed=2)
        assert len(res.restart_values) == 2
        alone = seesaw(catalog.get_game("magic-square"), (4, 4), restarts=1, iters=10, seed=2)
        assert res.restart_values[0] == alone.restart_values[0]

    @pytest.mark.parametrize("constrained", [False, True])
    def test_max_is_the_merged_value(self, constrained):
        g = catalog.chsh().game
        res = seesaw(g, (2, 2), constrain_abar=constrained, restarts=20, seed=1)
        want = seesaw_oracle(g, (2, 2), constrain_abar=constrained, restarts=20, seed=1)
        # the oracle merges its restarts' values before re-scoring the witness
        assert max(res.restart_values) == max(want.restart_values)
        assert max(res.restart_values) == pytest.approx(res.value, abs=1e-12)


class TestKnownValues:
    def test_chsh_row(self):
        row = known_values("chsh")
        assert row.w_classical == 0.75
        assert row.w_quantum == pytest.approx(CHSH_W, abs=1e-15)
        assert row.w_quantum_abar == 0.75
        assert row.noise_tolerance == pytest.approx(math.sqrt(2.0) / 4.0 - 0.25, abs=1e-12)

    def test_magic_square_row(self):
        row = known_values("magic-square")
        assert row.w_classical == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert row.w_quantum == pytest.approx(5 / 9 + (4 / 9) * CHSH_W, abs=1e-12)
        assert row.w_quantum_abar is None
        assert row.noise_tolerance is None
        assert "lower bound" in row.notes["w_quantum"]

    def test_unknown(self):
        with pytest.raises(OracleError, match="no known-values row for 'ghz'"):
            known_values("ghz")
