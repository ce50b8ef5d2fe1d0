"""Built-in games and devices: CHSH and the Magic Square suite.

CHSH: uniform inputs over {0,1}^2, win iff x1 XOR x2 = a1 AND a2,
distinguished input (0,0).  The optimal device measures a shared Bell pair
at angles (0, pi/4) and (pi/8, -pi/8); the classical device always answers
(0, 0).

Magic Square: each player gets an input in {0,1,2} and answers three bits;
player 1's row must have even parity, player 2's column odd parity, and the
shared cell must agree, i.e. x1[a2] == x2[a1] (row a1 is indexed by column
position and column a2 by row position).  The suite contains:

  * eight single-pair devices, one per valid (0,0)-answer pair, each
    deterministic on input (0,0) and winning with probability 1 whenever
    a1 = 0 or a2 = 0 and with probability 1/2 + sqrt(2)/4 otherwise,
  * their uniform mixture (whose (0,0)-output is fully predictable given the
    mixture label),
  * the cross mixture: the uniform mixture of classical strategies that each
    lose only on one designated input pair of the cross
    S = {a1 = 0 or a2 = 0}, and
  * the combined device whose losing probability is the same 0.2 b/(0.2+b)
    on every input pair (b = 1/2 - sqrt(2)/4), superclassical yet useless
    for spot-checking randomness generation.

Classical and mixture devices are represented with the classical label as an
orthogonal subspace index (block-diagonal operators), so a single Device
type serves every construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import protocol
from .devicemodel import (
    Device,
    block_device,
    born_probabilities,
    components_device,
    direct_sum,
)
from .gamedefs import Game, nonlocal_game
from .matcore import haar_pvm, random_psd

SQRT2 = math.sqrt(2.0)
CHSH_QUANTUM = 0.5 + SQRT2 / 4.0
MS_LOSS_BETA = 0.5 - SQRT2 / 4.0


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    game: Game
    device: Device
    devices: dict[str, Device]


def _proj(theta: float) -> np.ndarray:
    v = np.array([math.cos(theta), math.sin(theta)], dtype=np.complex128)
    return np.outer(v, np.conj(v))


def _bell_state() -> np.ndarray:
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / SQRT2
    return np.outer(psi, np.conj(psi))


def _basis_measurement(theta: float) -> dict[int, np.ndarray]:
    return {0: _proj(theta), 1: _proj(theta + math.pi / 2.0)}


# ---------------------------------------------------------------------------
# CHSH


@lru_cache(maxsize=None)
def chsh_game() -> Game:
    bits = (0, 1)
    scores = {}
    for a in itertools.product(bits, bits):
        for x in itertools.product(bits, bits):
            win = (x[0] ^ x[1]) == (a[0] & a[1])
            scores[(a, x)] = 1.0 if win else 0.0
    dist = {a: 0.25 for a in itertools.product(bits, bits)}
    return nonlocal_game(
        "chsh",
        player_inputs=[bits, bits],
        player_outputs=[bits, bits],
        distribution=dist,
        scores=scores,
        distinguished_input=(0, 0),
    )


def chsh_optimal_device() -> Device:
    angles1 = {0: 0.0, 1: math.pi / 4.0}
    angles2 = {0: math.pi / 8.0, 1: -math.pi / 8.0}
    site1 = {a: _basis_measurement(t) for a, t in angles1.items()}
    site2 = {a: _basis_measurement(t) for a, t in angles2.items()}
    return components_device((2, 2), _bell_state(), (site1, site2), name="chsh-optimal")


def chsh_classical_device() -> Device:
    site = {a: {0: np.eye(1, dtype=np.complex128)} for a in (0, 1)}
    d = components_device((1, 1), np.eye(1, dtype=np.complex128), (site, site), name="chsh-classical")
    g = chsh_game()
    return replace(d, input_alphabet=g.input_alphabet, output_alphabet=g.output_alphabet)


def _rotated_basis(theta: float) -> dict[int, np.ndarray]:
    v1 = np.array([-math.sin(theta), math.cos(theta)], dtype=np.complex128)
    return {0: _proj(theta), 1: np.outer(v1, np.conj(v1))}


def random_chsh_device(rng: np.random.Generator, perturbed: bool = False) -> Device:
    """Random CHSH-compatible two-site device.

    perturbed=True samples near the optimal construction (jittered angles,
    state mixed toward noise) so the interesting high-score region is
    covered; otherwise bases and state are fully random.
    """
    if perturbed:
        ang1 = {0: rng.normal(0.0, 0.3), 1: math.pi / 4 + rng.normal(0.0, 0.3)}
        ang2 = {0: math.pi / 8 + rng.normal(0.0, 0.3), 1: -math.pi / 8 + rng.normal(0.0, 0.3)}
        site1 = {a: _rotated_basis(t) for a, t in ang1.items()}
        site2 = {a: _rotated_basis(t) for a, t in ang2.items()}
        lam = rng.uniform(0.0, 0.3)
        noise = random_psd(4, rng)
        noise /= np.trace(noise).real
        state = (1 - lam) * _bell_state() + lam * noise
    else:
        site1 = {a: dict(enumerate(haar_pvm(2, 2, rng))) for a in (0, 1)}
        site2 = {a: dict(enumerate(haar_pvm(2, 2, rng))) for a in (0, 1)}
        state = random_psd(4, rng)
        state /= np.trace(state).real
    return components_device((2, 2), state, (site1, site2))


@lru_cache(maxsize=None)
def chsh() -> CatalogEntry:
    game = chsh_game()
    optimal = chsh_optimal_device()
    classical = chsh_classical_device()
    return CatalogEntry(
        name="chsh", game=game, device=optimal, devices={"optimal": optimal, "classical": classical}
    )


# ---------------------------------------------------------------------------
# Magic Square


def _ms_win(a1: int, a2: int, x1: tuple, x2: tuple) -> bool:
    return (
        (x1[0] ^ x1[1] ^ x1[2]) == 0
        and (x2[0] ^ x2[1] ^ x2[2]) == 1
        and x1[a2] == x2[a1]
    )


@lru_cache(maxsize=None)
def magic_square_game() -> Game:
    triples = tuple(itertools.product((0, 1), repeat=3))
    inputs = (0, 1, 2)
    scores = {}
    for a in itertools.product(inputs, inputs):
        for x1 in triples:
            for x2 in triples:
                if _ms_win(a[0], a[1], x1, x2):
                    scores[(a, (x1, x2))] = 1.0
    dist = {a: 1.0 / 9.0 for a in itertools.product(inputs, inputs)}
    return nonlocal_game(
        "magic-square",
        player_inputs=[inputs, inputs],
        player_outputs=[triples, triples],
        distribution=dist,
        scores=scores,
        distinguished_input=(0, 0),
    )


def ms_answer_pairs() -> list[tuple[tuple, tuple]]:
    """The eight (x1, x2) pairs with even/odd parity and matching first bit."""
    pairs = []
    for x1 in itertools.product((0, 1), repeat=3):
        if x1[0] ^ x1[1] ^ x1[2]:
            continue
        for x2 in itertools.product((0, 1), repeat=3):
            if not (x2[0] ^ x2[1] ^ x2[2]):
                continue
            if x1[0] == x2[0]:
                pairs.append((x1, x2))
    return pairs


def _pair_key(x1bar: tuple, x2bar: tuple) -> str:
    """Catalog name of a single-pair device, e.g. 'pair-000-001'."""
    return "pair-" + "".join(map(str, x1bar)) + "-" + "".join(map(str, x2bar))


@lru_cache(maxsize=None)
def ms_pair_device(x1bar: tuple, x2bar: tuple) -> Device:
    """Single-pair device: answers (x1bar, x2bar) on input (0,0) surely.

    The non-zero inputs measure a shared Bell pair in bases whose
    orientations are fixed by four alignment constraints (one per input pair
    off the cross); the constraint system is solvable exactly when the answer
    pair satisfies the parity and matching conditions.
    """
    c1, c2 = x2bar[1], x2bar[2]
    d1, d2 = x1bar[1], x1bar[2]
    s2, t2 = d1, c1  # orientations; s1 = t1 = 0
    site1 = {
        0: {tuple(x1bar): np.eye(2, dtype=np.complex128)},
        1: {(c1, b, b ^ c1): _proj(0.0 if b == 0 else math.pi / 2) for b in (0, 1)},
        2: {(c2, b, b ^ c2): _proj(-math.pi / 4 if b == s2 else math.pi / 4) for b in (0, 1)},
    }
    site2 = {
        0: {tuple(x2bar): np.eye(2, dtype=np.complex128)},
        1: {(d1, b, 1 ^ d1 ^ b): _proj(math.pi / 8 if b == 0 else 5 * math.pi / 8) for b in (0, 1)},
        2: {(d2, b, 1 ^ d2 ^ b): _proj(-math.pi / 8 if b == t2 else 3 * math.pi / 8) for b in (0, 1)},
    }
    d = components_device(
        (2, 2), _bell_state(), (site1, site2), name=f"ms-pair-{x1bar}-{x2bar}"
    )
    g = magic_square_game()
    return replace(d, input_alphabet=g.input_alphabet, output_alphabet=g.output_alphabet)


@lru_cache(maxsize=None)
def ms_mixture_device() -> Device:
    devices = [ms_pair_device(*pair) for pair in ms_answer_pairs()]
    return direct_sum([(1.0 / len(devices), d) for d in devices], "ms-mixture")


def _even_triples() -> list[tuple]:
    return [x for x in itertools.product((0, 1), repeat=3) if not (x[0] ^ x[1] ^ x[2])]


def _ms_cross_tables(abar: tuple[int, int]) -> list[tuple]:
    """All (R, C) table pairs: R has even rows, C = R with cell abar flipped
    and odd columns.  Outputs (R[a1], C[:,a2]) win everywhere except abar."""
    a1b, a2b = abar
    tables = []
    evens = _even_triples()
    for r0 in evens:
        for r1 in evens:
            target = tuple(0 if j == a2b else 1 for j in range(3))
            r2 = tuple(r0[j] ^ r1[j] ^ target[j] for j in range(3))
            rows = (r0, r1, r2)
            flipped = tuple(
                tuple(rows[i][j] ^ (1 if (i, j) == (a1b, a2b) else 0) for j in range(3))
                for i in range(3)
            )
            tables.append((rows, flipped))
    return tables


@lru_cache(maxsize=None)
def ms_cross_mixture_device() -> Device:
    """Uniform mixture of the tables losing only on abar, over the five cross
    inputs abar (loses 1/5 on cross inputs): one one-dimensional deterministic
    block per (R, C) table, answering (R[a1], C[:, a2]) on input (a1, a2),
    built from the stacks ``direct_sum`` would build from the 80 tables."""
    game = magic_square_game()
    cross = [(a1, a2) for a1 in range(3) for a2 in range(3) if a1 == 0 or a2 == 0]
    tables = [t for abar in cross for t in _ms_cross_tables(abar)]
    n = len(tables)
    letters = {}
    for a1, a2 in game.input_alphabet:
        answers = [(rows[a1], tuple(cols[i][a2] for i in range(3))) for rows, cols in tables]
        at = {x: j for j, x in enumerate(dict.fromkeys(answers))}
        onehot = np.eye(len(at), dtype=np.complex128)[[at[x] for x in answers]]
        letters[(a1, a2)] = (at, [np.moveaxis(onehot.reshape(n, 1, 1, -1), -1, 0)])
    state = np.full((n, 1, 1), 1.0 / n, dtype=np.complex128)
    return block_device([np.arange(n)[:, None]], [state], letters,
                        game.input_alphabet, game.output_alphabet, "ms-cross-mixture")


@lru_cache(maxsize=None)
def ms_combined_device() -> Device:
    """Mixture of the quantum mixture and the classical cross mixture whose
    losing probability is constant on all nine input pairs."""
    e_dev = ms_mixture_device()
    ds_dev = ms_cross_mixture_device()
    w_e = 0.2 / (0.2 + MS_LOSS_BETA)
    w_s = MS_LOSS_BETA / (0.2 + MS_LOSS_BETA)
    return direct_sum([(w_e, e_dev), (w_s, ds_dev)], "ms-combined")


@lru_cache(maxsize=None)
def magic_square() -> CatalogEntry:
    game = magic_square_game()
    pairs = ms_answer_pairs()
    devices: dict[str, Device] = {}
    for x1b, x2b in pairs:
        devices[_pair_key(x1b, x2b)] = ms_pair_device(x1b, x2b)
    devices["mixture"] = ms_mixture_device()
    devices["cross-mixture"] = ms_cross_mixture_device()
    devices["combined"] = ms_combined_device()
    return CatalogEntry(name="magic-square", game=game, device=devices["combined"], devices=devices)


# ---------------------------------------------------------------------------
# demo: superclassical yet not randomness generating


@dataclass(frozen=True)
class DemoCheck:
    name: str
    computed: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance


@dataclass
class DemoReport:
    checks: list[DemoCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def expected_win(game: Game, device: Device, a) -> float:
    """Win probability of a device on game input a: sum_x p(x|a) H(a, x)."""
    probs = born_probabilities(device, a)
    return sum(p * game.score(a, x) for x, p in probs.items())


def demo_not_randomness_generating() -> DemoReport:
    """Verify by direct computation that the combined Magic Square device is
    superclassical yet produces no certifiable randomness on input (0,0):

      1. every single-pair device answers its designated pair surely on (0,0),
      2. the mixture's (0,0)-output is deterministic given the mixture label
         (classical-adversary min-entropy 0),
      3. the mixture wins with probability 1 on the cross and
         1/2 + sqrt(2)/4 off it,
      4. the classical cross mixture loses 1/5 on cross inputs and never
         off the cross.
    """
    game = magic_square_game()
    entry = magic_square()
    checks: list[DemoCheck] = []

    pairs = ms_answer_pairs()
    worst = 1.0
    for x1b, x2b in pairs:
        dev = entry.devices[_pair_key(x1b, x2b)]
        probs = born_probabilities(dev, (0, 0))
        worst = min(worst, probs.get((x1b, x2b), 0.0))
    checks.append(DemoCheck("pair-devices-deterministic-on-(0,0)", worst, 1.0, 1e-9))

    # labeled joint distribution of the mixture's (0,0)-output
    table = np.zeros((len(game.output_alphabet), len(pairs)))
    out_index = {x: i for i, x in enumerate(game.output_alphabet)}
    for k, (x1b, x2b) in enumerate(pairs):
        for x, p in born_probabilities(entry.devices[_pair_key(x1b, x2b)], (0, 0)).items():
            table[out_index[x], k] += p / len(pairs)
    hmin = protocol.hmin_classical_adversary(table)
    checks.append(DemoCheck("mixture-(0,0)-hmin-given-label", hmin, 0.0, 1e-9))

    mixture = entry.devices["mixture"]
    cross_wins = []
    off_wins = []
    for a in game.input_alphabet:
        w = expected_win(game, mixture, a)
        (cross_wins if (a[0] == 0 or a[1] == 0) else off_wins).append(w)
    checks.append(DemoCheck("mixture-win-on-cross", min(cross_wins), 1.0, 1e-9))
    checks.append(DemoCheck("mixture-win-off-cross-max", max(off_wins), CHSH_QUANTUM, 1e-9))
    checks.append(DemoCheck("mixture-win-off-cross-min", min(off_wins), CHSH_QUANTUM, 1e-9))

    cross_dev = entry.devices["cross-mixture"]
    loss_on = []
    loss_off = []
    for a in game.input_alphabet:
        loss = 1.0 - expected_win(game, cross_dev, a)
        (loss_on if (a[0] == 0 or a[1] == 0) else loss_off).append(loss)
    checks.append(DemoCheck("cross-mixture-loss-on-cross", max(loss_on), 0.2, 1e-12))
    checks.append(DemoCheck("cross-mixture-loss-on-cross-min", min(loss_on), 0.2, 1e-12))
    checks.append(DemoCheck("cross-mixture-loss-off-cross", max(loss_off), 0.0, 1e-12))

    combined = entry.devices["combined"]
    losses = [1.0 - expected_win(game, combined, a) for a in game.input_alphabet]
    expected_loss = 0.2 * MS_LOSS_BETA / (0.2 + MS_LOSS_BETA)
    checks.append(DemoCheck("combined-loss-level", max(losses), expected_loss, 1e-9))
    checks.append(DemoCheck("combined-loss-spread", max(losses) - min(losses), 0.0, 1e-12))
    return DemoReport(checks=checks)


# ---------------------------------------------------------------------------
# name resolution for the CLI


def entry_key(name: str) -> str:
    """The catalog entry a name resolves to: "chsh" or "magic-square"."""
    key = name.lower().replace("_", "-")
    if key == "chsh":
        return key
    if key in ("magic-square", "magicsquare", "ms"):
        return "magic-square"
    raise KeyError(f"unknown catalog entry {name!r}")


def get_entry(name: str) -> CatalogEntry:
    return chsh() if entry_key(name) == "chsh" else magic_square()


def get_game(name: str) -> Game:
    """The entry's game, built without its devices."""
    return chsh_game() if entry_key(name) == "chsh" else magic_square_game()


def get_device(name: str) -> Device:
    """Resolve 'entry' or 'entry:device' catalog names."""
    if ":" in name:
        entry_name, dev_name = name.split(":", 1)
        entry = get_entry(entry_name)
        if dev_name not in entry.devices:
            raise KeyError(
                f"unknown device {dev_name!r} in {entry_name!r}; "
                f"choose from {sorted(entry.devices)}"
            )
        return entry.devices[dev_name]
    return get_entry(name).device
