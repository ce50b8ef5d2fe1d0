"""Ground-truth game values: exact classical enumeration, see-saw search for
quantum values, and a table of known closed-form values.

Classical values are exact: shared randomness cannot beat the best
deterministic strategy for an objective that is linear on the strategy
simplex, so enumerating deterministic strategies suffices.  See-saw results
are certified lower bounds only (the value is re-scored from the witnessing
device); they are never claimed to be the supremum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import catalog, matcore, scoring
from .devicemodel import Device, Letter, components_device
from .gamedefs import NONLOCAL, Game

ENUMERATION_GUARD = 10**7


class OracleError(ValueError):
    pass


class TooLargeError(OracleError):
    pass


class UnsupportedError(OracleError):
    pass


class BadDimsError(OracleError):
    pass


class UnknownGameError(OracleError):
    pass


@dataclass(frozen=True)
class StrategyEnumeration:
    best_value: float
    best_strategy: tuple[dict[Letter, Letter], ...]  # per player: input -> output
    count: int  # total deterministic strategies covered


def _strategy_score(g: Game, strategy: Sequence[Mapping[Letter, Letter]]) -> float:
    terms = []
    for a in g.input_alphabet:
        p = g.prob(a)
        if p == 0.0:
            continue
        x = tuple(strategy[i][a[i]] for i in range(len(strategy)))
        terms.append(p * g.score(a, x))
    return math.fsum(terms)


def classical_value(g: Game) -> StrategyEnumeration:
    """Exact maximum expected score over deterministic strategies.

    All players but the last are enumerated outright; the last player's best
    response decomposes per input because the objective is linear.  Ties are
    broken toward the lexicographically first maximizing strategy (outputs
    enumerated in declared order).  The reported count covers the full
    product strategy space.
    """
    if g.kind != NONLOCAL or g.player_inputs is None:
        raise OracleError("classical_value requires a nonlocal game with player structure")
    s = len(g.player_inputs)
    count = 1
    for i in range(s):
        count *= len(g.player_outputs[i]) ** len(g.player_inputs[i])
    if count > ENUMERATION_GUARD:
        raise TooLargeError(f"{count} strategies exceed the {ENUMERATION_GUARD} guard")

    last_inputs = g.player_inputs[-1]
    last_outputs = g.player_outputs[-1]
    outer_players = range(s - 1)
    outer_spaces = [
        itertools.product(g.player_outputs[i], repeat=len(g.player_inputs[i]))
        for i in outer_players
    ]
    # per last-player input, its supported inputs a in alphabet order, each as
    # (positions of a's outer letters, head -> [p(a) H(a, head + (x,)) per x])
    pairs: dict[Letter, list] = {a_last: [] for a_last in last_inputs}
    for a in g.input_alphabet:
        p = g.prob(a)
        if p == 0.0 or a[-1] not in pairs:
            continue
        positions = tuple(g.player_inputs[i].index(a[i]) for i in outer_players)
        terms = {
            head: [p * float(g.scores.get((a, head + (x,)), 0.0)) for x in last_outputs]
            for head in itertools.product(*g.player_outputs[:-1])
        }
        pairs[a[-1]].append((positions, terms))
    best_value = -math.inf
    best = None
    for outer in itertools.product(*outer_spaces):
        # best response of the last player, one input at a time
        choice = []
        chosen_terms = []
        for a_last in last_inputs:
            rows = [
                terms[tuple(outer[i][k] for i, k in enumerate(positions))]
                for positions, terms in pairs[a_last]
            ]
            best_g = -math.inf
            best_x = 0
            for x in range(len(last_outputs)):
                val = 0.0
                for row in rows:
                    val += row[x]
                if val > best_g + 1e-15:
                    best_g = val
                    best_x = x
            choice.append(best_x)
            chosen_terms.extend(row[best_x] for row in rows)
        # the terms of _strategy_score, whose fsum does not depend on their order
        value = math.fsum(chosen_terms)
        if value > best_value + 1e-15:
            best_value = value
            best = (outer, choice)
    assert best is not None
    outer, choice = best
    best_strategy = tuple(dict(zip(g.player_inputs[i], outer[i])) for i in outer_players) + (
        {a_last: last_outputs[x] for a_last, x in zip(last_inputs, choice)},
    )
    return StrategyEnumeration(
        best_value=_strategy_score(g, best_strategy),
        best_strategy=best_strategy,
        count=count,
    )


def strategy_device(g: Game, strategy: Sequence[Mapping[Letter, Letter]]) -> Device:
    """Embed a deterministic strategy as a trivial (all dims 1) quantum device."""
    site_meas = []
    for i, player_map in enumerate(strategy):
        meas = {
            a: {player_map[a]: np.eye(1, dtype=np.complex128)}
            for a in g.player_inputs[i]
        }
        site_meas.append(meas)
    d = components_device(
        [1] * len(strategy),
        np.eye(1, dtype=np.complex128),
        site_meas,
        name="deterministic",
    )
    # carry the game's full output alphabet so compatibility checks pass
    return replace(
        d, input_alphabet=tuple(g.input_alphabet), output_alphabet=tuple(g.output_alphabet)
    )


@dataclass(frozen=True)
class SeesawResult:
    value: float
    device: Device
    iterations: int
    constrained: bool
    restarts: int


def _positive_part_projector(delta: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((delta + matcore.dagger(delta)) / 2)
    keep = vecs[:, vals > 0]
    return keep @ matcore.dagger(keep)


def _update_pvm(pvm: list[np.ndarray], effops: list[np.ndarray]) -> list[np.ndarray]:
    """Maximize sum_x Tr[A_x R_x] over projective measurements.

    Binary case is exact (positive eigenspace of R_0 - R_1).  For more
    outcomes, pairwise subspace sweeps reoptimize every outcome pair's split,
    which never decreases the objective.
    """
    n = len(effops)
    if n == 2:
        a0 = _positive_part_projector(effops[0] - effops[1])
        return [a0, np.eye(a0.shape[0], dtype=np.complex128) - a0]
    pvm = [p.copy() for p in pvm]
    for _ in range(3):  # a few sweeps settle this at desk scale
        for j in range(n):
            for k in range(j + 1, n):
                sub = pvm[j] + pvm[k]
                vals, vecs = np.linalg.eigh((sub + matcore.dagger(sub)) / 2)
                iso = vecs[:, vals > 0.5]
                if iso.shape[1] == 0:
                    continue
                rj = matcore.dagger(iso) @ effops[j] @ iso
                rk = matcore.dagger(iso) @ effops[k] @ iso
                split = _positive_part_projector(rj - rk)
                pvm[j] = iso @ split @ matcore.dagger(iso)
                pvm[k] = iso @ (np.eye(iso.shape[1]) - split) @ matcore.dagger(iso)
    return pvm


def _score_terms(g: Game) -> list[tuple[float, Letter, Letter, int, int]]:
    """Nonzero game-operator terms (p(a)·H(a, x), a1, a2, i1, i2).

    Listed in (a, x1, x2) order, so every sum over a filtered subset adds its
    terms in the order of the nested loops over inputs and outputs.
    """
    terms = []
    for a in g.input_alphabet:
        p = g.prob(a)
        if p == 0.0:
            continue
        for i1, x1 in enumerate(g.player_outputs[0]):
            for i2, x2 in enumerate(g.player_outputs[1]):
                h = g.score(a, (x1, x2))
                if h != 0.0:
                    terms.append((p * h, a[0], a[1], i1, i2))
    return terms


def _seesaw_restart(
    g: Game,
    terms: list[tuple[float, Letter, Letter, int, int]],
    dims: tuple[int, int],
    constrain_abar: bool,
    iters: int,
    seed: int,
    restart: int,
):
    """One seeded restart; returns (best value, snapshot, iterations used)."""
    d1, d2 = dims
    outs1, outs2 = g.player_outputs
    abar = g.distinguished_input
    best_value = -math.inf
    best_snapshot = None
    total_iters = 0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(restart,)))
    pvm1 = {a: matcore.haar_pvm(d1, len(outs1), rng) for a in g.player_inputs[0]}
    pvm2 = {b: matcore.haar_pvm(d2, len(outs2), rng) for b in g.player_inputs[1]}
    psi = matcore.ginibre(d1 * d2, rng)
    psi /= np.linalg.norm(psi)
    prev = -math.inf
    for it in range(iters):
        total_iters += 1
        psi_mat = psi.reshape(d1, d2)
        # player 1: effective operators R_x = Psi M^T Psi† per input
        for a1 in g.player_inputs[0]:
            effops = []
            for i1 in range(len(outs1)):
                m = np.zeros((d2, d2), dtype=np.complex128)
                for w, b1, b2, j1, j2 in terms:
                    if b1 == a1 and j1 == i1:
                        m += w * pvm2[b2][j2]
                effops.append(psi_mat @ m.T @ matcore.dagger(psi_mat))
            pvm1[a1] = _update_pvm(pvm1[a1], effops)
        # player 2: effective operators R_x = Psi† M Psi per input
        for a2 in g.player_inputs[1]:
            effops = []
            for i2 in range(len(outs2)):
                m = np.zeros((d1, d1), dtype=np.complex128)
                for w, b1, b2, j1, j2 in terms:
                    if b2 == a2 and j2 == i2:
                        m += w * pvm1[b1][j1]
                effops.append(matcore.dagger(psi_mat) @ m @ psi_mat)
            pvm2[a2] = _update_pvm(pvm2[a2], effops)
        k = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
        for w, b1, b2, j1, j2 in terms:
            k += w * np.kron(pvm1[b1][j1], pvm2[b2][j2])
        vals, vecs = np.linalg.eigh((k + matcore.dagger(k)) / 2)
        psi = vecs[:, -1]
        if constrain_abar:
            # restrict the state to its heaviest deterministic branch of abar
            best_branch = None
            best_weight = -1.0
            for i1, x1 in enumerate(outs1):
                p1 = pvm1[abar[0]][i1]
                for i2, x2 in enumerate(outs2):
                    proj = np.kron(p1, pvm2[abar[1]][i2])
                    w = float(np.vdot(psi, proj @ psi).real)
                    if w > best_weight:
                        best_weight = w
                        best_branch = proj
            projected = best_branch @ psi
            norm = np.linalg.norm(projected)
            if norm < 1e-12:
                break
            psi = projected / norm
        value = float(np.vdot(psi, k @ psi).real)
        if value > best_value:
            best_value = value
            best_snapshot = (
                {a: [p.copy() for p in pvm1[a]] for a in pvm1},
                {b: [p.copy() for p in pvm2[b]] for b in pvm2},
                psi.copy(),
            )
        if abs(value - prev) < 1e-12 * max(1.0, abs(value)):
            break
        prev = value
    return best_value, best_snapshot, total_iters


def seesaw(
    g: Game,
    dims: Sequence[int],
    constrain_abar: bool = False,
    restarts: int = 20,
    iters: int = 500,
    seed: int = 0,
) -> SeesawResult:
    """Alternating optimization toward the (restricted) quantum value.

    Per sweep each player's measurement is reoptimized against the other
    player and the shared state, the state moves to the top eigenvector of
    the game operator, and with constrain_abar the state is then projected
    onto its best deterministic branch of the distinguished input.  Restarts
    run in index order, each from its own seeded stream, and are merged by
    max with first-index tie break.  The returned value is a certified lower
    bound: it is re-scored from the witnessed device.
    """
    if g.kind != NONLOCAL or g.player_inputs is None or len(g.player_inputs) != 2:
        raise UnsupportedError("see-saw supports exactly 2-player nonlocal games")
    d1, d2 = (int(x) for x in dims)
    if not (1 <= d1 <= 8 and 1 <= d2 <= 8):
        raise BadDimsError(f"per-player dims must lie in [1, 8], got {dims}")
    if restarts < 1 or iters < 1:
        raise OracleError(f"restarts and iters must be at least 1, got {restarts} and {iters}")
    outs1, outs2 = g.player_outputs

    terms = _score_terms(g)
    runs = [
        _seesaw_restart(g, terms, (d1, d2), constrain_abar, iters, seed, k)
        for k in range(restarts)
    ]
    best_value = -math.inf
    best_snapshot = None
    total_iters = 0
    for value, snapshot, used in runs:
        total_iters += used
        if snapshot is not None and value > best_value:
            best_value = value
            best_snapshot = snapshot

    assert best_snapshot is not None
    pvm1, pvm2, psi = best_snapshot
    site1 = {a: {x: pvm1[a][i] for i, x in enumerate(outs1)} for a in g.player_inputs[0]}
    site2 = {b: {x: pvm2[b][i] for i, x in enumerate(outs2)} for b in g.player_inputs[1]}
    device = components_device(
        (d1, d2),
        np.outer(psi, np.conj(psi)),
        (site1, site2),
        name="seesaw" + ("-constrained" if constrain_abar else ""),
    )
    value = scoring.eps_score(g, device, 0.0)
    return SeesawResult(
        value=value,
        device=device,
        iterations=total_iters,
        constrained=constrain_abar,
        restarts=restarts,
    )


@dataclass(frozen=True)
class KnownValues:
    name: str
    w_classical: float
    w_quantum: float | None
    w_quantum_abar: float | None
    noise_tolerance: float | None
    notes: dict[str, str] = field(default_factory=dict)


def known_values(name: str) -> KnownValues:
    """Closed-form and witnessed values for the built-in games, by catalog name."""
    try:
        key = catalog.entry_key(name)
    except KeyError:
        raise UnknownGameError(f"no known-values row for {name!r}") from None
    if key == "chsh":
        return KnownValues(
            name="chsh",
            w_classical=0.75,
            w_quantum=catalog.CHSH_QUANTUM,
            w_quantum_abar=0.75,
            noise_tolerance=catalog.CHSH_QUANTUM - 0.75,
            notes={
                "w_classical": "exact enumeration",
                "w_quantum": "closed form 1/2 + sqrt(2)/4, achieved by the catalog device",
                "w_quantum_abar": "closed form 3/4 for devices predictable on input (0,0)",
                "noise_tolerance": "w_quantum - w_quantum_abar",
            },
        )
    return KnownValues(
        name="magic-square",
        w_classical=8.0 / 9.0,
        w_quantum=5.0 / 9.0 + (4.0 / 9.0) * catalog.CHSH_QUANTUM,
        w_quantum_abar=None,
        noise_tolerance=None,
        notes={
            "w_classical": "exact enumeration",
            "w_quantum": "witnessed lower bound (catalog single-pair device family); not proven optimal",
            "w_quantum_abar": "no closed form known; the seesaw subcommand gives an unproven lower bound",
            "noise_tolerance": "unavailable without w_quantum_abar",
        },
    )
