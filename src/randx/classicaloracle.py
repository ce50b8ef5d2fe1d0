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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import catalog, matcore, scoring
from .devicemodel import Device, Letter, components_device
from .gamedefs import NONLOCAL, Game
from .protocol import GuardError

ENUMERATION_GUARD = 10**7
_CLASSICAL_CHUNK = 1 << 12  # outer strategies per best-response block; bounds its memory


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class StrategyEnumeration:
    best_value: float
    best_strategy: tuple[dict[Letter, Letter], ...]  # per player: input -> output
    count: int  # total deterministic strategies covered


def classical_value(g: Game) -> StrategyEnumeration:
    """Exact maximum expected score over deterministic strategies.

    The strategies of all players but the last are enumerated by index in
    ``itertools.product`` order (player 0 slowest; within a player, input 0's
    output the most significant digit), at most ``_CLASSICAL_CHUNK`` at a
    time, so memory is bounded by the chunk times the supported inputs, not
    by the strategy count.  The last player's best response decomposes per
    input because the objective is linear: per output, the p(a) H(a, x) terms
    of its supported inputs a are added in alphabet order from 0.0, and a
    later output wins only if it beats the running best by more than 1e-15.
    A strategy's value is the exactly rounded ``math.fsum`` of its chosen
    terms, and a later strategy wins only if it beats the best so far by more
    than 1e-15, so ties go to the first maximizing strategy.  The reported
    count covers the full product strategy space, at most
    ``ENUMERATION_GUARD``.
    """
    if g.kind != NONLOCAL or g.player_inputs is None:
        raise OracleError("classical_value requires a nonlocal game with player structure")
    count = math.prod(len(o) ** len(i) for i, o in zip(g.player_inputs, g.player_outputs))
    if count > ENUMERATION_GUARD:
        raise GuardError(f"{count} strategies exceed the {ENUMERATION_GUARD} guard")

    last_inputs, last_outputs = g.player_inputs[-1], g.player_outputs[-1]
    outer_players = range(len(g.player_inputs) - 1)
    # an outer strategy's index has one digit per outer player and input, in
    # order; a chunk runs through every value of the trailing digits that fit
    radices = [len(g.player_outputs[i]) for i in outer_players for _ in g.player_inputs[i]]
    sizes = [math.prod(radices[c:]) for c in range(len(radices) + 1)]
    chunk = next(n for n in sizes if n <= _CLASSICAL_CHUNK)
    strides = np.array(sizes[1:], dtype=np.int64)
    radices = np.array(radices, dtype=np.int64)
    heads = list(itertools.product(*g.player_outputs[:-1]))
    # per last-player input, its supported inputs a in alphabet order, a slot
    # each: a's (head, x) table of p(a) H(a, head + (x,)) and the head stride
    # of each digit; an unused slot has stride 0 and a table of 0.0
    groups: dict[Letter, list] = {a_last: [] for a_last in last_inputs}
    for a in g.input_alphabet:
        if g.prob(a) != 0.0:
            groups[a[-1]].append(a)
    shape = (len(last_inputs), max(map(len, groups.values())))
    real = np.array([[m < len(groups[a_last]) for m in range(shape[1])] for a_last in last_inputs])
    table = np.zeros((*shape, len(heads), len(last_outputs)))
    weight = np.zeros((*shape, len(radices)), dtype=np.int64)
    for k, a_last in enumerate(last_inputs):
        for m, a in enumerate(groups[a_last]):
            table[k, m] = [[g.prob(a) * float(g.scores.get((a, head + (x,)), 0.0))
                            for x in last_outputs] for head in heads]
            for i in outer_players:
                digit = sum(map(len, g.player_inputs[:i])) + g.player_inputs[i].index(a[i])
                weight[k, m, digit] = math.prod(map(len, g.player_outputs[i + 1:-1]))
    weight, table = weight.reshape(math.prod(shape), -1), table.reshape(-1, len(last_outputs))
    # each slot's table row per strategy of a chunk, less that of its first strategy
    pattern = weight @ (np.arange(chunk)[:, None] // strides % radices).T
    best_value, best = -math.inf, None
    for start in range(0, sizes[0], chunk):
        first = np.arange(len(weight)) * len(heads) + weight @ (start // strides % radices)
        at = (pattern + first[:, None]).reshape(*shape, chunk)
        best_g = np.full((shape[0], chunk), -math.inf)
        choice = np.zeros(best_g.shape, dtype=np.intp)
        for x in range(len(last_outputs)):  # one output at a time bounds memory by the slots
            rows, val = table[at, x], np.zeros((shape[0], chunk))
            for m in range(shape[1]):
                val += rows[:, m]
            win = val > best_g + 1e-15
            best_g[win], choice[win] = val[win], x
        # p(a) H(a, x) of every supported input a, summed exactly rounded where
        # it may win: the terms are nonnegative, so the float sum times
        # 1 + 2 (n + 2) u bounds the exact sum of n terms from above
        chosen = table[at, choice[:, None]][real]
        rough = chosen.sum(0) * (1 + (len(chosen) + 2) * 2.0**-52)
        for k in np.flatnonzero(rough >= best_value + 1e-15).tolist():
            if rough[k] >= best_value + 1e-15:
                value = math.fsum(chosen[:, k].tolist())
                if value > best_value + 1e-15:
                    best_value, best = value, (start + k, choice[:, k].tolist())
    assert best is not None
    t, choice = best
    digits = iter((t // strides % radices).tolist())
    best_strategy = tuple(
        {a: g.player_outputs[i][next(digits)] for a in g.player_inputs[i]} for i in outer_players
    ) + ({a_last: last_outputs[x] for a_last, x in zip(last_inputs, choice)},)
    return StrategyEnumeration(best_value=best_value, best_strategy=best_strategy, count=count)


_SEESAW_BLOCK = 16  # restarts stacked in one see-saw block; bounds its memory


@dataclass(frozen=True)
class SeesawResult:
    value: float
    device: Device
    iterations: int
    constrained: bool
    restarts: int
    restart_values: tuple[float, ...]  # each restart's best value, in restart order


def _top_columns(vecs: np.ndarray, r: int) -> np.ndarray:
    """The last ``r`` columns of each matrix of a (k, d, d) stack, each slice
    laid out column by column, as a boolean column mask lays out one matrix."""
    return np.ascontiguousarray(vecs[..., vecs.shape[-1] - r:].swapaxes(-1, -2)).swapaxes(-1, -2)


def _positive_part(delta: np.ndarray) -> np.ndarray:
    """Projector onto the positive eigenspace of the Hermitian part of each
    matrix of a (k, d, d) stack: one batched eigh, then one product per count
    of positive eigenvalues (the top columns, as eigh sorts them)."""
    vals, vecs = np.linalg.eigh((delta + matcore.dagger(delta)) / 2)
    out = np.empty(delta.shape, dtype=np.complex128)
    counts = (vals > 0).sum(axis=-1)
    for p in set(counts.tolist()):
        sel = np.flatnonzero(counts == p)
        keep = _top_columns(vecs[sel], p)
        out[sel] = keep @ matcore.dagger(keep)
    return out


def _update_pvms(pvms: np.ndarray, effops: np.ndarray) -> None:
    """Maximize sum_x Tr[A_x R_x] over each projective measurement of a
    (k, outputs, d, d) stack against its effective operators, in place.

    Binary case is exact (positive eigenspace of R_0 - R_1).  For more
    outcomes, pairwise subspace sweeps reoptimize every outcome pair's split,
    which never decreases the objective: one batched eigh per pair, its
    slices grouped by the rank of the pair's subspace."""
    outs, d = pvms.shape[1], pvms.shape[-1]
    if outs == 2:
        a0 = _positive_part(effops[:, 0] - effops[:, 1])
        pvms[:, 0] = a0
        pvms[:, 1] = np.eye(d, dtype=np.complex128) - a0
        return
    for _ in range(3):  # a few sweeps settle this at desk scale
        for j in range(outs):
            for k in range(j + 1, outs):
                sub = pvms[:, j] + pvms[:, k]
                vals, vecs = np.linalg.eigh((sub + matcore.dagger(sub)) / 2)
                ranks = (vals > 0.5).sum(axis=-1)
                for r in set(ranks.tolist()) - {0}:
                    sel = np.flatnonzero(ranks == r)
                    iso = _top_columns(vecs[sel], r)
                    iso_h = matcore.dagger(iso)
                    rj = iso_h @ effops[sel, j] @ iso
                    rk = iso_h @ effops[sel, k] @ iso
                    split = _positive_part(rj - rk)
                    pvms[sel, j] = iso @ split @ iso_h
                    pvms[sel, k] = iso @ (np.eye(r) - split) @ iso_h


def _score_cells(g: Game) -> list[tuple[float, int, int]]:
    """Nonzero game-operator terms (p(a)·H(a, x), cell 1, cell 2), a player's
    cell being input index · outputs + output index.  Listed in (a, x1, x2)
    order, so every sum over a filtered subset adds its terms in the order of
    the nested loops over inputs and outputs."""
    (in1, in2), (outs1, outs2) = g.player_inputs, g.player_outputs
    terms = []
    for a in g.input_alphabet:
        p = g.prob(a)
        if p == 0.0:
            continue
        c1, c2 = in1.index(a[0]) * len(outs1), in2.index(a[1]) * len(outs2)
        for i1, x1 in enumerate(outs1):
            for i2, x2 in enumerate(outs2):
                h = g.score(a, (x1, x2))
                if h != 0.0:
                    terms.append((p * h, c1 + i1, c2 + i2))
    return terms


def _term_slots(kterms: list[tuple[float, int, int]], own: int) -> list:
    """Per term slot s: player ``own``'s cells with over s terms, each one's s-th
    weight and other cell, so slot-by-slot sums keep ``_score_cells`` order."""
    rows: dict[int, list] = {}
    for w, *cells in kterms:
        rows.setdefault(cells[own], []).append((w, cells[1 - own]))
    slots = []
    for s in range(max(map(len, rows.values()), default=0)):
        sel = [c for c in sorted(rows) if len(rows[c]) > s]
        w, src = zip(*(rows[c][s] for c in sel))
        slots.append((np.array(sel), np.array(w), np.array(src)))
    return slots


def _effective_sums(other: np.ndarray, slots: list, cells: int) -> np.ndarray:
    """Per restart and cell, the weighted sum of the other player's
    projectors, an (r, cells, d, d) stack, added slot by slot."""
    m = np.zeros((other.shape[0], cells, *other.shape[2:]), dtype=np.complex128)
    for sel, w, src in slots:
        m[:, sel] += w[:, None, None] * other[:, src]
    return m


def _seesaw_block(g: Game, kterms: list, dims: tuple[int, int], constrain_abar: bool,
                  iters: int, seed: int, block: range) -> list:
    """Per restart of ``block``, in order: (best value, snapshot or None, sweeps).

    Each half-step runs for all live restarts and inputs of a player at once,
    on (r, inputs, outputs, d, d) projector stacks laid out slice by slice as
    one restart's matrices were, so every product and eigh rounds alike.  The
    value, branch and stop test run per restart; a stopped one leaves the stack.
    """
    (d1, d2), (i1, i2), (outs1, outs2) = dims, map(len, g.player_inputs), map(len, g.player_outputs)
    slots = [_term_slots(kterms, own) for own in (0, 1)]
    p1, p2, psi = [], [], []
    for k in block:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        p1.append([matcore.haar_pvm(d1, outs1, rng) for _ in range(i1)])
        p2.append([matcore.haar_pvm(d2, outs2, rng) for _ in range(i2)])
        psi.append(matcore.ginibre(d1 * d2, rng))
        psi[-1] /= np.linalg.norm(psi[-1])
    p1, p2, psi = np.array(p1), np.array(p2), np.array(psi)  # psi: one state per row
    live = list(range(len(block)))
    best, prev = [-math.inf] * len(block), [-math.inf] * len(block)
    snapshots, used = [None] * len(block), [0] * len(block)
    for _ in range(iters):
        n = len(live)
        for pos in live:
            used[pos] += 1
        psi_mat = psi.reshape(n, d1, d2)
        psi_h = matcore.dagger(psi_mat)
        cells1, cells2 = p1.reshape(n, -1, d1, d1), p2.reshape(n, -1, d2, d2)  # views
        # player 1: effective operators R_x = Psi M^T Psi† per input
        m = _effective_sums(cells2, slots[0], i1 * outs1)
        effops = psi_mat[:, None] @ m.swapaxes(-1, -2) @ psi_h[:, None]
        _update_pvms(p1.reshape(-1, outs1, d1, d1), effops.reshape(-1, outs1, d1, d1))
        # player 2: effective operators R_x = Psi† M Psi per input
        m = _effective_sums(cells1, slots[1], i2 * outs2)
        effops = psi_h[:, None] @ m @ psi_mat[:, None]
        _update_pvms(p2.reshape(-1, outs2, d2, d2), effops.reshape(-1, outs2, d2, d2))
        # K = sum_terms w · P1 ⊗ P2, one stacked outer product per term
        k = np.zeros((n, d1 * d2, d1 * d2), dtype=np.complex128)
        for w, c1, c2 in kterms:
            outer = cells1[:, c1, :, None, :, None] * cells2[:, c2, None, :, None, :]
            k += w * outer.reshape(k.shape)
        vecs = np.linalg.eigh((k + matcore.dagger(k)) / 2)[1]
        states, keep = list(vecs[:, :, -1]), []
        for i, pos in enumerate(live):
            if constrain_abar:
                states[i] = _abar_branch(g, p1[i], p2[i], states[i])
                if states[i] is None:
                    continue
            value = float(np.vdot(states[i], k[i] @ states[i]).real)
            if value > best[pos]:
                best[pos] = value
                snapshots[pos] = (p1[i].copy(), p2[i].copy(), states[i].copy())
            if abs(value - prev[pos]) < 1e-12 * max(1.0, abs(value)):
                continue
            prev[pos] = value
            keep.append(i)
        if not keep:
            break
        live, p1, p2 = [live[i] for i in keep], p1[keep], p2[keep]
        # unconstrained states stay the eigh's strided columns, as in one restart
        psi = np.array([states[i] for i in keep]) if constrain_abar else vecs[keep][:, :, -1]
    return list(zip(best, snapshots, used))


def _abar_branch(g: Game, pvm1: np.ndarray, pvm2: np.ndarray, psi: np.ndarray) -> np.ndarray | None:
    """psi restricted to its heaviest (first if tied) deterministic branch of
    the distinguished input, or None when that leaves (numerically) nothing."""
    a1, a2 = g.distinguished_input
    branches = [np.kron(p1, p2) for p1 in pvm1[g.player_inputs[0].index(a1)]
                for p2 in pvm2[g.player_inputs[1].index(a2)]]
    weights = [float(np.vdot(psi, proj @ psi).real) for proj in branches]
    projected = branches[weights.index(max(weights))] @ psi
    norm = np.linalg.norm(projected)
    return None if norm < 1e-12 else projected / norm


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
    onto its best deterministic branch of the distinguished input.  Each
    restart starts from its own seeded stream; restarts run stacked, in
    blocks of ``_SEESAW_BLOCK`` in index order, and are merged by max with
    first-index tie break.  The returned value is a certified lower bound:
    it is re-scored from the witnessed device.
    """
    if g.kind != NONLOCAL or g.player_inputs is None or len(g.player_inputs) != 2:
        raise GuardError("see-saw supports exactly 2-player nonlocal games")
    d1, d2 = (int(x) for x in dims)
    if not (1 <= d1 <= 8 and 1 <= d2 <= 8):
        raise GuardError(f"per-player dims must lie in [1, 8], got {dims}")
    if restarts < 1 or iters < 1:
        raise OracleError(f"restarts and iters must be at least 1, got {restarts} and {iters}")
    if seed < 0:
        raise OracleError(f"seed must be a non-negative integer, got seed {seed}")

    kterms = _score_cells(g)
    best_value, best_snapshot, total_iters, restart_values = -math.inf, None, 0, []
    for start in range(0, restarts, _SEESAW_BLOCK):
        block = range(start, min(start + _SEESAW_BLOCK, restarts))
        for value, snapshot, used in _seesaw_block(
            g, kterms, (d1, d2), constrain_abar, iters, seed, block
        ):
            total_iters += used
            restart_values.append(value)
            if snapshot is not None and value > best_value:
                best_value, best_snapshot = value, snapshot

    assert best_snapshot is not None
    pvm1, pvm2, psi = best_snapshot
    sites = tuple(
        {a: dict(zip(outs, pvm[k])) for k, a in enumerate(inputs)}
        for pvm, inputs, outs in zip((pvm1, pvm2), g.player_inputs, g.player_outputs)
    )
    name = "seesaw" + ("-constrained" if constrain_abar else "")
    device = components_device((d1, d2), np.outer(psi, np.conj(psi)), sites, name=name)
    return SeesawResult(
        value=scoring.eps_score(g, device, 0.0),
        device=device,
        iterations=total_iters,
        constrained=constrain_abar,
        restarts=restarts,
        restart_values=tuple(restart_values),
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
        raise OracleError(f"no known-values row for {name!r}") from None
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
