"""Dense reference routes: the test oracle for the package's per-block device code.

``randx`` computes every device quantity from the block stacks a device
keeps (``Device.state_blocks``, ``Device.projector_blocks``,
``Device.round_ops``).  The routes here form the same quantities from full
dim x dim matrices, as the package did before it held its devices per block,
so the tests can compare the two.  They also build the Magic Square mixtures
densely (``block_mixture``), as the catalog did before it summed them from
block stacks, and form joint projectors with ``np.kron``.  ``seesaw_oracle``
runs the see-saw one restart, input and matrix at a time, as the package did
before it stacked restarts and inputs.

The one-matrix kernels (``psd_power``, ``psd_bracket``, ``schatten``,
``snorm``) are the k = 1 case of the package's stacked kernels.
``device_to_dict`` builds a device file's data as nested lists, the
reference for the bytes ``devicemodel.json_write`` writes in bulk, and
``json_text`` joins the chunks it writes into the whole text.
``strategy_device`` embeds a deterministic strategy as a device, an
independent route to ``classical_value``, and ``is_classically_predictable``
checks pinching invariance densely.  Nothing in the package imports this
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import itertools
import math

import numpy as np

from randx import catalog
from randx.classicaloracle import SeesawResult
from randx.devicemodel import (
    GENERAL, Device, DeviceError, Letter, _device_tree, components_device,
    json_write, make_device,
)
from randx.gamedefs import Game, require_compatible
from randx.matcore import (
    HERM_TOL, as_matrix, block_psd_brackets, block_psd_power, dagger, ginibre, haar_pvm,
    schatten_stack,
)
from randx.scoring import eps_score


class DimMismatchError(DeviceError):
    pass


class LengthMismatchError(DeviceError):
    pass


def psd_power(m, p: float) -> np.ndarray:
    """Eigenvalue power of a positive semidefinite matrix: ``block_psd_power``
    with the whole matrix as its one block."""
    return block_psd_power([np.asarray(m)[None]], p)[0][0]


def psd_bracket(m, eps: float) -> float:
    """bracket of a PSD matrix via its eigenvalues: ``block_psd_brackets`` with
    the whole matrix as the one block of its one slice."""
    return float(block_psd_brackets([np.asarray(m)[None, None]], eps)[0])


@dataclass(frozen=True)
class SchattenValue:
    bracket: float  # Tr[(Z†Z)^{(1+eps)/2}]
    norm: float  # bracket^{1/(1+eps)}


def schatten(z, eps: float) -> SchattenValue:
    """Schatten (1+eps) bracket and norm of an arbitrary matrix: ``schatten_stack``
    with the matrix as its one slice.  eps = 0 gives the trace norm."""
    brackets, norms = schatten_stack(np.asarray(z)[None], eps)
    return SchattenValue(bracket=brackets[0], norm=norms[0])


def snorm(z, eps: float) -> float:
    return schatten(z, eps).norm


def sqrtm_psd(m) -> np.ndarray:
    return psd_power(m, 0.5)


def matrix_to_pairs(m) -> list:
    """A matrix as nested [re, im] pairs, row-major, one Python float each."""
    a = as_matrix(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _pairs(tree):
    if isinstance(tree, np.ndarray):
        return matrix_to_pairs(tree)
    if isinstance(tree, dict):
        return {k: _pairs(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_pairs(v) for v in tree]
    return tree


def device_to_dict(d: Device) -> dict:
    """The data of a device file, every matrix as ``matrix_to_pairs`` lists."""
    return _pairs(_device_tree(d))


def json_text(obj, indent: int) -> str:
    """The whole text ``json_write`` writes for ``obj``, its chunks joined."""
    chunks: list[str] = []
    json_write(obj, indent, chunks.append)
    return "".join(chunks)


def is_classically_predictable(d: Device, a: Letter) -> tuple[bool, float]:
    """Whether the state is invariant under pinching by the a-measurement,
    with the largest entry of the dense difference."""
    pinched = np.zeros_like(d.state)
    for p in d.measurements[a].values():
        pinched += p @ d.state @ p
    dev = float(np.max(np.abs(pinched - d.state)))
    return dev <= HERM_TOL, dev


def strategy_device(g: Game, strategy: Sequence[Mapping[Letter, Letter]]) -> Device:
    """Embed a deterministic strategy as a trivial (all dims 1) quantum device."""
    site_meas = [
        {a: {player_map[a]: np.eye(1, dtype=np.complex128)} for a in g.player_inputs[i]}
        for i, player_map in enumerate(strategy)
    ]
    d = components_device(
        [1] * len(strategy), np.eye(1, dtype=np.complex128), site_meas, name="deterministic"
    )
    # carry the game's full output alphabet so compatibility checks pass
    return replace(
        d, input_alphabet=tuple(g.input_alphabet), output_alphabet=tuple(g.output_alphabet)
    )


def unitary(d: Device, a: Letter) -> np.ndarray:
    """U_a, the identity for a letter without a unitary."""
    return d.unitaries.get(a, np.eye(d.dim, dtype=np.complex128))


def projector(d: Device, a: Letter, x: Letter) -> np.ndarray:
    """Measurement projector for (input, output); zero if unlisted."""
    if a not in d.measurements:
        raise DeviceError(f"unknown input letter {a!r}")
    p = d.measurements[a].get(x)
    if p is None:
        if x not in d.output_alphabet:
            raise DeviceError(f"unknown output letter {x!r}")
        return np.zeros((d.dim, d.dim), dtype=np.complex128)
    return p


def born_probabilities(d: Device, a: Letter) -> dict[Letter, float]:
    """Tr[P_a^x phi] for each listed output, one dense einsum per projector."""
    if a not in d.measurements:
        raise DeviceError(f"unknown input letter {a!r}")
    return {x: float(np.einsum("ij,ji->", p, d.state).real) for x, p in d.measurements[a].items()}


@dataclass(frozen=True)
class DeviceStatePair:
    """Post-selection operators on the device and on its purifying system.

    device_state = sqrt(X) phi sqrt(X); adversary_state = (sqrt(phi) X sqrt(phi))^T.
    The two share their nonzero spectrum.
    """

    device_state: np.ndarray
    adversary_state: np.ndarray


def state_pair(d: Device, x) -> DeviceStatePair:
    """Device/adversary state pair for a PSD operator X on the device space."""
    xm = as_matrix(x)
    if xm.shape[0] != d.dim:
        raise DimMismatchError(f"X has dim {xm.shape[0]}, device has dim {d.dim}")
    rx = sqrtm_psd(xm)
    rphi = sqrtm_psd(d.state)
    return DeviceStatePair(device_state=rx @ d.state @ rx, adversary_state=(rphi @ xm @ rphi).T)


def _branch_operator(d: Device, a_seq: Sequence[Letter], x_seq: Sequence[Letter]) -> np.ndarray:
    """M_n ... M_1 with M_j = U_{a_j} P_{a_j}^{x_j}."""
    m = np.eye(d.dim, dtype=np.complex128)
    for a, x in zip(a_seq, x_seq):
        m = unitary(d, a) @ projector(d, a, x) @ m
    return m


def evolve_sequence(d: Device, a_seq: Sequence[Letter], x_seq: Sequence[Letter]) -> DeviceStatePair:
    """Joint device/adversary operators after an input/output sequence.

    For the empty sequence this is (phi, phi^T).  The trace of the device
    state is the Born probability of the output sequence for a normalized
    device.
    """
    a_seq = list(a_seq)
    x_seq = list(x_seq)
    if len(a_seq) != len(x_seq):
        raise LengthMismatchError(
            f"input sequence length {len(a_seq)} != output sequence length {len(x_seq)}"
        )
    for a in a_seq:
        if a not in d.measurements:
            raise DeviceError(f"unknown input letter {a!r}")
    m = _branch_operator(d, a_seq, x_seq)
    rphi = sqrtm_psd(d.state)
    return DeviceStatePair(
        device_state=m @ d.state @ dagger(m), adversary_state=(rphi @ dagger(m) @ m @ rphi).T
    )


@dataclass(frozen=True)
class GameOperator:
    """K = sum p(a) H(a,x) P_a^x with its sandwich states ``state_pair(d, K)``:
    sqrt(K) phi sqrt(K) and (sqrt(phi) K sqrt(phi))^T."""

    matrix: np.ndarray
    device_state: np.ndarray
    adversary_state: np.ndarray


def game_operator(g: Game, d: Device) -> GameOperator:
    """The dense game operator of a compatible device and its sandwich states.

    K = sum p(a) H(a,x) P_a^x is summed from the game's own tables: over its
    inputs of positive weight in alphabet order, then each input's measured
    outputs in device order, skipping zero scores.
    """
    require_compatible(g, d)
    k = np.zeros((d.dim, d.dim), dtype=np.complex128)
    for a in g.input_alphabet:
        if g.prob(a) > 0.0:
            for x, proj in d.measurements[a].items():
                if g.score(a, x) != 0.0:
                    k += (g.prob(a) * g.score(a, x)) * proj
    pair = state_pair(d, k)
    return GameOperator(matrix=k, device_state=pair.device_state, adversary_state=pair.adversary_state)


def block_mixture(blocks: list[tuple], name: str) -> Device:
    """Direct-sum mixture of (weight, state, measurements) blocks, each
    projector written out densely (outputs in first-seen order)."""
    game = catalog.magic_square_game()
    ends = list(itertools.accumulate(s.shape[0] for _, s, _ in blocks))
    total = ends[-1]
    state = np.zeros((total, total), dtype=np.complex128)
    meas: dict = {a: {} for a in game.input_alphabet}
    for (w, block_state, block_meas), end in zip(blocks, ends):
        block = slice(end - block_state.shape[0], end)
        state[block, block] = w * block_state
        for a, branch in meas.items():
            for x, p in block_meas[a].items():
                if x not in branch:
                    branch[x] = np.zeros((total, total), dtype=np.complex128)
                branch[x][block, block] = p
    return make_device(
        GENERAL,
        (total,),
        state,
        meas,
        input_alphabet=game.input_alphabet,
        output_alphabet=game.output_alphabet,
        name=name,
    )


def magic_square_mixtures() -> dict[str, Device]:
    """The catalog's ``mixture``, ``cross-mixture`` and ``combined`` devices,
    built densely by ``block_mixture`` from the catalog's pair devices and tables."""
    game = catalog.magic_square_game()
    pairs = [catalog.ms_pair_device(*pair) for pair in catalog.ms_answer_pairs()]
    mixture = block_mixture([(1.0 / len(pairs), d.state, d.measurements) for d in pairs], "ms-mixture")
    one = np.eye(1, dtype=np.complex128)
    cross = [(a1, a2) for a1 in range(3) for a2 in range(3) if a1 == 0 or a2 == 0]
    tables = [t for abar in cross for t in catalog._ms_cross_tables(abar)]
    cross_mixture = block_mixture([
        (1.0 / len(tables), one, {
            (a1, a2): {(rows[a1], tuple(cols[i][a2] for i in range(3))): one}
            for a1, a2 in game.input_alphabet
        })
        for rows, cols in tables
    ], "ms-cross-mixture")
    w_e = 0.2 / (0.2 + catalog.MS_LOSS_BETA)
    w_s = catalog.MS_LOSS_BETA / (0.2 + catalog.MS_LOSS_BETA)
    combined = block_mixture([
        (w_e, mixture.state, mixture.measurements),
        (w_s, cross_mixture.state, cross_mixture.measurements),
    ], "ms-combined")
    return {"mixture": mixture, "cross-mixture": cross_mixture, "combined": combined}


def kron_projectors(site_measurements) -> dict[Letter, dict[Letter, np.ndarray]]:
    """Joint projectors of per-site measurements as ``np.kron`` products of
    listed site projectors, joint letters in ``itertools.product`` order."""
    meas = {}
    for a in itertools.product(*site_measurements):
        combos = [((), np.eye(1, dtype=np.complex128))]
        for m, ai in zip(site_measurements, a):
            combos = [(x + (xi,), np.kron(p, pi)) for x, p in combos for xi, pi in m[ai].items()]
        meas[a] = dict(combos)
    return meas


def _score_terms(g: Game) -> list[tuple[float, Letter, Letter, int, int]]:
    """Nonzero game-operator terms (p(a)·H(a, x), a1, a2, i1, i2) in (a, x1, x2) order."""
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


def _positive_part_projector(delta: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((delta + dagger(delta)) / 2)
    keep = vecs[:, vals > 0]
    return keep @ dagger(keep)


def _update_pvm(pvm: list[np.ndarray], effops: list[np.ndarray]) -> list[np.ndarray]:
    """Maximize sum_x Tr[A_x R_x] over projective measurements (one input of
    one restart): exact for two outcomes, else three pairwise sweeps."""
    n = len(effops)
    if n == 2:
        a0 = _positive_part_projector(effops[0] - effops[1])
        return [a0, np.eye(a0.shape[0], dtype=np.complex128) - a0]
    pvm = [p.copy() for p in pvm]
    for _ in range(3):
        for j in range(n):
            for k in range(j + 1, n):
                sub = pvm[j] + pvm[k]
                vals, vecs = np.linalg.eigh((sub + dagger(sub)) / 2)
                iso = vecs[:, vals > 0.5]
                if iso.shape[1] == 0:
                    continue
                rj = dagger(iso) @ effops[j] @ iso
                rk = dagger(iso) @ effops[k] @ iso
                split = _positive_part_projector(rj - rk)
                pvm[j] = iso @ split @ dagger(iso)
                pvm[k] = iso @ (np.eye(iso.shape[1]) - split) @ dagger(iso)
    return pvm


def _seesaw_restart(g: Game, terms, dims, constrain_abar: bool, iters: int, seed: int, restart: int):
    """One seeded restart; returns (best value, snapshot, iterations used)."""
    d1, d2 = dims
    outs1, outs2 = g.player_outputs
    abar = g.distinguished_input
    best_value = -math.inf
    best_snapshot = None
    total_iters = 0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(restart,)))
    pvm1 = {a: haar_pvm(d1, len(outs1), rng) for a in g.player_inputs[0]}
    pvm2 = {b: haar_pvm(d2, len(outs2), rng) for b in g.player_inputs[1]}
    psi = ginibre(d1 * d2, rng)
    psi /= np.linalg.norm(psi)
    prev = -math.inf
    for it in range(iters):
        total_iters += 1
        psi_mat = psi.reshape(d1, d2)
        for a1 in g.player_inputs[0]:
            effops = []
            for i1 in range(len(outs1)):
                m = np.zeros((d2, d2), dtype=np.complex128)
                for w, b1, b2, j1, j2 in terms:
                    if b1 == a1 and j1 == i1:
                        m += w * pvm2[b2][j2]
                effops.append(psi_mat @ m.T @ dagger(psi_mat))
            pvm1[a1] = _update_pvm(pvm1[a1], effops)
        for a2 in g.player_inputs[1]:
            effops = []
            for i2 in range(len(outs2)):
                m = np.zeros((d1, d1), dtype=np.complex128)
                for w, b1, b2, j1, j2 in terms:
                    if b2 == a2 and j2 == i2:
                        m += w * pvm1[b1][j1]
                effops.append(dagger(psi_mat) @ m @ psi_mat)
            pvm2[a2] = _update_pvm(pvm2[a2], effops)
        k = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
        for w, b1, b2, j1, j2 in terms:
            k += w * np.kron(pvm1[b1][j1], pvm2[b2][j2])
        vals, vecs = np.linalg.eigh((k + dagger(k)) / 2)
        psi = vecs[:, -1]
        if constrain_abar:
            best_branch = None
            best_weight = -1.0
            for i1 in range(len(outs1)):
                p1 = pvm1[abar[0]][i1]
                for i2 in range(len(outs2)):
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


def seesaw_oracle(
    g: Game,
    dims: Sequence[int],
    constrain_abar: bool = False,
    restarts: int = 20,
    iters: int = 500,
    seed: int = 0,
) -> SeesawResult:
    """``classicaloracle.seesaw`` as a loop over restarts, each one a loop over
    single matrices: every input, outcome pair and score term on its own."""
    d1, d2 = (int(x) for x in dims)
    outs1, outs2 = g.player_outputs
    terms = _score_terms(g)
    runs = [
        _seesaw_restart(g, terms, (d1, d2), constrain_abar, iters, seed, k)
        for k in range(restarts)
    ]
    best_value = -math.inf
    best_snapshot = None
    for value, snapshot, _ in runs:
        if snapshot is not None and value > best_value:
            best_value = value
            best_snapshot = snapshot
    pvm1, pvm2, psi = best_snapshot
    site1 = {a: {x: pvm1[a][i] for i, x in enumerate(outs1)} for a in g.player_inputs[0]}
    site2 = {b: {x: pvm2[b][i] for i, x in enumerate(outs2)} for b in g.player_inputs[1]}
    device = components_device(
        (d1, d2),
        np.outer(psi, np.conj(psi)),
        (site1, site2),
        name="seesaw" + ("-constrained" if constrain_abar else ""),
    )
    return SeesawResult(
        value=eps_score(g, device, 0.0),
        device=device,
        iterations=sum(used for _, _, used in runs),
        constrained=constrain_abar,
        restarts=restarts,
        restart_values=tuple(value for value, _, _ in runs),
    )
