"""Dense reference routes: the test oracle for the package's per-block device code.

``randx`` computes every device quantity from the block stacks a device
keeps (``Device.state_blocks``, ``Device.projector_blocks``,
``Device.round_ops``).  The routes here form the same quantities from full
dim x dim matrices, as the package did before it held its devices per block,
so the tests can compare the two.  Nothing in the package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from randx.devicemodel import Device, DeviceError, Letter, UnknownLetterError
from randx.gamedefs import Game, SpotCheckGame, require_compatible
from randx.matcore import as_matrix, dagger, psd_power
from randx.scoring import _game_terms


class DimMismatchError(DeviceError):
    pass


class LengthMismatchError(DeviceError):
    pass


def sqrtm_psd(m) -> np.ndarray:
    return psd_power(m, 0.5)


def projector(d: Device, a: Letter, x: Letter) -> np.ndarray:
    """Measurement projector for (input, output); zero if unlisted."""
    if a not in d.measurements:
        raise UnknownLetterError(f"unknown input letter {a!r}")
    p = d.measurements[a].get(x)
    if p is None:
        if x not in d.output_alphabet:
            raise UnknownLetterError(f"unknown output letter {x!r}")
        return np.zeros((d.dim, d.dim), dtype=np.complex128)
    return p


def born_probabilities(d: Device, a: Letter) -> dict[Letter, float]:
    """Tr[P_a^x phi] for each listed output, one dense einsum per projector."""
    if a not in d.measurements:
        raise UnknownLetterError(f"unknown input letter {a!r}")
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
        m = d.unitary(a) @ projector(d, a, x) @ m
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
            raise UnknownLetterError(f"unknown input letter {a!r}")
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


def k_matrix(d: Device, terms: Iterable[tuple[float, Letter, Letter, float]]) -> np.ndarray:
    """K = sum p(a) H(a,x) P_a^x over (probability, input, output, score) terms, densely."""
    k = np.zeros((d.dim, d.dim), dtype=np.complex128)
    for p, a, x, h in terms:
        if h != 0.0:
            k += (p * h) * d.measurements[a][x]
    return k


def game_operator(g: Game | SpotCheckGame, d: Device) -> GameOperator:
    """The dense game operator of a compatible device and its sandwich states."""
    require_compatible(g, d)
    k = k_matrix(d, _game_terms(g, d))
    pair = state_pair(d, k)
    return GameOperator(matrix=k, device_state=pair.device_state, adversary_state=pair.adversary_state)
