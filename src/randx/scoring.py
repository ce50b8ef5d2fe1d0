"""Game operators, (1+eps)-scores and randomness, rate curves, and bounds.

All logarithms are base 2 (quantities are measured in bits).  The smoothed
score of a device at a game is

    W^eps = bracket(sqrt(K) phi sqrt(K), eps) / bracket(phi, eps)

with K the game operator sum p(a) H(a,x) P_a^x; at eps = 0 this is the
ordinary Born-rule expected score.  The (1+eps)-randomness compares the
bracket of the post-measurement branches P_a^x phi P_a^x with that of the
initial state and converges to a Renyi entropy rate as eps -> 0.

A bracket is sum lambda^(1+eps) over a PSD matrix's eigenvalues, so eps
enters only through the power.  The spectra are decomposed once per device
and kept on it (``Device._spectra``): phi's, each measured letter's branches
P_a^x phi P_a^x, and, per game, that of sqrt(K) phi sqrt(K).  Each public
call then only powers and sums them at its eps
(``matcore.spectral_brackets``), into one branch table: bracket(phi, eps)
and the bracket of every measured branch it needs.  ``randomness_report``
reads all of its fields from a single table, and an eps sweep decomposes
nothing after its first call.  The spectra are taken per input and per
orthogonal block of the device, from the stacks the device keeps
(``Device.state_blocks``, ``Device.projector_blocks``): all of an input's
branches P_b phi_b P_b are formed in one stacked product and decomposed by
one batched eigh per block size, never as dense products.  K is summed per
block from the same projector stacks, and sqrt(K) and sqrt(K) phi sqrt(K)
are taken per block in the same way; no dense matrix is formed or split.

A game's branches are read from the round plan of the (game, device) pair
(``protocol._round_plan``), which checks the pair once and maps each game
cell to its device output row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable

import numpy as np

from . import matcore
from .devicemodel import Device, Letter, _read_only
from .gamedefs import Game
from .protocol import _round_plan

LOG2E = math.log2(math.e)
RATIO_CLAMP = 1.0 + 1e-9


class ScoringError(ValueError):
    pass


_Term = tuple[float, Letter, int, float]  # (probability, input, device output row, score)


def _game_terms(g: Game, d: Device) -> list[_Term]:
    """The branches of g's inputs of positive weight, read from the pair's
    round plan (which checks the pair once), each scoring H(a, x)."""
    plan = _round_plan(g, d)
    return [
        (p, a, r, float(plan.scores[i, j]))
        for i, a in enumerate(g.input_alphabet) if (p := g.prob(a)) > 0.0
        for r, j in enumerate(plan.outputs[i])
    ]


def _letter_terms(d: Device, a: Letter) -> list[_Term]:
    """One input letter's branches, each of weight 1 and score 0."""
    if a not in d.measurements:
        raise ScoringError(f"input letter {a!r} unknown to the device")
    return [(1.0, a, r, 0.0) for r in range(len(d.measurements[a]))]


@dataclass(frozen=True)
class _BranchTable:
    """The brackets one scoring call needs, each powered once."""

    eps: float
    state: float  # bracket(phi, eps)
    branches: dict[Letter, list[float]]  # a -> bracket(P_a^x phi P_a^x, eps) per device row


def _spectra(d: Device, key: tuple, stacks: Callable[[], list]) -> tuple[np.ndarray, ...]:
    """``matcore.block_psd_spectra(stacks())``, decomposed on the device's
    first call with ``key`` and read from ``Device._spectra`` after."""
    cache = d._spectra
    if key not in cache:
        cache[key] = _read_only(matcore.block_psd_spectra(stacks()))
    return cache[key]


def _state_bracket(d: Device, eps: float) -> float:
    """bracket(phi, eps) from the state's kept spectrum."""
    spectra = _spectra(d, ("state",), lambda: [f[None] for f in d.state_blocks])
    return float(matcore.spectral_brackets(spectra, eps)[0])


def _branch_table(d: Device, inputs: Iterable[Letter], eps: float) -> _BranchTable:
    """Bracket phi and every measured branch of ``inputs`` from the spectra
    the device keeps.  A letter's branches are decomposed per block of the
    device, one batched call per letter, on its first use; unitaries cannot
    change them."""
    phi = d.state_blocks
    branches = {
        a: matcore.spectral_brackets(_spectra(
            d, ("branches", a), lambda: [p @ f @ p for p, f in zip(d.projector_blocks[a], phi)]
        ), eps).tolist()
        for a in dict.fromkeys(inputs)
    }
    return _BranchTable(eps, _state_bracket(d, eps), branches)


def _k_blocks(d: Device, terms: Iterable[_Term]) -> list[np.ndarray]:
    """K = sum p(a) H(a,x) P_a^x as one (k, s, s) stack per block size of the
    device, summed from ``Device.projector_blocks``.  Each entry adds the same
    terms in the same order as the dense sum would, so it is that sum's entry
    bit for bit."""
    k = [np.zeros_like(f) for f in d.state_blocks]
    for p, a, r, h in terms:
        if h != 0.0:
            for kb, pb in zip(k, d.projector_blocks[a]):
                kb += (p * h) * pb[r]
    return k


def _score_bracket(g: Game, d: Device, eps: float) -> float:
    """bracket(sqrt(K) phi sqrt(K), eps) from the spectrum the device keeps
    per game.  On the pair's first call K is summed per block, and sqrt(K)
    and the sandwich are taken per block."""

    def sandwich() -> list[np.ndarray]:
        root = matcore.block_psd_power(_k_blocks(d, _game_terms(g, d)), 0.5)
        return [(r @ f @ r)[None] for r, f in zip(root, d.state_blocks)]

    return float(matcore.spectral_brackets(_spectra(d, ("score", g), sandwich), eps)[0])


def eps_score(g: Game, d: Device, eps: float) -> float:
    """(1+eps)-score of a device; the Born-rule expected score at eps = 0."""
    if not 0.0 <= eps <= 1.0:
        raise ScoringError(f"eps must lie in [0, 1], got {eps}")
    return _score_bracket(g, d, eps) / _state_bracket(d, eps)


def _randomness(table: _BranchTable, terms: list[_Term], s: float) -> float:
    """-(1/eps) log2 of sum p 2^(eps s h) bracket(branch) / bracket(phi).

    The sum is a left fold in ``terms`` order.  At s = 0 the ratio is the
    plain bracket ratio, and a ratio above RATIO_CLAMP raises ScoringError.
    """
    num = 0.0
    for p, a, r, h in terms:
        weight = 2.0 ** (table.eps * s * h) if (s != 0.0 and h != 0.0) else 1.0
        num += p * weight * table.branches[a][r]
    ratio = num / table.state
    if s == 0.0 and ratio > RATIO_CLAMP:
        raise ScoringError(f"branch bracket ratio {ratio} exceeds 1 beyond numerical tolerance")
    return -(1.0 / table.eps) * math.log2(ratio)


def _check_randomness_eps(eps: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise ScoringError(f"eps must lie in (0, 1], got {eps}")


def eps_randomness(a: Letter, d: Device, eps: float) -> float:
    """(1+eps)-randomness of a device on the input letter a.

    The result is -(1/eps) log2 of a bracket ratio that cannot exceed 1
    except by rounding noise; a ratio above RATIO_CLAMP = 1 + 1e-9 raises
    ScoringError.  ``weighted_randomness(g, d, eps, 0.0)`` weights the
    branches of every input of a game by its distribution instead.
    """
    _check_randomness_eps(eps)
    return _randomness(_branch_table(d, (a,), eps), _letter_terms(d, a), 0.0)


def weighted_randomness(g: Game, d: Device, eps: float, s: float) -> float:
    """Randomness of the branches of g's inputs, weighted by the input
    distribution and by 2^(eps * s * H).

    Computed on the device side; the adversary-side branches share the same
    spectrum, so the value is identical.  At s = 0 the ratio is the plain
    bracket ratio and gets the same RATIO_CLAMP check as ``eps_randomness``.
    """
    _check_randomness_eps(eps)
    terms = _game_terms(g, d)
    return _randomness(_branch_table(d, (a for _, a, _, _ in terms), eps), terms, s)


@dataclass(frozen=True)
class RateCurve:
    """The universal quadratic rate curve 2 log2(e) (x - w)^2 / (r - 1) above w:
    nondecreasing and convex, with evaluable derivative."""

    w: float  # threshold below which the curve vanishes
    r: int  # output alphabet size used by the quadratic form
    label: ClassVar[str] = "quadratic"

    def _scale(self) -> float:
        return 2.0 * LOG2E / (self.r - 1)

    def evaluate(self, x: float) -> float:
        return self._scale() * (x - self.w) ** 2 if x > self.w else 0.0

    def derivative(self, x: float) -> float:
        return 2.0 * self._scale() * (x - self.w) if x > self.w else 0.0


def quadratic_rate_curve(w: float, r: int) -> RateCurve:
    """The quadratic curve above threshold w for an r-letter output alphabet."""
    if not 0.0 <= w < 1.0:
        raise ScoringError(f"threshold w must lie in [0, 1), got {w}")
    if r < 2:
        raise ScoringError(f"output alphabet size must be >= 2, got {r}")
    return RateCurve(w=float(w), r=int(r))


@dataclass(frozen=True)
class RandomnessReport:
    eps: float
    w_eps: float
    r_input: float
    r_game: float


def randomness_report(g: Game, d: Device, eps: float) -> RandomnessReport:
    """eps_score, eps_randomness on the distinguished input and
    weighted_randomness on g at s = 0, all from one branch table."""
    _check_randomness_eps(eps)
    terms = _game_terms(g, d)
    letter = _letter_terms(d, g.distinguished_input)
    table = _branch_table(d, [g.distinguished_input, *(a for _, a, _, _ in terms)], eps)
    return RandomnessReport(
        eps=eps,
        w_eps=_score_bracket(g, d, eps) / table.state,
        r_input=_randomness(table, letter, 0.0),
        r_game=_randomness(table, terms, 0.0),
    )
