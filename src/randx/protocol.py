"""The spot-checking generation protocol: simulation, exact success-state
aggregates, and the min-entropy bound pipeline.

Protocol (per round, N rounds total): draw t in {0,1} with P(t=1) = q; on a
test round draw the game input from p and add the raw score H(a, x) to the
accumulator c; on a generation round feed the distinguished input.  The run
succeeds iff c >= chi*q*N at the end.  One exact rule decides this for
simulation and enumeration alike: scores are held as integer units of a
common lattice (every finite float is a dyadic rational), and their exact
sum is compared exactly with the float chi*q*N, which is formed in one
place, ``ProtocolParams.threshold``.

Two usage semantics are supported everywhere:

  fresh_state=True (default)  every round is played on a fresh copy of the
      initial state.  This is the honest iid usage; it is exactly the memory
      model of the round-counter extension of the device (measure factor j,
      shift), so all formulas below apply to it verbatim and factorize over
      rounds.
  fresh_state=False           the strict in-place memory model: the single
      system collapses round by round (outputs sampled from the current
      evolved state, which is then updated by the selected branch and the
      input's unitary).  The state is held per orthogonal block of the
      device and stepped by the device's round operators U_a P_a^x
      (``Device.round_ops``), the same stacks the --memory tree expands.

Success-state aggregates come from one sums function per semantics, both
called with the same arguments (``enumerate_success_state``).  The two
polynomial routes run one DP over (score class, carried state),
``_lattice_sums``, the one place that forms score classes and sums the
winning ones.  Under fresh-state semantics each sequence weight is a
product over rounds and success depends only on the summed raw score, so
``_fresh_sums`` runs it with one carried state, in O(N * classes) work.
``_memory_sums`` takes one of two routes, chosen by the device alone.  When
every measured projector of the round's inputs has rank at most 1, each
branch operator is a scalar times one outer product, and ``_transfer_sums``
runs it with the last child as the carried state, in
O(N * classes * children^2) work.  Otherwise ``_memory_tree`` expands the
sequence tree in batches: each batch is a subtree of bounded size whose
nodes are held per orthogonal block of the device, and one stacked product
expands each of its depths.  The branch cap guards every route.

Randomness is drawn from a counter-based 64-bit generator (Philox) keyed by
the run seed, a key in [0, 2^128); each round consumes three uniforms in a
fixed order (round type, then input, then output; unused draws are still
consumed), so transcripts are bit-reproducible.  That is one contract with
two fills, chosen by the shape of the work.  Whole runs of at most
``_ARRAY_ROUNDS`` rounds take the array fill, ``_philox_uniforms``: numpy's
Philox4x64-10 computed in integer ufuncs for every block of every run at
once, so its bits depend on no BLAS kernel, and such calls never import
``numpy.random``.  Longer runs and slices of runs take numpy's C fill,
``_keyed_uniforms``, which re-keys one generator.  ``simulate_outcomes``
runs several trials and is the one place that keys trial k by seed + k; it
returns only c and success of each, as two columns.  On a fresh state it splits its trials
into pieces: as many whole trials as fit in ``_CHUNK_UNIFORMS`` uniforms and
in a count table of as many cells, or one slice of a longer trial.  A slice
starts at a row r that is a multiple of 4, so a generator re-keyed to
seed + k with counter 3r/4 draws it.  A piece samples only its test rounds,
since generation rounds add nothing to c, and returns each of its trials'
exact score in lattice units.  One loop runs every call's pieces: array-fill
pieces on the calling thread, C-fill pieces on min(2, usable CPUs, pieces)
workers, each with its own generator and buffer: the calling thread, and
threads started and joined within the call.  The slices of a trial add into
its one score, so each trial gets the c and success of ``simulate`` at
seed + k, bit for bit.  A transcript draws
its test rounds as a piece does, and its generation rounds' outputs from the
distinguished input's one CDF row.  Every draw follows one rule (``_draw``):
a uniform draws the number of CDF entries at most it, by ``searchsorted`` on
one row or by counting on one row per uniform.  The two agree because every
CDF of Born weights is built after the zero rule, so no row decreases, and
simulation never draws a branch that enumeration drops.
Every entry point reads one round of its (game, device) pair from a private
round plan, which checks their compatibility and tabulates the round.  The
plan is built once per pair, by identity, and kept on the device, so it lives
as long as the device and later calls on the same pair reuse it.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import matcore
from .devicemodel import Device, Letter, _read_only, born_probabilities
from .gamedefs import Game, require_compatible
from .matcore import dagger

BRANCH_CAP = 10**7
# The zero rule for a branch, in both enumerators and at every round: a child
# whose Born weight is at most this multiple of its parent's is zero (``_nonzero``).
PRUNE_FLOOR = 1e-30
# One batch of the --memory tree holds at most this many complex matrix
# entries over all its nodes (4 MiB), whatever N is.
MEMORY_BATCH_ENTRIES = 2**18
# One piece of fresh-state work in ``simulate_outcomes`` holds at most this
# many uniforms (512 KiB): whole trials, or one slice of a longer trial.
_CHUNK_UNIFORMS = 2**16
# The rows of a slice: as many as a piece holds, a multiple of 4, so that
# every slice starts a 4-word Philox block (3 words a row).
_SLICE_ROWS = _CHUNK_UNIFORMS // 12 * 4
# Whole runs of at most this many rounds draw their uniforms by the array
# fill (``_philox_uniforms``), longer runs and slices by numpy's C fill
# (``_keyed_uniforms``).  Per run, in pieces of up to 2500 runs on a 2-vCPU
# host, the array fill took 2.4-3.3 us at 16 rounds against 2.5-4.8 us for
# re-keying and the C fill, and 4.4-5.4 us at 32 rounds against 2.8-4.7 us.
_ARRAY_ROUNDS = 16
_WORD = 2**64 - 1
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)  # a fresh Philox counter and buffer
_ZERO_WORDS.flags.writeable = False
# Philox4x64-10 as numpy's Philox runs it: the round multipliers, and the Weyl
# constants that bump the key between rounds
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


class ProtocolError(ValueError):
    pass


class GuardError(ValueError):
    """A computational guard: the request is well formed but exceeds a size
    the package refuses to compute (the CLI exits 2 on it)."""


@dataclass(frozen=True)
class ProtocolParams:
    """One run's parameters.  Their check is the one domain of N, q and chi
    in simulation, enumeration and the rate-curve pipeline alike."""

    n_rounds: int
    q: float
    chi: float
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ProtocolError(f"n_rounds must be positive, got {self.n_rounds}")
        if not 0.0 < self.q < 1.0:
            raise ProtocolError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 <= self.chi < math.inf:
            raise ProtocolError(f"chi must be nonnegative and finite, got {self.chi}")

    @property
    def threshold(self) -> float:
        return self.chi * self.q * self.n_rounds


@dataclass(frozen=True)
class Transcript:
    """One protocol run: per-round records plus the accumulated score.

    Letters are stored as indices into the referenced alphabets to keep large
    transcripts cheap; iterate with ``rounds()`` for letter tuples.
    """

    test_flags: np.ndarray  # uint8, 1 on game rounds
    input_indices: np.ndarray  # into input_alphabet
    output_indices: np.ndarray  # into output_alphabet
    scores: np.ndarray  # per-round raw scores (0 on generation rounds)
    c: float
    success: bool
    input_alphabet: tuple[Letter, ...]
    output_alphabet: tuple[Letter, ...]

    def rounds(self) -> Iterator[tuple[int, Letter, Letter, float]]:
        for t, ai, xi, s in zip(
            self.test_flags, self.input_indices, self.output_indices, self.scores
        ):
            yield int(t), self.input_alphabet[ai], self.output_alphabet[xi], float(s)


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed over log-space terms.

    A fresh-state run of a game with 0/1 scores and winning probability w
    has c ~ Binomial(N, q*w), so its success probability is this tail at the
    least integer meeting chi*q*N.
    """
    if k > n:
        return 0.0
    if k <= 0 or p == 1.0:
        return 1.0
    if p == 0.0:
        return 0.0
    lp, lq, head = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return math.fsum(
        math.exp(head - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lp + (n - j) * lq)
        for j in range(k, n + 1)
    )


def _meets_threshold(units, den: int, threshold: float):
    """The success rule: the exact score units/den is at least the float threshold.

    ``units`` is a Python int, or an array of them compared elementwise (int64,
    or object holding Python ints).  The least score meeting a threshold
    tn/td is ceil(tn * den / td) units, formed exactly; a chi*q*N that
    overflows to inf is met by no score.
    """
    if threshold == math.inf:
        return units >= math.inf
    tn, td = threshold.as_integer_ratio()
    return units >= -(-tn * den // td)


def _nonzero(born, parent):
    """The zero rule for a branch: a child counts iff its Born weight exceeds
    ``PRUNE_FLOOR`` times its parent's (tr phi for a fresh round, the parent
    node's trace in the --memory tree), so it does not depend on the state's
    scale.  Roundoff leaves a product of orthogonal projectors at about 1e-17,
    not 0; the rule drops such a branch.  Elementwise on arrays."""
    return born > PRUNE_FLOOR * parent


@dataclass(frozen=True, eq=False)
class _RoundPlan:
    """One protocol round of a compatible (game, device) pair, built once.

    Arrays are indexed by positions in the game's input and output alphabets.
    Cell (i, j) scores exactly ``units[i * n_out + j] / den``.
    """

    game: Game
    device: Device
    input_cdf: np.ndarray  # CDF of p over the inputs
    born: np.ndarray  # (input, output) Born probabilities of the initial state
    tr_phi: float  # the initial state's trace, every fresh round's parent weight
    output_cdfs: np.ndarray  # row i: the output CDF of input i, after the zero rule
    scores: np.ndarray  # (input, output) raw scores H(a, x)
    units: tuple[int, ...]
    den: int
    abar: int  # index of the distinguished input
    outputs: tuple[tuple[int, ...], ...]  # per input, its measured outputs in device order

    @functools.cached_property
    def rank_one(self) -> tuple[list[np.ndarray] | None, ...]:
        """Per input, ``matcore.block_rank_one`` of its projector stacks: each
        output's unit vector, or None if a projector has rank above 1.  Built
        on the pair's first --memory enumeration, not with the plan."""
        projs = self.device.projector_blocks
        return tuple(matcore.block_rank_one(projs[a]) for a in self.game.input_alphabet)


def _cdf(weights) -> np.ndarray:
    """The CDF along the last axis, its last entry raised to at least 1 so
    that every uniform in [0, 1) draws an index."""
    cdf = np.cumsum(weights, axis=-1)
    cdf[..., -1] = np.maximum(cdf[..., -1], 1.0)
    return cdf


def _round_plan(g: Game, d: Device) -> _RoundPlan:
    """Check compatibility once and tabulate one round of (g, d), on the
    pair's first call; later calls read the plan from ``d._round_plans``.
    Games and devices compare by identity and are immutable, so the plan and
    its read-only arrays can be shared."""
    if (plan := d._round_plans.get(g)) is not None:
        return plan
    require_compatible(g, d)
    n_in, n_out = len(g.input_alphabet), len(g.output_alphabet)
    out_index = {x: j for j, x in enumerate(g.output_alphabet)}
    born = np.zeros((n_in, n_out))
    outputs = []
    for i, a in enumerate(g.input_alphabet):
        probs = born_probabilities(d, a)
        outputs.append(tuple(out_index[x] for x in probs))
        born[i, list(outputs[-1])] = list(probs.values())
    tr_phi = float(_traces([b[None] for b in d.state_blocks])[0])
    output_cdfs = _cdf(np.where(_nonzero(born, tr_phi), born, 0.0))
    input_cdf = _cdf([g.prob(a) for a in g.input_alphabet])
    flat = [g.score(a, x) for a in g.input_alphabet for x in g.output_alphabet]
    ratios = {h: h.as_integer_ratio() for h in set(flat)}  # exact: a finite float is dyadic
    den = math.lcm(*(r for _, r in ratios.values()))
    units = tuple(ratios[h][0] * (den // ratios[h][1]) for h in flat)
    scores = np.array(flat).reshape(n_in, n_out)
    abar = g.input_alphabet.index(g.distinguished_input)
    input_cdf, born, output_cdfs, scores = _read_only([input_cdf, born, output_cdfs, scores])
    plan = d._round_plans[g] = _RoundPlan(
        g, d, input_cdf, born, tr_phi, output_cdfs, scores, units, den, abar, tuple(outputs)
    )
    return plan


def _supported_inputs(plan: _RoundPlan, q: float) -> Iterator[tuple[float, int, bool]]:
    """The inputs of positive weight of one round of G_q, in order, as
    (p_i, input index, test round): the generation round (1 - q, abar)
    first, then each test round (q p(a), a) in the game's input order.

    These are the rows of the paper's spot-checking game G_q, whose inputs
    are (t, a) in {0,1} x A:

        p_q((1, a)) = q * p(a)          H_q((1, a), x) = H(a, x) / q
        p_q((0, abar)) = 1 - q          H_q((0, a), x) = 0
        p_q((0, a)) = 0   for a != abar

    The 1/q weight compensates for game rounds occurring only with frequency
    q, so the expected H_q score of any device equals its expected H score.
    The protocol adds the raw H(a, x) of a test round to c instead, and its
    success rule c >= chi*q*N carries the q.
    """
    g = plan.game
    rows = [(1.0 - q, plan.abar, False),
            *((q * g.prob(a), i, True) for i, a in enumerate(g.input_alphabet))]
    return ((p_i, i, test) for p_i, i, test in rows if p_i > 0.0)


def _generator() -> np.random.Generator:
    """A Philox generator for ``_keyed_uniforms`` to re-key."""
    return np.random.Generator(np.random.Philox(key=0))


def _check_seeds(seed: int, trials: int) -> None:
    """Runs seed .. seed + trials - 1 must all be Philox keys, in [0, 2^128)."""
    if seed < 0 or seed + trials - 1 >= 2**128:
        raise ProtocolError(
            f"run seeds must lie in [0, 2**128); got seed {seed} for {trials} trial(s)"
        )


def _keyed_uniforms(
    gen: np.random.Generator, seed: int, out: np.ndarray, row: int = 0
) -> np.ndarray:
    """The C fill: fill ``out`` with the uniforms of run ``seed`` from round
    ``row`` on.

    They are the uniforms of ``Generator(Philox(key=seed))``, three a round,
    less the first ``3 * row``: the generator's Philox is re-keyed through its
    public state (key words low then high, counter ``3 * row / 4``, empty
    buffer) instead of being built anew.  ``row`` must be a multiple of 4, so
    that the first uniform starts a Philox block.  For ``out.shape == (n, 3)``
    row j holds round ``row + j``'s round type, input and output.  The array
    fill, ``_philox_uniforms``, gives the same bits for whole runs; it costs
    less for runs of at most ``_ARRAY_ROUNDS`` rounds and needs no generator.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (3 * row // 4, 0, 0, 0) if row else _ZERO_WORDS,
            "key": (seed & _WORD, seed >> 64),
        },
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.random(out=out)


def _mulhilo(m: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products of the 64-bit constant
    ``m`` and the words ``c``: the high word summed from 32-bit limbs, each
    partial sum fitting in a word, the low word as the wrapping product."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    c_lo, c_hi = c & 0xFFFFFFFF, c >> 32
    mid = c_hi * m_lo + (c_lo * m_lo >> 32)
    low_mid = c_lo * m_hi + (mid & 0xFFFFFFFF)
    return c_hi * m_hi + (mid >> 32) + (low_mid >> 32), c * np.uint64(m)


def _philox_uniforms(seed: int, m: int, rows: int) -> np.ndarray:
    """The array fill: the uniforms of runs seed .. seed + m - 1 over their
    first ``rows`` rounds, as an (m, rows, 3) array whose row j is
    ``_keyed_uniforms``' fill of run seed + j, bit for bit.

    It is numpy's Philox4x64-10 run for every block of every run at once.
    Run s has the key words (s mod 2^64, s div 2^64), split from the Python
    int, so runs may carry across 2^64.  Its block b, from 1 (numpy bumps the
    counter before each block), is ten rounds on the counter (b, 0, 0, 0),
    round r keyed by the key plus r times the Weyl constants, and holds the
    run's words 4b - 4 .. 4b - 1; word w gives the uniform (w >> 11) * 2^-53.
    Only integer ufuncs run, so the bits do not depend on the BLAS kernel.
    """
    low = np.uint64(seed & _WORD)
    k0 = np.arange(m, dtype=np.uint64) + low  # wraps past 2^64, and then carries
    key = [k0[:, None], ((k0 < low) + np.uint64(seed >> 64))[:, None]]
    blocks = -(-3 * rows // 4)
    zero = np.zeros((1, 1), dtype=np.uint64)
    # broadcasting keeps the first rounds' words per block or per run
    c = [np.arange(1, blocks + 1, dtype=np.uint64)[None], zero, zero, zero]
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_MUL[0], c[0])
        hi1, lo1 = _mulhilo(_PHILOX_MUL[1], c[2])
        c = [hi1 ^ c[1] ^ key[0], lo1, hi0 ^ c[3] ^ key[1], lo0]
        key = [key[0] + _PHILOX_WEYL[0], key[1] + _PHILOX_WEYL[1]]
    words = np.stack(c, axis=-1).reshape(m, 4 * blocks)[:, : 3 * rows]
    return ((words >> 11) * 2.0**-53).reshape(m, rows, 3)


def _draw(cdf: np.ndarray, u):
    """The one draw rule: the index drawn by a uniform is the number of CDF
    entries at most it, capped at the last index.  ``cdf`` is one row for
    every uniform (``np.searchsorted``, O(len(u)) memory; u may be a
    scalar) or one row per uniform (the count rule).  The two agree because
    no row decreases: every row is a CDF of nonnegative weights, Born weights
    taken after the zero rule."""
    if cdf.ndim == 1:
        return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return np.minimum((u[:, None] >= cdf).sum(axis=1), cdf.shape[-1] - 1)


def _test_inputs(plan: _RoundPlan, u: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The test rounds among the rows of uniforms ``u``, and their input indices."""
    test = np.flatnonzero(u[:, 0] < q)
    return test, _draw(plan.input_cdf, u[test, 1])


def _unit_scores(plan: _RoundPlan, counts: np.ndarray, n: int) -> np.ndarray:
    """Each run's exact score in lattice units, from its row of ``counts``:
    how often it played each flat cell ``i * n_out + j`` on a test round.
    The scores are int64 where the score of any n-round run and the lattice
    denominator fit in 53 bits, so that one float division rounds c; else
    they are Python ints in an object array, since units can pass 2^63."""
    wide = max(map(abs, plan.units)) * n > 2**53 or plan.den > 2**53
    dtype = object if wide else np.int64
    return counts.astype(dtype) @ np.array(plan.units, dtype=dtype)


def _outcomes(
    plan: _RoundPlan, units: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """c and success of runs of exact scores ``units``, as a float and a bool
    array: c is each score divided by the denominator, rounded once."""
    c = (units / plan.den).astype(float, copy=False)
    return c, _meets_threshold(units, plan.den, threshold)


def _branches(mats: list[np.ndarray], state: list[np.ndarray]) -> list[np.ndarray]:
    """m rho m† of each node m of a stack, as one (L, k, s, s) stack per block
    size, from the nodes' per-block stacks and the state's (k, s, s) blocks."""
    return [m @ r @ dagger(m) for m, r in zip(mats, state)]


def _traces(stacks: list[np.ndarray]) -> np.ndarray:
    """The trace of each of L block-diagonal matrices held as (L, k, s, s) stacks,
    summed over the blocks in a C-ordered (L, k) array: numpy rounds by layout."""
    return sum(np.ascontiguousarray(np.trace(b, axis1=-2, axis2=-1).real).sum(axis=-1)
               for b in stacks)


def _transcript(
    plan: _RoundPlan, params: ProtocolParams, fresh_state: bool, gen: np.random.Generator | None
) -> Transcript:
    """One run with its per-round records, its uniforms drawn by ``gen``, or
    by the array fill if ``gen`` is None."""
    g, n = plan.game, params.n_rounds
    if gen is None:
        [u] = _philox_uniforms(params.seed, 1, n)
    else:
        u = _keyed_uniforms(gen, params.seed, np.empty((n, 3)))
    test, a = _test_inputs(plan, u, params.q)
    t = np.zeros(n, dtype=np.uint8)
    t[test] = 1
    a_idx = np.full(n, plan.abar, dtype=np.int64)
    a_idx[test] = a

    if fresh_state:
        # generation rounds draw from the distinguished input's row, test rounds from theirs
        x_idx = _draw(plan.output_cdfs[plan.abar], u[:, 2])
        x_idx[test] = _draw(plan.output_cdfs[a], u[test, 2])
    else:
        state, parent = plan.device.state_blocks, plan.tr_phi
        ops = [plan.device.round_ops[a] for a in g.input_alphabet]
        x_idx = np.zeros(n, dtype=np.int64)
        for j in range(n):
            # every output's next state; its trace is the output's Born weight,
            # and the state's trace (1 once normalized) is the zero rule's parent
            nxt = _branches(ops[a_idx[j]], state)
            born = _traces(nxt)
            born = np.where(_nonzero(born, parent), born, 0.0)
            k = _draw(_cdf(born / born.sum()), u[j, 2])
            x_idx[j] = plan.outputs[a_idx[j]][k]
            # the drawn output's weight is positive, since no CDF row decreases
            state, parent = [b[k] / born[k] for b in nxt], 1.0

    scores = np.where(t == 1, plan.scores[a_idx, x_idx], 0.0)
    counts = np.bincount(a * plan.scores.shape[1] + x_idx[test], minlength=len(plan.units))
    c, success = _outcomes(plan, _unit_scores(plan, counts[None], n), params.threshold)
    return Transcript(
        test_flags=t,
        input_indices=a_idx,
        output_indices=x_idx,
        scores=scores,
        c=float(c[0]),
        success=bool(success[0]),
        input_alphabet=g.input_alphabet,
        output_alphabet=g.output_alphabet,
    )


def simulate(
    g: Game, d: Device, params: ProtocolParams, fresh_state: bool = True
) -> Transcript:
    """Run the protocol once; reproducible given the seed.

    The accumulator stores raw scores; the success rule is c >= chi*q*N, with
    c summed exactly and compared exactly with the float chi*q*N, so a run
    with no test rounds succeeds only if that threshold is <= 0.
    """
    _check_seeds(params.seed, 1)
    gen = None if params.n_rounds <= _ARRAY_ROUNDS else _generator()
    return _transcript(_round_plan(g, d), params, fresh_state, gen)


def simulate_outcomes(
    g: Game, d: Device, params: ProtocolParams, trials: int, fresh_state: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """c and success of ``trials`` runs, run k keyed by ``params.seed + k``,
    as two columns: a float array and a bool array, 9 bytes a run.

    Run k reports the c and success of ``simulate`` at seed ``params.seed + k``,
    bit for bit.  Every seed is checked before the first run.  Fresh-state
    runs go in pieces (``_pieces``): several whole runs, or one slice of a
    longer run starting at a round that is a multiple of 4.  Generation
    rounds add nothing to c, so a piece samples only its test rounds' inputs
    and outputs, from the same uniforms, counts each run's cells and returns
    each run's exact score.  One loop runs every call's pieces
    (``_run_pieces``); the slices of a long run add into its one score.
    ``trials`` must be at least 1.
    """
    if trials < 1:
        raise ProtocolError(f"trials must be at least 1, got {trials}")
    _check_seeds(params.seed, trials)
    plan = _round_plan(g, d)
    if not fresh_state:
        gen = _generator()
        c, success = np.empty(trials), np.empty(trials, dtype=bool)
        for k in range(trials):
            tr = _transcript(plan, replace(params, seed=params.seed + k), False, gen)
            c[k], success[k] = tr.c, tr.success
        return c, success
    pieces = _pieces(params.n_rounds, trials, len(plan.units))
    results = _run_pieces(plan, params, pieces)
    scores = np.zeros(trials, dtype=results[0].dtype)
    for (first, m, _, _), piece in zip(pieces, results):
        scores[first:first + m] += piece
    del results  # freed before c is formed, so the peak holds two columns of runs
    return _outcomes(plan, scores, params.threshold)


def _pieces(n: int, trials: int, cells: int) -> list[tuple[int, int, int, int]]:
    """The pieces of ``trials`` fresh-state runs of n rounds on a plan of
    ``cells`` cells, in run order, as (first run, runs, first round, rounds).
    Runs that fit in a piece go as many to a piece as fit, in its
    ``_CHUNK_UNIFORMS`` uniforms and in a count table of as many cells; a
    longer run goes in slices of ``_SLICE_ROWS`` rounds, the last one shorter."""
    if 3 * n <= _CHUNK_UNIFORMS:
        per = min(trials, _CHUNK_UNIFORMS // (3 * n), max(1, _CHUNK_UNIFORMS // cells))
        return [(k, min(per, trials - k), 0, n) for k in range(0, trials, per)]
    return [
        (k, 1, r, min(_SLICE_ROWS, n - r)) for k in range(trials) for r in range(0, n, _SLICE_ROWS)
    ]


def _score_piece(
    plan: _RoundPlan, params: ProtocolParams, gen: np.random.Generator | None, buf, piece
) -> np.ndarray:
    """The exact score, in lattice units, of each run of one piece over the
    piece's rounds (``_unit_scores``).  The array fill draws the piece's
    uniforms if ``gen`` is None; else ``gen`` fills them into ``buf``."""
    first, m, row, rows = piece
    if gen is None:
        u = _philox_uniforms(params.seed + first, m, rows)
    else:
        u = buf[: 3 * m * rows].reshape(m, rows, 3)
        if row:
            _keyed_uniforms(gen, params.seed + first, u[0], row)
        else:
            for j in range(m):
                _keyed_uniforms(gen, params.seed + first + j, u[j])
    u = u.reshape(m * rows, 3)
    test, a = _test_inputs(plan, u, params.q)
    x = _draw(plan.output_cdfs[a], u[test, 2])
    n_cells = len(plan.units)
    cells = test // rows * n_cells + a * plan.scores.shape[1] + x
    counts = np.bincount(cells, minlength=m * n_cells).reshape(m, n_cells)
    return _unit_scores(plan, counts, params.n_rounds)


def _workers() -> int:
    """min(2, the CPUs this process may run on)."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _run_pieces(
    plan: _RoundPlan, params: ProtocolParams, pieces: list[tuple[int, int, int, int]]
) -> list[np.ndarray]:
    """Each piece's run scores (``_score_piece``), in piece order.

    A call's pieces all have one shape.  Pieces of whole runs of at most
    ``_ARRAY_ROUNDS`` rounds take the array fill, on the calling thread: a
    second thread did not pay on them (on 2 CPUs, 10^6 one-round runs took
    0.26-0.38 s on one worker and 0.39-0.45 s on two).  Other pieces take
    the C fill on min(``_workers()``, pieces) workers: worker w takes pieces w,
    w + workers, ... with a generator and a buffer of its own, the buffer
    the size of the first, largest piece.  Worker 0 is the calling thread;
    each other worker is a thread started and joined here.  numpy's fills
    and sampling release the GIL, so the workers run on separate CPUs.  Each
    piece's scores go to its own slot, and an exception raised on a worker
    is raised here.
    """
    if params.n_rounds <= _ARRAY_ROUNDS:
        return [_score_piece(plan, params, None, None, piece) for piece in pieces]
    # built on the calling thread: the first imports numpy.random, which on a
    # started thread raised a sim-long run's peak RSS by about 0.8 MB
    gens = [_generator() for _ in range(min(_workers(), len(pieces)))]
    _, m, _, rows = pieces[0]
    results: list = [None] * len(pieces)
    errors: list[BaseException] = []

    def work(w: int) -> None:
        buf = np.empty(3 * m * rows)
        for p in range(w, len(pieces), len(gens)):
            results[p] = _score_piece(plan, params, gens[w], buf, pieces[p])

    def on_thread(w: int) -> None:
        try:
            work(w)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=on_thread, args=(w,)) for w in range(1, len(gens))]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True)
class SuccessStateSummary:
    """Exact aggregates of the subnormalized success-event operator family.

    mass is the success probability sum p_q(i-seq) tr(branch operator);
    renyi_randomness is -(1/eps) log2 of the conditional branch sum (the
    sandwiched branches with the initial adversary state's negative power),
    the quantity the min-entropy bound consumes.
    """

    eps: float
    mass: float
    renyi_randomness: float
    branches: int  # success sequences none of whose rounds the zero rule drops
    n_rounds: int
    q: float
    chi: float


def _branch_brackets(plan: _RoundPlan, i: int, sandwich, eps: float) -> list[float]:
    """bracket(phi^s P_a^x phi^s, eps) of each of input i's branches, in
    device output order, with phi^s the sandwich phi^(1/(2+2eps)): one
    batched call per block size over the input's projector stacks
    (``Device.projector_blocks``)."""
    projs = plan.device.projector_blocks[plan.game.input_alphabet[i]]
    return matcore.block_psd_brackets([r @ p @ r for r, p in zip(sandwich, projs)], eps).tolist()


def _lattice_sums(first, step, moves, plan, params) -> tuple[float, float, int]:
    """(mass, bracket sum, branches) of the winning sequences: the one DP over
    (score class, carried state) of enumeration.

    ``first`` and ``step`` are (Born, bracket, count) matrices over (state,
    column), ``first`` with one row, the root state of round 1 at class 0,
    and ``step`` with one row per carried state.  Column c is the move
    ``moves[c] = (lattice units, next state)``: a round adds column c of
    R @ M, R the row of class s, to class s + units in the next state.  Rows
    are held in ascending class order; a class adds its terms into zeros
    (``np.add.at``) class by class, in the order the classes were first
    reached, then column by column.  Counts are Python ints.  The classes
    that meet the threshold are summed, each sum in one ``math.fsum``.
    """
    units, nxt = [u for u, _ in moves], np.array([x for _, x in moves])
    scan, rows = [0], [0]  # the classes in the order first reached, and their rows
    sums = [np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1), dtype=object)]
    for r in range(params.n_rounds):
        reach = [s + u for s in scan for u in units]  # Python ints: exact sums
        scan = list(dict.fromkeys(reach))
        at = {s: k for k, s in enumerate(sorted(scan))}  # each class's row
        dst = np.array([at[t] for t in reach]).reshape(-1, len(units))
        out = [np.zeros((len(at), len(step[0])), dtype=a.dtype) for a in sums]
        for o, a, m in zip(out, sums, step if r else first):
            np.add.at(o, (dst, nxt), (a @ m)[rows])
        sums, rows = out, np.array([at[s] for s in scan])
    won = [k for s, k in at.items() if _meets_threshold(s, plan.den, params.threshold)]
    mass, ksum, count = (a[won].ravel().tolist() for a in sums)
    return math.fsum(mass), math.fsum(ksum), sum(count)


def _fresh_sums(
    plan: _RoundPlan, rows, sandwich, params: ProtocolParams, eps: float
) -> tuple[float, float, int]:
    """(mass, bracket sum, branches) of the fresh-state sequences: the lattice
    DP (``_lattice_sums``) with one carried state.

    One round's table groups the nonzero branches (``_nonzero`` against
    tr phi, the Born weight every fresh round starts from) by their score in
    lattice units, 0 on a generation round.  Entry k holds the Born weight
    sum p_i born, the bracket weight sum p_i w and the number of branches,
    and is a column of every round: the move by its units, to the one state.
    """
    n_out = plan.scores.shape[1]
    brackets: dict[int, list[float]] = {}
    table: dict[int, list] = {}
    for p_i, i, test in rows:
        if i not in brackets:
            brackets[i] = _branch_brackets(plan, i, sandwich, eps)
        for j, w in zip(plan.outputs[i], brackets[i]):
            born = float(plan.born[i, j])
            if _nonzero(born, plan.tr_phi):
                e = table.setdefault(plan.units[i * n_out + j] if test else 0, [0.0, 0.0, 0])
                e[0] += p_i * born
                e[1] += p_i * w
                e[2] += 1
    mats = [np.array([c], dtype=t) for c, t in zip(zip(*table.values()), (float, float, object))]
    return _lattice_sums(mats, mats, [(u, 0) for u in table], plan, params)


def _memory_sums(
    plan: _RoundPlan, rows, sandwich, params: ProtocolParams, eps: float
) -> tuple[float, float, int]:
    """(mass, bracket sum, branches) of the --memory sequences.

    When every measured projector of the inputs in ``rows`` has rank at most
    1 (``_RoundPlan.rank_one``), a branch operator is a scalar times one outer
    product and ``_transfer_sums`` runs the lattice DP with the last child as
    its carried state.  Otherwise ``_memory_tree`` expands every sequence.
    """
    vectors = plan.rank_one
    if all(vectors[i] is not None for _, i, _ in rows):
        return _transfer_sums(plan, rows, sandwich, params, eps)
    return _memory_tree(plan, rows, sandwich, params, eps)


def _transfer_sums(
    plan: _RoundPlan, rows, sandwich, params: ProtocolParams, eps: float
) -> tuple[float, float, int]:
    """(mass, bracket sum, branches) of the --memory sequences of a device whose
    measured projectors have rank at most 1: the lattice DP
    (``_lattice_sums``) with the last child as the carried state.

    Child c, in (rows, outputs) order, has the unit vector v_c of its
    projector (0 for a zero projector) and w_c = U_a P_a^x v_c, so its round
    operator is w_c v_c†, and the branch operator of children c_1 .. c_N is
    w_N <v_N|w_N-1> ... <v_2|w_1> v_1†.  Its Born weight is <v_1|phi|v_1>
    times the product of T[c_k-1, c_k], with T[c', c] = |<v_c|w_c'>|^2 the
    Born weight of child c relative to its parent c', and its bracket is
    (||r v_1||^2 times that product)^(1+eps), r the sandwich.  So each score
    class carries, per last child, the summed p_q-weighted Born weights,
    brackets and number of its sequences: round 1 starts them at p_c <v|phi|v>,
    p_c ||r v||^(2(1+eps)) and 1, and each later round multiplies them by
    p_c T, p_c T^(1+eps) and the kept transitions.  Column c is child c's
    move: its lattice units, into state c.  The zero rule is ``_nonzero`` on
    T, and on the first round's Born weight against tr phi.  Every product is
    taken per orthogonal block of the device.
    """
    d, n_out = plan.device, plan.scores.shape[1]
    letters = [plan.game.input_alphabet[i] for _, i, _ in rows]
    v = [np.concatenate(s) for s in zip(*(plan.rank_one[i] for _, i, _ in rows))]
    w = [(np.concatenate(ops) @ x[..., None])[..., 0]
         for ops, x in zip(zip(*(d.round_ops[a] for a in letters)), v)]
    child_pq = np.array([p_i for p_i, i, _ in rows for _ in plan.outputs[i]])
    units = [plan.units[i * n_out + j] if test else 0
             for _, i, test in rows for j in plan.outputs[i]]
    overlap = sum(np.einsum("cki,eki->ce", y, x.conj()) for x, y in zip(v, w))  # [c', c]
    t = overlap.real**2 + overlap.imag**2
    kept = _nonzero(t, 1.0)
    t = np.where(kept, t, 0.0)
    step = [t * child_pq, t ** (1.0 + eps) * child_pq, kept.astype(object)]
    born = sum(np.einsum("cki,kij,ckj->c", x.conj(), f, x).real for x, f in zip(v, d.state_blocks))
    rv = sum(np.sum(np.abs(r[None] @ x[..., None]) ** 2, axis=(1, 2, 3))
             for r, x in zip(sandwich, v))
    nonzero = _nonzero(born, plan.tr_phi)
    first = [np.where(nonzero, child_pq * x, 0.0)[None] for x in (born, rv ** (1.0 + eps))]
    first.append(nonzero.astype(object)[None])
    return _lattice_sums(first, step, [(u, c) for c, u in enumerate(units)], plan, params)


def _memory_tree(
    plan: _RoundPlan, rows, sandwich, params: ProtocolParams, eps: float
) -> tuple[float, float, int]:
    """(mass, bracket sum, branches) of the --memory sequence tree, in batches.

    A node is a branch operator m, a product of block-diagonal projectors and
    unitaries, with its q-weight product, its score in lattice units and its
    Born weight tr(m phi m†).  A stack of L nodes holds m as one (L, k, s, s)
    stack per block size of ``Device.blocks``.  The children of a node are
    ``(uni @ proj) @ m`` in (rows, outputs) order, so one stacked matmul
    expands a whole depth, and every depth drops the children that
    ``_nonzero`` calls zero against their parent's weight.  ``branches`` is the
    number of success leaves kept.  The tree is walked depth-first down to the
    least depth whose subtrees hold at most ``MEMORY_BATCH_ENTRIES`` matrix
    entries in all, and each subtree below that depth is one batch.  The sums
    are plain float ``+=`` over the success leaves in the last-in first-out
    order of a leaf-by-leaf walk, which is reverse-lexicographic over paths.
    """
    d, g, n_rounds = plan.device, plan.game, params.n_rounds
    state = d.state_blocks
    n_out = len(g.output_alphabet)
    # child c's operator U_a P_a^x, as one (C, k, s, s) stack per block size
    letters = [g.input_alphabet[i] for _, i, _ in rows]
    ops = [np.concatenate(stacks) for stacks in zip(*(d.round_ops[a] for a in letters))]
    child_pq = np.array([p_i for p_i, i, _ in rows for _ in plan.outputs[i]])
    child_units = np.array(  # Python ints: exact sums
        [plan.units[i * n_out + j] if test else 0 for _, i, test in rows for j in plan.outputs[i]],
        dtype=object,
    )

    def expand(pq, units, born, mats):
        """The nonzero children of a stack of nodes, node-major in child order."""
        mats = [np.matmul(op[None], m[:, None]).reshape(-1, *m.shape[1:])
                for op, m in zip(ops, mats)]
        child_born = _traces(_branches(mats, state))
        keep = _nonzero(child_born, np.repeat(born, len(child_pq)))
        pq = (pq[:, None] * child_pq).ravel()[keep]
        units = (units[:, None] + child_units).ravel()[keep]
        return pq, units, child_born[keep], [m[keep] for m in mats]

    entries = sum(idx.size * idx.shape[1] for idx in d.blocks)
    root_depth = 0
    while (
        root_depth < n_rounds
        and entries * sum(len(child_pq) ** j for j in range(n_rounds - root_depth + 1))
        > MEMORY_BATCH_ENTRIES
    ):
        root_depth += 1
    mass = ksum = 0.0
    branches = 0
    root = [np.broadcast_to(np.eye(b.shape[-1], dtype=np.complex128), (1, *b.shape)) for b in state]
    stack = [(0, np.ones(1), np.zeros(1, dtype=object), np.array([plan.tr_phi]), root)]
    while stack:
        depth, pq, units, born, mats = stack.pop()
        if depth < root_depth:
            pq, units, born, mats = expand(pq, units, born, mats)
            stack.extend(
                (depth + 1, pq[c:c + 1], units[c:c + 1], born[c:c + 1], [m[c:c + 1] for m in mats])
                for c in range(len(pq))
            )
            continue
        for _ in range(depth, n_rounds):
            pq, units, born, mats = expand(pq, units, born, mats)
        won = _meets_threshold(units, plan.den, params.threshold)
        if not won.any():
            continue
        pq, born, mats = pq[won], born[won], [m[won] for m in mats]
        w = matcore.block_psd_brackets(
            [r @ dagger(m) @ m @ r for r, m in zip(sandwich, mats)], eps
        )
        branches += len(pq)
        for x, y in zip((pq * born)[::-1].tolist(), (pq * w)[::-1].tolist()):
            mass += x
            ksum += y
    return mass, ksum, branches


def enumerate_success_state(
    g: Game,
    d: Device,
    n_rounds: int,
    q: float,
    chi: float,
    eps: float,
    fresh_state: bool = True,
    branch_cap: int = BRANCH_CAP,
) -> SuccessStateSummary:
    """Exact success-state aggregates over all (input, output) sequences.

    The success set is {raw score >= chi*q*N} (equivalently the q-weighted
    score >= chi*N), decided by the exact rule of ``_meets_threshold`` at
    ``ProtocolParams.threshold``; chi = 0 makes every branch of nonnegative
    score a success branch.  eps is checked here and N, q and chi by
    ``ProtocolParams``.  The sandwich phi^(1/(2+2eps)) is taken once, per
    orthogonal block of the device, and each semantics is one sums function
    of the same arguments returning (mass, bracket sum, branches).  Both
    polynomial routes are the one lattice DP over (score class, carried
    state), ``_lattice_sums``: ``_fresh_sums`` carries one state, since every
    fresh-state sequence weight factorizes over rounds, and on a device whose
    measured projectors have rank at most 1 ``_memory_sums`` carries the last
    child (``_transfer_sums``).  On any other device it expands the sequence
    tree in batches, since its branches depend on the evolving state.

    Both apply one zero rule at every round (``_nonzero``): a branch whose
    Born weight is at most ``PRUNE_FLOOR`` times its parent's is dropped,
    from the sums and from ``branches``, the number of success sequences
    left.  On both paths the guard rejects runs of more than ``branch_cap``
    sequences.
    """
    plan = _round_plan(g, d)
    if not 0.0 < eps <= 1.0:
        raise ProtocolError(f"eps must lie in (0, 1], got {eps}")
    params = ProtocolParams(n_rounds, q, chi)
    rows = list(_supported_inputs(plan, q))
    # base**N against the cap in at most bit_length + 1 factors: by then a
    # base >= 2 exceeds the cap, and every power of 1 is 1
    base = len(rows) * len(g.output_alphabet)
    if base ** min(n_rounds, branch_cap.bit_length() + 1) > branch_cap:
        raise GuardError(
            f"({len(rows)} inputs x {len(g.output_alphabet)} outputs)^{n_rounds} "
            f"exceeds the {branch_cap} branch cap"
        )
    sandwich = matcore.block_psd_power(d.state_blocks, 1.0 / (2.0 + 2.0 * eps))
    sums = _fresh_sums if fresh_state else _memory_sums
    mass, ksum, branches = sums(plan, rows, sandwich, params, eps)

    if ksum > 0.0:
        k_value = -(1.0 / eps) * math.log2(ksum)
    else:
        k_value = math.inf
    return SuccessStateSummary(
        eps=eps,
        mass=mass,
        renyi_randomness=k_value,
        branches=branches,
        n_rounds=n_rounds,
        q=q,
        chi=chi,
    )


@dataclass(frozen=True)
class ExpansionBound:
    """Realized numbers of the extractable-bits pipeline.

    Fields not applicable to the producing operation are None: the
    enumeration path fills hmin_lower from the smoothing penalty, the
    rate-curve path fills pi_chi / ideal_bits, and only fills hmin_lower when
    a slack constant is supplied (the leading-order error constant is not
    specified, so it is a caller input).
    """

    delta: float
    eps: float
    hmin_lower: float | None
    bits_per_round: float | None
    pi_chi: float | None = None
    ideal_bits: float | None = None
    b: float | None = None
    eps_star: float | None = None
    delta_term: float | None = None
    soundness_error: float | None = None


def entropy_lower_bound(summary: SuccessStateSummary, delta: float) -> ExpansionBound:
    """Smooth min-entropy lower bound: K - (1 + 2 log2(1/delta)) / eps.

    The bound may be negative, in which case it is vacuous at these
    parameters and reported as-is.
    """
    if not 0.0 < delta <= 1.0:
        raise ProtocolError(f"delta must lie in (0, 1], got {delta}")
    penalty = (1.0 + 2.0 * math.log2(1.0 / delta)) / summary.eps
    hmin = summary.renyi_randomness - penalty
    return ExpansionBound(
        delta=delta,
        eps=summary.eps,
        hmin_lower=hmin,
        bits_per_round=hmin / summary.n_rounds,
    )


def extractable_bits(
    curve,
    chi: float,
    q: float,
    b: float,
    n_rounds: int,
    slack_constant: float | None = None,
) -> ExpansionBound:
    """Extractable-bits report for a rate curve at soundness exponent b.

    The smoothing parameter is delta = sqrt(2) 2^(-b q N) (soundness error
    3 * 2^(-b q N)); the optimizing eps is min(1, sqrt(q log2(2/delta^2)/N)).
    The idealized rate is N pi(chi).  The error term q + sqrt(log2(2/delta^2)
    / (q N)) carries an unspecified leading constant, so a concrete bound is
    emitted only when slack_constant is supplied; b and slack_constant must
    be finite.
    """
    ProtocolParams(n_rounds, q, chi)  # the n_rounds, q and chi domains
    if not 0.0 < b < math.inf:
        raise ProtocolError(f"require finite b > 0, got b = {b}")
    if slack_constant is not None and not math.isfinite(slack_constant):
        raise ProtocolError(f"slack_constant must be finite, got {slack_constant}")
    delta = math.sqrt(2.0) * 2.0 ** (-b * q * n_rounds)
    log_term = 2.0 * b * q * n_rounds  # log2(2/delta^2), immune to delta underflow
    eps_star = min(1.0, math.sqrt(q * log_term / n_rounds))
    delta_term = q + math.sqrt(log_term / (q * n_rounds))
    pi_chi = curve.evaluate(chi)
    hmin = None
    bits_per_round = None
    if slack_constant is not None:
        bits_per_round = pi_chi - slack_constant * delta_term
        hmin = n_rounds * bits_per_round
    return ExpansionBound(
        delta=delta,
        eps=eps_star,
        hmin_lower=hmin,
        bits_per_round=bits_per_round,
        pi_chi=pi_chi,
        ideal_bits=n_rounds * pi_chi,
        b=b,
        eps_star=eps_star,
        delta_term=delta_term,
        soundness_error=3.0 * 2.0 ** (-b * q * n_rounds),
    )


def hmin_classical_adversary(table) -> float:
    """Min-entropy of X against a classical adversary E: -log2 sum_e max_x P(x,e).

    The table is a 2-d array indexed (x, e); it must be finite, entrywise
    nonnegative and sum to at most one (subnormalized tables are allowed).
    """
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise ProtocolError(f"expected a 2-d table, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ProtocolError("table has non-finite entries")
    if float(arr.min(initial=0.0)) < -1e-12:
        raise ProtocolError("table has negative entries")
    total = float(arr.sum())
    if total > 1.0 + 1e-9:
        raise ProtocolError(f"table mass {total} exceeds 1")
    if total <= 0.0:
        raise ProtocolError("table has no mass")
    guess = float(arr.max(axis=0).sum())
    return -math.log2(guess)
