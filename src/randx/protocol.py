"""The spot-checking generation protocol: simulation, exact success-state
aggregates, and the min-entropy bound pipeline.

Protocol (per round, N rounds total): draw t in {0,1} with P(t=1) = q; on a
test round draw the game input from p and add the raw score H(a, x) to the
accumulator c; on a generation round feed the distinguished input.  The run
succeeds iff c >= chi*q*N at the end.  One exact rule decides this for
simulation and enumeration alike: scores are held as integer units of a
common lattice (every finite float is a dyadic rational), and their exact
sum is compared exactly with the float chi*q*N.

Two usage semantics are supported everywhere:

  fresh_state=True (default)  every round is played on a fresh copy of the
      initial state.  This is the honest iid usage; it is exactly the memory
      model of the round-counter extension of the device (measure factor j,
      shift), so all formulas below apply to it verbatim and factorize over
      rounds.
  fresh_state=False           the strict in-place memory model: the single
      system collapses round by round (outputs sampled from the current
      evolved state, which is then updated by the selected branch and the
      input's unitary).

Success-state aggregates under fresh-state semantics come from a
convolution: each sequence weight is a product over rounds and success
depends only on the summed raw score, so the one-round table of score
classes is convolved N times, in O(N * classes) work.  The memory semantics
expands the sequence tree leaf by leaf.  The branch cap guards both.

Randomness is drawn from a counter-based 64-bit generator (Philox) seeded by
the run seed; each round consumes three uniforms in a fixed order (round
type, then input, then output; unused draws are still consumed), so
transcripts are bit-reproducible.  ``simulate_outcome`` returns only c and
success of a fresh-state run: generation rounds add nothing to c, so it
samples and scores only the test rounds, from the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from . import matcore
from .devicemodel import Device, Letter
from .gamedefs import Game, require_compatible, spot_check
from .matcore import dagger, psd_power

BRANCH_CAP = 10**7


class ProtocolError(ValueError):
    pass


class BadDeltaError(ProtocolError):
    pass


class BadTableError(ProtocolError):
    pass


class TooLargeError(ProtocolError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    n_rounds: int
    q: float
    chi: float
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ProtocolError(f"n_rounds must be positive, got {self.n_rounds}")
        if not 0.0 < self.q < 1.0:
            raise ProtocolError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.chi < 1.0:
            raise ProtocolError(f"chi must lie in (0, 1), got {self.chi}")

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

    def __len__(self) -> int:
        return len(self.test_flags)


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed over log-space terms.

    A fresh-state run of a game with 0/1 scores and winning probability w
    has c ~ Binomial(N, q*w), so its success probability is this tail at the
    least integer meeting chi*q*N.
    """
    if k <= 0 or p == 1.0:
        return 1.0
    if k > n or p == 0.0:
        return 0.0
    lp, lq, head = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return math.fsum(
        math.exp(head - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lp + (n - j) * lq)
        for j in range(k, n + 1)
    )


def _ratio(h: float) -> tuple[int, int]:
    """A finite score's exact value as (numerator, denominator).

    A finite float is a dyadic rational, so ``as_integer_ratio`` is exact and
    the lcm of the denominators makes every score an integer number of units.
    """
    if not math.isfinite(h):
        raise ProtocolError(f"score {h} is not finite")
    return h.as_integer_ratio()


def _meets_threshold(units: int, den: int, threshold: float) -> bool:
    """The success rule: the exact score units/den is at least the float threshold."""
    tn, td = threshold.as_integer_ratio()
    return units * td >= tn * den


def _born_rows(g: Game, d: Device) -> tuple[np.ndarray, np.ndarray, list[int], int]:
    """Per-input output CDFs, scores and score units over the full output alphabet.

    Returns (cdfs, scores, units, den); cell (i, j) scores exactly
    ``units[i * n_out + j] / den``.
    """
    n_in, n_out = len(g.input_alphabet), len(g.output_alphabet)
    probs = np.zeros((n_in, n_out))
    scores = np.zeros((n_in, n_out))
    ratios = []
    out_index = {x: j for j, x in enumerate(g.output_alphabet)}
    for i, a in enumerate(g.input_alphabet):
        for x, p in d.measurements[a].items():
            probs[i, out_index[x]] = float(np.einsum("ij,ji->", p, d.state).real)
        for j, x in enumerate(g.output_alphabet):
            h = g.score(a, x)
            scores[i, j] = h
            ratios.append(_ratio(h))
    den = math.lcm(*(r for _, r in ratios))
    cdfs = np.cumsum(probs, axis=1)
    cdfs[:, -1] = np.maximum(cdfs[:, -1], 1.0)
    return cdfs, scores, [num * (den // r) for num, r in ratios], den


def _uniforms(params: ProtocolParams) -> np.ndarray:
    """The run's uniforms, one row per round: round type, input, output."""
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    return rng.random(3 * params.n_rounds).reshape(params.n_rounds, 3)


def _sample_inputs(g: Game, u: np.ndarray) -> np.ndarray:
    """Game input indices drawn from p by the given uniforms."""
    p_cdf = np.cumsum([g.prob(a) for a in g.input_alphabet])
    p_cdf[-1] = max(p_cdf[-1], 1.0)
    return np.minimum(np.searchsorted(p_cdf, u, side="right"), len(p_cdf) - 1)


def _sample_outputs(cdfs: np.ndarray, a_idx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fresh-state output indices: the number of CDF entries at most u, per round."""
    return np.minimum((u[:, None] >= cdfs[a_idx]).sum(axis=1), cdfs.shape[1] - 1)


def _exact_score(
    units: list[int], den: int, cells: np.ndarray, threshold: float
) -> tuple[float, bool]:
    """c and success of the test rounds in flat cells ``i * n_out + j``.

    The score is summed exactly, as Python ints of lattice units; c is that
    sum rounded once to the nearest float.
    """
    counts = np.bincount(cells, minlength=len(units))
    total = sum(int(counts[k]) * units[k] for k in np.flatnonzero(counts))
    return total / den, _meets_threshold(total, den, threshold)


def _sample_index(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def simulate_outcome(g: Game, d: Device, params: ProtocolParams) -> tuple[float, bool]:
    """(c, success) of one fresh-state run, without per-round arrays.

    The run draws the same uniforms and reports the same c and success as
    ``simulate(g, d, params)``.  Generation rounds add nothing to c, so only
    the test rounds' inputs and outputs are sampled.
    """
    require_compatible(g, d)
    cdfs, _, units, den = _born_rows(g, d)
    u = _uniforms(params)
    test = np.flatnonzero(u[:, 0] < params.q)
    a = _sample_inputs(g, u[test, 1])
    x = _sample_outputs(cdfs, a, u[test, 2])
    return _exact_score(units, den, a * cdfs.shape[1] + x, params.threshold)


def simulate(
    g: Game, d: Device, params: ProtocolParams, fresh_state: bool = True
) -> Transcript:
    """Run the protocol once; reproducible given the seed.

    The accumulator stores raw scores; the success rule is c >= chi*q*N, with
    c summed exactly and compared exactly with the float chi*q*N, so a run
    with no test rounds succeeds only if that threshold is <= 0.
    """
    require_compatible(g, d)
    n = params.n_rounds
    cdfs, score_table, units, den = _born_rows(g, d)
    u = _uniforms(params)
    t = (u[:, 0] < params.q).astype(np.uint8)
    test = np.flatnonzero(t)
    a_idx = np.full(n, g.input_alphabet.index(g.distinguished_input), dtype=np.int64)
    a_idx[test] = _sample_inputs(g, u[test, 1])

    if fresh_state:
        x_idx = _sample_outputs(cdfs, a_idx, u[:, 2]).astype(np.int64)
        scores = score_table[a_idx, x_idx] * t
    else:
        out_index = {x: j for j, x in enumerate(g.output_alphabet)}
        state = d.state.copy()
        x_idx = np.zeros(n, dtype=np.int64)
        for j in range(n):
            a = g.input_alphabet[a_idx[j]]
            branch_probs = []
            branch_outs = []
            tr = float(np.trace(state).real)
            for x, p in d.measurements[a].items():
                branch_outs.append(x)
                branch_probs.append(float(np.einsum("ij,ji->", p, state).real) / tr)
            cdf = np.cumsum(branch_probs)
            cdf[-1] = max(cdf[-1], 1.0)
            pick = _sample_index(cdf, u[j, 2])
            x = branch_outs[pick]
            x_idx[j] = out_index[x]
            proj = d.measurements[a][x]
            uni = d.unitary(a)
            state = uni @ proj @ state @ proj @ dagger(uni)
            tr = float(np.trace(state).real)
            if tr > 0:
                state = state / tr
        scores = np.where(t == 1, score_table[a_idx, x_idx], 0.0)

    c, success = _exact_score(
        units, den, a_idx[test] * cdfs.shape[1] + x_idx[test], params.threshold
    )
    return Transcript(
        test_flags=t,
        input_indices=a_idx,
        output_indices=x_idx,
        scores=scores,
        c=c,
        success=success,
        input_alphabet=g.input_alphabet,
        output_alphabet=g.output_alphabet,
    )


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
    branches: int  # success branches with nonzero contribution
    n_rounds: int
    q: float
    chi: float


def _round_tables(
    g: Game, d: Device, q: float, eps: float
) -> list[tuple[float, Letter, list[tuple[float, float, Letter, float]]]]:
    """Per-round branch data for the fresh (iid) semantics.

    Returns a list over supported protocol inputs i = (t, a) of
    (p_i, i, branches), each branch being (born probability, sandwiched
    bracket, output letter, score); the score is the raw H(a, x) on a test
    round and 0 on a generation round.
    """
    sandwich = psd_power(d.state, 1.0 / (2.0 + 2.0 * eps))
    gq = spot_check(g, q)
    rows = []
    branch_cache: dict[Letter, list[tuple[float, float, Letter]]] = {}
    for i in gq.input_alphabet:
        p_i = gq.prob(i)
        if p_i <= 0.0:
            continue
        _, a = i
        if a not in branch_cache:
            entries = []
            for x, proj in d.measurements[a].items():
                born = float(np.einsum("ij,ji->", proj, d.state).real)
                core = sandwich @ proj @ sandwich
                w = matcore.psd_bracket(core, eps)
                entries.append((born, w, x))
            branch_cache[a] = entries
        t, _ = i
        branches = [
            (born, w, x, g.score(a, x) if t == 1 else 0.0)
            for born, w, x in branch_cache[a]
        ]
        rows.append((p_i, i, branches))
    return rows


def _lattice_table(rows) -> tuple[int, dict[int, list]]:
    """One round's branches grouped by score, in integer lattice units.

    Every score is an integer number of units of 1/den (see ``_ratio``),
    with ``den`` the lcm of the denominators.  Entry k holds the born weight
    sum p_i born, the bracket weight sum p_i w, and the numbers of branches
    with born > 0, with w > 0, and with both.  Born probabilities and
    brackets are nonnegative, so a product over rounds is positive iff every
    factor is, and these counts convolve like the weights.
    """
    branches = [
        (p_i, born, w, _ratio(h))
        for p_i, _i, entries in rows
        for born, w, _x, h in entries
    ]
    den = math.lcm(*(ratio[1] for *_, ratio in branches))
    table: dict[int, list] = {}
    for p_i, born, w, (num, d) in branches:
        e = table.setdefault(num * (den // d), [0.0, 0.0, 0, 0, 0])
        e[0] += p_i * born
        e[1] += p_i * w
        e[2] += born > 0.0
        e[3] += w > 0.0
        e[4] += born > 0.0 and w > 0.0
    return den, table


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
    score >= chi*N).  chi = 0 makes every branch of nonnegative score a
    success branch.  Under fresh-state semantics every sequence weight
    factorizes over rounds and success depends only on the summed score, so
    the one-round table of score classes is convolved N times, in
    O(N * classes) work; the score sum is an exact integer of lattice units
    and is compared exactly with the float chi*q*N.  ``branches`` counts the
    success sequences whose born or bracket product is positive, by
    inclusion-exclusion over per-class counts.  The memory path expands the
    sequence tree leaf by leaf, since its branches depend on the evolving
    state, and prunes zero-probability branches.  On both paths the guard
    rejects runs of more than ``branch_cap`` sequences.
    """
    require_compatible(g, d)
    if not 0.0 < eps <= 1.0:
        raise ProtocolError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 < q < 1.0:
        raise ProtocolError(f"q must lie in (0, 1), got {q}")
    if not 0.0 <= chi < math.inf:
        raise ProtocolError(f"chi must be nonnegative and finite, got {chi}")
    if n_rounds < 1:
        raise ProtocolError("n_rounds must be positive")
    gq = spot_check(g, q)
    support = sum(1 for i in gq.input_alphabet if gq.prob(i) > 0.0)
    if (support * len(g.output_alphabet)) ** n_rounds > branch_cap:
        raise TooLargeError(
            f"({support} inputs x {len(g.output_alphabet)} outputs)^{n_rounds} "
            f"exceeds the {branch_cap} branch cap"
        )
    threshold = chi * q * n_rounds

    if fresh_state:
        den, table = _lattice_table(_round_tables(g, d, q, eps))
        # classes: summed lattice units -> [born, bracket, #born>0, #w>0, #both]
        dist = {0: [1.0, 1.0, 1, 1, 1]}
        for _ in range(n_rounds):
            nxt: dict[int, list] = {}
            for s, (m, kw, nb, nw, nbw) in dist.items():
                for k, (tm, tk, tb, tw, tbw) in table.items():
                    e = nxt.setdefault(s + k, [0.0, 0.0, 0, 0, 0])
                    e[0] += m * tm
                    e[1] += kw * tk
                    e[2] += nb * tb
                    e[3] += nw * tw
                    e[4] += nbw * tbw
            dist = nxt
        won = [acc for s, acc in dist.items() if _meets_threshold(s, den, threshold)]
        mass = math.fsum(acc[0] for acc in won)
        ksum = math.fsum(acc[1] for acc in won)
        branches = sum(acc[2] + acc[3] - acc[4] for acc in won)
    else:
        sandwich = psd_power(d.state, 1.0 / (2.0 + 2.0 * eps))
        _, _, units, den = _born_rows(g, d)
        n_out = len(g.output_alphabet)
        out_index = {x: j for j, x in enumerate(g.output_alphabet)}
        # (p_i, a, t, offset of a's row of score units)
        inputs = [
            (gq.prob((t, a)), a, t, g.input_alphabet.index(a) * n_out)
            for t, a in gq.input_alphabet
            if gq.prob((t, a)) > 0.0
        ]
        mass = 0.0
        ksum = 0.0
        branches = 0
        stack = [(0, 1.0, np.eye(d.dim, dtype=np.complex128), 0)]
        while stack:
            depth, pq, m, score = stack.pop()
            if depth == n_rounds:
                dev_branch = m @ d.state @ dagger(m)
                born = float(np.trace(dev_branch).real)
                core = sandwich @ dagger(m) @ m @ sandwich
                w = matcore.psd_bracket(core, eps)
                if _meets_threshold(score, den, threshold):
                    mass += pq * born
                    ksum += pq * w
                    if pq * (born + w) > 0.0:
                        branches += 1
                continue
            for p_i, a, t, row in inputs:
                uni = d.unitary(a)
                for x, proj in d.measurements[a].items():
                    nm = uni @ proj @ m
                    if float(np.einsum("ij,ji->", nm @ d.state, dagger(nm)).real) <= 1e-30 and depth < n_rounds - 1:
                        continue
                    h = units[row + out_index[x]] if t == 1 else 0
                    stack.append((depth + 1, pq * p_i, nm, score + h))

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
        raise BadDeltaError(f"delta must lie in (0, 1], got {delta}")
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
    emitted only when slack_constant is supplied.
    """
    if not (0.0 < q < 1.0 and b > 0.0 and n_rounds >= 1):
        raise ProtocolError("require 0 < q < 1, b > 0, n_rounds >= 1")
    if chi < 0.0:
        raise ProtocolError(f"chi must be nonnegative, got {chi}")
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

    The table is indexed (x, e); it must be entrywise nonnegative and sum to
    at most one (subnormalized tables are allowed).
    """
    if isinstance(table, Mapping):
        xs = sorted({k[0] for k in table})
        es = sorted({k[1] for k in table})
        arr = np.zeros((len(xs), len(es)))
        for (x, e), p in table.items():
            arr[xs.index(x), es.index(e)] = p
    else:
        arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise BadTableError(f"expected a 2-d table, got shape {arr.shape}")
    if float(arr.min(initial=0.0)) < -1e-12:
        raise BadTableError("table has negative entries")
    total = float(arr.sum())
    if total > 1.0 + 1e-9:
        raise BadTableError(f"table mass {total} exceeds 1")
    if total <= 0.0:
        raise BadTableError("table has no mass")
    guess = float(arr.max(axis=0).sum())
    return -math.log2(guess)
