"""Checkable Schatten-norm inequalities: uniform convexity and disturbance.

Three exact inequalities are asserted on concrete inputs:

  uniform convexity (Ball-Carlen-Lieb):
      ||(W+Z)/2|| <= 1 - (eps/8) ||W - Z||^2        for ||W|| = ||Z|| = 1,

  binary measurement disturbance:
      ||tau'|| <= 1 - (eps/2) ||tau - tau'||^2      for PSD tau, ||tau|| = 1,
      tau' = R0 tau R0 + R1 tau R1,

  multi-outcome chain:
      ||tau_n|| <= prod_i (1 - (eps/2) ||tau_i - tau_{i-1}||^2)

  where tau_i interpolates between tau and its full pinching by merging the
  trailing blocks.

All norms are Schatten (1+eps) norms.

Each inequality is evaluated on (k, d, d) stacks, one eps per slice, with
one batched ``matcore.schatten_stack`` SVD per round of norms; the public
``check_*`` functions are the k = 1 case.  ``run_suite`` draws trial k from
its own ``SeedSequence(entropy=seed, spawn_key=(k,))`` stream, in the order
dim, eps, rank or block count, then the Ginibre matrices, and evaluates the
trials SUITE_CHUNK at a time, stacked by dimension.  W, Z and tau are
scaled to unit norm first (a zero one raises), and the projector and
resolution checks run on every trial, at the 1e-6 validation threshold.
Since a stacked decomposition or product runs the same LAPACK/BLAS routine
on each slice, every row equals a trial-by-trial evaluation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import matcore
from .matcore import VALIDATION_TOL, schatten_stack

MARGIN_TOL = -1e-10


class ConvexityError(ValueError):
    pass


@dataclass(frozen=True)
class InequalityCheck:
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.margin >= MARGIN_TOL


def _normalized(m: np.ndarray, eps: list[float], what: str) -> np.ndarray:
    """The (k, d, d) stack m with each matrix scaled to unit norm; a matrix
    within 1e-9 of norm 1 is kept as it is, and a zero one raises."""
    _, norms = schatten_stack(m, eps)
    off = [i for i, n in enumerate(norms) if abs(n - 1.0) > 1e-9]
    if not off:
        return m
    if any(norms[i] <= 0.0 for i in off):
        raise ConvexityError(f"{what} is zero")
    m = m.copy()
    m[off] = m[off] / np.array([norms[i] for i in off])[:, None, None]
    return m


def _uniform_convexity(w, z, eps: list[float]) -> list[InequalityCheck]:
    """Uniform convexity of (k, d, d) stacks w and z, one eps per pair."""
    w = _normalized(w, eps, "W")
    z = _normalized(z, eps, "Z")
    _, norms = schatten_stack(np.concatenate([(w + z) / 2.0, w - z]), eps * 2)
    k = len(eps)
    return [
        InequalityCheck(lhs=lhs, rhs=1.0 - (e / 8.0) * gap ** 2)
        for e, lhs, gap in zip(eps, norms[:k], norms[k:])
    ]


def _binary_disturbance(tau, r0, eps: list[float]) -> list[InequalityCheck]:
    """Binary disturbance of a (k, d, d) stack of states under a stack of R0."""
    t = _normalized(tau, eps, "tau")
    defect = matcore.projector_defect(r0)
    if defect > VALIDATION_TOL:
        raise ConvexityError(f"R0 is not a projector (defect {defect:.3e})")
    r1 = np.eye(t.shape[-1], dtype=np.complex128) - r0
    t_pinched = r0 @ t @ r0 + r1 @ t @ r1
    _, norms = schatten_stack(np.concatenate([t_pinched, t - t_pinched]), eps * 2)
    k = len(eps)
    return [
        InequalityCheck(lhs=lhs, rhs=1.0 - (e / 2.0) * gap ** 2)
        for e, lhs, gap in zip(eps, norms[:k], norms[k:])
    ]


def _chain_disturbance(
    tau, blocks: Sequence[np.ndarray], eps: list[float]
) -> tuple[list[np.ndarray], list[list[float]], list[InequalityCheck]]:
    """Product-form disturbance chain of a (k, d, d) stack of states.

    ``blocks`` holds one (k, d, d) stack per projector of the k resolutions.
    Returns the states tau_0..tau_n as stacks, each trial's step factors
    1 - (eps/2) ||tau_i - tau_{i-1}||^2, and each trial's final check.  Only
    the norms these need are taken: tau_n's and the n steps', in one SVD call.
    """
    t = _normalized(tau, eps, "tau")
    matcore.check_resolution(blocks, t.shape[-1])
    blocks = [np.asarray(p, dtype=np.complex128) for p in blocks]
    n = len(blocks) - 1
    states = [t]
    head = np.zeros_like(t)
    for i in range(1, n + 1):
        head += blocks[i - 1] @ t @ blocks[i - 1]
        tail_proj = np.zeros_like(t)
        for j in range(i, n + 1):
            tail_proj += blocks[j]
        states.append(head + tail_proj @ t @ tail_proj)
    steps = [states[i] - states[i - 1] for i in range(1, n + 1)]
    _, norms = schatten_stack(np.concatenate([states[n]] + steps), eps * (n + 1))
    k = len(eps)
    factors = [[1.0 - (e / 2.0) * g ** 2 for g in norms[k + j::k]] for j, e in enumerate(eps)]
    finals = [
        InequalityCheck(lhs=lhs, rhs=math.prod(f, start=1.0)) for lhs, f in zip(norms, factors)
    ]
    return states, factors, finals


def check_uniform_convexity(w, z, eps: float) -> InequalityCheck:
    """Uniform convexity for arbitrary linear operators W and Z."""
    wm = matcore.as_matrix(w)[None]
    zm = matcore.as_matrix(z)[None]
    return _uniform_convexity(wm, zm, [eps])[0]


def check_binary_disturbance(tau, r0, eps: float) -> InequalityCheck:
    """Disturbance bound for a binary projective measurement {R0, I - R0}."""
    t = matcore.as_matrix(tau)[None]
    return _binary_disturbance(t, matcore.as_matrix(r0)[None], [eps])[0]


def check_chain_disturbance(
    tau, blocks: Sequence[np.ndarray], eps: float
) -> tuple[InequalityCheck, list[InequalityCheck]]:
    """Disturbance chain for an orthogonal resolution {P_0, ..., P_n}.

    Returns the product-form bound on the fully pinched state together with
    the per-step binary inequalities.  With two blocks this reduces exactly
    to check_binary_disturbance.
    """
    t = matcore.as_matrix(tau)[None]
    stacks = [np.asarray(p)[None] for p in blocks]
    states, (factors,), (final,) = _chain_disturbance(t, stacks, [eps])
    norms = schatten_stack(np.concatenate(states[:-1]), eps)[1] + [final.lhs]
    chain = [
        InequalityCheck(lhs=norms[i], rhs=f * norms[i - 1]) for i, f in enumerate(factors, 1)
    ]
    return final, chain


# ---------------------------------------------------------------------------
# randomized sampling
#
# Suite inputs come from the matcore samplers: ginibre matrices for uniform
# convexity, and Haar-rotated projective measurements (matcore.haar_pvm,
# stacked as haar_from_ginibre and column_pvm) with Wishart states
# (matcore.random_psd, stacked as G†G) for the disturbance suites.


# ---------------------------------------------------------------------------
# suites

SUITES = ("uniform-convexity", "binary-disturbance", "chain-disturbance")
SUITE_EPS_GRID = (0.01, 0.1, 0.5, 1.0)
SUITE_DIMS = (2, 3, 4, 5, 6, 7, 8)
SUITE_CHUNK = 1024  # trials evaluated together; bounds the stacks' memory


@dataclass(frozen=True)
class SuiteRow(InequalityCheck):
    """One suite trial's check, with the trial's index, dimension and eps."""

    trial: int
    dim: int
    eps: float


@dataclass
class SuiteResult:
    suite: str
    seed: int
    rows: list[SuiteRow]

    @property
    def min_margin(self) -> float:
        return min(r.margin for r in self.rows)

    @property
    def violations(self) -> int:
        return sum(1 for r in self.rows if not r.holds)


class _Draw(NamedTuple):
    dim: int
    eps: float
    parts: int | None  # rank (binary) or block count (chain); None for uniform convexity
    normals: np.ndarray  # (2, 2, dim, dim): the draws of two ginibre((dim, dim), rng) calls


def _suite_draw(suite: str, seed: int, trial: int) -> _Draw:
    """Trial ``trial``'s inputs from its own stream: dim, eps, the rank or
    block count, then W and Z (uniform convexity) or tau's Ginibre matrix and
    the Haar unitary's (disturbance suites)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    dim = int(SUITE_DIMS[int(rng.integers(len(SUITE_DIMS)))])
    eps = float(SUITE_EPS_GRID[int(rng.integers(len(SUITE_EPS_GRID)))])
    if suite == "uniform-convexity":
        parts = None
    elif suite == "binary-disturbance":
        parts = int(rng.integers(1, dim))
    else:
        parts = int(rng.integers(2, min(5, dim) + 1))
    return _Draw(dim, eps, parts, rng.normal(size=(2, 2, dim, dim)))


def _grouped(keys: list, evaluate) -> list:
    """``evaluate(key, sel)`` for the indices ``sel`` of each distinct key,
    its results put back in the order of ``keys``."""
    out: list = [None] * len(keys)
    for key in sorted(set(keys)):
        sel = [i for i, k in enumerate(keys) if k == key]
        for i, result in zip(sel, evaluate(key, sel)):
            out[i] = result
    return out


def _suite_checks(suite: str, draws: list[_Draw]) -> list[InequalityCheck]:
    """The checks of trials of one dimension, in the order of ``draws``."""
    eps = [d.eps for d in draws]
    normals = np.stack([d.normals for d in draws], axis=2)
    a = matcore.ginibre_from_normals(normals[0])
    b = matcore.ginibre_from_normals(normals[1])
    if suite == "uniform-convexity":
        return _uniform_convexity(a, b, eps)
    tau = matcore.dagger(a) @ a
    u = matcore.haar_from_ginibre(b)

    def evaluate(parts: int, sel: list[int]) -> list[InequalityCheck]:
        sub_eps = [eps[i] for i in sel]
        if suite == "binary-disturbance":
            r0 = matcore.column_pvm(u[sel], [parts])[0]
            return _binary_disturbance(tau[sel], r0, sub_eps)
        blocks = matcore.column_pvm(u[sel], parts)
        return _chain_disturbance(tau[sel], blocks, sub_eps)[2]

    return _grouped([d.parts for d in draws], evaluate)


def run_suite(suite: str, trials: int, seed: int = 0) -> SuiteResult:
    """Run a randomized inequality suite.

    Trial ``k`` draws from its own stream derived from ``(seed, k)``, so a
    row does not depend on which other trials run.  Trials are evaluated
    SUITE_CHUNK at a time, grouped by dimension into (k, d, d) stacks, with
    one batched Haar QR per group; ``trials`` must be at least 1.
    """
    if suite not in SUITES:
        raise ConvexityError(f"unknown suite {suite!r}; choose from {SUITES}")
    if trials < 1:
        raise ConvexityError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ConvexityError(f"seed must be a non-negative integer, got seed {seed}")
    rows: list[SuiteRow] = []
    for start in range(0, trials, SUITE_CHUNK):
        chunk = range(start, min(start + SUITE_CHUNK, trials))
        draws = [_suite_draw(suite, seed, k) for k in chunk]
        checks = _grouped(
            [d.dim for d in draws],
            lambda dim, sel: _suite_checks(suite, [draws[i] for i in sel]),
        )
        rows += [
            SuiteRow(trial=k, dim=d.dim, eps=d.eps, lhs=c.lhs, rhs=c.rhs)
            for k, d, c in zip(chunk, draws, checks)
        ]
    return SuiteResult(suite=suite, seed=seed, rows=rows)
