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
  trailing blocks.  Restatements carrying unspecified O(eps^2) terms are
  computed for reporting but never asserted.

All norms are Schatten (1+eps) norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matcore
from .matcore import VALIDATION_TOL, ginibre, haar_pvm, snorm

MARGIN_TOL = -1e-10


class ConvexityError(ValueError):
    pass


class NotNormalizedError(ConvexityError):
    pass


class NotProjectorError(ConvexityError):
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


def _normalized(m: np.ndarray, eps: float, normalize: bool, what: str) -> np.ndarray:
    n = snorm(m, eps)
    if abs(n - 1.0) <= 1e-9:
        return m
    if not normalize:
        raise NotNormalizedError(f"{what} has norm {n}, expected 1")
    if n <= 0.0:
        raise NotNormalizedError(f"{what} is zero")
    return m / n


def check_uniform_convexity(w, z, eps: float, normalize: bool = True) -> InequalityCheck:
    """Uniform convexity for arbitrary linear operators of unit norm."""
    wm = _normalized(matcore.as_matrix(w), eps, normalize, "W")
    zm = _normalized(matcore.as_matrix(z), eps, normalize, "Z")
    lhs = snorm((wm + zm) / 2.0, eps)
    rhs = 1.0 - (eps / 8.0) * snorm(wm - zm, eps) ** 2
    return InequalityCheck(lhs=lhs, rhs=rhs)


def check_binary_disturbance(tau, r0, eps: float, normalize: bool = True) -> InequalityCheck:
    """Disturbance bound for a binary projective measurement {R0, I - R0}."""
    t = _normalized(matcore.as_matrix(tau), eps, normalize, "tau")
    p0 = matcore.as_matrix(r0)
    if matcore.projector_defect(p0) > VALIDATION_TOL:
        raise NotProjectorError(
            f"R0 is not a projector (defect {matcore.projector_defect(p0):.3e})"
        )
    p1 = np.eye(t.shape[0], dtype=np.complex128) - p0
    t_pinched = p0 @ t @ p0 + p1 @ t @ p1
    lhs = snorm(t_pinched, eps)
    rhs = 1.0 - (eps / 2.0) * snorm(t - t_pinched, eps) ** 2
    return InequalityCheck(lhs=lhs, rhs=rhs)


def check_chain_disturbance(
    tau, blocks: Sequence[np.ndarray], eps: float, normalize: bool = True
) -> tuple[InequalityCheck, list[InequalityCheck]]:
    """Disturbance chain for an orthogonal resolution {P_0, ..., P_n}.

    Returns the product-form bound on the fully pinched state together with
    the per-step binary inequalities.  With two blocks this reduces exactly
    to check_binary_disturbance.
    """
    t = _normalized(matcore.as_matrix(tau), eps, normalize, "tau")
    dim = t.shape[0]
    matcore.check_resolution(blocks, dim)
    blocks = [matcore.as_matrix(p) for p in blocks]
    n = len(blocks) - 1
    states = [t]
    for i in range(1, n + 1):
        head = np.zeros_like(t)
        for k in range(i):
            head += blocks[k] @ t @ blocks[k]
        tail_proj = np.zeros_like(t)
        for k in range(i, n + 1):
            tail_proj += blocks[k]
        states.append(head + tail_proj @ t @ tail_proj)
    chain: list[InequalityCheck] = []
    product_rhs = 1.0
    for i in range(1, n + 1):
        prev_norm = snorm(states[i - 1], eps)
        step = 1.0 - (eps / 2.0) * snorm(states[i] - states[i - 1], eps) ** 2
        chain.append(InequalityCheck(lhs=snorm(states[i], eps), rhs=step * prev_norm))
        product_rhs *= step
    final = InequalityCheck(lhs=snorm(states[n], eps), rhs=product_rhs)
    return final, chain


def simple_chain_rhs(tau, blocks: Sequence[np.ndarray], eps: float, normalize: bool = True) -> float:
    """The (eps/2n)-form right side 1 - (eps/2n) ||tau - tau'||^2.

    Reported for comparison only; the inequality it belongs to carries an
    unspecified O_n(eps^2) term and is never asserted.
    """
    t = _normalized(matcore.as_matrix(tau), eps, normalize, "tau")
    n = len(blocks) - 1
    pinched = matcore.pinch(t, blocks)
    return 1.0 - (eps / (2.0 * max(n, 1))) * snorm(t - pinched, eps) ** 2


# ---------------------------------------------------------------------------
# randomized sampling
#
# Suite inputs come from the matcore samplers: ginibre matrices for uniform
# convexity, Haar-rotated projective measurements (matcore.haar_pvm) for the
# disturbance suites, and the Wishart-style states below.


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart-style PSD sample G†G with iid standard complex Gaussian G."""
    g = ginibre((dim, dim), rng)
    return matcore.dagger(g) @ g


# ---------------------------------------------------------------------------
# suites

SUITES = ("uniform-convexity", "binary-disturbance", "chain-disturbance")
SUITE_EPS_GRID = (0.01, 0.1, 0.5, 1.0)
SUITE_DIMS = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class SuiteRow:
    trial: int
    dim: int
    eps: float
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


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
        return sum(1 for r in self.rows if r.margin < MARGIN_TOL)


def _suite_trial(suite: str, seed: int, trial: int) -> SuiteRow:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    dim = int(SUITE_DIMS[int(rng.integers(len(SUITE_DIMS)))])
    eps = float(SUITE_EPS_GRID[int(rng.integers(len(SUITE_EPS_GRID)))])
    if suite == "uniform-convexity":
        check = check_uniform_convexity(
            ginibre((dim, dim), rng), ginibre((dim, dim), rng), eps
        )
    elif suite == "binary-disturbance":
        rank = int(rng.integers(1, dim))
        check = check_binary_disturbance(
            random_psd(dim, rng), haar_pvm(dim, [rank], rng)[0], eps
        )
    else:
        n_blocks = int(rng.integers(2, min(5, dim) + 1))
        check, _ = check_chain_disturbance(
            random_psd(dim, rng), haar_pvm(dim, n_blocks, rng), eps
        )
    return SuiteRow(trial=trial, dim=dim, eps=eps, lhs=check.lhs, rhs=check.rhs)


def run_suite(suite: str, trials: int, seed: int = 0) -> SuiteResult:
    """Run a randomized inequality suite.

    Trial ``k`` draws from its own stream derived from ``(seed, k)``, so a
    row does not depend on which other trials run.
    """
    if suite not in SUITES:
        raise ConvexityError(f"unknown suite {suite!r}; choose from {SUITES}")
    rows = [_suite_trial(suite, seed, trial) for trial in range(trials)]
    return SuiteResult(suite=suite, seed=seed, rows=rows)
