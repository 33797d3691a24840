"""Bandit learners: exponential-weights families over subset arms and
tensor-featured linear play with design-based exploration.

All learners are loss minimizers with the convention loss = 1 - reward; the
tensorized learner keeps cumulative reward estimates internally, which is
the same update up to an action-independent shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    SubsetAction,
    n_subsets,
    tensor_features,
    unrank_subset,
)


def _sample_index(probs: np.ndarray, rng) -> int:
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return int(np.searchsorted(cum, rng.random(), side="right"))


def _check_reward(reward: float):
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward {reward} outside [0, 1]")


# ---------------------------------------------------------------------------
# Multi-armed play over all subsets
# ---------------------------------------------------------------------------

def tsallis_distribution(cum_losses, eta: float, tol: float = 1e-12,
                         max_iters: int = 300) -> np.ndarray:
    """Weights 4 / (eta * (L_i - x))**2 with the normalization scalar x solved
    by safeguarded Newton/bisection so the weights sum to 1 within ``tol``.

    The sum is increasing in x on (-inf, min L), and the bracket
    [min L - 2 sqrt(A)/eta, min L - 2/(eta sqrt(A))] always contains the
    root, so bisection fallback cannot fail.
    """
    losses = np.asarray(cum_losses, dtype=float)
    n = losses.size
    if n == 1:
        return np.ones(1)
    lmin = float(losses.min())
    lo = lmin - 2.0 * math.sqrt(n) / eta
    hi = lmin - 2.0 / (eta * math.sqrt(n))
    x = 0.5 * (lo + hi)
    for _ in range(max_iters):
        w = 4.0 / (eta * (losses - x)) ** 2
        resid = float(w.sum()) - 1.0
        if abs(resid) <= tol:
            return w
        if resid > 0:
            hi = x
        else:
            lo = x
        x_new = x - resid / (eta * float(np.sum(w * np.sqrt(w))))
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise RuntimeError(f"normalization did not converge within {max_iters} iterations "
                       f"(residual {resid:.3e})")


class SubsetMab:
    """Treats every size-K subset as an independent arm.

    ``algorithm`` picks the weight map: ``exp3`` uses exponential weights with
    the anytime rate sqrt(ln A / (A t)) and optional uniform mixing;
    ``tsallis_inf`` uses the 1/2-Tsallis mirror map with rate 2/sqrt(t).
    Updates apply the importance-weighted loss estimate (1 - reward)/p to the
    played arm only.
    """

    algorithms = ("exp3", "tsallis_inf")

    def __init__(self, n_arms: int, subset_size: int, algorithm: str = "exp3",
                 mixing: float = 0.0, cap: int = DEFAULT_ENUMERATION_CAP):
        if algorithm not in self.algorithms:
            raise ValueError(f"algorithm must be one of {self.algorithms}")
        count = n_subsets(n_arms, subset_size)
        if count > cap:
            raise CapExceededError(f"{count} subset arms exceed cap {cap}")
        if not 0.0 <= mixing < 1.0:
            raise ValueError("mixing must lie in [0, 1)")
        self.n_arms = n_arms
        self.subset_size = subset_size
        self.algorithm = algorithm
        self.mixing = mixing
        self.n_actions = count
        self.cum_losses = np.zeros(count)
        self.rounds = 0
        self._dist: np.ndarray | None = None

    def distribution(self) -> np.ndarray:
        """Current sampling distribution over subset ranks."""
        if self._dist is None:
            t = self.rounds + 1
            a = self.n_actions
            if self.algorithm == "exp3":
                eta = math.sqrt(math.log(a) / (a * t)) if a > 1 else 0.0
                z = -eta * (self.cum_losses - self.cum_losses.min())
                p = np.exp(z)
                p /= p.sum()
                if self.mixing > 0:
                    p = (1.0 - self.mixing) * p + self.mixing / a
            else:
                eta = 2.0 / math.sqrt(t)
                p = tsallis_distribution(self.cum_losses, eta)
                p = p / p.sum()
            self._dist = p
        return self._dist

    def select(self, rng) -> SubsetAction:
        rank = _sample_index(self.distribution(), rng)
        return SubsetAction(unrank_subset(rank, self.n_arms, self.subset_size), rank)

    def update(self, action: SubsetAction, reward: float):
        _check_reward(reward)
        prob = float(self.distribution()[action.rank])
        self.cum_losses[action.rank] += (1.0 - reward) / prob
        self.rounds += 1
        self._dist = None


# ---------------------------------------------------------------------------
# Experimental design
# ---------------------------------------------------------------------------

@dataclass
class DesignWeights:
    """Exploration design over actions with its leverage certificate."""

    weights: np.ndarray
    max_leverage: float
    iterations: int
    certified: bool


def kw_optimal_design(features, eps: float = 0.05,
                      max_iters: int = 10_000) -> DesignWeights:
    """Log-determinant-optimal design by Frank-Wolfe mass additions.

    Each step moves mass onto the action with the largest leverage score
    x' M(pi)^+ x using the exact line-search step; stops once the maximum
    leverage is within (1 + eps) of the feature-span rank, which is the
    equivalence-theorem optimum.  Exhausting ``max_iters`` returns the best
    design found, flagged as not certified.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    n_actions, dim = x.shape
    if n_actions < 1:
        raise ValueError("need at least one feature")
    svals = np.linalg.svd(x, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals.size else 0
    if rank == 0:
        raise ValueError("features are all zero")
    pi = np.full(n_actions, 1.0 / n_actions)
    leverage_max = np.inf
    iteration = 0
    for iteration in range(1, max_iters + 1):
        moment = x.T @ (pi[:, None] * x)
        inv = np.linalg.pinv(moment, rcond=1e-10, hermitian=True)
        leverages = np.einsum("ij,jk,ik->i", x, inv, x)
        best = int(np.argmax(leverages))
        leverage_max = float(leverages[best])
        if leverage_max <= (1.0 + eps) * rank:
            return DesignWeights(pi, leverage_max, iteration, True)
        step = (leverage_max - rank) / (rank * (leverage_max - 1.0))
        step = min(max(step, 0.0), 1.0)
        pi = (1.0 - step) * pi
        pi[best] += step
    return DesignWeights(pi, leverage_max, iteration, False)


# ---------------------------------------------------------------------------
# Tensorized linear play
# ---------------------------------------------------------------------------

class Exp2:
    """Exponential weights over tensor-featured subset actions.

    Sampling mixes the weight distribution with a fixed design ``pi``:
    p = (1 - gamma_mix) q + gamma_mix pi.  Updates form the least-squares
    estimate M(p)^+ x_S r of the lifted reward vector, with
    M(p) = F' diag(p) F, and add the estimated rewards of all actions
    F M(p)^+ x_S r, scaled by ``eta``, to the log-weights.

    The estimate never forms M(p)^+.  With U (A x r) an orthonormal basis of
    the column span of the feature table F, fixed at construction by a thin
    SVD, and P = diag(p),

        F (F'PF)^+ F' e_S = U (U'PU)^-1 U' e_S.

    U'PU is positive definite with smallest eigenvalue at least min(p) > 0
    (``gamma_mix`` > 0 keeps every p_a positive), so one r x r solve per
    round replaces the N^d x N^d pseudo-inverse: O(A r^2) to form U'PU plus
    the solve, with r = 8 at d=1, N=8 and r = 21 at d=2, N=7.
    ``second_moment_pinv`` stays as the reference path the tests compare
    against.  The features are still the N^d tensor columns; the smaller
    table of sub-subset indicators 1[T subset of S], |T| <= d, which spans
    the same space, is not used yet.
    """

    def __init__(self, n_arms: int, subset_size: int, order: int, horizon: int,
                 eta: float | None = None, gamma_mix: float | None = None,
                 design_eps: float = 0.05, design_max_iters: int = 10_000,
                 cap: int = DEFAULT_ENUMERATION_CAP):
        count = n_subsets(n_arms, subset_size)
        dim = n_arms ** order
        if dim > cap or count * dim > cap:
            raise CapExceededError(f"{count} x {dim} feature table exceeds cap")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.n_arms = n_arms
        self.subset_size = subset_size
        self.order = order
        self.n_actions = count
        self.dim = dim
        self.features = np.stack([
            tensor_features(SubsetAction.from_rank(r, n_arms, subset_size),
                            n_arms, order, cap=cap)
            for r in range(count)
        ])
        self.design = kw_optimal_design(self.features, eps=design_eps,
                                        max_iters=design_max_iters)
        left, svals, _ = np.linalg.svd(self.features, full_matrices=False)
        self.span_basis = left[:, :int(np.sum(svals > 1e-10 * svals[0]))]
        if gamma_mix is None:
            gamma_mix = min(0.5, math.sqrt(dim * math.log(max(count, 2)) / horizon))
        if eta is None:
            eta = gamma_mix / (2.0 * dim)
        if not 0 < gamma_mix <= 1 or eta <= 0:
            raise ValueError("need gamma_mix in (0, 1] and eta > 0")
        self.gamma_mix = float(gamma_mix)
        self.eta = float(eta)
        self.cum_reward_estimates = np.zeros(count)
        self.rounds = 0
        self._dist: np.ndarray | None = None

    def sampling_distribution(self) -> np.ndarray:
        if self._dist is None:
            shifted = self.eta * (self.cum_reward_estimates
                                  - self.cum_reward_estimates.max())
            q = np.exp(shifted)
            q /= q.sum()
            self._dist = (1.0 - self.gamma_mix) * q + self.gamma_mix * self.design.weights
        return self._dist

    def second_moment_pinv(self, probs=None) -> np.ndarray:
        """Pseudo-inverse of the feature second-moment matrix of ``probs``."""
        if probs is None:
            probs = self.sampling_distribution()
        moment = self.features.T @ (np.asarray(probs)[:, None] * self.features)
        return np.linalg.pinv(moment, rcond=1e-10, hermitian=True)

    def estimate_rewards(self, rank: int, reward: float, probs=None) -> np.ndarray:
        """Per-action reward estimates F M(p)^+ x_S r from one observed
        (action, reward) pair, by a solve on the feature span."""
        if probs is None:
            probs = self.sampling_distribution()
        basis = self.span_basis
        gram = basis.T @ (np.asarray(probs)[:, None] * basis)
        return basis @ np.linalg.solve(gram, basis[rank]) * reward

    def select(self, rng) -> SubsetAction:
        rank = _sample_index(self.sampling_distribution(), rng)
        return SubsetAction(unrank_subset(rank, self.n_arms, self.subset_size), rank)

    def update(self, action: SubsetAction, reward: float):
        _check_reward(reward)
        self.cum_reward_estimates += self.estimate_rewards(action.rank, reward)
        self.rounds += 1
        self._dist = None


class ConstantPolicy:
    """Always plays one fixed subset and ignores feedback."""

    def __init__(self, subset: SubsetAction):
        self.subset = subset

    def select(self, rng) -> SubsetAction:
        return self.subset

    def update(self, action: SubsetAction, reward: float):
        _check_reward(reward)
