"""Bandit learners: exponential-weights families over subset arms and
degree-d linear play on subset-inclusion features with uniform exploration.

All learners are loss minimizers with the convention loss = 1 - reward; the
tensorized learner keeps cumulative reward estimates internally, which is
the same update up to an action-independent shift.

Every learner holds R replications as the rows of (R, A) state arrays
(``losses`` on :class:`SubsetMab`, ``estimates`` on :class:`Exp2`) and
advances them in lockstep through one round protocol, :class:`_Batched`:
``select_ranks(u)`` samples one rank per row from the state's distribution
and keeps that distribution for the round, and ``update_ranks(ranks,
rewards)`` applies one observation per row with it and closes the round.
A distribution is a function of the state alone, so reading it between
rounds (``sampling_distribution()``) or writing the state changes what the
next round sees and nothing else.  A row's arithmetic never reads its
siblings, so a replication carries the same bits alone (R = 1) or in a
batch, and ``keep_rows`` can drop rows between rounds (the kernel retires a
row at its horizon) without changing the others.  With R = 1 the object API
``select(rng)`` / ``update(action, reward)`` drives the same code, and a
round draws exactly one uniform from the learner's stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    SubsetAction,
    check_enumeration,
    check_unit_interval,
    colex_ranks,
    n_subsets,
    subsets_by_rank,
    tensor_features,
    unrank_subset,
)


def _sample_ranks(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row: the number of cumulative probabilities at or
    below the row's uniform (``searchsorted(..., side="right")``).  The
    row's total is raised to 1, and with it every entry equal to the total
    when the last rank has probability zero: the slack of a total rounded
    below 1 goes to the last rank of positive probability, never to a
    trailing rank of probability zero.  The rule reads each row's own last
    probability, so a row draws the same rank alone and in any batch."""
    cum = np.add.accumulate(probs, axis=1)
    last = probs[:, -1]
    if np.count_nonzero(last) < last.size:
        zero_last = last == 0
        rows = cum[zero_last]
        rows[rows >= rows[:, -1:]] = 1.0
        cum[zero_last] = rows
    cum[:, -1] = 1.0
    # cum is non-decreasing and ends at 1.0 > u, so the count of entries at
    # or below u is the index of the first entry above it
    return (cum > uniforms[:, None]).argmax(axis=1)


class _Batched:
    """The round protocol of every learner, batched over R replications.

    A learner supplies ``_rows()``, the (R, A) sampling distribution of its
    current state, and ``_observe(ranks, rewards, probs)``, which applies one
    observation per row drawn from ``probs``.  ``select_ranks`` keeps the
    distribution it sampled from until ``update_ranks`` hands it to
    ``_observe`` (a fresh one when no round is open), counts the round and
    drops it, so no distribution outlives its round.  Neither checks its
    inputs: the kernel's rewards come from a channel's reward table.  The
    single-replication object API (``select`` / ``update``, defined on each
    learner) runs on top of these with R = 1; ``update`` checks the reward.
    """

    replications = 1
    _round: np.ndarray | None = None
    # the per-row state: (R, ...) arrays, or scalars shared by every row
    _row_state: tuple[str, ...] = ()

    def keep_rows(self, rows):
        """Keep only the replications ``rows`` (an index array, a mask or a
        slice) of every per-row state array; call it between rounds."""
        for name in self._row_state:
            value = getattr(self, name)
            if np.ndim(value):
                setattr(self, name, value[rows])
        self.replications = np.arange(self.replications)[rows].size

    def sampling_distribution(self) -> np.ndarray:
        """The distribution over subset ranks that the next round samples
        from: (A,) for one replication, (R, A) for a batch."""
        probs = self._rows()
        return probs[0] if self.replications == 1 else probs

    def select_ranks(self, uniforms: np.ndarray) -> np.ndarray:
        self._round = self._rows()
        return _sample_ranks(self._round, uniforms)

    def update_ranks(self, ranks: np.ndarray, rewards: np.ndarray):
        """Apply one observation per row and close the round (``rewards`` unchecked)."""
        self._observe(ranks, rewards, self._rows() if self._round is None else self._round)
        self.rounds += 1
        self._round = None

    def _solo(self):
        if self.replications != 1:
            raise ValueError("select/update drive one replication; "
                             "use select_ranks/update_ranks for a batch")

    def _solo_rank(self, rng) -> int:
        """The rank one replication plays, from one uniform of ``rng``."""
        self._solo()
        return int(self.select_ranks(np.array([rng.random()]))[0])

    def _solo_update(self, rank: int, reward: float):
        self._solo()
        check_unit_interval(float(reward), "reward", tol=0.0)
        self.update_ranks(np.array([rank]), np.array([float(reward)]))

    def _action(self, rank: int) -> SubsetAction:
        return SubsetAction(unrank_subset(rank, self.n_arms, self.subset_size), rank)


# ---------------------------------------------------------------------------
# Multi-armed play over all subsets
# ---------------------------------------------------------------------------

# The Tsallis normalization stops once the weights sum to 1 within
# TSALLIS_TOL, and raises after TSALLIS_MAX_ITERS evaluations.
TSALLIS_TOL = 1e-12
TSALLIS_MAX_ITERS = 300


def tsallis_distribution(cum_losses, eta: float) -> np.ndarray:
    """Weights 4 / (eta * (L_i - x))**2 with the normalization scalar x solved
    by safeguarded Newton/bisection from a cold start so the weights sum to 1
    within ``TSALLIS_TOL``: the reference for :func:`tsallis_rows`.

    The sum is increasing in x on (-inf, min L), and the bracket
    [min L - 2 sqrt(A)/eta, min L - 2/(eta sqrt(A))] always contains the
    root, so bisection fallback cannot fail.  The solve runs on the gaps
    L - min L, so its resolution does not degrade with the size of L.
    """
    losses = np.asarray(cum_losses, dtype=float)
    n = losses.size
    if n == 1:
        return np.ones(1)
    gaps = losses - losses.min()
    lo = -2.0 * math.sqrt(n) / eta
    hi = -2.0 / (eta * math.sqrt(n))
    x = 0.5 * (lo + hi)
    for _ in range(TSALLIS_MAX_ITERS):
        w = 4.0 / (eta * (gaps - x)) ** 2
        resid = float(w.sum()) - 1.0
        if abs(resid) <= TSALLIS_TOL:
            return w
        if resid > 0:
            hi = x
        else:
            lo = x
        x_new = x - resid / (eta * float(np.sum(w * np.sqrt(w))))
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise RuntimeError(f"normalization did not converge within {TSALLIS_MAX_ITERS} "
                       f"iterations (residual {resid:.3e})")


def tsallis_rows(cum_losses, eta: float, start=None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise Tsallis-INF distributions of an (R, A) batch of cumulative
    losses; returns the distributions and the normalizers x (shape (R,)).

    Each row solves s(x) = sum_i 4 / (eta (L_i - x))**2 = 1 by Newton's
    method on s(x)**-1/2 - 1, which is concave and decreasing in x: from the
    right of the root the iterates fall monotonically onto it, and a step from
    the left lands on its right.  The start is the previous normalizer
    ``start`` (warm start) capped at min L - 2/(eta sqrt(A)), where s >= A
    >= 1, i.e. never left of the root; without ``start`` the cap itself.  A
    row that meets |s - 1| <= ``TSALLIS_TOL`` is frozen while its siblings
    iterate, so its bits never depend on them; the weights are then divided
    by s.  Raises after ``TSALLIS_MAX_ITERS`` evaluations if any row is still
    off.
    """
    losses = np.asarray(cum_losses, dtype=float)
    lmin = losses.min(axis=1, keepdims=True)
    n = losses.shape[1]
    if n == 1:
        return np.ones_like(losses), (lmin - 2.0 / eta)[:, 0]
    gaps = losses - lmin
    cap = -2.0 / (eta * math.sqrt(n))
    y = (np.full_like(lmin, cap) if start is None
         else np.minimum(np.asarray(start, dtype=float)[:, None] - lmin, cap))
    scale = 4.0 / (eta * eta)
    for _ in range(TSALLIS_MAX_ITERS):
        inv = 1.0 / (gaps - y)
        inv2 = inv * inv
        s2 = np.add.reduce(inv2, axis=1, keepdims=True)
        total = scale * s2  # s(y)
        resid = np.abs(total - 1.0)[:, 0].tolist()
        done = [r <= TSALLIS_TOL for r in resid]  # NaN is never done
        if all(done):
            return inv2 * (scale / total), (lmin + y)[:, 0]
        # Newton on s**-1/2: y + 2 s (1 - sqrt s) / s'(y), s' = 2 scale S3
        s3 = np.add.reduce(inv2 * inv, axis=1, keepdims=True)
        step = np.minimum(y + s2 * (1.0 - np.sqrt(total)) / s3, cap)
        y = np.where(np.array(done)[:, None], y, step) if any(done) else step
    raise RuntimeError(f"normalization did not converge within {TSALLIS_MAX_ITERS} "
                       f"iterations (largest residual {max(resid):.3e})")


class SubsetMab(_Batched):
    """Treats every size-K subset as an independent arm.

    ``algorithm`` picks the weight map: ``exp3`` uses exponential weights with
    the anytime rate sqrt(ln A / (A t)) and optional uniform mixing;
    ``tsallis_inf`` uses the 1/2-Tsallis mirror map with rate 2/sqrt(t),
    normalized by :func:`tsallis_rows` warm-started from the normalizers of
    the last completed round, and takes no mixing.
    The state is ``losses``, the (R, A) cumulative loss estimates, and
    ``rounds``; each round of the :class:`_Batched` protocol adds the
    importance-weighted loss estimate (1 - reward)/p to the played arm only.
    """

    algorithms = ("exp3", "tsallis_inf")
    _row_state = ("losses", "_normalizers", "_solved")

    def __init__(self, n_arms: int, subset_size: int, algorithm: str = "exp3",
                 mixing: float = 0.0, replications: int = 1):
        if algorithm not in self.algorithms:
            raise ValueError(f"algorithm must be one of {self.algorithms}")
        count = n_subsets(n_arms, subset_size)
        check_enumeration(count, "subset arms")
        if not 0.0 <= mixing < 1.0:
            raise ValueError("mixing must lie in [0, 1)")
        if mixing and algorithm == "tsallis_inf":
            raise ValueError("tsallis_inf takes no mixing")
        self.n_arms = n_arms
        self.subset_size = subset_size
        self.algorithm = algorithm
        self.mixing = mixing
        self.n_actions = count
        self.replications = replications
        self.losses = np.zeros((replications, count))
        self.rounds = 0
        self._index = np.arange(replications)
        # Tsallis-INF: the normalizers of the last completed round (the warm
        # start) and those of the latest solve, committed by _observe
        self._normalizers: np.ndarray | None = None
        self._solved: np.ndarray | None = None

    def _rows(self) -> np.ndarray:
        t = self.rounds + 1
        a = self.n_actions
        if self.algorithm == "tsallis_inf":
            p, self._solved = tsallis_rows(self.losses, 2.0 / math.sqrt(t),
                                           start=self._normalizers)
            return p
        eta = math.sqrt(math.log(a) / (a * t)) if a > 1 else 0.0
        losses = self.losses
        p = losses - np.minimum.reduce(losses, axis=1, keepdims=True)
        p *= -eta
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=1, keepdims=True)
        if self.mixing > 0:
            p *= 1.0 - self.mixing
            p += self.mixing / a
        return p

    def _observe(self, ranks: np.ndarray, rewards: np.ndarray, probs: np.ndarray):
        self.losses[self._index, ranks] += (1.0 - rewards) / probs[self._index, ranks]
        self._normalizers = self._solved

    def keep_rows(self, rows):
        super().keep_rows(rows)
        self._index = np.arange(self.replications)

    def select(self, rng) -> SubsetAction:
        return self._action(self._solo_rank(rng))

    def update(self, action: SubsetAction, reward: float):
        self._solo_update(action.rank, reward)


# ---------------------------------------------------------------------------
# Experimental design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    leverage is within (1 + eps) of the feature-span rank (counted from the
    singular values above 1e-10 of the largest), which is the
    equivalence-theorem optimum.  Exhausting ``max_iters`` returns the best
    design found, flagged as not certified.  EXP2 does not call it: for the
    full family of size-K subsets the uniform start is already optimal.
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

class Exp2(_Batched):
    """Exponential weights over subset actions with degree-d linear estimates.

    Sampling mixes the weight distribution with the uniform design:
    p = (1 - gamma_mix) q + gamma_mix / A.  For the full family of size-K
    subsets the uniform design is G-optimal: the problem is symmetric under
    arm permutations, so every action's leverage under it equals the feature
    rank (the Kiefer-Wolfowitz optimum), as in ComBand.

    The paper's features F are the order-d tensor powers of the subset
    indicator (``features``, A x N^d).  On 0/1 indicators they span the same
    space as the full-column-rank inclusion matrix W (A x C(N, d')),
    W[S, T] = 1[T subset of S] over the size-d' subsets T,
    d' = min(d, K, N - K) (Gottlieb 1966; Wilson 1990).  So with
    P = diag(p) the least-squares estimates of all actions' rewards from the
    observation (S, r), added to the log-weights scaled by ``eta``, are

        F (F'PF)^+ F' e_S r = W (W'PW)^-1 W' e_S r.

    W'PW is positive definite with smallest eigenvalue at least
    min(p) lambda_min(W'W) (``gamma_mix`` > 0 keeps every p_a positive), so
    one r x r solve, r = C(N, d'), replaces the N^d x N^d pseudo-inverse.
    The estimate is linear in r, so a zero reward adds exactly zero: a round
    stacks the systems of the rows whose reward is nonzero into one solve,
    and solves nothing when every reward is zero.  Only the reference path
    the tests compare against, ``second_moment_pinv``, builds the N^d
    table.  The state is
    ``estimates``, the (R, A) cumulative reward estimates, and ``rounds``;
    each round of the :class:`_Batched` protocol adds the estimates of the
    round's observation, taken under the distribution it was sampled from.
    ``horizon`` is an int, or an (R,) array of one horizon per row; a default
    ``gamma_mix`` and ``eta`` follow it, so each row gets its own (an (R, 1)
    column).
    """

    _row_state = ("estimates", "eta", "gamma_mix", "_weight_share", "_uniform_share")

    def __init__(self, n_arms: int, subset_size: int, order: int, horizon,
                 eta: float | None = None, gamma_mix: float | None = None,
                 replications: int = 1):
        if order < 1:
            raise ValueError("order must be >= 1")
        count = n_subsets(n_arms, subset_size)
        level = min(order, subset_size, n_arms - subset_size)
        width = math.comb(n_arms, level)
        check_enumeration(count * width, f"entries of the {count} x {width} inclusion matrix")
        horizon = np.asarray(horizon)
        if horizon.ndim > 1 or not np.all(horizon >= 1):
            raise ValueError("horizon must be >= 1")
        self.n_arms = n_arms
        self.subset_size = subset_size
        self.order = order
        self.n_actions = count
        self.dim = dim = n_arms ** order
        # row S of W holds a one at the colex rank of each of its C(K, d')
        # sub-subsets, taken at the slot positions subsets_by_rank(K, d')
        members = subsets_by_rank(n_arms, subset_size)[:, subsets_by_rank(subset_size, level)]
        self.inclusion = np.zeros((count, width))
        np.put_along_axis(self.inclusion, colex_ranks(members, n_arms), 1.0, axis=1)
        if gamma_mix is None:
            gamma_mix = np.minimum(0.5, np.sqrt(dim * math.log(max(count, 2)) / horizon))
        if eta is None:
            eta = gamma_mix / (2.0 * dim)
        gamma_mix, eta = np.asarray(gamma_mix, dtype=float), np.asarray(eta, dtype=float)
        if not (np.all((0 < gamma_mix) & (gamma_mix <= 1))
                and np.all((0 < eta) & (eta < math.inf))):
            raise ValueError("need gamma_mix in (0, 1] and a finite eta > 0")
        # a float shared by every row, or an (R, 1) column of one per row
        self.gamma_mix = float(gamma_mix) if gamma_mix.ndim == 0 else gamma_mix[:, None]
        self.eta = float(eta) if eta.ndim == 0 else eta[:, None]
        # p = _weight_share q + _uniform_share, the two terms of the mixture
        self._weight_share = 1.0 - self.gamma_mix
        self._uniform_share = self.gamma_mix * (1.0 / count)
        self.replications = replications
        self.estimates = np.zeros((replications, count))
        self.rounds = 0

    @cached_property
    def features(self) -> np.ndarray:
        """The A x N^d order-d tensor feature table in rank order."""
        return np.stack([tensor_features(self._action(r), self.n_arms, self.order)
                         for r in range(self.n_actions)])

    def _rows(self) -> np.ndarray:
        estimates = self.estimates
        q = estimates - np.maximum.reduce(estimates, axis=1, keepdims=True)
        q *= self.eta
        np.exp(q, out=q)
        q /= np.add.reduce(q, axis=1, keepdims=True)
        q *= self._weight_share
        q += self._uniform_share
        return q

    def _observe(self, ranks: np.ndarray, rewards: np.ndarray, probs: np.ndarray):
        # the estimate is linear in the reward: a zero reward adds exactly
        # zero, so only the rows that saw a reward solve
        seen = np.count_nonzero(rewards)
        if seen == rewards.size:
            self.estimates += self._estimate_rows(ranks, rewards, probs)
        elif seen:
            rows = rewards.nonzero()[0]
            self.estimates[rows] += self._estimate_rows(ranks[rows], rewards[rows], probs[rows])

    def second_moment_pinv(self, probs) -> np.ndarray:
        """Pseudo-inverse of the feature second-moment matrix of ``probs``."""
        moment = self.features.T @ (np.asarray(probs)[:, None] * self.features)
        return np.linalg.pinv(moment, rcond=1e-10, hermitian=True)

    def _estimate_rows(self, ranks, rewards, probs) -> np.ndarray:
        """(R, A) estimates W (W'P_iW)^-1 W' e_(S_i) r_i, one stacked solve."""
        inclusion = self.inclusion
        gram = (inclusion.T * probs[:, None, :]) @ inclusion
        coef = np.linalg.solve(gram, inclusion[ranks, :, None])
        return (inclusion @ coef)[:, :, 0] * rewards[:, None]

    def estimate_rewards(self, rank: int, reward: float, probs) -> np.ndarray:
        """Per-action reward estimates F M(p)^+ x_S r from one observed
        (action, reward) pair under the distribution ``probs``, by a solve
        on the inclusion matrix."""
        return self._estimate_rows(np.array([rank]), np.array([float(reward)]),
                                   np.asarray(probs, dtype=float)[None])[0]

    def select(self, rng) -> SubsetAction:
        return self._action(self._solo_rank(rng))

    def update(self, action: SubsetAction, reward: float):
        self._solo_update(action.rank, reward)


class ConstantPolicy(_Batched):
    """Always plays one fixed subset and ignores feedback (its one uniform
    per round is drawn and discarded, like every learner's)."""

    def __init__(self, subset: SubsetAction, replications: int = 1):
        self.subset = subset
        self.replications = replications

    def select(self, rng) -> SubsetAction:
        self._solo_rank(rng)
        return self.subset

    def update(self, action: SubsetAction, reward: float):
        self._solo_update(action.rank, reward)

    def select_ranks(self, uniforms: np.ndarray) -> np.ndarray:
        return np.full(uniforms.shape, self.subset.rank)

    def update_ranks(self, ranks: np.ndarray, rewards: np.ndarray):
        pass
