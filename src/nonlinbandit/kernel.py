"""Replication-batched simulation kernel.

:func:`run_batch` advances the R replications of one (algorithm, horizon)
cell in lockstep on (R, A) arrays:

1. Every replication owns an environment stream and a learner stream, and
   every round consumes a fixed number of uniforms from each: the
   adversary's ``n_uniforms`` plus one for the feedback from the first, one
   from the second.  Blocks of B rounds are therefore drawn per replication
   as ``random((B, k))``, the environment stream never depends on the
   learner, and the hidden vectors and the expected rewards of all subsets
   are computed a block at a time.
2. Only the learner steps round by round, on its (R, A) state.
3. The per-subset expected-reward sums are accumulated online, which fixes
   each replication's best subset in hindsight at the end.  The environment
   stream is then replayed to read that subset's expected rewards at the
   checkpoint rounds, so memory is O(R A) plus the checkpoint columns, not
   one record per round.

The kernel carries the same bits as the per-round reference path
(``harness.simulate`` with ``analysis.regret_of_run``) for the played ranks
and rewards; the regret sums are added in a different order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LinkFunction, LinkRangeError, check_unit_interval, subset_sums

# Elements of one (R, B, A) block array; sets the block length B.
BLOCK_ELEMENTS = 1 << 15


class BernoulliChannel:
    """Binary feedback with mean g(sum of the offered values)."""

    def __init__(self, link: LinkFunction, subsets: np.ndarray):
        self.link = link
        self.prices = None  # link or prices: the reference path's feedback model
        self.subsets = subsets

    def subset_values(self, hidden: np.ndarray) -> np.ndarray:
        """Expected reward of every subset (by rank) in every round of a block,
        clamped to [0, 1] as in ``core.expected_reward``."""
        ys = np.asarray(self.link(subset_sums(hidden, self.subsets)), dtype=float)
        check_unit_interval(ys, "link value", tol=1e-9, error=LinkRangeError)
        return np.clip(ys, 0.0, 1.0)

    def rewards(self, hidden, ranks, means, uniforms) -> np.ndarray:
        return (uniforms < means).astype(float)


class ChoiceChannel:
    """Multinomial-logit purchase of one offered item at its price."""

    def __init__(self, prices, subsets: np.ndarray):
        self.link = None  # as on BernoulliChannel
        self.prices = np.asarray(prices, dtype=float)
        check_unit_interval(self.prices, "prices", tol=0.0)
        self.subsets = subsets

    def subset_values(self, hidden: np.ndarray) -> np.ndarray:
        """Expected revenue of every subset (by rank) in every round of a block."""
        util = subset_sums(hidden, self.subsets)
        return subset_sums(hidden * self.prices, self.subsets) / (1.0 + util)

    def rewards(self, hidden, ranks, means, uniforms) -> np.ndarray:
        """Rows of ``environments.mnl_sample_choice``: the uniform scaled by the
        running bound 1 + v_1 + ... + v_K picks the first slot above it."""
        offered = self.subsets[ranks]
        rows = np.arange(offered.shape[0])[:, None]
        bounds = np.cumsum(np.concatenate(
            [np.ones((offered.shape[0], 1)), hidden[rows, offered]], axis=1), axis=1)
        slot = (bounds <= (uniforms * bounds[:, -1])[:, None]).sum(axis=1)
        arm = offered[rows[:, 0], np.minimum(slot, offered.shape[1]) - 1]
        return np.where(slot > 0, self.prices[arm], 0.0)


@dataclass
class BatchTrace:
    """Checkpoint columns of R replications (one row each).

    ``inst_regret`` and ``cum_regret`` are measured against each row's best
    fixed subset in hindsight (ties to the smallest rank).
    """

    rounds: np.ndarray
    ranks: np.ndarray
    rewards: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray

    @property
    def final_regret(self) -> np.ndarray:
        return self.cum_regret[:, -1]


def _running_sum(carry: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Row-wise running sums of ``block`` continued from ``carry``, added one
    round at a time."""
    return np.cumsum(np.concatenate([carry[:, None], block], axis=1), axis=1)[:, 1:]


def _local(checkpoints: np.ndarray, t0: int, count: int):
    """Positions of the checkpoints inside rounds t0 .. t0 + count - 1 and
    their offsets in the block."""
    lo, hi = np.searchsorted(checkpoints, [t0, t0 + count])
    pos = np.arange(lo, hi)
    return pos, checkpoints[lo:hi] - t0


def replication_seeds(base_seed: int, run_id: int):
    """Environment and learner seeds of replication ``run_id``: the two
    children of ``SeedSequence(base_seed, spawn_key=(run_id,))``."""
    return tuple(np.random.SeedSequence(base_seed, spawn_key=(run_id, stream))
                 for stream in (0, 1))


def _environment_blocks(adversary, channel, env_seeds, horizon: int, block: int):
    """Yield (t0, hidden, feedback uniforms, subset values) per block, with
    hidden and values broadcast to R rows."""
    streams = [np.random.default_rng(seed) for seed in env_seeds]
    width = adversary.n_uniforms + 1
    n_rows = len(streams)
    for t0 in range(1, horizon + 1, block):
        count = min(block, horizon + 1 - t0)
        draws = np.stack([stream.random((count, width)) for stream in streams])
        hidden = adversary.reward_block(t0, draws[..., :-1])
        check_unit_interval(hidden, "reward-vector entries")
        values = channel.subset_values(hidden)
        yield (t0, np.broadcast_to(hidden, (n_rows,) + hidden.shape[1:]),
               draws[..., -1], np.broadcast_to(values, (n_rows,) + values.shape[1:]))


def run_batch(adversary, learner, channel, horizon: int, seeds,
              checkpoints) -> BatchTrace:
    """Simulate ``learner.replications`` replications for ``horizon`` rounds.

    ``seeds`` holds one (environment, learner) pair of ``SeedSequence`` per
    replication, as :func:`replication_seeds` makes them.  ``checkpoints``
    are the increasing 1-based rounds to report and must end at ``horizon``.
    Any error aborts the whole batch.
    """
    n_rows = learner.replications
    if len(seeds) != n_rows:
        raise ValueError(f"{len(seeds)} seeds for {n_rows} replications")
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    if checkpoints[-1] != horizon:
        raise ValueError("checkpoints must end at the horizon")
    env_seeds, learner_seeds = zip(*seeds)
    learner_streams = [np.random.default_rng(seed) for seed in learner_seeds]
    n_actions = channel.subsets.shape[0]
    block = max(16, BLOCK_ELEMENTS // (n_rows * n_actions))
    rows = np.arange(n_rows)
    shape = (n_rows, checkpoints.size)
    ranks_at = np.empty(shape, dtype=np.int64)
    rewards_at = np.empty(shape)
    played_at = np.empty(shape)
    played_cum_at = np.empty(shape)
    sums = np.zeros((n_rows, n_actions))
    played_cum = np.zeros(n_rows)
    for t0, hidden, feedback, values in _environment_blocks(
            adversary, channel, env_seeds, horizon, block):
        count = feedback.shape[1]
        picks = np.stack([stream.random(count) for stream in learner_streams], axis=1)
        feedback = np.ascontiguousarray(feedback.T)
        sums += values.sum(axis=1)
        ranks = np.empty((count, n_rows), dtype=np.int64)
        rewards = np.empty((count, n_rows))
        for i in range(count):
            played = learner.select_ranks(picks[i])
            reward = channel.rewards(hidden[:, i], played, values[rows, i, played],
                                     feedback[i])
            learner.update_ranks(played, reward)
            ranks[i] = played
            rewards[i] = reward
        ranks, rewards = ranks.T, rewards.T
        played_vals = values[rows[:, None], np.arange(count), ranks]
        cum = _running_sum(played_cum, played_vals)
        played_cum = cum[:, -1]
        pos, idx = _local(checkpoints, t0, count)
        ranks_at[:, pos] = ranks[:, idx]
        rewards_at[:, pos] = rewards[:, idx]
        played_at[:, pos] = played_vals[:, idx]
        played_cum_at[:, pos] = cum[:, idx]

    # best fixed subset in hindsight (ties to the smallest rank), then replay
    benchmark = np.argmax(sums, axis=1)
    bench_at = np.empty(shape)
    bench_cum_at = np.empty(shape)
    bench_cum = np.zeros(n_rows)
    for t0, _, _, values in _environment_blocks(adversary, channel, env_seeds,
                                                horizon, block):
        bench_vals = values[rows, :, benchmark]
        cum = _running_sum(bench_cum, bench_vals)
        bench_cum = cum[:, -1]
        pos, idx = _local(checkpoints, t0, bench_vals.shape[1])
        bench_at[:, pos] = bench_vals[:, idx]
        bench_cum_at[:, pos] = cum[:, idx]
    return BatchTrace(rounds=checkpoints, ranks=ranks_at, rewards=rewards_at,
                      inst_regret=bench_at - played_at,
                      cum_regret=bench_cum_at - played_cum_at)

