"""Replication-batched simulation kernel.

:func:`run_batch` advances the R replications of one (algorithm, horizon)
cell in lockstep on (R, A) arrays:

1. Every replication owns an environment stream and a learner stream, and
   every round consumes a fixed number of uniforms from each: the
   adversary's ``n_uniforms`` plus one for the feedback from the first, one
   from the second.  Blocks of B rounds are therefore drawn per replication
   as ``random((B, k))``, and the environment stream never depends on the
   learner.
2. A subset's value in a round depends only on its signature: the block
   columns its slots read (``Adversary.arm_columns``, in slot order) and,
   under choice feedback, their prices.  The subsets of one signature form
   a class.  A hard mixture has few classes (8 of the 220 subsets at
   N = 12, K = 3 with the planted arms lowest); under the stochastic and
   oblivious adversaries each subset is its own class.  Per block, the
   channel computes every class's expected reward and its realized reward
   under the round's feedback uniform, an (R, B, S) reward table.
3. Only the learner steps round by round, on its (R, A) state: it plays a
   rank and reads its reward from the table.
4. The per-class expected-reward sums are accumulated online and expanded
   to the A subsets once at the end, which fixes each replication's best
   subset in hindsight.  The environment stream is then replayed to read
   that subset's class column at the checkpoint rounds, so memory is
   O(R A) plus the checkpoint columns, where the reference path keeps the
   run's (T, N) hidden values.

Every class value is added in the same order as the sums of its subsets, so
the kernel carries the same bits as the per-round reference path
(``harness.simulate``, whose hidden values and played arms
``analysis.regret_of_run`` reads) for the played ranks and rewards; the
regret sums are added in a different order.  :class:`BatchTrace` is the
package's one trajectory type: the reference path reports its run as a
one-row trace at the same checkpoints.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LinkFunction, LinkRangeError, check_unit_interval, subset_sums

# Elements of one (R, B, A) block array; sets the block length B.
BLOCK_ELEMENTS = 1 << 15


def subset_classes(arm_keys: np.ndarray, subsets: np.ndarray):
    """Group the subsets (the rows of ``subsets``, by rank) whose slots carry
    equal keys in the same order; ``arm_keys[i]`` is arm i's key, a scalar
    or a row.  Returns the arms of each class's smallest-rank subset, shape
    (S, K), and the class of each rank, shape (A,)."""
    keys = arm_keys[subsets].reshape(subsets.shape[0], -1)
    _, first, classes = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return subsets[first], classes.reshape(-1)


class BernoulliChannel:
    """Binary feedback with mean g(sum of the offered values)."""

    def __init__(self, link: LinkFunction, subsets: np.ndarray, arm_columns: np.ndarray):
        self.link = link
        self.prices = None  # link or prices: the reference path's feedback model
        representatives, self.classes = subset_classes(arm_columns, subsets)
        self.slots = arm_columns[representatives]

    def class_values(self, columns: np.ndarray) -> np.ndarray:
        """Expected reward of every class in every round of a block, clamped
        to [0, 1] as in ``core.expected_reward``."""
        ys = np.asarray(self.link(subset_sums(columns, self.slots)), dtype=float)
        check_unit_interval(ys, "link value", tol=1e-9, error=LinkRangeError)
        return np.clip(ys, 0.0, 1.0)

    def reward_table(self, columns, values, uniforms) -> np.ndarray:
        """Reward of every class in every round: 1 when the round's feedback
        uniform falls below the class's expected reward."""
        return (uniforms[..., None] < values).astype(float)


class ChoiceChannel:
    """Multinomial-logit purchase of one offered item at its price."""

    def __init__(self, prices, subsets: np.ndarray, arm_columns: np.ndarray):
        self.link = None  # as on BernoulliChannel
        self.prices = np.asarray(prices, dtype=float)
        check_unit_interval(self.prices, "prices", tol=0.0)
        # a class also fixes the price of each slot, bit for bit
        keys = np.stack([arm_columns, self.prices.view(np.int64)], axis=1)
        representatives, self.classes = subset_classes(keys, subsets)
        self.slots = arm_columns[representatives]
        self.slot_prices = self.prices[representatives]

    def class_values(self, columns: np.ndarray) -> np.ndarray:
        """Expected revenue of every class in every round of a block."""
        revenue = columns[..., self.slots[:, 0]] * self.slot_prices[:, 0]
        for j in range(1, self.slots.shape[1]):
            revenue = revenue + columns[..., self.slots[:, j]] * self.slot_prices[:, j]
        return revenue / (1.0 + subset_sums(columns, self.slots))

    def reward_table(self, columns, values, uniforms) -> np.ndarray:
        """Revenue of every class in every round, as in
        ``environments.mnl_sample_choice``: the feedback uniform scaled by the
        running bound 1 + v_1 + ... + v_K counts the bounds at or below it,
        and that count picks the purchased slot (none at 0)."""
        bounds = [np.ones(columns.shape[:-1] + self.slots.shape[:1])]
        for j in range(self.slots.shape[1]):
            bounds.append(bounds[-1] + columns[..., self.slots[:, j]])
        scaled = uniforms[..., None] * bounds[-1]
        count = sum(bound <= scaled for bound in bounds)
        revenue = np.zeros(scaled.shape)
        for j in range(self.slots.shape[1]):
            revenue = np.where(count > j, self.slot_prices[:, j], revenue)
        return revenue


@dataclass
class BatchTrace:
    """Checkpoint columns of R replications: the rounds, shape (C,), ending
    at the horizon, and one row per replication of the played ranks, the
    realized rewards and the regrets, shape (R, C).

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
    """Yield (t0, columns, feedback uniforms, class values) per block, with the
    values broadcast to R rows; the adversary range-checked the columns' values."""
    streams = [np.random.default_rng(seed) for seed in env_seeds]
    width = adversary.n_uniforms + 1
    n_rows = len(streams)
    for t0 in range(1, horizon + 1, block):
        count = min(block, horizon + 1 - t0)
        draws = np.stack([stream.random((count, width)) for stream in streams])
        columns = adversary.column_block(t0, draws[..., :-1])
        values = channel.class_values(columns)
        yield (t0, columns, draws[..., -1],
               np.broadcast_to(values, (n_rows,) + values.shape[1:]))


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
    classes = channel.classes
    # B follows the subset count, not the class count: it fixes the order of
    # the regret sums
    block = max(16, BLOCK_ELEMENTS // (n_rows * classes.size))
    rows = np.arange(n_rows)
    shape = (n_rows, checkpoints.size)
    ranks_at = np.empty(shape, dtype=np.int64)
    rewards_at = np.empty(shape)
    played_at = np.empty(shape)
    played_cum_at = np.empty(shape)
    sums = np.zeros((n_rows, channel.slots.shape[0]))
    played_cum = np.zeros(n_rows)
    for t0, columns, feedback, values in _environment_blocks(
            adversary, channel, env_seeds, horizon, block):
        count = feedback.shape[1]
        picks = np.stack([stream.random(count) for stream in learner_streams], axis=1)
        table = channel.reward_table(columns, values, feedback)
        sums += values.sum(axis=1)
        ranks = np.empty((count, n_rows), dtype=np.int64)
        rewards = np.empty((count, n_rows))
        for i in range(count):
            played = learner.select_ranks(picks[i])
            reward = table[rows, i, classes[played]]
            learner.update_ranks(played, reward)
            ranks[i] = played
            rewards[i] = reward
        ranks, rewards = ranks.T, rewards.T
        played_vals = values[rows[:, None], np.arange(count), classes[ranks]]
        cum = _running_sum(played_cum, played_vals)
        played_cum = cum[:, -1]
        pos, idx = _local(checkpoints, t0, count)
        ranks_at[:, pos] = ranks[:, idx]
        rewards_at[:, pos] = rewards[:, idx]
        played_at[:, pos] = played_vals[:, idx]
        played_cum_at[:, pos] = cum[:, idx]

    # best fixed subset in hindsight (ties to the smallest rank), then replay
    # its class column
    benchmark = classes[np.argmax(sums[:, classes], axis=1)]
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
