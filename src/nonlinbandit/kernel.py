"""Replication-batched simulation kernel.

:func:`run_batch` advances R rows of one algorithm in lockstep on (R, A)
arrays; a row is one replication at its own horizon, so a sweep runs its
whole horizon grid as one batch:

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
4. The play pass also keeps every class's running sum of expected rewards
   and copies the class values and sums at the checkpoint rounds into
   per-horizon tables (:func:`run_batch` bounds their size), so the
   environment is drawn once.  At the end each row's best subset in
   hindsight, its class's largest sum at the horizon, picks its columns of
   the tables.  The reference path keeps the run's (T, N) hidden values.
5. Blocks end at every distinct horizon, and after its horizon's block a
   row retires: it leaves the learner, its streams and the adversary's
   per-row state, so no row steps past its horizon.  The block length is
   fixed by the starting row count and the class count.

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

# Elements of one (R, B, S) block array over the S classes; sets the block
# length B, at most 512 rounds.
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
    """Running sums of ``block`` (rows, rounds, ...) along its rounds,
    continued from ``carry`` (rows, ...), added one round at a time."""
    return np.cumsum(np.concatenate([carry[:, None], block], axis=1), axis=1)[:, 1:]


def replication_seeds(base_seed: int, run_id: int):
    """Environment and learner seeds of replication ``run_id``: the two
    children of ``SeedSequence(base_seed, spawn_key=(run_id,))``."""
    return tuple(np.random.SeedSequence(base_seed, spawn_key=(run_id, stream))
                 for stream in (0, 1))


def _blocks(horizons: np.ndarray, block: int):
    """Yield (t0, count, first) per block of at most ``block`` rounds over the
    non-decreasing ``horizons``.  Blocks end at each distinct horizon, and
    the rows of that horizon then retire, so a block's rows are the suffix
    ``first:``."""
    t0 = 1
    for end in np.unique(horizons).tolist():
        first = int(np.searchsorted(horizons, t0))
        while t0 <= end:
            count = min(block, end + 1 - t0)
            yield t0, count, first
            t0 += count


def _write_checkpoints(tables, first: int, t0: int, count: int, **columns):
    """Copy each (rows first:, block rounds) column array into the tables of
    the horizons still running, at their checkpoints inside the block; a
    one-row array serves every row."""
    for lo, hi, rounds, table in tables:
        if rounds[-1] < t0:
            continue
        a, b = np.searchsorted(rounds, [t0, t0 + count])
        for name, values in columns.items():
            rows = values if len(values) == 1 else values[lo - first:hi - first]
            table[name][:, a:b] = rows[:, rounds[a:b] - t0]


def run_batch(adversary, learner, channel, horizons, seeds,
              checkpoints) -> dict[int, BatchTrace]:
    """Simulate ``learner.replications`` rows, row i for ``horizons[i]`` rounds.

    ``horizons`` must not decrease.  ``seeds`` holds one (environment,
    learner) pair of ``SeedSequence`` per row, as :func:`replication_seeds`
    makes them, and ``adversary`` holds any per-row state in row order.
    ``checkpoints`` maps each distinct horizon to the increasing 1-based
    rounds its rows report, ending at the horizon.  The batch runs to the
    largest horizon in blocks that end at every distinct one; after its
    horizon's block a row retires in one step, which cuts it from its
    streams, the adversary and the learner.  Returns one trace per distinct
    horizon, its rows in input order.  Any error aborts the whole batch.

    The class values and running sums at the checkpoints take 2 C S floats
    per row (C checkpoints, S classes), or per horizon when the adversary
    draws no uniforms: 16 T A bytes for a full trace on the stochastic or
    oblivious adversary.
    """
    horizons = np.asarray(horizons, dtype=np.int64)
    n_rows = learner.replications
    if len(seeds) != n_rows or horizons.shape != (n_rows,):
        raise ValueError(f"{len(seeds)} seeds and {horizons.size} horizons "
                         f"for {n_rows} replications")
    if np.any(np.diff(horizons) < 0):
        raise ValueError("horizons must not decrease")
    classes = channel.classes
    n_classes = channel.slots.shape[0]
    # without draws every row sees the same class values and sums: one row
    shared = adversary.n_uniforms == 0
    # per distinct horizon: its rows lo:hi and checkpoint columns
    tables = []
    for horizon in np.unique(horizons).tolist():
        rounds = np.asarray(checkpoints[horizon], dtype=np.int64)
        if rounds[-1] != horizon:
            raise ValueError("checkpoints must end at the horizon")
        lo, hi = np.searchsorted(horizons, [horizon, horizon + 1]).tolist()
        shape = (hi - lo, rounds.size)
        class_shape = (1 if shared else hi - lo, rounds.size, n_classes)
        tables.append((lo, hi, rounds, {
            "ranks": np.empty(shape, dtype=np.int64), "rewards": np.empty(shape),
            "played": np.empty(shape), "played_cum": np.empty(shape),
            "values": np.empty(class_shape), "sums": np.empty(class_shape)}))
    env_seeds, learner_seeds = zip(*seeds)
    env_streams = [np.random.default_rng(seed) for seed in env_seeds]
    learner_streams = [np.random.default_rng(seed) for seed in learner_seeds]
    width = adversary.n_uniforms + 1
    # B is fixed for the batch, so the block arrays keep their size; past 512
    # rounds the (R, B) arrays and the choice channel's temporaries only add
    # memory.  Every sum runs round by round, so B moves no output bit
    block = min(512, max(16, BLOCK_ELEMENTS // (n_rows * n_classes)))
    sums = np.zeros((1 if shared else n_rows, n_classes))
    played_cum = np.zeros(n_rows)
    retired = 0
    for t0, count, first in _blocks(horizons, block):
        if first > retired:
            kept = slice(first - retired, None)
            env_streams, learner_streams = env_streams[kept], learner_streams[kept]
            adversary = adversary.for_rows(kept)
            learner.keep_rows(kept)
            retired = first
        draws = np.stack([stream.random((count, width)) for stream in env_streams])
        columns = adversary.column_block(t0, draws[..., :-1])
        values = channel.class_values(columns)
        rows = np.arange(n_rows - first)
        picks = np.stack([stream.random(count) for stream in learner_streams], axis=1)
        table = channel.reward_table(columns, values, draws[..., -1])
        ranks = np.empty((count, rows.size), dtype=np.int64)
        rewards = np.empty((count, rows.size))
        for i in range(count):
            played = learner.select_ranks(picks[i])
            reward = table[rows, i, classes[played]]
            learner.update_ranks(played, reward)
            ranks[i] = played
            rewards[i] = reward
        ranks, rewards = ranks.T, rewards.T
        played_vals = np.broadcast_to(values, (rows.size,) + values.shape[1:])[
            rows[:, None], np.arange(count), classes[ranks]]
        cum = _running_sum(played_cum[first:], played_vals)
        played_cum[first:] = cum[:, -1]
        live = slice(0 if shared else first, None)
        class_cum = _running_sum(sums[live], values)
        sums[live] = class_cum[:, -1]
        _write_checkpoints(tables, first, t0, count, ranks=ranks, rewards=rewards,
                           played=played_vals, played_cum=cum, values=values,
                           sums=class_cum)
    traces = {}
    for _, _, rounds, table in tables:
        # best fixed subset in hindsight (ties to the smallest rank)
        best = classes[np.argmax(table["sums"][:, -1, classes], axis=1)][:, None, None]
        bench, bench_cum = (np.take_along_axis(table[name], best, axis=2)[..., 0]
                            for name in ("values", "sums"))
        traces[int(rounds[-1])] = BatchTrace(
            rounds=rounds, ranks=table["ranks"], rewards=table["rewards"],
            inst_regret=bench - table["played"], cum_regret=bench_cum - table["played_cum"])
    return traces
