"""Subset classes of the batched kernel: a class's values and reward table
carry the same bits as each of its subsets computed on its own; rows of
several horizons in one batch carry the bits of their one-horizon batches;
and a batch draws its environment once, with traces that do not depend on
the block length."""
import math

import numpy as np
import pytest

from nonlinbandit import (
    ExperimentConfig,
    HardMixtureAdversary,
    MnlLink,
    ProblemDims,
    StochasticAdversary,
    run_sweep,
)
from nonlinbandit import environments, harness, kernel, learners
from nonlinbandit.core import subsets_by_rank
from nonlinbandit.harness import build_adversary
from nonlinbandit.kernel import BernoulliChannel, ChoiceChannel


def _hard_spec(kind, instance, s_star):
    return {"kind": kind, "instance": instance.to_json_dict(), "s_star": list(s_star),
            "delta": 0.5}


@pytest.mark.parametrize("n_arms, size, s_star, count", [
    (40, 2, (0, 1), 4),
    (20, 3, (0, 1, 2), 8),
    (12, 3, (0, 1, 2), 8),
    (4, 2, (0, 2), 5),
])
@pytest.mark.parametrize("kind", ["hard_nonpoly", "mnl_hard"])
def test_hard_mixture_class_counts(mnl_hard_m2, mnl_hard_m3, kind, n_arms, size, s_star,
                                   count):
    instance = mnl_hard_m2 if size == 2 else mnl_hard_m3
    dims = ProblemDims(n_arms, size, 100)
    _, channel = build_adversary(_hard_spec(kind, instance, s_star), dims, MnlLink(), [100])
    assert channel.slots.shape == (count, size)
    assert channel.classes.shape == (math.comb(n_arms, size),)
    assert np.array_equal(np.unique(channel.classes), np.arange(count))


def test_stochastic_subsets_are_their_own_classes():
    dims = ProblemDims(6, 3, 100)
    _, channel = build_adversary({"kind": "stochastic", "v": [0.1] * 6}, dims,
                                 MnlLink(), [100])
    assert channel.slots.shape == (20, 3)
    assert np.unique(channel.classes).size == 20


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _channels(kind, adversary, subsets, prices):
    """The channel on the adversary's columns and its one-subset-per-class twin
    on the hidden vectors."""
    flat = np.arange(adversary.n_arms)
    if kind == "bernoulli":
        return (BernoulliChannel(MnlLink(), subsets, adversary.arm_columns),
                BernoulliChannel(MnlLink(), subsets, flat))
    return (ChoiceChannel(prices, subsets, adversary.arm_columns),
            ChoiceChannel(prices, subsets, flat))


@pytest.mark.parametrize("kind", ["bernoulli", "choice"])
@pytest.mark.parametrize("n_arms, size, planted, prices", [
    (7, 3, (1, 3, 4), "unit"),
    (7, 3, (0, 5, 6), "shared"),
    (6, 2, (2, 4), "distinct"),
    (5, 3, (0, 1), "unit"),  # m = 2 < K, as in hard_poly
])
def test_class_values_and_tables_match_one_subset_per_class(
        mnl_hard_m2, mnl_hard_m3, quadratic_hard_m2, kind, n_arms, size, planted, prices):
    rng = np.random.default_rng(n_arms * 10 + size)
    link, instance = MnlLink(), mnl_hard_m3 if len(planted) == 3 else mnl_hard_m2
    if len(planted) < size:
        link, instance = quadratic_hard_m2
    adversary = HardMixtureAdversary(instance, link, planted, delta=0.6,
                                     n_arms=n_arms, subset_size=size)
    price_of = {"unit": np.ones(n_arms),
                "shared": rng.choice([0.3, 0.8], size=n_arms),
                "distinct": rng.uniform(0.1, 1.0, size=n_arms)}[prices]
    subsets = subsets_by_rank(n_arms, size)
    channel, flat = _channels(kind, adversary, subsets, price_of)
    for _ in range(3):
        uniforms = rng.random((4, 40, adversary.n_uniforms))
        feedback = rng.random((4, 40))
        feedback[0, :3] = 0.0, np.nextafter(1.0, 0.0), 0.5
        columns = adversary.column_block(1, uniforms)
        hidden = columns[..., adversary.arm_columns]
        values = channel.class_values(columns)
        flat_values = flat.class_values(hidden)
        assert _same_bits(values[..., channel.classes], flat_values[..., flat.classes])
        table = channel.reward_table(columns, values, feedback)
        flat_table = flat.reward_table(hidden, flat_values, feedback)
        assert _same_bits(table[..., channel.classes], flat_table[..., flat.classes])
    if kind == "choice" and prices != "unit":
        assert channel.slots.shape[0] > BernoulliChannel(
            MnlLink(), subsets, adversary.arm_columns).slots.shape[0]


def test_stochastic_block_is_one_subset_per_class():
    # columns are the arms: values equal the link of each subset's own sum
    adversary = StochasticAdversary([0.1, 0.5, 0.9, 0.3])
    subsets = subsets_by_rank(4, 2)
    channel = BernoulliChannel(MnlLink(), subsets, adversary.arm_columns)
    values = channel.class_values(adversary.column_block(1, np.empty((1, 5, 0))))
    sums = adversary.values[subsets].sum(axis=1)
    assert _same_bits(values[..., channel.classes], np.broadcast_to(sums / (1 + sums),
                                                                    (1, 5, 6)))


def _counting(check, seen):
    def counting(values, what, *args, **kwargs):
        seen.append(what)
        return check(values, what, *args, **kwargs)
    return counting


def test_batched_sweep_range_checks_only_block_link_values(mnl_hard_m2, monkeypatch):
    # the criterion-5 sweep shape: every [0, 1] check on the batched path is
    # one link-value check per block in class_values, in the one pass over
    # the environment; the learners check no reward and the kernel no column.
    # One worker, so both algorithms run, and are counted, in this process.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    grid, reps, algos = [1000, 3162, 10000], 2, ("exp3", "tsallis_inf")
    config = ExperimentConfig.from_dict({
        "dims": {"N": 5, "K": 2, "T": grid[-1], "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "hard_nonpoly", "instance": mnl_hard_m2.to_json_dict(),
                      "s_star": [0, 1], "delta": "auto"},
        "algorithms": [{"name": algo, "params": {}} for algo in algos],
        "replications": reps,
        "base_seed": 0,
        "t_grid": grid,
    })
    _, channel = build_adversary(config.adversary_spec, config.dims, MnlLink(), grid)
    n_classes = channel.slots.shape[0]
    calls = {}
    for module in (environments, kernel, learners):
        calls[module] = []
        monkeypatch.setattr(module, "check_unit_interval",
                            _counting(module.check_unit_interval, calls[module]))
    assert all(row["reps"] == reps for row in run_sweep(config))
    # each algorithm runs its len(grid) * reps rows as one batch over the 4
    # classes: 512-round blocks that end at every horizon, 2 + 5 + 14 per
    # algorithm, 42 checks in all
    block = min(512, max(16, kernel.BLOCK_ELEMENTS // (len(grid) * reps * n_classes)))
    blocks = sum(-(-(end - start) // block) for start, end in zip([0] + grid, grid))
    assert (n_classes, blocks) == (4, 21)
    assert calls[learners] == []
    assert calls[environments] == []
    assert calls[kernel] == ["link value"] * (len(algos) * blocks)


def _batch(spec, algo, horizons, seed=4):
    """run_batch of ``algo`` at N = 5, K = 2, one row per entry of the
    non-decreasing ``horizons``, checkpointed at every round; also returns
    the channel."""
    distinct = sorted(set(horizons))
    dims = ProblemDims(n_arms=5, subset_size=2, horizon=distinct[-1])
    adversary, channel = build_adversary(spec, dims, MnlLink(), distinct)
    traces = kernel.run_batch(
        adversary.for_rows(np.searchsorted(distinct, horizons)),
        learners.SubsetMab(5, 2, algo, replications=len(horizons)), channel, horizons,
        [kernel.replication_seeds(seed, r) for r in range(len(horizons))],
        {h: np.arange(1, h + 1) for h in distinct})
    return traces, channel


def _specs(mnl_hard_m2, horizon):
    schedule = np.random.default_rng(3).uniform(0, 1, size=(horizon, 5)).tolist()
    return {
        "hard_nonpoly": {**_hard_spec("hard_nonpoly", mnl_hard_m2, (0, 2)), "delta": "auto"},
        "mnl_hard": {**_hard_spec("mnl_hard", mnl_hard_m2, (1, 3)), "delta": "auto"},
        "stochastic": {"kind": "stochastic", "v": [0.2, 0.9, 0.4, 0.6, 0.1]},
        "oblivious": {"kind": "oblivious", "schedule": schedule},
    }


def test_batch_draws_its_environment_once(mnl_hard_m2, monkeypatch):
    # one class_values call per block: no second pass over the environment
    passes, values_calls = [], []
    blocks = kernel._blocks

    def recording(horizons, block):
        passes.append(list(blocks(horizons, block)))
        return iter(passes[-1])

    monkeypatch.setattr(kernel, "_blocks", recording)
    monkeypatch.setattr(kernel.BernoulliChannel, "class_values",
                        _counting(kernel.BernoulliChannel.class_values, values_calls))
    _batch(_specs(mnl_hard_m2, 0)["hard_nonpoly"], "exp3", [300, 300, 1200, 2500])
    assert len(passes) == 1 and len(passes[0]) > 3
    assert len(values_calls) == len(passes[0])


@pytest.mark.parametrize("kind", ["hard_nonpoly", "mnl_hard", "stochastic", "oblivious"])
def test_traces_do_not_depend_on_the_block_length(mnl_hard_m2, monkeypatch, kind):
    # 16-round and 512-round blocks give every trace array the same bits
    horizons = [300, 700, 700, 1300]
    spec = _specs(mnl_hard_m2, horizons[-1])[kind]
    runs = []
    for elements in (1, 1 << 30):
        monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", elements)
        runs.append(_batch(spec, "tsallis_inf", horizons)[0])
    short, long = runs
    assert sorted(short) == sorted(long) == [300, 700, 1300]
    for h in short:
        for name in ("rounds", "ranks", "rewards", "inst_regret", "cum_regret"):
            assert _same_bits(getattr(short[h], name), getattr(long[h], name)), (h, name)


@pytest.mark.parametrize("kind", ["hard_nonpoly", "mnl_hard"])
def test_merged_batch_rows_match_their_one_horizon_batches(mnl_hard_m2, kind):
    # rows of three horizons in one batch (each with its own delta, their
    # replications out of order) report every checkpoint column with the
    # bits of a batch of that horizon alone; the rows must come by
    # increasing horizon
    dims = ProblemDims(n_arms=5, subset_size=2, horizon=900)
    distinct = [250, 500, 900]
    spec = {**_hard_spec(kind, mnl_hard_m2, (0, 2)), "delta": "auto"}
    adversary, channel = build_adversary(spec, dims, MnlLink(), distinct)
    assert np.unique(adversary.delta).size == 3
    rows = [(250, 1), (250, 0), (500, 0), (900, 2), (900, 0)]
    horizons = np.array([h for h, _ in rows])
    seeds = [kernel.replication_seeds(4, r) for _, r in rows]
    checkpoints = {250: np.arange(1, 251), 500: np.array([1, 7, 64, 500]),
                   900: np.array([2, 249, 250, 251, 899, 900])}
    merged = kernel.run_batch(adversary.for_rows(np.searchsorted(distinct, horizons)),
                              learners.SubsetMab(5, 2, "tsallis_inf", replications=5),
                              channel, horizons, seeds, checkpoints)
    assert sorted(merged) == distinct
    with pytest.raises(ValueError, match="must not decrease"):
        kernel.run_batch(adversary.for_rows([2, 0]),
                         learners.SubsetMab(5, 2, "exp3", replications=2), channel,
                         [900, 250], seeds[:2], checkpoints)
    for h, trace in merged.items():
        members = np.flatnonzero(horizons == h)
        alone = kernel.run_batch(adversary.for_rows([distinct.index(h)] * members.size),
                                 learners.SubsetMab(5, 2, "tsallis_inf",
                                                    replications=members.size),
                                 channel, [h] * members.size,
                                 [seeds[i] for i in members], {h: checkpoints[h]})[h]
        assert np.array_equal(trace.rounds, checkpoints[h])
        for name in ("ranks", "rewards", "inst_regret", "cum_regret"):
            assert np.array_equal(getattr(trace, name), getattr(alone, name)), (h, name)
