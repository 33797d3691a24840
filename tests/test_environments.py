import itertools
import math

import numpy as np
import pytest

from nonlinbandit import (
    ConstantPolicy,
    HardInstance,
    HardMixtureAdversary,
    MnlLink,
    ObliviousAdversary,
    StochasticAdversary,
    SubsetAction,
    bernoulli_feedback,
    bernoulli_kl,
    delta_schedule,
    expected_reward,
    kl_coefficient,
    load_utility_schedule,
    mixture_mean_reward,
    mnl_mixture_choice_law,
    mnl_revenue,
    mnl_sample_choice,
    simulate,
)
from nonlinbandit.core import subsets_by_rank
from nonlinbandit.kernel import ChoiceChannel


# ---------------------------------------------------------------------------
# Hard adversary draws
# ---------------------------------------------------------------------------

def test_hard_adversary_low_delta_is_mostly_baseline(mnl_hard_m2, mnl_link, rng):
    adv = HardMixtureAdversary(mnl_hard_m2, mnl_link, (0, 1), delta=0.01,
                               n_arms=5, subset_size=2)
    draws = [adv.reward_vector(t, rng) for t in range(1, 401)]
    baseline = sum(np.allclose(v, mnl_hard_m2.x0) for v in draws)
    assert baseline > 380  # ~binomial(400, 0.99)
    for v in draws:
        assert np.allclose(v[2:], mnl_hard_m2.x0)  # off-planted arms never move


def test_reward_block_matches_per_round_draws(mnl_hard_m3, mnl_link):
    # the kernel's block path and the reference per-round path read the same
    # fixed layout of m + 2 uniforms per round and give the same bits
    adv = HardMixtureAdversary(mnl_hard_m3, mnl_link, (1, 3, 4), delta=0.5,
                               n_arms=6, subset_size=3)
    assert adv.n_uniforms == 5
    uniforms = np.random.default_rng(3).random((2, 50, adv.n_uniforms))
    block = adv.column_block(1, uniforms)[..., adv.arm_columns]
    for row in range(2):
        stream = np.random.default_rng(3)
        stream.random(row * 50 * adv.n_uniforms)  # skip the rows before
        for t in range(50):
            assert np.array_equal(adv.reward_vector(t + 1, stream), block[row, t])
    planted = uniforms[..., 0] < 0.5
    assert np.all((block[..., [1, 3, 4]] != mnl_hard_m3.x0).any(axis=-1) <= planted)
    obl = ObliviousAdversary([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    assert np.array_equal(obl.column_block(2, np.empty((1, 2, 0)))[0],
                          [[0.3, 0.4], [0.5, 0.6]])
    assert np.array_equal(obl.arm_columns, [0, 1])
    with pytest.raises(ValueError):
        obl.column_block(3, np.empty((1, 2, 0)))


def test_hard_adversary_refuses_invalid_instance(mnl_link):
    point_mass = HardInstance(x0=0.4, m=2, b=2, support=[[0.4, 0.4]],
                              weights=[1.0], gamma=0.0, residuals=[0.0])
    with pytest.raises(ValueError, match="INVALID"):
        HardMixtureAdversary(point_mass, mnl_link, (0, 1), 0.5,
                             n_arms=4, subset_size=2)


def test_hard_adversary_validates_shape(mnl_hard_m2, mnl_link):
    with pytest.raises(ValueError):
        HardMixtureAdversary(mnl_hard_m2, mnl_link, (0, 1, 2), 0.5,
                             n_arms=5, subset_size=2)
    with pytest.raises(ValueError):
        HardMixtureAdversary(mnl_hard_m2, mnl_link, (0, 1), 0.0,
                             n_arms=5, subset_size=2)
    with pytest.raises(ValueError):
        HardMixtureAdversary(mnl_hard_m2, mnl_link, (0, 1), 0.5,
                             n_arms=5, subset_size=3)


def test_with_delta_shares_the_verified_layout(mnl_hard_m3, mnl_link, monkeypatch):
    # a copy at another mixture weight draws the same bits as a fresh
    # adversary at that weight, without verifying the instance again
    import nonlinbandit.environments as environments_mod

    adv = HardMixtureAdversary(mnl_hard_m3, mnl_link, (1, 3, 4), 0.5,
                               n_arms=6, subset_size=3)
    fresh = HardMixtureAdversary(mnl_hard_m3, mnl_link, (1, 3, 4), 0.2,
                                 n_arms=6, subset_size=3)

    def no_verify(*args, **kwargs):
        raise AssertionError("with_delta verified the instance again")

    monkeypatch.setattr(environments_mod, "verify_hard_instance", no_verify)
    twin = adv.with_delta(0.2)
    assert (adv.delta, twin.delta) == (0.5, 0.2)
    assert twin.instance is adv.instance and twin.arm_columns is adv.arm_columns
    uniforms = np.random.default_rng(8).random((3, 40, adv.n_uniforms))
    assert np.array_equal(twin.column_block(1, uniforms), fresh.column_block(1, uniforms))
    assert not np.array_equal(adv.column_block(1, uniforms), twin.column_block(1, uniforms))
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="delta must lie in"):
            adv.with_delta(bad)


def test_per_row_delta_compares_each_row_with_its_own_weight(mnl_hard_m3, mnl_link):
    # an (R,) delta gives row r the bits of a float delta[r], and for_rows
    # keeps the weights of the rows it names
    adv = HardMixtureAdversary(mnl_hard_m3, mnl_link, (1, 3, 4), 0.5,
                               n_arms=6, subset_size=3)
    deltas = np.array([0.2, 0.5, 0.9])
    rows = adv.with_delta(deltas)
    uniforms = np.random.default_rng(4).random((3, 60, adv.n_uniforms))
    block = rows.column_block(1, uniforms)
    for r, delta in enumerate(deltas):
        solo = adv.with_delta(float(delta)).column_block(1, uniforms[r:r + 1])
        assert np.array_equal(block[r:r + 1], solo)
    kept = rows.for_rows(np.array([True, False, True]))
    assert np.array_equal(kept.delta, [0.2, 0.9]) and rows.for_rows(1).delta == 0.5
    assert adv.for_rows(np.array([0, 0])) is adv
    for bad in ([0.5, 0.0], [1.5, 0.5], [0.5, math.nan], [[0.5]]):
        with pytest.raises(ValueError, match="delta must lie in"):
            adv.with_delta(np.array(bad))


def test_mixture_mean_matches_baseline_except_at_planted(mnl_hard_m2, mnl_link):
    delta = 0.3
    base = mnl_hard_m2.baseline(mnl_link)
    for overlap in (0, 1):
        mean = mixture_mean_reward(mnl_hard_m2, mnl_link, delta, overlap)
        assert mean == pytest.approx(base, abs=1e-9)
    full = mixture_mean_reward(mnl_hard_m2, mnl_link, delta, 2)
    assert full == pytest.approx(base + delta * mnl_hard_m2.gamma, abs=1e-12)


def test_mixture_mean_all_overlaps_k3(mnl_hard_m3, mnl_link):
    base = mnl_hard_m3.baseline(mnl_link)
    for delta in (0.1, 0.5, 1.0):
        for overlap in (0, 1, 2):
            mean = mixture_mean_reward(mnl_hard_m3, mnl_link, delta, overlap)
            assert mean == pytest.approx(base, abs=1e-9)
        covered = mixture_mean_reward(mnl_hard_m3, mnl_link, delta, 3)
        assert covered == pytest.approx(base + delta * mnl_hard_m3.gamma, abs=1e-12)


def test_mixture_mean_monte_carlo(mnl_hard_m2, mnl_link):
    delta = 0.4
    adv = HardMixtureAdversary(mnl_hard_m2, mnl_link, (1, 3), delta,
                               n_arms=5, subset_size=2)
    rng = np.random.default_rng(5)
    subsets = {0: (0, 2), 1: (1, 2), 2: (1, 3)}
    counts = {ov: [] for ov in subsets}
    for t in range(1, 50_001):
        v = adv.reward_vector(t, rng)
        for overlap, idx in subsets.items():
            counts[overlap].append(mnl_link(float(v[list(idx)].sum())))
    for overlap, vals in counts.items():
        vals = np.asarray(vals)
        expect = mixture_mean_reward(mnl_hard_m2, mnl_link, delta, overlap)
        sigma = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - expect) < 3 * max(sigma, 1e-12)


# ---------------------------------------------------------------------------
# Polynomial-variant adversary (planted set smaller than the action)
# ---------------------------------------------------------------------------

def test_poly_adversary_single_special_arm(mnl_link):
    from nonlinbandit import find_hard_instance

    inst = find_hard_instance(mnl_link, m=1, b=3, grid_step=1 / 25)
    adv = HardMixtureAdversary(inst, mnl_link, (2,), 0.5, n_arms=5, subset_size=3)
    rng = np.random.default_rng(0)
    v = adv.reward_vector(1, rng)
    assert v.shape == (5,)
    off = [i for i in range(5) if i != 2]
    assert np.allclose(v[off], inst.x0)


def test_poly_adversary_mixture_means(quadratic_hard_m2):
    link, inst = quadratic_hard_m2
    delta = 0.25
    base = inst.baseline(link)
    # any action missing part of the planted pair sees the baseline mean
    for overlap in (0, 1):
        assert mixture_mean_reward(inst, link, delta, overlap) == pytest.approx(
            base, abs=1e-9)
    covered = mixture_mean_reward(inst, link, delta, 2)
    assert covered == pytest.approx(base + delta * inst.gamma, abs=1e-12)


def test_covering_subset_count_identity():
    # every size-K action covers exactly C(K, d) size-d subsets
    n, k, d = 5, 3, 2
    total = 0
    actions = list(itertools.combinations(range(n), k))
    for action in actions:
        covered = [s for s in itertools.combinations(range(n), d)
                   if set(s) <= set(action)]
        assert len(covered) == math.comb(k, d)
        total += len(covered)
    assert total == math.comb(k, d) * len(actions)


# ---------------------------------------------------------------------------
# Feedback channels
# ---------------------------------------------------------------------------

def test_bernoulli_feedback_edges(rng):
    assert all(bernoulli_feedback(0.0, rng) == 0 for _ in range(50))
    assert all(bernoulli_feedback(1.0, rng) == 1 for _ in range(50))
    with pytest.raises(ValueError):
        bernoulli_feedback(1.5, rng)


def test_bernoulli_feedback_frequency():
    rng = np.random.default_rng(11)
    draws = [bernoulli_feedback(0.5, rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 0.5) < 0.01  # ~6 sigma


def test_mnl_choice_zero_utilities(rng):
    s = SubsetAction.from_indices((0, 1), 3)
    assert all(mnl_sample_choice(s, np.zeros(3), rng) == -1 for _ in range(50))


class _FixedUniform:
    """Stands in for a generator whose next uniform is known."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_choice_channel_zero_utility_rows_match_sample_choice(rng):
    # the choice channel's reward table, one round per row: rows 0..31 offer
    # only zero utilities (always no purchase); rows 32..63 zero one offered
    # item of each subset
    n_arms, size, rows = 5, 2, 64
    subsets = subsets_by_rank(n_arms, size)
    prices = rng.uniform(0.1, 1.0, size=n_arms)
    hidden = rng.uniform(0.0, 2.0, size=(rows, n_arms))
    ranks = rng.integers(0, subsets.shape[0], size=rows)
    hidden[:32] = 0.0
    hidden[np.arange(32, rows), subsets[ranks[32:], 0]] = 0.0
    uniforms = rng.random(rows)
    uniforms[[0, 1, 32, 33]] = 0.0, np.nextafter(1.0, 0.0), 0.0, np.nextafter(1.0, 0.0)
    channel = ChoiceChannel(prices, subsets, np.arange(n_arms))
    columns = hidden[:, None, :]
    table = channel.reward_table(columns, channel.class_values(columns), uniforms[:, None])
    rewards = table[np.arange(rows), 0, channel.classes[ranks]]
    assert np.all(rewards[:32] == 0.0)
    for row in range(rows):
        offered = SubsetAction.from_rank(int(ranks[row]), n_arms, size)
        choice = mnl_sample_choice(offered, hidden[row], _FixedUniform(uniforms[row]))
        assert rewards[row] == (0.0 if choice == -1 else prices[choice]), row


def test_mnl_choice_single_item_half(rng):
    s = SubsetAction.from_indices((1,), 3)
    v = np.array([0.0, 1.0, 0.0])
    draws = [mnl_sample_choice(s, v, rng) for _ in range(20_000)]
    freq = np.mean([d == 1 for d in draws])
    assert abs(freq - 0.5) < 0.011  # 3 sigma at 2e4 draws


def test_mnl_choice_law_off_planted(mnl_hard_m2, mnl_link):
    x0 = mnl_hard_m2.x0
    law = mnl_mixture_choice_law(mnl_hard_m2, delta=0.3, overlap=1, subset_size=2)
    assert law.no_purchase == pytest.approx(1 / (1 + 2 * x0), abs=1e-9)
    assert law.planted_item == pytest.approx(x0 / (1 + 2 * x0), abs=1e-9)
    assert law.other_item == pytest.approx(x0 / (1 + 2 * x0), abs=1e-9)


def test_mnl_choice_law_monte_carlo(mnl_hard_m2, mnl_link):
    delta = 0.35
    adv = HardMixtureAdversary(mnl_hard_m2, mnl_link, (0, 1), delta,
                               n_arms=4, subset_size=2)
    rng = np.random.default_rng(21)
    offered = SubsetAction.from_indices((1, 2), 4)  # overlap 1
    n = 100_000
    hits = {-1: 0, 1: 0, 2: 0}
    for t in range(1, n + 1):
        v = adv.reward_vector(t, rng)
        hits[mnl_sample_choice(offered, v, rng)] += 1
    law = mnl_mixture_choice_law(mnl_hard_m2, delta, overlap=1, subset_size=2)
    for key, prob in ((-1, law.no_purchase), (1, law.planted_item), (2, law.other_item)):
        freq = hits[key] / n
        sigma = math.sqrt(prob * (1 - prob) / n)
        assert abs(freq - prob) < 3 * sigma


def test_mnl_choice_law_sums_to_one(mnl_hard_m2):
    for overlap in (0, 1, 2):
        law = mnl_mixture_choice_law(mnl_hard_m2, 0.5, overlap, subset_size=2)
        planted = 0.0 if overlap == 0 else overlap * law.planted_item
        other = 0.0 if overlap == 2 else (2 - overlap) * law.other_item
        assert law.no_purchase + planted + other == pytest.approx(1.0, abs=1e-12)


def test_mnl_revenue_examples(rng):
    g = MnlLink()
    s = SubsetAction.from_indices((0, 1), 3)
    assert mnl_revenue(s, np.zeros(3), np.ones(3)) == 0.0
    v = np.array([1.0, 1.0, 1.0])
    p = np.array([1.0, 0.5, 0.2])
    assert mnl_revenue(s, v, p) == pytest.approx(0.5)
    # unit prices coincide with the MNL link reward
    for _ in range(100):
        v = rng.uniform(0, 1, size=6)
        combo = tuple(sorted(rng.choice(6, size=3, replace=False)))
        s = SubsetAction.from_indices(combo, 6)
        assert mnl_revenue(s, v, np.ones(6)) == pytest.approx(
            expected_reward(s, v, g), abs=1e-12)


# ---------------------------------------------------------------------------
# Plain adversaries and schedules
# ---------------------------------------------------------------------------

def test_stochastic_and_oblivious_adversaries(rng):
    sto = StochasticAdversary([0.1, 0.9])
    assert np.array_equal(sto.reward_vector(1, rng), [0.1, 0.9])
    obl = ObliviousAdversary([[0.1, 0.2], [0.3, 0.4]])
    assert np.array_equal(obl.reward_vector(2, rng), [0.3, 0.4])
    with pytest.raises(ValueError):
        obl.reward_vector(3, rng)


def test_load_utility_schedule(tmp_path):
    path = tmp_path / "sched.csv"
    path.write_text("t,v_0,v_1\n1,0.1,0.2\n2,0.3,0.4\n")
    sched = load_utility_schedule(path)
    assert np.allclose(sched, [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError):
        load_utility_schedule(path, n_arms=3)
    bad = tmp_path / "bad.csv"
    bad.write_text("t,v_0,v_1\n1,0.1,0.2\n3,0.3,0.4\n")
    with pytest.raises(ValueError):
        load_utility_schedule(bad)


def test_delta_schedule_values():
    assert delta_schedule(2, 2, 1, 1.0) == pytest.approx(0.5)
    assert delta_schedule(6, 2, 900, 1.0) == pytest.approx(math.sqrt(15) / 60)
    # T scaling: quadrupling T halves delta (below the cap)
    d1 = delta_schedule(6, 2, 10_000, 1.0)
    d2 = delta_schedule(6, 2, 40_000, 1.0)
    assert d2 == pytest.approx(d1 / 2)
    assert delta_schedule(6, 2, 1, 0.01) == 1.0  # capped at 1


def test_delta_schedule_poly_mode():
    val = delta_schedule(6, 3, 400, 1.0, degree=2)
    assert val == pytest.approx(math.sqrt(15) / (2 * math.sqrt(3 * 400)))
    with pytest.raises(ValueError):
        delta_schedule(6, 3, 400, 1.0, degree=3)
    with pytest.raises(ValueError):
        delta_schedule(6, 3, 400, 0.0)


def test_kl_coefficient_bounds_kl(mnl_hard_m2, mnl_link):
    coeff = kl_coefficient(mnl_hard_m2, mnl_link)
    q = mnl_hard_m2.baseline(mnl_link)
    for delta in np.arange(0.01, 0.51, 0.01):
        kl = bernoulli_kl(q, q + delta * mnl_hard_m2.gamma)
        assert kl <= (coeff * delta) ** 2 + 1e-15


def test_env_record_validates():
    # a realized reward outside [0, 1] stops the recorded run: item 0 costs
    # 1.5, and the first round that buys it raises in the learner's update
    adv = StochasticAdversary(np.array([1.0, 1.0]))
    learner = ConstantPolicy(SubsetAction.from_indices((0,), 2))
    with pytest.raises(ValueError, match="reward outside"):
        simulate(adv, learner, 50, np.random.default_rng(0), np.random.default_rng(1),
                 prices=np.array([1.5, 0.5]))
