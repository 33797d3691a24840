import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonlinbandit import (
    HardMixtureAdversary,
    MnlLink,
    PolynomialLink,
    StochasticAdversary,
    SubsetAction,
    SubsetMab,
    bernoulli_kl,
    categorical_kl,
    mnl_mixture_choice_law,
    regret_of_run,
    simulate,
    slope_estimate,
    tv_distance,
    unrank_subset,
)


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------

def test_kl_and_tv_identities():
    assert bernoulli_kl(0.3, 0.3) == 0.0
    assert tv_distance(0.3, 0.3) == 0.0
    assert tv_distance([0.2, 0.8], [0.2, 0.8]) == 0.0


def test_bernoulli_kl_regression_value():
    # 0.5 ln(0.5/0.75) + 0.5 ln(0.5/0.25) = 0.5 ln(4/3), frozen on first run
    assert bernoulli_kl(0.5, 0.75) == pytest.approx(0.5 * math.log(4 / 3), abs=1e-15)
    assert bernoulli_kl(0.5, 0.75) == pytest.approx(0.14384103622589045, abs=1e-12)


def test_kl_infinities():
    assert bernoulli_kl(0.5, 0.0) == math.inf
    assert bernoulli_kl(0.5, 1.0) == math.inf
    assert bernoulli_kl(0.0, 0.5) == pytest.approx(math.log(2))
    assert categorical_kl([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_mnl_mixture_laws_indistinguishable(mnl_hard_m2):
    # two different non-planted actions produce the same observable law
    law0 = mnl_mixture_choice_law(mnl_hard_m2, 0.4, overlap=0, subset_size=2)
    law1 = mnl_mixture_choice_law(mnl_hard_m2, 0.4, overlap=1, subset_size=2)
    vec0 = [law0.no_purchase, law0.other_item, law0.other_item]
    vec1 = [law1.no_purchase, law1.planted_item, law1.other_item]
    assert tv_distance(vec0, vec1) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@example(0.01, 0.010000000000000002)
@settings(max_examples=200, deadline=None)
def test_pinsker_bernoulli(p, q):
    assert tv_distance(p, q) <= math.sqrt(bernoulli_kl(p, q) / 2) + 1e-12


def test_kl_nonnegative_under_rounding():
    # Near-equal arguments make the log terms cancel to a rounding-sized value.
    assert bernoulli_kl(0.01, 0.010000000000000002) >= 0.0
    assert categorical_kl([0.01, 0.99], [0.010000000000000002, 0.99 - 2e-18]) >= 0.0


def test_pinsker_battery(rng):
    for _ in range(1000):
        if rng.random() < 0.5:
            p, q = rng.uniform(0.001, 0.999, size=2)
            tv, kl = tv_distance(p, q), bernoulli_kl(p, q)
        else:
            size = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(size))
            q = rng.dirichlet(np.ones(size))
            tv, kl = tv_distance(p, q), categorical_kl(p, q)
        assert tv <= math.sqrt(kl / 2) + 1e-12


# ---------------------------------------------------------------------------
# Regret traces
# ---------------------------------------------------------------------------

def _fixed_run(v, plays):
    """The hidden values (T, N) and played subsets (T, K) of a run that
    faces the same vector ``v`` every round."""
    return np.tile(np.asarray(v, dtype=float), (len(plays), 1)), np.array(plays)


def test_constant_benchmark_policy_has_zero_regret():
    g = MnlLink()
    v = np.array([0.9, 0.8, 0.1, 0.2])
    benchmark, inst_regret = regret_of_run(*_fixed_run(v, [(0, 1)] * 10), link=g)
    assert unrank_subset(benchmark, 4, 2) == (0, 1)
    assert inst_regret.shape == (10,)
    assert inst_regret.sum() == pytest.approx(0.0, abs=1e-12)


def test_single_round_gap():
    # best subset collects 0.6, the played one 0.4
    lin = PolynomialLink([0.0, 1.0])
    v = np.array([0.3, 0.3, 0.2, 0.2])
    benchmark, inst_regret = regret_of_run(*_fixed_run(v, [(2, 3)]), link=lin)
    assert unrank_subset(benchmark, 4, 2) == (0, 1)
    assert inst_regret.sum() == pytest.approx(0.2)


def test_regret_matches_definition_oracle(rng):
    g = MnlLink()
    schedule = rng.uniform(0, 1, size=(20, 5))
    plays = [tuple(sorted(rng.choice(5, size=2, replace=False))) for _ in range(20)]
    benchmark, inst_regret = regret_of_run(schedule, np.array(plays), link=g)
    # independent recomputation straight from the definition
    best_total, best_combo = -np.inf, None
    for combo in itertools.combinations(range(5), 2):
        total = sum(g(float(schedule[t][list(combo)].sum())) for t in range(20))
        if total > best_total:
            best_total, best_combo = total, combo
    assert unrank_subset(benchmark, 5, 2) == best_combo
    expected = [
        g(float(schedule[t][list(best_combo)].sum()))
        - g(float(schedule[t][list(plays[t])].sum()))
        for t in range(20)
    ]
    assert np.allclose(inst_regret, expected, atol=1e-12)
    assert inst_regret.sum() == pytest.approx(sum(expected), abs=1e-10)


def test_mnl_revenue_trace(rng):
    prices = np.array([1.0, 0.5, 0.2, 0.8])
    schedule = rng.uniform(0, 1, size=(10, 4))
    plays = [tuple(sorted(rng.choice(4, size=2, replace=False))) for _ in range(10)]
    _, inst_regret = regret_of_run(schedule, np.array(plays), prices=prices)
    from nonlinbandit import mnl_revenue
    best_total = max(
        sum(mnl_revenue(SubsetAction.from_indices(c, 4), schedule[t], prices)
            for t in range(10))
        for c in itertools.combinations(range(4), 2)
    )
    # the benchmark's total: what was played plus the regret against it
    played_total = sum(mnl_revenue(SubsetAction.from_indices(plays[t], 4), schedule[t], prices)
                       for t in range(10))
    assert played_total + inst_regret.sum() == pytest.approx(best_total, abs=1e-10)


def test_regret_nonnegative_on_hard_instance(mnl_hard_m2, mnl_link):
    adv = HardMixtureAdversary(mnl_hard_m2, mnl_link, (0, 1), 0.3,
                               n_arms=5, subset_size=2)
    rng = np.random.default_rng(33)
    learner = SubsetMab(5, 2, "exp3")
    hidden, played, _ = simulate(adv, learner, 2000, rng, np.random.default_rng(34),
                                 link=mnl_link)
    _, inst_regret = regret_of_run(hidden, played, link=mnl_link)
    assert inst_regret.sum() >= 0.0


def test_regret_requires_exactly_one_value_model():
    hidden, played = _fixed_run([0.1, 0.2], [(0,)])
    with pytest.raises(ValueError):
        regret_of_run(hidden, played)
    with pytest.raises(ValueError):
        regret_of_run(hidden, played, link=MnlLink(), prices=np.ones(2))


def test_regret_rejects_an_empty_or_ragged_run():
    hidden, played = _fixed_run([0.1, 0.2, 0.3], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="empty run"):
        regret_of_run(hidden[:0], played[:0], link=MnlLink())
    with pytest.raises(ValueError, match="rounds"):
        regret_of_run(hidden[:2], played, link=MnlLink())
    with pytest.raises(ValueError, match="rounds"):
        regret_of_run(hidden, played[:2], link=MnlLink())


@pytest.mark.parametrize("channel", ["bernoulli", "choice"])
def test_simulate_returns_the_run_columns(mnl_link, channel):
    # hidden values (T, N), played arms (T, K) and realized rewards (T,)
    adv = StochasticAdversary(np.array([0.1, 0.5, 0.9, 0.3, 0.7]))
    learner = SubsetMab(5, 2, "exp3")
    feedback = ({"link": mnl_link} if channel == "bernoulli"
                else {"prices": np.array([1.0, 0.5, 0.2, 0.8, 0.4])})
    hidden, played, rewards = simulate(adv, learner, 40, np.random.default_rng(5),
                                       np.random.default_rng(6), **feedback)
    assert hidden.shape == (40, 5) and hidden.dtype == np.float64
    assert played.shape == (40, 2) and played.dtype == np.int64
    assert rewards.shape == (40,) and rewards.dtype == np.float64
    assert np.all(hidden == adv.values)
    assert np.all(played[:, 0] < played[:, 1])
    allowed = [0.0, 1.0] if channel == "bernoulli" else [0.0, *feedback["prices"]]
    assert np.all(np.isin(rewards, allowed))


def test_simulate_needs_a_learner_stream(mnl_link):
    # the learner never draws from the environment stream
    adv = StochasticAdversary(np.array([0.1, 0.5, 0.9]))
    with pytest.raises(TypeError):
        simulate(adv, SubsetMab(3, 2, "exp3"), 5, np.random.default_rng(0), link=mnl_link)


# ---------------------------------------------------------------------------
# Scaling statistics
# ---------------------------------------------------------------------------

def test_slope_exact_power_law():
    horizons = np.array([1e3, 1e4, 1e5])
    slope, intercept, r2 = slope_estimate(horizons, 3.0 * horizons ** 0.5)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert r2 == pytest.approx(1.0)


def test_slope_linear_growth():
    horizons = np.array([10.0, 100.0, 1000.0, 10000.0])
    slope, _, _ = slope_estimate(horizons, 0.25 * horizons)
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_slope_drops_nonpositive_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        slope, _, _ = slope_estimate([10.0, 100.0, 1000.0], [1.0, -1.0, 10.0])
    assert any("nonpositive" in str(w.message) for w in caught)
    assert slope == pytest.approx(0.5, abs=1e-12)


def test_slope_validates():
    with pytest.raises(ValueError):
        slope_estimate([10.0, 100.0], [1.0, 2.0])
    with pytest.warns(UserWarning), pytest.raises(ValueError):
        slope_estimate([10.0, 100.0, 1000.0], [-1.0, -2.0, 3.0])
