"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy simulation criteria (5 and 7) take a few minutes; run the suite
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""
import itertools
import math
import time

import numpy as np
from nonlinbandit import (
    Exp2,
    ExperimentConfig,
    HardMixtureAdversary,
    MnlLink,
    PolynomialLink,
    SubsetAction,
    bernoulli_kl,
    categorical_kl,
    expected_reward,
    find_hard_instance,
    identity_battery,
    kl_coefficient,
    lift_reward_vector,
    mixture_mean_reward,
    mnl_mixture_choice_law,
    mnl_sample_choice,
    run_sweep,
    slope_estimate,
    tensor_features,
    tv_distance,
)


def _report(number: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Alternating-identity battery
# ---------------------------------------------------------------------------

def test_criterion_1_identity_battery():
    summary = identity_battery(trials=500, seed=0)
    ok = (summary["max_low_degree_residual"] <= 1e-9
          and summary["counterexample_fraction"] >= 0.95
          and summary["elapsed_s"] < 5.0)
    _report(1, ok,
            f"max residual {summary['max_low_degree_residual']:.2e}, "
            f"counterexamples {summary['counterexample_fraction']:.1%}, "
            f"{summary['elapsed_s']:.2f}s")


# ---------------------------------------------------------------------------
# 2. Hard-instance dichotomy
# ---------------------------------------------------------------------------

def test_criterion_2_dichotomy():
    g = MnlLink()
    rng = np.random.default_rng(0)
    details = []
    ok = True
    for m in (2, 3):
        start = time.perf_counter()
        inst = find_hard_instance(g, m=m, b=m, grid_step=1 / 50)
        elapsed = time.perf_counter() - start
        resid = float(np.max(np.abs(inst.residuals))) if inst.residuals.size else 0.0
        ok &= inst.gamma > 0 and resid <= 1e-8 and elapsed < 60.0
        details.append(f"mnl m={m}: gamma={inst.gamma:.4f} ({elapsed:.1f}s)")

        # degree-(m-1) links admit no gap
        start = time.perf_counter()
        lin = find_hard_instance(PolynomialLink([0.0, 0.3]), m=m, b=m, grid_step=1 / 50)
        ok &= lin.gamma <= 1e-8 and time.perf_counter() - start < 60.0
        while True:
            coeffs = rng.uniform(-1, 1, size=m)
            raw = PolynomialLink(coeffs)
            ys = raw(np.linspace(0, m, 201))
            if ys.max() - ys.min() > 0.1 and abs(coeffs[-1]) > 0.1:
                break
        scale = 0.9 / (ys.max() - ys.min())
        mapped = [scale * c for c in coeffs]
        mapped[0] += 0.05 - scale * ys.min()
        start = time.perf_counter()
        poly = find_hard_instance(PolynomialLink(mapped), m=m, b=m, grid_step=1 / 50)
        ok &= poly.gamma <= 1e-8 and time.perf_counter() - start < 60.0
        details.append(f"poly m={m}: gammas {lin.gamma:.1e}/{poly.gamma:.1e}")
    _report(2, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. Exact indistinguishability
# ---------------------------------------------------------------------------

def test_criterion_3_indistinguishability(mnl_hard_m2, mnl_link):
    inst = mnl_hard_m2
    delta, n_arms, k = 0.3, 5, 2
    planted = (0, 1)
    base = inst.baseline(mnl_link)
    x0 = inst.x0

    worst_mean = 0.0
    for combo in itertools.combinations(range(n_arms), k):
        if combo == planted:
            continue
        overlap = len(set(combo) & set(planted))
        mean = mixture_mean_reward(inst, mnl_link, delta, overlap)
        worst_mean = max(worst_mean, abs(mean - base))
    ok = worst_mean <= 1e-9

    worst_law = 0.0
    for overlap in (0, 1):
        law = mnl_mixture_choice_law(inst, delta, overlap, subset_size=k)
        worst_law = max(worst_law, abs(law.no_purchase - 1 / (1 + k * x0)))
        worst_law = max(worst_law, abs(law.other_item - x0 / (1 + k * x0)))
        if overlap:
            worst_law = max(worst_law, abs(law.planted_item - x0 / (1 + k * x0)))
    ok &= worst_law <= 1e-9

    # Monte Carlo agreement at 1e5 draws, 3 sigma
    adv = HardMixtureAdversary(inst, mnl_link, planted, delta,
                               n_arms=n_arms, subset_size=k)
    rng = np.random.default_rng(0)
    offered = SubsetAction.from_indices((1, 2), n_arms)  # overlap 1
    draws = 100_000
    rewards = np.empty(draws)
    choices = {-1: 0, 1: 0, 2: 0}
    for t in range(draws):
        v = adv.reward_vector(t + 1, rng)
        rewards[t] = expected_reward(offered, v, mnl_link)
        choices[mnl_sample_choice(offered, v, rng)] += 1
    sigma = rewards.std(ddof=1) / math.sqrt(draws)
    mc_mean_err = abs(rewards.mean() - base)
    ok &= mc_mean_err <= 3 * max(sigma, 1e-12)
    law = mnl_mixture_choice_law(inst, delta, overlap=1, subset_size=k)
    mc_law_err = 0.0
    for key, prob in ((-1, law.no_purchase), (1, law.planted_item),
                      (2, law.other_item)):
        freq = choices[key] / draws
        sig = math.sqrt(prob * (1 - prob) / draws)
        ok &= abs(freq - prob) <= 3 * sig
        mc_law_err = max(mc_law_err, abs(freq - prob))
    _report(3, ok,
            f"analytic mean err {worst_mean:.1e}, law err {worst_law:.1e}, "
            f"MC mean err {mc_mean_err:.1e}, MC law err {mc_law_err:.1e}")


# ---------------------------------------------------------------------------
# 4. Estimator unbiasedness and lift identity
# ---------------------------------------------------------------------------

def test_criterion_4_estimator_unbiasedness():
    rng = np.random.default_rng(4)
    polys = {1: PolynomialLink([0.1, 0.3]), 2: PolynomialLink([0.05, 0.1, 0.08])}
    worst_est = 0.0
    for n_arms in (2, 3, 4):
        for k in (1, 2):
            if k > n_arms:
                continue
            for order in (1, 2):
                learner = Exp2(n_arms, k, order, horizon=100)
                learner.estimates[0] = rng.uniform(-1, 1, size=learner.n_actions)
                probs = learner.sampling_distribution()
                v = rng.uniform(0, 1, size=n_arms)
                link = polys[order]
                lifted = lift_reward_vector(v, link, subset_size=k, order=order)
                means = learner.features @ lifted
                assert np.all((means >= 0) & (means <= 1))
                expect = np.zeros(learner.n_actions)
                for rank in range(learner.n_actions):
                    expect += probs[rank] * means[rank] * learner.estimate_rewards(
                        rank, 1.0, probs)
                worst_est = max(worst_est, float(np.max(np.abs(expect - means))))
    ok = worst_est <= 1e-10

    worst_lift = 0.0
    link = PolynomialLink([0.0, -1.0, 1.0])  # x**2 - x
    for _ in range(100):
        v = rng.uniform(0, 1, size=4)
        lifted = lift_reward_vector(v, link, subset_size=2, order=2)
        for combo in itertools.combinations(range(4), 2):
            s = SubsetAction.from_indices(combo, 4)
            lhs = float(tensor_features(s, 4, 2) @ lifted)
            rhs = float(link(float(v[list(combo)].sum())))
            worst_lift = max(worst_lift, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok &= worst_lift <= 1e-10
    _report(4, ok, f"estimator err {worst_est:.1e}, lift err {worst_lift:.1e}")


# ---------------------------------------------------------------------------
# 5. sqrt(T) scaling of the subset-arm learners
# ---------------------------------------------------------------------------

def test_criterion_5_sqrt_t_scaling(mnl_hard_m2):
    start = time.perf_counter()
    t_grid = [1000, 3162, 10000, 31623, 100000]
    config = ExperimentConfig.from_dict({
        "dims": {"N": 5, "K": 2, "T": t_grid[-1], "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "hard_nonpoly",
                       "instance": mnl_hard_m2.to_json_dict(),
                       "s_star": [0, 1], "delta": "auto"},
        "algorithms": [{"name": "exp3", "params": {}},
                        {"name": "tsallis_inf", "params": {}}],
        "replications": 20,
        "base_seed": 0,
        "t_grid": t_grid,
    })
    rows = run_sweep(config)
    elapsed = time.perf_counter() - start
    means = {}
    slopes = {}
    for algo in ("exp3", "tsallis_inf"):
        algo_rows = [r for r in rows if r["algo"] == algo]
        regrets = [r["mean_regret"] for r in algo_rows]
        means[algo] = dict(zip((r["T"] for r in algo_rows), regrets))
        slopes[algo], _, _ = slope_estimate(t_grid, regrets)
    ok = all(0.4 <= slopes[a] <= 0.6 for a in slopes)
    ok &= means["tsallis_inf"][100000] <= means["exp3"][100000]
    ok &= elapsed < 600.0
    _report(5, ok,
            f"slopes exp3 {slopes['exp3']:.3f} / tsallis {slopes['tsallis_inf']:.3f}, "
            f"final means {means['exp3'][100000]:.1f} vs "
            f"{means['tsallis_inf'][100000]:.1f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Regret grows with the number of subset arms
# ---------------------------------------------------------------------------

def test_criterion_6_arm_count_scaling(mnl_hard_m2):
    horizon = 31623  # 10 ** 4.5
    means = []
    counts = []
    for n_arms in (4, 6, 8):
        config = ExperimentConfig.from_dict({
            "dims": {"N": n_arms, "K": 2, "T": horizon, "d": None},
            "link": {"kind": "mnl"},
            "adversary": {"kind": "hard_nonpoly",
                           "instance": mnl_hard_m2.to_json_dict(),
                           "s_star": [0, 1], "delta": "auto"},
            "algorithms": [{"name": "exp3", "params": {}}],
            "replications": 10,
            "base_seed": 100,
        })
        rows = run_sweep(config)
        means.append(rows[0]["mean_regret"])
        counts.append(math.comb(n_arms, 2))
    ok = means[0] <= means[1] <= means[2]
    bounds = [10 * math.sqrt(c * horizon) for c in counts]
    ok &= all(m <= b for m, b in zip(means, bounds))
    _report(6, ok,
            "mean regrets " + " <= ".join(f"{m:.1f}" for m in means)
            + f", bounds {[round(b) for b in bounds]}")


# ---------------------------------------------------------------------------
# 7. Tensorized learner beats the subset-arm reduction on a linear link
# ---------------------------------------------------------------------------

def test_criterion_7_linear_case_separation():
    start = time.perf_counter()
    config = ExperimentConfig.from_dict({
        "dims": {"N": 8, "K": 3, "T": 100000, "d": 1},
        "link": {"kind": "polynomial", "coefficients": [0.0, 1 / 3]},
        "adversary": {"kind": "stochastic",
                       "v": list(np.linspace(0.15, 0.85, 8))},
        "algorithms": [
            {"name": "exp2", "params": {"gamma_mix": 0.02, "eta": 0.01}},
            {"name": "exp3", "params": {}},
        ],
        "replications": 20,
        "base_seed": 0,
    })
    rows = run_sweep(config)
    elapsed = time.perf_counter() - start
    mean = {r["algo"]: r["mean_regret"] for r in rows}
    ok = mean["exp2"] <= 0.5 * mean["exp3"]
    _report(7, ok,
            f"exp2 {mean['exp2']:.1f} vs exp3 {mean['exp3']:.1f} "
            f"(ratio {mean['exp2'] / mean['exp3']:.2f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Information diagnostics
# ---------------------------------------------------------------------------

def test_criterion_8_diagnostics(mnl_hard_m2, mnl_link):
    rng = np.random.default_rng(8)
    ok = True
    worst_pinsker = -np.inf
    for _ in range(1000):
        if rng.random() < 0.5:
            p, q = rng.uniform(0.001, 0.999, size=2)
            tv, kl = tv_distance(p, q), bernoulli_kl(p, q)
        else:
            size = int(rng.integers(2, 6))
            pv = rng.dirichlet(np.ones(size))
            qv = rng.dirichlet(np.ones(size))
            tv, kl = tv_distance(pv, qv), categorical_kl(pv, qv)
        slack = math.sqrt(kl / 2) - tv
        worst_pinsker = max(worst_pinsker, -slack)
        ok &= slack >= -1e-12

    coeff = kl_coefficient(mnl_hard_m2, mnl_link)
    q0 = mnl_hard_m2.baseline(mnl_link)
    worst_kl = -np.inf
    for delta in np.arange(0.01, 0.51, 0.01):
        kl = bernoulli_kl(q0, q0 + delta * mnl_hard_m2.gamma)
        margin = (coeff * delta) ** 2 - kl
        worst_kl = max(worst_kl, -margin)
        ok &= margin >= -1e-15
    _report(8, ok,
            f"pinsker slack >= {-worst_pinsker:.1e}, "
            f"kl bound margin >= {-worst_kl:.1e}, Gamma={coeff:.3f}")
