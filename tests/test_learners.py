import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonlinbandit import (
    CapExceededError,
    ConstantPolicy,
    Exp2,
    PolynomialLink,
    SubsetAction,
    SubsetMab,
    kw_optimal_design,
    lift_reward_vector,
    tsallis_distribution,
    tsallis_rows,
    unrank_subset,
)
from nonlinbandit import core, learners


# ---------------------------------------------------------------------------
# Subset multi-armed learners
# ---------------------------------------------------------------------------

def test_initial_distribution_uniform():
    for algo in ("exp3", "tsallis_inf"):
        learner = SubsetMab(5, 2, algo)
        assert np.allclose(learner.sampling_distribution(), 1 / 10)


def test_exp3_hand_update():
    learner = SubsetMab(2, 1, "exp3")
    arm0 = SubsetAction.from_rank(0, 2, 1)
    arm1 = SubsetAction.from_rank(1, 2, 1)
    learner.update(arm0, 1.0)  # full reward: zero estimated loss, no change
    assert np.allclose(learner.sampling_distribution(), 0.5)
    learner.update(arm1, 0.0)  # zero reward: loss 1 / 0.5 = 2 on arm 1
    assert np.allclose(learner.losses, [0.0, 2.0])
    eta = math.sqrt(math.log(2) / (2 * 3))
    expected_p0 = 1.0 / (1.0 + math.exp(-2 * eta))
    p = learner.sampling_distribution()
    assert p[0] == pytest.approx(expected_p0, abs=1e-12)
    assert p[0] > 0.5  # the rewarded arm now dominates
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_exp3_mixing_floor():
    learner = SubsetMab(2, 1, "exp3", mixing=0.2)
    arm1 = SubsetAction.from_rank(1, 2, 1)
    for _ in range(50):
        learner.update(arm1, 0.0)
    assert learner.sampling_distribution().min() >= 0.1 - 1e-12


def test_tsallis_inf_rejects_mixing():
    # Tsallis-INF has no mixing step, so a nonzero mixing would be ignored
    with pytest.raises(ValueError, match="tsallis_inf takes no mixing"):
        SubsetMab(5, 2, "tsallis_inf", mixing=0.1)
    assert SubsetMab(5, 2, "tsallis_inf", mixing=0.0).mixing == 0.0


def test_tsallis_equal_losses_uniform():
    learner = SubsetMab(4, 2, "tsallis_inf")
    learner.losses[:] = 3.7
    assert np.allclose(learner.sampling_distribution(), 1 / 6, atol=1e-12)


def test_tsallis_normalization_residual(rng):
    for _ in range(50):
        losses = rng.uniform(0, 50, size=rng.integers(2, 12))
        eta = rng.uniform(0.05, 2.0)
        w = tsallis_distribution(losses, eta)
        assert abs(w.sum() - 1.0) <= 1e-10
        assert np.all(w > 0)


@st.composite
def _loss_batches(draw):
    """(R, A) cumulative losses whose rows sit at scales from 1e-3 to 1e7 in
    one batch, plus a learning rate and one loss increment per row."""
    n_rows = draw(st.integers(1, 6))
    n_arms = draw(st.integers(2, 12))
    exponents = draw(st.lists(st.floats(-3.0, 7.0), min_size=n_rows, max_size=n_rows))
    if n_rows > 1:
        exponents[0], exponents[-1] = -3.0, 7.0
    spreads = draw(st.lists(st.floats(0.0, 1.0), min_size=n_rows * n_arms,
                            max_size=n_rows * n_arms))
    losses = (10.0 ** np.array(exponents))[:, None] * (
        1.0 + np.array(spreads).reshape(n_rows, n_arms))
    eta = draw(st.floats(1e-3, 2.0))
    bumps = draw(st.lists(st.floats(0.0, 1e3), min_size=n_rows, max_size=n_rows))
    return losses, eta, np.array(bumps)


@settings(max_examples=80, deadline=None)
@given(_loss_batches())
def test_tsallis_rows_batch_matches_solo_and_reference(batch):
    losses, eta, bumps = batch
    cold, starts = tsallis_rows(losses, eta)
    # the next round: one arm's loss grows, the rate shrinks, warm start
    nxt = losses.copy()
    nxt[:, 0] += bumps
    warm, _ = tsallis_rows(nxt, 0.99 * eta, start=starts)
    for row in range(losses.shape[0]):
        solo_cold, solo_start = tsallis_rows(losses[row:row + 1], eta)
        assert np.array_equal(solo_cold[0], cold[row])
        assert solo_start[0] == starts[row]
        solo_warm, _ = tsallis_rows(nxt[row:row + 1], 0.99 * eta, start=solo_start)
        assert np.array_equal(solo_warm[0], warm[row])
        for got, cum, rate in ((cold[row], losses[row], eta),
                               (warm[row], nxt[row], 0.99 * eta)):
            ref = tsallis_distribution(cum, rate)
            assert np.abs(got - ref / ref.sum()).max() <= 1e-12
            assert abs(got.sum() - 1.0) <= 1e-12


def test_tsallis_rows_raises_without_convergence(monkeypatch):
    monkeypatch.setattr(learners, "TSALLIS_MAX_ITERS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        tsallis_rows(np.array([[0.0, 1.0, 5.0]]), 0.5)


def test_tsallis_prefers_low_loss():
    w = tsallis_distribution(np.array([0.0, 5.0, 10.0]), eta=0.5)
    assert w[0] > w[1] > w[2]


def test_distributions_stay_valid_under_random_updates(rng):
    for algo in ("exp3", "tsallis_inf"):
        learner = SubsetMab(5, 2, algo)
        for _ in range(2500):
            action = learner.select(rng)
            learner.update(action, float(rng.integers(0, 2)))
            p = learner.sampling_distribution()
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0)


def test_loss_estimates_unbiased_exhaustive(rng):
    # E over (arm draw, Bernoulli feedback) of the applied estimate equals the
    # true expected loss vector, for every arm of a small instance.
    for algo in ("exp3", "tsallis_inf"):
        learner = SubsetMab(4, 2, algo)  # 6 arms
        # push the state off uniform first
        for _ in range(20):
            action = learner.select(rng)
            learner.update(action, float(rng.integers(0, 2)))
        base = learner.losses[0].copy()
        p = learner.sampling_distribution()
        means = rng.uniform(0.1, 0.9, size=6)
        expected_estimate = np.zeros(6)
        for arm in range(6):
            for reward in (0.0, 1.0):
                prob_r = means[arm] if reward == 1.0 else 1.0 - means[arm]
                probe = SubsetMab(4, 2, algo)
                probe.losses[0] = base
                probe.rounds = learner.rounds
                probe.update(SubsetAction.from_rank(arm, 4, 2), reward)
                expected_estimate += p[arm] * prob_r * (probe.losses[0] - base)
        assert np.allclose(expected_estimate, 1.0 - means, atol=1e-10)


def test_exp3_at_underflow_scale():
    # Cumulative losses spread to 1e9 at t ~ 1e7: exp(-eta (L - min L))
    # underflows to exact zeros on the far ranks, and the mass of the near
    # ranks can add up to just below 1.  Row 0 keeps its zero ranks last.
    rng = np.random.default_rng(31)
    edges = [0.0, 0.5, np.nextafter(1.0, 0.0)]
    for _ in range(20):
        losses = np.concatenate([rng.uniform(0.0, 3e6, size=(2, 6)),
                                 rng.uniform(1e8, 1e9, size=(2, 4))], axis=1)
        losses[1] = rng.permutation(losses[1])
        batch = SubsetMab(5, 2, "exp3", replications=2)
        solos = [SubsetMab(5, 2, "exp3") for _ in range(2)]
        for learner, cum in ((batch, losses), (solos[0], losses[0]), (solos[1], losses[1])):
            learner.rounds = 10**7
            learner.losses[:] = cum
        p = batch.sampling_distribution()
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((p == 0).sum(axis=1) == 4)
        # every cumulative boundary, the float below it and the extremes
        cum = np.add.accumulate(p, axis=1).ravel()
        for u in np.concatenate([edges, cum, np.nextafter(cum, 0.0)]):
            if u < 1.0:
                ranks = batch.select_ranks(np.full(2, u))
                assert np.all(p[[0, 1], ranks] > 0), u
        picks = rng.random(2)
        ranks = batch.select_ranks(picks)
        rewards = rng.integers(0, 2, size=2).astype(float)
        batch.update_ranks(ranks, rewards)
        assert np.all(np.isfinite(batch.losses))
        for row, solo in enumerate(solos):
            assert np.array_equal(solo.sampling_distribution(), p[row])
            assert solo.select_ranks(picks[row:row + 1])[0] == ranks[row]
            solo.update_ranks(ranks[row:row + 1], rewards[row:row + 1])
            assert np.array_equal(solo.losses[0], batch.losses[row])


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@st.composite
def _rows_and_uniforms(draw):
    """Rows of 2..6 probabilities that sum to about 1, some with trailing
    zeros or a last entry far below an ulp of 1, and a uniform per row that
    is often the largest float below 1."""
    width = draw(st.integers(2, 6))
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 2.0**-60, 2.0**-53]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        weights = np.array(draw(st.lists(entry, min_size=width, max_size=width)))
        if weights.sum() == 0:
            weights[0] = 1.0
        rows.append(weights / weights.sum())
    uniforms = draw(st.lists(st.one_of(st.just(_BELOW_ONE), st.floats(0.0, _BELOW_ONE)),
                             min_size=len(rows), max_size=len(rows)))
    return np.array(rows), np.array(uniforms)


@settings(max_examples=300, deadline=None)
@example(case=(np.array([[0.3, 0.7 - 2.0**-53, 2.0**-60], [0.5, 0.5, 0.0]]),
               np.full(2, _BELOW_ONE)))
@given(_rows_and_uniforms())
def test_each_row_draws_the_same_alone_and_in_a_batch(case):
    # the slack rule reads each row's own last probability, never its siblings'
    probs, uniforms = case
    ranks = learners._sample_ranks(probs, uniforms)
    for row in range(len(probs)):
        alone = learners._sample_ranks(probs[row:row + 1], uniforms[row:row + 1])
        assert alone[0] == ranks[row]
        assert probs[row, ranks[row]] > 0


def _searchsorted_ranks(probs, uniforms):
    # the documented definition, one row at a time: the slack rule, then the
    # number of cumulative probabilities at or below the uniform
    ranks = []
    for row, u in zip(probs, uniforms):
        cum = np.add.accumulate(row)
        if row[-1] == 0:
            cum[cum >= cum[-1]] = 1.0
        cum[-1] = 1.0
        ranks.append(np.searchsorted(cum, u, side="right"))
    return np.array(ranks)


@settings(max_examples=300, deadline=None)
@example(case=(np.array([[0.3, 0.7 - 2.0**-53, 2.0**-60], [0.5, 0.5, 0.0]]),
               np.full(2, _BELOW_ONE)))
@example(case=(np.array([[0.25, 0.25, 0.5, 0.0]]), np.array([0.5])))
@given(_rows_and_uniforms())
def test_sample_ranks_match_searchsorted_definition(case):
    probs, uniforms = case
    assert np.array_equal(learners._sample_ranks(probs, uniforms),
                          _searchsorted_ranks(probs, uniforms))


def test_update_rejects_bad_reward():
    learner = SubsetMab(3, 1, "exp3")
    with pytest.raises(ValueError):
        learner.update(SubsetAction.from_rank(0, 3, 1), 1.5)


# ---------------------------------------------------------------------------
# Optimal design
# ---------------------------------------------------------------------------

def test_design_standard_basis_uniform():
    design = kw_optimal_design(np.eye(5))
    assert design.certified
    assert np.allclose(design.weights, 0.2)
    assert design.max_leverage == pytest.approx(5.0)


def test_design_duplicate_actions():
    feats = np.vstack([np.eye(3), np.eye(3)])
    design = kw_optimal_design(feats)
    assert design.certified
    assert design.max_leverage <= 1.05 * 3
    # per-direction mass matches the unduplicated optimum
    merged = design.weights[:3] + design.weights[3:]
    assert np.allclose(merged, 1 / 3, atol=1e-9)


def test_design_random_features_certificate(rng):
    feats = rng.normal(size=(10, 4))
    design = kw_optimal_design(feats, eps=0.05)
    assert design.certified
    assert design.max_leverage <= 1.05 * 4
    # sanity floor: random designs cannot beat the minimax value
    best_random = np.inf
    for _ in range(10_000):
        pi = rng.dirichlet(np.ones(10))
        moment = feats.T @ (pi[:, None] * feats)
        lev = np.einsum("ij,jk,ik->i", feats, np.linalg.pinv(moment), feats)
        best_random = min(best_random, float(lev.max()))
    assert design.max_leverage <= best_random + 1e-6


def test_design_rank_deficient(rng):
    feats = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    design = kw_optimal_design(feats)
    assert design.certified
    assert design.max_leverage <= 1.05 * 1


def test_design_not_certified_flag():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(30, 6))
    design = kw_optimal_design(feats, eps=1e-9, max_iters=3)
    assert not design.certified


# ---------------------------------------------------------------------------
# Tensorized exponential weights
# ---------------------------------------------------------------------------

def test_exp2_single_arm_actions_are_diagonal(rng):
    learner = Exp2(4, 1, 1, horizon=100)
    assert np.allclose(learner.features, np.eye(4))
    p = learner.sampling_distribution()
    inv = learner.second_moment_pinv(p)
    assert np.allclose(inv, np.diag(1.0 / p), atol=1e-9)
    est = learner.estimate_rewards(2, 1.0, p)
    expected = np.zeros(4)
    expected[2] = 1.0 / p[2]
    assert np.allclose(est, expected, atol=1e-9)


@pytest.mark.parametrize("n_arms,subset_size,order",
                         [(4, 1, 1), (5, 2, 2), (7, 3, 2), (6, 5, 2), (6, 3, 3), (3, 3, 2)])
def test_exp2_inclusion_matrix(n_arms, subset_size, order):
    # W[S, T] = 1[T subset of S] over the size-d' subsets T in colex order,
    # d' = min(d, K, N - K); it has full column rank and spans the same space
    # as the tensor features (a single column of ones at K = N, where d' = 0)
    learner = Exp2(n_arms, subset_size, order, horizon=100)
    level = min(order, subset_size, n_arms - subset_size)
    columns = sorted(itertools.combinations(range(n_arms), level), key=lambda t: t[::-1])
    rows = [set(unrank_subset(r, n_arms, subset_size)) for r in range(learner.n_actions)]
    expected = np.array([[float(set(t) <= row) for t in columns] for row in rows])
    assert np.array_equal(learner.inclusion, expected)
    features = learner.features
    rank = np.linalg.matrix_rank(features)
    assert np.linalg.matrix_rank(expected) == expected.shape[1] == rank
    assert np.linalg.matrix_rank(np.hstack([features, expected])) == rank


@pytest.mark.parametrize("kwargs,message", [
    ({"order": 0}, "order"), ({"horizon": 0}, "horizon"),
    ({"gamma_mix": 0.0}, "gamma_mix"), ({"gamma_mix": -0.1}, "gamma_mix"),
    ({"gamma_mix": 1.5}, "gamma_mix"), ({"eta": 0.0}, "eta"), ({"eta": -1.0}, "eta"),
])
def test_exp2_rejects_bad_arguments(kwargs, message):
    # order 0 must not fall through to a W with d' = 0, a column of ones
    with pytest.raises(ValueError, match=message):
        Exp2(**{"n_arms": 5, "subset_size": 2, "order": 1, "horizon": 100, **kwargs})


def test_exp2_cap_counts_the_inclusion_matrix(monkeypatch):
    # at (6, 5, 2), d' = min(2, 5, 1) = 1: W is 6 x C(6, 1), not 6 x 6**2
    size = 6 * math.comb(6, 1)
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", size - 1)
    with pytest.raises(CapExceededError):
        Exp2(6, 5, 2, horizon=100)
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", size)
    assert Exp2(6, 5, 2, horizon=100).inclusion.shape == (6, 6)


_PINV_KEYS = [(4, 1, 1), (5, 2, 2), (7, 3, 2), (8, 3, 1), (6, 3, 3), (6, 5, 2)]


@pytest.mark.parametrize("n_arms,subset_size,order", _PINV_KEYS)
def test_exp2_span_solve_matches_pinv_reference(n_arms, subset_size, order):
    # the per-round estimate W (W'PW)^-1 W' e_S r must equal the
    # pseudo-inverse reference F M(p)^+ F' e_S r for every played rank
    learner = Exp2(n_arms, subset_size, order, horizon=1000)
    n_actions = learner.n_actions
    rng = np.random.default_rng(n_arms * 100 + subset_size * 10 + order)
    concentrated = np.zeros(n_actions)
    concentrated[n_actions // 2] = 1.0
    dists = [rng.dirichlet(np.ones(n_actions))]
    dists += [(1 - gamma) * concentrated + gamma / n_actions for gamma in (1e-6, 0.02)]
    inclusion = learner.inclusion
    gram_floor = np.linalg.eigvalsh(inclusion.T @ inclusion)[0]
    eps = np.finfo(float).eps
    for p in dists:
        assert p.min() >= 1e-8  # the reference pinv (rcond 1e-10) does not truncate
        # eigvalsh is accurate to about eps * lambda_max in absolute terms
        eigs = np.linalg.eigvalsh(inclusion.T @ (p[:, None] * inclusion))
        assert eigs[0] >= p.min() * gram_floor * (1 - 1e-9) - 8 * eps * eigs[-1]
        # W'PW has condition number of order 1 / min(p), so both paths carry
        # roundoff up to about eps / min(p) relative to the largest estimate;
        # above min(p) ~ 2e-5 the 1e-10 floor is the binding tolerance
        rtol = 1e-10 + 8 * eps / p.min()
        pinv = learner.second_moment_pinv(p)
        for rank in range(n_actions):
            reference = learner.features @ pinv @ learner.features[rank] * 0.7
            fast = learner.estimate_rewards(rank, 0.7, p)
            assert np.abs(fast - reference).max() <= rtol * np.abs(reference).max()


@st.composite
def _tiny_floor_distributions(draw):
    n_arms, subset_size, order = draw(st.sampled_from(_PINV_KEYS))
    n_actions = math.comb(n_arms, subset_size)
    floor = min(10.0 ** draw(st.floats(-9.0, -0.5)), 1.0 / n_actions)
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_actions,
                                     max_size=n_actions)))
    if weights.sum() == 0:
        weights[:] = 1.0
    probs = floor + (1.0 - n_actions * floor) * weights / weights.sum()
    return (n_arms, subset_size, order), probs


@settings(max_examples=60, deadline=None)
@given(_tiny_floor_distributions())
def test_exp2_estimate_matches_pinv_with_mixing_near_zero(case):
    # gamma_mix near 0 leaves min(p) as small as 1e-9: both paths then carry
    # roundoff of order eps / min(p) relative to the largest estimate
    key, probs = case
    learner = Exp2(*key, horizon=1000)
    features = learner.features
    reference = features @ learner.second_moment_pinv(probs) @ features.T * 0.7
    rtol = 1e-10 + 8 * np.finfo(float).eps / probs.min()
    for rank in range(learner.n_actions):
        fast = learner.estimate_rewards(rank, 0.7, probs)
        assert np.abs(fast - reference[:, rank]).max() <= rtol * np.abs(reference[:, rank]).max()


@pytest.mark.parametrize("n_arms,subset_size,order",
                         [(5, 2, 2), (8, 3, 1), (7, 3, 2), (6, 3, 3), (6, 5, 2), (12, 4, 2)])
def test_uniform_design_is_optimal(n_arms, subset_size, order):
    # EXP2 explores uniformly: for the full family of size-K subsets every
    # leverage of the uniform design equals the feature rank (the KW
    # optimum), also at (6, 5, 2), where min(d, K, N - K) < d; leverages do
    # not depend on the basis of the feature span, so W gives them
    learner = Exp2(n_arms, subset_size, order, horizon=1000)
    inclusion = learner.inclusion
    n_actions, rank = inclusion.shape
    assert rank == np.linalg.matrix_rank(learner.features)
    uniform = np.full(n_actions, 1.0 / n_actions)
    gram = inclusion.T @ (uniform[:, None] * inclusion)
    leverages = np.einsum("ij,jk,ik->i", inclusion, np.linalg.inv(gram), inclusion)
    assert np.abs(leverages - rank).max() <= 1e-12 * rank
    design = kw_optimal_design(learner.features)
    assert design.certified and design.iterations == 1
    assert np.array_equal(design.weights, uniform)


def test_batched_learners_match_solo_rows():
    # R rows stepped together equal R learners stepped alone, bit for bit
    rng = np.random.default_rng(9)
    builders = {
        "exp3": lambda reps: SubsetMab(5, 2, "exp3", mixing=0.1, replications=reps),
        "tsallis_inf": lambda reps: SubsetMab(5, 2, "tsallis_inf", replications=reps),
        "exp2": lambda reps: Exp2(5, 2, 2, horizon=200, replications=reps),
    }
    for name, build in builders.items():
        batch = build(4)
        solos = [build(1) for _ in range(4)]
        for _ in range(200):
            picks = rng.random(4)
            ranks = batch.select_ranks(picks)
            rewards = rng.integers(0, 2, size=4).astype(float)
            for row, solo in enumerate(solos):
                assert solo.select_ranks(picks[row:row + 1])[0] == ranks[row], name
                solo.update_ranks(ranks[row:row + 1], rewards[row:row + 1])
            batch.update_ranks(ranks, rewards)
        state = batch.losses if name != "exp2" else batch.estimates
        for row, solo in enumerate(solos):
            solo_state = solo.losses if name != "exp2" else solo.estimates
            assert np.array_equal(state[row], solo_state[0]), name
        with pytest.raises(ValueError):
            batch.select(rng)



def test_kept_rows_step_on_like_solo_rows():
    # keep_rows between rounds drops replications (the Tsallis warm starts
    # and EXP2's per-row rates with them); the rows kept step on with the
    # bits they have alone
    rng = np.random.default_rng(12)
    horizons = np.array([40, 300, 90, 300])
    builders = {
        "exp3": lambda h: SubsetMab(5, 2, "exp3", replications=np.size(h)),
        "tsallis_inf": lambda h: SubsetMab(5, 2, "tsallis_inf", replications=np.size(h)),
        "exp2": lambda h: Exp2(5, 2, 1, horizon=h, replications=np.size(h)),
    }
    for name, build in builders.items():
        batch = build(horizons)
        solos = [build(h) for h in horizons]
        live = np.arange(4)
        for t in range(120):
            if t == 60:
                batch.keep_rows(np.array([False, True, True, False]))
                live = live[[1, 2]]
            if t == 100:
                batch.keep_rows(np.array([1]))
                live = live[[1]]
            picks = rng.random(live.size)
            ranks = batch.select_ranks(picks)
            rewards = rng.integers(0, 2, size=live.size).astype(float)
            for row, solo in enumerate(solos[i] for i in live):
                assert solo.select_ranks(picks[row:row + 1])[0] == ranks[row], name
                solo.update_ranks(ranks[row:row + 1], rewards[row:row + 1])
            batch.update_ranks(ranks, rewards)
        assert batch.replications == 1, name
        assert np.array_equal(_state(batch)[0], _state(solos[2])[0]), name
    exp2 = builders["exp2"](horizons)
    assert np.array_equal(exp2.gamma_mix[:, 0], [Exp2(5, 2, 1, horizon=int(h)).gamma_mix
                                                 for h in horizons])


def _state(learner):
    return learner.estimates if isinstance(learner, Exp2) else learner.losses


@pytest.mark.parametrize("name", ["exp3", "tsallis_inf", "exp2"])
def test_state_written_between_rounds_is_read(name):
    # three ranks, uniform at the start: u = 0.5 plays rank 1 until the
    # written state puts most of the mass on rank 0
    learner = (Exp2(3, 2, 1, horizon=100, gamma_mix=0.1, eta=0.5) if name == "exp2"
               else SubsetMab(3, 1, name))
    assert np.allclose(learner.sampling_distribution(), 1 / 3)
    assert learner.select_ranks(np.array([0.5]))[0] == 1
    learner.update_ranks(np.array([1]), np.array([1.0]))
    before = learner.sampling_distribution()
    _state(learner)[0] = [50.0, 0.0, 0.0] if name == "exp2" else [0.0, 50.0, 50.0]
    after = learner.sampling_distribution()
    assert after[0] > 0.9 > before[0]
    assert learner.select_ranks(np.array([0.5]))[0] == 0


@pytest.mark.parametrize("name", ["exp3", "tsallis_inf", "exp2"])
def test_reading_the_distribution_changes_nothing(name):
    # Tsallis-INF warm-starts from the normalizers of the last completed
    # round, so a read inside or between rounds must not move that start
    def build():
        if name == "exp2":
            return Exp2(5, 2, 2, horizon=200, replications=3)
        return SubsetMab(5, 2, name, replications=3)

    rng = np.random.default_rng(13)
    means = rng.uniform(0.1, 0.9, size=10)
    read, quiet = build(), build()
    for _ in range(200):
        picks, coins = rng.random(3), rng.random(3)
        before = read.sampling_distribution()
        ranks = read.select_ranks(picks)
        assert np.array_equal(read.sampling_distribution(), before)
        assert np.array_equal(quiet.select_ranks(picks), ranks)
        rewards = (coins < means[ranks]).astype(float)
        read.update_ranks(ranks, rewards)
        quiet.update_ranks(ranks, rewards)
    assert np.array_equal(_state(read), _state(quiet))
    assert read.rounds == quiet.rounds == 200

def test_exp2_zero_rewards_stay_uniform(rng):
    learner = Exp2(3, 2, 1, horizon=50)
    for _ in range(20):
        action = learner.select(rng)
        learner.update(action, 0.0)
    assert np.allclose(learner.estimates, 0.0)
    q_part = learner.sampling_distribution() - learner.gamma_mix / learner.n_actions
    assert np.allclose(q_part, (1 - learner.gamma_mix) / 3, atol=1e-12)


class _Exp2AllRows(Exp2):
    """EXP2 that solves every row of a round, whatever its reward."""

    def _observe(self, ranks, rewards, probs):
        self.estimates += self._estimate_rows(ranks, rewards, probs)


def test_exp2_skipping_zero_rewards_keeps_every_bit():
    # a zero reward adds an estimate of exactly zero, so solving only the
    # rows that saw a reward leaves the same estimates and draws as solving
    # all of them: 0/1 rewards and prices with 0 among them, one rate per
    # row, rows retired between rounds
    rng = np.random.default_rng(23)
    horizons = np.array([60, 400, 150, 400, 90])
    eta = np.array([0.02, 0.05, 0.01, 0.08, 0.03])
    prices = np.array([0.0, 0.35, 0.8, 1.0])
    skip = Exp2(6, 3, 2, horizon=horizons, eta=eta, replications=5)
    full = _Exp2AllRows(6, 3, 2, horizon=horizons, eta=eta, replications=5)
    mixed = silent = 0
    for t in range(160):
        if t == 70:
            for learner in (skip, full):
                learner.keep_rows(np.array([True, True, False, True, False]))
        if t == 120:
            for learner in (skip, full):
                learner.keep_rows(np.array([2, 0]))
        picks = rng.random(skip.replications)
        ranks = skip.select_ranks(picks)
        assert np.array_equal(full.select_ranks(picks), ranks)
        source = prices if t % 2 else np.array([0.0, 1.0])
        rewards = rng.choice(source, size=ranks.size)
        if t % 7 == 0:
            rewards[:] = 0.0
        seen = np.count_nonzero(rewards)
        mixed += 0 < seen < rewards.size
        silent += seen == 0
        skip.update_ranks(ranks, rewards)
        full.update_ranks(ranks, rewards)
        assert np.array_equal(skip.estimates, full.estimates)
    assert mixed > 20 and silent > 10
    assert np.array_equal(skip.sampling_distribution(), full.sampling_distribution())


def test_exp2_round_without_reward_makes_no_solve(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    learner = Exp2(5, 2, 2, horizon=200, replications=4)
    ranks = learner.select_ranks(np.array([0.1, 0.4, 0.6, 0.9]))
    learner.update_ranks(ranks, np.zeros(4))
    assert calls == []
    assert np.array_equal(learner.estimates, np.zeros((4, 10)))
    ranks = learner.select_ranks(np.array([0.1, 0.4, 0.6, 0.9]))
    learner.update_ranks(ranks, np.array([0.0, 1.0, 0.0, 0.5]))
    assert calls == [2]  # one stacked solve over the two rows that saw a reward
    assert np.array_equal(learner.estimates[[0, 2]], np.zeros((2, 10)))


def test_exp2_estimator_unbiased_small(rng):
    # exact expectation over action draw and Bernoulli outcome reproduces the
    # true per-action means for N=3, K=2, d=1
    learner = Exp2(3, 2, 1, horizon=1000)
    learner.estimates[0] = rng.uniform(-2, 2, size=3)
    p = learner.sampling_distribution()
    link = PolynomialLink([0.05, 0.4])
    v = rng.uniform(0, 1, size=3)
    lifted = lift_reward_vector(v, link, subset_size=2, order=1)
    means = learner.features @ lifted
    assert np.all((means >= 0) & (means <= 1))
    expectation = np.zeros(3)
    for rank in range(3):
        expectation += p[rank] * means[rank] * learner.estimate_rewards(rank, 1.0, p)
    assert np.allclose(expectation, means, atol=1e-10)


@pytest.mark.parametrize("gamma_mix", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("n_arms, size, order", [(4, 2, 1), (5, 2, 2), (8, 3, 1)])
def test_exp2_estimator_unbiased_near_zero_probability(rng, n_arms, size, order,
                                                       gamma_mix):
    # almost all mass on one action, every other at about gamma_mix / A: the
    # solve on W'PW loses up to eps * cond(W'PW) <= eps cond(W'W) / min p of
    # each term p_S mu_S est_S, so the sum is held to 64 eps / min p relative
    # to its largest term (cond(W'W) <= 4.2 at these keys)
    learner = Exp2(n_arms, size, order, horizon=1000, gamma_mix=gamma_mix)
    learner.estimates[0, 1] = 60.0 / learner.eta
    p = learner.sampling_distribution()
    assert p[1] > 1.0 - 2 * gamma_mix
    link = PolynomialLink([0.05, 0.1, 0.08][:order + 1])
    lifted = lift_reward_vector(rng.uniform(0, 1, size=n_arms), link, subset_size=size,
                                order=order)
    means = learner.features @ lifted
    terms = np.stack([p[rank] * means[rank] * learner.estimate_rewards(rank, 1.0, p)
                      for rank in range(learner.n_actions)])
    bound = 64 * np.finfo(float).eps / p.min() * np.abs(terms).max()
    assert np.abs(terms.sum(axis=0) - means).max() <= bound


def test_exp2_sampling_distribution_structure(rng):
    learner = Exp2(4, 2, 2, horizon=500)
    p = learner.sampling_distribution()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p >= learner.gamma_mix / learner.n_actions - 1e-15)
    action = learner.select(rng)
    learner.update(action, 1.0)
    p2 = learner.sampling_distribution()
    assert p2.sum() == pytest.approx(1.0, abs=1e-12)


def test_exp2_update_moves_weight_towards_reward(rng):
    learner = Exp2(3, 2, 1, horizon=100, gamma_mix=0.1, eta=0.5)
    learner.update(SubsetAction.from_rank(0, 3, 2), 1.0)
    p = learner.sampling_distribution()
    assert p[0] == p.max()


def test_constant_policy(rng):
    s = SubsetAction.from_indices((1, 2), 4)
    policy = ConstantPolicy(s)
    for _ in range(5):
        assert policy.select(rng) == s
    policy.update(s, 1.0)
    with pytest.raises(ValueError):
        policy.update(s, -0.1)
