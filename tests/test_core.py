import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlinbandit import (
    CapExceededError,
    LinkDomainError,
    LinkRangeError,
    MnlLink,
    PolynomialLink,
    ProblemDims,
    SubsetAction,
    TabulatedLink,
    best_subset,
    expected_reward,
    lift_reward_vector,
    rank_subset,
    tensor_features,
    unrank_subset,
)
from nonlinbandit import core
from nonlinbandit.core import DEFAULT_ENUMERATION_CAP, colex_ranks, subsets_by_rank


# ---------------------------------------------------------------------------
# Links
# ---------------------------------------------------------------------------

def test_mnl_values():
    g = MnlLink()
    assert g(0.0) == 0.0
    assert g(2.0) == pytest.approx(2 / 3)
    assert np.allclose(g(np.array([0.0, 1.0])), [0.0, 0.5])
    with pytest.raises(LinkDomainError):
        g(-0.5)


def test_polynomial_trims_and_evaluates():
    g = PolynomialLink([0.5, 0.25, 0.0])
    assert g.degree == 1
    assert g(2.0) == pytest.approx(1.0)
    assert PolynomialLink([0.2]).degree == 0
    with pytest.raises(ValueError):
        PolynomialLink([])


def test_tabulated_interpolates_and_checks_domain():
    g = TabulatedLink([0.0, 1.0, 2.0], [0.0, 0.6, 0.8])
    assert g(0.5) == pytest.approx(0.3)
    assert g(1.5) == pytest.approx(0.7)
    with pytest.raises(LinkDomainError):
        g(2.5)
    with pytest.raises(ValueError):
        TabulatedLink([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(LinkRangeError):
        TabulatedLink([0.0, 1.0], [0.0, 1.5])


# ---------------------------------------------------------------------------
# Subset ranking
# ---------------------------------------------------------------------------

def test_rank_examples():
    assert rank_subset((0, 1), 3, 2) == 0
    # enumerating the three 2-subsets of {0,1,2} in colex order:
    # {0,1} -> 0, {0,2} -> 1, {1,2} -> 2
    assert rank_subset((0, 2), 3, 2) == 1
    assert rank_subset((1, 2), 3, 2) == 2


@pytest.mark.parametrize("n,k", [(3, 2), (5, 1), (6, 3), (9, 4)])
def test_last_subset_has_last_rank(n, k):
    last = tuple(range(n - k, n))
    assert rank_subset(last, n, k) == math.comb(n, k) - 1


def test_rank_errors():
    with pytest.raises(ValueError):
        rank_subset((1, 0), 3, 2)
    with pytest.raises(ValueError):
        rank_subset((0, 3), 3, 2)
    with pytest.raises(ValueError):
        rank_subset((0,), 3, 2)
    with pytest.raises(ValueError):
        unrank_subset(3, 3, 2)
    with pytest.raises(ValueError):
        unrank_subset(-1, 3, 2)


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))))
@settings(max_examples=60, deadline=None)
def test_rank_unrank_bijection(dims):
    n, k = dims
    total = math.comb(n, k)
    seen = set()
    for rank in range(total):
        idx = unrank_subset(rank, n, k)
        assert len(idx) == k and all(0 <= i < n for i in idx)
        assert rank_subset(idx, n, k) == rank
        seen.add(idx)
    assert len(seen) == total


@pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (6, 6), (9, 4), (4, 0)])
def test_colex_ranks_match_scalar_rank(n, k):
    # row r of the enumeration is the subset of rank r, for the scalar and the
    # vectorized rank alike; K = 0 gives the one empty subset, of rank 0
    table = subsets_by_rank(n, k)
    ranks = np.arange(math.comb(n, k))
    assert table.shape == (ranks.size, k)
    assert not table.flags.writeable
    assert sorted(map(tuple, table.tolist())) == list(itertools.combinations(range(n), k))
    assert ranks.tolist() == [sum(math.comb(c, j + 1) for j, c in enumerate(row))
                              for row in table.tolist()]
    if k:
        assert ranks.tolist() == [rank_subset(row, n, k) for row in table]
        assert [tuple(row) for row in table.tolist()] == [unrank_subset(r, n, k)
                                                         for r in ranks]
    assert np.array_equal(colex_ranks(table, n), ranks)
    stacked = np.stack([table, table])
    assert np.array_equal(colex_ranks(stacked, n), np.stack([ranks, ranks]))


def _largest_n_under_cap(k):
    lo, hi = k, DEFAULT_ENUMERATION_CAP + k  # C(lo, k) = 1 < cap <= C(hi, k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(mid, k) < DEFAULT_ENUMERATION_CAP:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def _near_cap_rank(draw):
    k = draw(st.integers(1, 6))
    n = _largest_n_under_cap(k)
    return n, k, draw(st.integers(0, math.comb(n, k) - 1))


@given(_near_cap_rank())
@settings(max_examples=200, deadline=None)
def test_rank_unrank_round_trip_near_cap(case):
    """C(N, K) just under the enumeration cap; each example also checks the
    first and last ranks."""
    n, k, rank = case
    total = math.comb(n, k)
    assert total < DEFAULT_ENUMERATION_CAP <= math.comb(n + 1, k)
    for r in (rank, 0, total - 1):
        idx = unrank_subset(r, n, k)
        assert len(idx) == k and list(idx) == sorted(set(idx))
        assert 0 <= idx[0] and idx[-1] < n
        assert rank_subset(idx, n, k) == r
    assert unrank_subset(0, n, k) == tuple(range(k))
    assert unrank_subset(total - 1, n, k) == tuple(range(n - k, n))


def test_colex_order_matches_enumeration():
    n, k = 6, 3
    combos = sorted(itertools.combinations(range(n), k),
                    key=lambda s: tuple(reversed(s)))
    for rank, combo in enumerate(combos):
        assert unrank_subset(rank, n, k) == combo


def test_subset_action_roundtrip():
    a = SubsetAction.from_indices((1, 3), 5)
    b = SubsetAction.from_rank(a.rank, 5, 2)
    assert a == b and len(a) == 2


def test_problem_dims_validation():
    ProblemDims(5, 2, 100, degree=1)
    with pytest.raises(ValueError):
        ProblemDims(2, 3, 100)
    with pytest.raises(ValueError):
        ProblemDims(5, 2, 0)
    with pytest.raises(ValueError):
        ProblemDims(5, 2, 10, degree=0)


# ---------------------------------------------------------------------------
# Expected reward and benchmark
# ---------------------------------------------------------------------------

def test_expected_reward_examples():
    g = MnlLink()
    s = SubsetAction.from_indices((0, 1), 4)
    assert expected_reward(s, np.zeros(4), g) == 0.0
    assert expected_reward(s, np.array([1.0, 1.0, 0.2, 0.2]), g) == pytest.approx(2 / 3)
    lin = PolynomialLink([0.0, 1.0])
    s3 = SubsetAction.from_indices((0, 1, 2), 3)
    assert expected_reward(s3, np.array([0.1, 0.2, 0.3]), lin) == pytest.approx(0.6)


def test_expected_reward_validates():
    g = MnlLink()
    s = SubsetAction.from_indices((0, 1), 4)
    with pytest.raises(ValueError):
        expected_reward(s, np.array([1.5, 0.0, 0.0, 0.0]), g)
    big = PolynomialLink([0.0, 2.0])
    with pytest.raises(LinkRangeError):
        expected_reward(s, np.array([1.0, 1.0, 0.0, 0.0]), big)


def test_check_unit_interval():
    from nonlinbandit.core import check_unit_interval

    check_unit_interval(np.array([0.0, 1.0 + 1e-13, -1e-13]), "values")
    check_unit_interval(np.empty(0), "values")
    check_unit_interval(1.0 + 5e-10, "link value", tol=1e-9, error=LinkRangeError)
    for bad in (np.array([0.5, np.nan]), np.array([np.nan, 0.5]), float("nan"),
                np.array([1.0 + 1e-11]), -1e-11):
        with pytest.raises(ValueError, match="outside"):
            check_unit_interval(bad, "values")
    with pytest.raises(LinkRangeError):
        check_unit_interval(np.array([[0.2, 1.1]]), "link value", tol=1e-9,
                            error=LinkRangeError)
    with pytest.raises(ValueError):
        check_unit_interval(1.0 + 1e-15, "reward", tol=0.0)
    with pytest.raises(ValueError):  # the NaN check holds for a batch of rewards
        expected_reward(SubsetAction.from_indices((0, 1), 3), [0.1, np.nan, 0.2],
                        MnlLink())


_TOLERANCES = (0.0, 1e-12, 1e-9)


def _unit_entries(tol):
    # edges on both sides of the tolerance, non-finite values, and the bulk
    edges = [-tol, 1.0 + tol, np.nextafter(-tol, -1.0), np.nextafter(1.0 + tol, 2.0),
             0.0, 1.0, -0.0]
    return st.one_of(st.sampled_from(edges), st.sampled_from([np.nan, np.inf, -np.inf]),
                     st.floats(-0.5, 1.5))


def _in_unit_interval(entries, tol) -> bool:
    # plain-Python oracle of core.check_unit_interval
    return all(-tol <= v <= 1.0 + tol for v in entries)


def _divisor(n: int):
    return st.sampled_from([k for k in range(1, n + 1) if n % k == 0])


@st.composite
def _unit_arrays(draw):
    tol = draw(st.sampled_from(_TOLERANCES))
    entries = draw(st.lists(_unit_entries(tol), min_size=0, max_size=64))
    n = len(entries)
    if draw(st.booleans()):
        shape = (n,)
    elif n == 0:
        shape = (0, 3, 2)
    else:
        a = draw(_divisor(n))
        b = draw(_divisor(n // a))
        shape = (a, b, n // (a * b))
    return np.array(entries, dtype=float).reshape(shape), entries, tol


@given(_unit_arrays())
@settings(max_examples=300, deadline=None)
def test_check_unit_interval_matches_oracle(case):
    from nonlinbandit.core import check_unit_interval

    arr, entries, tol = case
    if _in_unit_interval(entries, tol):
        check_unit_interval(arr, "values", tol=tol, error=LinkRangeError)
    else:
        with pytest.raises(LinkRangeError, match="values outside"):
            check_unit_interval(arr, "values", tol=tol, error=LinkRangeError)


@given(st.sampled_from(_TOLERANCES).flatmap(
    lambda tol: st.tuples(_unit_entries(tol).map(float), st.just(tol))))
@settings(max_examples=200, deadline=None)
def test_check_unit_interval_bare_float_matches_oracle(case):
    from nonlinbandit.core import check_unit_interval

    value, tol = case
    if _in_unit_interval([value], tol):
        check_unit_interval(value, "reward", tol=tol)
    else:
        with pytest.raises(ValueError, match="reward outside"):
            check_unit_interval(value, "reward", tol=tol)


def test_best_subset_monotone_link_takes_largest():
    g = MnlLink()
    v = np.array([0.1, 0.8, 0.3, 0.9, 0.2])
    action, value = best_subset(v, g, 5, 2)
    assert action.indices == (1, 3)
    assert value == pytest.approx(g(1.7))


def test_best_subset_tie_breaks_to_rank_zero():
    g = MnlLink()
    action, _ = best_subset(np.full(5, 0.4), g, 5, 2)
    assert action.rank == 0


def test_best_subset_matches_bruteforce_oracle(rng):
    g = PolynomialLink([0.05, 0.1, 0.1])  # degree 2, stays in [0, 1] on [0, 2]
    for _ in range(20):
        v = rng.uniform(0, 1, size=5)
        action, value = best_subset(v, g, 5, 2)
        # independent oracle: direct enumeration of all 10 subsets
        best_val, best_combo = -1.0, None
        for combo in itertools.combinations(range(5), 2):
            y = g(float(v[list(combo)].sum()))
            if y > best_val + 1e-15:
                best_val, best_combo = y, combo
        assert value == pytest.approx(best_val, abs=1e-12)
        assert action.indices == best_combo


def test_best_subset_dominates_every_subset():
    g = MnlLink()
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        k = max(1, n // 2)
        v = rng.uniform(0, 1, size=n)
        _, value = best_subset(v, g, n, k)
        for combo in itertools.combinations(range(n), k):
            s = SubsetAction.from_indices(combo, n)
            assert value >= expected_reward(s, v, g) - 1e-12


def test_enumeration_cap_is_checked_on_cached_tables(monkeypatch):
    # a table built before the cap was lowered is refused all the same
    table = subsets_by_rank(5, 2)
    assert subsets_by_rank(5, 2) is table
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", math.comb(5, 2) - 1)
    with pytest.raises(CapExceededError, match="10 size-2 subsets of 5 arms exceed cap 9"):
        subsets_by_rank(5, 2)


def test_best_subset_cap(monkeypatch):
    # C(30, 3) = 4060 is under the default cap and over the lowered one
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 1000)
    with pytest.raises(CapExceededError):
        best_subset(np.zeros(30), MnlLink(), 30, 3)


# ---------------------------------------------------------------------------
# Tensorization
# ---------------------------------------------------------------------------

def test_tensor_features_order_one_is_indicator():
    s = SubsetAction.from_indices((0, 2), 4)
    assert np.array_equal(tensor_features(s, 4, 1), [1, 0, 1, 0])


def test_tensor_features_order_two_single_arm():
    s = SubsetAction.from_indices((0,), 2)
    assert np.array_equal(tensor_features(s, 2, 2), [1, 0, 0, 0])


def test_tensor_features_counts_and_cap(monkeypatch):
    s = SubsetAction.from_indices((1, 3), 5)
    feats = tensor_features(s, 5, 2)
    assert feats.sum() == 4  # K**d ones
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 10)
    with pytest.raises(CapExceededError):
        tensor_features(s, 5, 2)


def test_tensor_inner_product_identity(rng):
    # <1_S^(k), v^(k)> = (sum of v on S)^k
    s = SubsetAction.from_indices((0, 2, 3), 5)
    for k in (1, 2, 3):
        feats = tensor_features(s, 5, k)
        for _ in range(10):
            v = rng.uniform(0, 1, size=5)
            vk = v
            for _ in range(k - 1):
                vk = np.kron(vk, v)
            lhs = float(feats @ vk)
            rhs = float(v[[0, 2, 3]].sum()) ** k
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lift_constant_polynomial():
    g = PolynomialLink([0.4])
    lifted = lift_reward_vector(np.array([0.1, 0.9, 0.3]), g, subset_size=2, order=2)
    expected = 0.4 * (1 / 2) ** 2 * np.ones(9)
    assert np.allclose(lifted, expected)
    s = SubsetAction.from_indices((0, 2), 3)
    assert tensor_features(s, 3, 2) @ lifted == pytest.approx(0.4)


def test_lift_identity_polynomial_is_v():
    g = PolynomialLink([0.0, 1.0])
    v = np.array([0.2, 0.5, 0.7])
    assert np.allclose(lift_reward_vector(v, g, subset_size=2, order=1), v)


def test_lift_reproduces_polynomial_rewards(rng):
    g = PolynomialLink([0.0, -1.0, 1.0])  # x**2 - x
    for _ in range(20):
        v = rng.uniform(0, 1, size=4)
        lifted = lift_reward_vector(v, g, subset_size=2, order=2)
        for combo in itertools.combinations(range(4), 2):
            s = SubsetAction.from_indices(combo, 4)
            lhs = float(tensor_features(s, 4, 2) @ lifted)
            x = float(v[list(combo)].sum())
            assert lhs == pytest.approx(x * x - x, rel=1e-10, abs=1e-12)


def test_lift_rejects_non_polynomial():
    with pytest.raises(ValueError):
        lift_reward_vector(np.zeros(3), MnlLink(), 2, 2)
    with pytest.raises(ValueError):
        lift_reward_vector(np.zeros(3), PolynomialLink([0, 0, 1]), 2, 1)


def test_lift_tensor_consistency_battery(rng):
    # identity holds on every subset for n <= 5, order <= 3
    for n, k, order in [(4, 2, 2), (5, 2, 3), (5, 3, 2), (3, 2, 1)]:
        coeffs = rng.uniform(-0.5, 0.5, size=order + 1)
        g = PolynomialLink(coeffs)
        if g.degree > order:
            continue
        for _ in range(5):
            v = rng.uniform(0, 1, size=n)
            lifted = lift_reward_vector(v, g, subset_size=k, order=order)
            for combo in itertools.combinations(range(n), k):
                s = SubsetAction.from_indices(combo, n)
                lhs = float(tensor_features(s, n, order) @ lifted)
                rhs = float(g(float(v[list(combo)].sum())))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
