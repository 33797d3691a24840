import itertools
import math

import numpy as np
import pytest

from nonlinbandit import (
    CapExceededError,
    HardInstance,
    LinkFunction,
    LpProblem,
    MnlLink,
    PolynomialLink,
    SimplexError,
    TabulatedLink,
    comb_identity_residual,
    find_hard_instance,
    identity_battery,
    solve_lp,
    symmetrized_link,
    verify_hard_instance,
)
from nonlinbandit import hardinstances
from nonlinbandit.core import all_subsets, subsets_by_rank
from nonlinbandit.hardinstances import DEFAULT_GAP_TOL, DEFAULT_X0_CANDIDATES


class ExpLink(LinkFunction):
    """exp(x - scale): a smooth non-polynomial link mapping [0, scale] into [0, 1]."""

    def __init__(self, scale):
        self.scale = float(scale)

    def _eval(self, x):
        return np.exp(x - self.scale)


# ---------------------------------------------------------------------------
# LP solver
# ---------------------------------------------------------------------------

def test_solve_lp_trivial():
    problem = LpProblem(objective=[1.0, 0.0],
                        eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    w, obj = solve_lp(problem)
    assert np.allclose(w, [1.0, 0.0])
    assert obj == pytest.approx(1.0)


def test_solve_lp_zero_objective():
    problem = LpProblem(objective=[0.0, 0.0, 0.0],
                        eq_matrix=[[1.0, 1.0, 1.0]], eq_rhs=[1.0])
    w, obj = solve_lp(problem)
    assert obj == pytest.approx(0.0)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w >= 0)


def _vertex_enumeration_optimum(c, A, b):
    """Independent oracle: scan all basic solutions for the best feasible one."""
    r, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), r):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b)
        if np.all(x >= -1e-9):
            value = float(c[list(cols)] @ x)
            if best is None or value > best:
                best = value
    return best


def test_solve_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = 20
        A = np.vstack([np.ones(n), rng.uniform(-1, 1, size=(2, n))])
        w0 = rng.dirichlet(np.ones(n))
        b = A @ w0
        c = rng.uniform(0, 1, size=n)
        problem = LpProblem(objective=c, eq_matrix=A, eq_rhs=b)
        w, obj = solve_lp(problem)
        assert np.allclose(A @ w, b, atol=1e-9)
        oracle = _vertex_enumeration_optimum(c, A, b)
        assert obj == pytest.approx(oracle, abs=1e-8)


def test_solve_lp_infeasible():
    problem = LpProblem(objective=[1.0, 1.0],
                        eq_matrix=[[1.0, 1.0], [1.0, 1.0]], eq_rhs=[1.0, 2.0])
    with pytest.raises(SimplexError):
        solve_lp(problem)


def test_solve_lp_redundant_rows():
    problem = LpProblem(objective=[1.0, 0.0],
                        eq_matrix=[[1.0, 1.0], [2.0, 2.0]], eq_rhs=[1.0, 2.0])
    w, obj = solve_lp(problem)
    assert obj == pytest.approx(1.0)


def test_lp_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(objective=[1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    with pytest.raises(ValueError):
        LpProblem(objective=[np.inf, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])


@pytest.mark.parametrize("link_kind", ["mnl", "linear", "poly"])
@pytest.mark.parametrize("m, q", [(2, 50), (3, 50), (4, 25)])
def test_solve_lp_matches_highs_on_search_lps(link_kind, m, q):
    """Every x0 LP of the criterion-2 search, against an independent solver,
    solved both from the search's crash start and by the two-phase path.

    HiGHS solves the dual, min b'y subject to A'y >= c with y free, whose
    optimum equals the primal optimum by strong duality; on these few-row,
    many-column LPs it runs about four times faster than the primal.  With
    HiGHS's default 1e-7 feasibility tolerances the primal came out 3.7e-8
    off at m = 4, so both are tightened.
    """
    optimize = pytest.importorskip("scipy.optimize")
    link = {"mnl": MnlLink(), "linear": PolynomialLink([0.0, 0.3]),
            "poly": _LOW_DEGREE[m]}[link_kind]
    for x0 in DEFAULT_X0_CANDIDATES:
        grid = hardinstances._grid_values(1 / q, x0)
        *_, problem = hardinstances._x0_problem(link, m, m, grid, x0)
        dual = optimize.linprog(
            problem.eq_rhs, A_ub=-problem.eq_matrix.T, b_ub=-problem.objective,
            bounds=(None, None), method="highs",
            options={"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10},
        )
        assert dual.status == 0, dual.message
        for start in (None, hardinstances._crash_basis(grid, x0, problem.eq_matrix)):
            _, objective = solve_lp(problem, start=start)
            assert objective == pytest.approx(dual.fun, abs=1e-9), f"x0={x0} start={start}"


def _count_phase_one(monkeypatch):
    calls = []
    original = hardinstances._phase_one

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(hardinstances, "_phase_one", counting)
    return calls


# max x2 subject to x0 + x1 + x2 + 2 x3 = 1 and x0 + 2 x1 + 2 x3 = 1.5, where
# column 3 is twice column 0; the optimum is x1 = 0.75, x2 = 0.25.
_HAND_LP = LpProblem(objective=[0.0, 0.0, 1.0, 0.0],
                     eq_matrix=[[1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 0.0, 2.0]],
                     eq_rhs=[1.0, 1.5])


@pytest.mark.parametrize("start, why", [
    ([0, 3], "singular"),
    ([0, 2], "infeasible: x0 = 1.5, x2 = -0.5"),
    ([0, 0], "repeated column"),
    ([1], "too few columns"),
])
def test_solve_lp_bad_start_falls_back_on_hand_lp(monkeypatch, start, why):
    calls = _count_phase_one(monkeypatch)
    expected = solve_lp(_HAND_LP)
    assert np.allclose(expected[0], [0.0, 0.75, 0.25, 0.0])
    weights, objective = solve_lp(_HAND_LP, start=start)
    assert calls == [1, 1], why
    assert np.array_equal(weights, expected[0]) and objective == expected[1]


def test_solve_lp_good_start_skips_phase_one(monkeypatch):
    calls = _count_phase_one(monkeypatch)
    weights, objective = solve_lp(_HAND_LP, start=[1, 2])
    assert calls == []
    assert np.allclose(weights, [0.0, 0.75, 0.25, 0.0]) and objective == pytest.approx(0.25)


@pytest.mark.parametrize("x0", [0.2, 0.5, 0.85])
def test_solve_lp_singular_crash_start_falls_back_on_linear_link(monkeypatch, x0):
    # A linear link's depth-1 and depth-2 rows are both affine in the tuple
    # mean, so with the ones row every 3-column basis is singular.
    grid = hardinstances._grid_values(1 / 50, x0)
    *_, problem = hardinstances._x0_problem(PolynomialLink([0.0, 0.3]), 3, 3, grid, x0)
    start = hardinstances._crash_basis(grid, x0, problem.eq_matrix)
    assert np.linalg.cond(problem.eq_matrix[:, start]) > 1e10
    calls = _count_phase_one(monkeypatch)
    expected = solve_lp(problem)
    weights, objective = solve_lp(problem, start=start)
    assert len(calls) == 2
    assert np.array_equal(weights, expected[0]) and objective == expected[1]


@pytest.mark.parametrize("m, q", [(2, 50), (3, 50), (4, 25)])
def test_crash_basis_holds_the_diagonal_and_is_nonsingular(monkeypatch, m, q):
    calls = _count_phase_one(monkeypatch)
    for x0 in DEFAULT_X0_CANDIDATES:
        grid = hardinstances._grid_values(1 / q, x0)
        tuples, _, _, problem = hardinstances._x0_problem(MnlLink(), m, m, grid, x0)
        start = hardinstances._crash_basis(grid, x0, problem.eq_matrix)
        diagonal = np.flatnonzero(np.all(grid[tuples] == x0, axis=1))
        assert diagonal.tolist() == [start[0]], f"x0={x0}"
        assert len(set(start)) == m
        B = problem.eq_matrix[:, start]
        assert np.linalg.matrix_rank(B) == m and np.linalg.cond(B) < 1e10, f"x0={x0}"
        solve_lp(problem, start=start)
    assert calls == []


# ---------------------------------------------------------------------------
# Symmetrized moments
# ---------------------------------------------------------------------------

def test_symmetrized_link_collapses_on_diagonal(mnl_link):
    x0 = 0.4
    for level in (1, 2, 3):
        val = symmetrized_link(mnl_link, level, (x0, x0, x0), x0, 3)
        assert val == pytest.approx(mnl_link(3 * x0), abs=1e-14)


def test_symmetrized_link_two_point_formula(mnl_link):
    u, w, x0, b = 0.2, 0.7, 0.3, 4
    val = symmetrized_link(mnl_link, 1, (u, w), x0, b)
    expected = 0.5 * (mnl_link(u + 3 * x0) + mnl_link(w + 3 * x0))
    assert val == pytest.approx(expected, abs=1e-14)


def test_symmetrized_link_matches_enumeration(mnl_link):
    x = np.array([0.1, 0.4, 0.9])
    x0, b, level = 0.5, 3, 2
    pairs = [(0, 1), (0, 2), (1, 2)]
    expected = np.mean([mnl_link(x[i] + x[j] + (b - level) * x0) for i, j in pairs])
    assert symmetrized_link(mnl_link, level, x, x0, b) == pytest.approx(expected, abs=1e-14)


def test_symmetrized_link_validates():
    with pytest.raises(ValueError):
        symmetrized_link(MnlLink(), 0, (0.1, 0.2), 0.5, 2)
    with pytest.raises(ValueError):
        symmetrized_link(MnlLink(), 1, (0.1, 0.2), 0.5, 1)


# ---------------------------------------------------------------------------
# Alternating identity
# ---------------------------------------------------------------------------

def test_identity_linear_two_coordinates():
    assert comb_identity_residual([0.0, 1.0], (0.3, 0.8)) == pytest.approx(0.0, abs=1e-14)


def test_identity_cubic_four_coordinates(rng):
    for _ in range(50):
        coeffs = rng.uniform(-1, 1, size=4)
        y = rng.uniform(0, 1, size=4)
        assert abs(comb_identity_residual(coeffs, y)) <= 1e-9


def test_identity_degree_m_counterexample():
    # s(x) = x**2 on (1, 1): 0 - 2*1 + 4 = 2
    assert comb_identity_residual([0.0, 0.0, 1.0], (1.0, 1.0)) == pytest.approx(2.0)


def test_identity_degree_m_leading_term_formula(rng):
    # residual of a degree-m polynomial is (-1)^m m! a_m prod(y)
    for m in (2, 3, 4):
        coeffs = rng.uniform(-1, 1, size=m + 1)
        y = rng.uniform(0.1, 1, size=m)
        expected = (-1) ** m * math.factorial(m) * coeffs[-1] * np.prod(y)
        assert comb_identity_residual(coeffs, y) == pytest.approx(expected, abs=1e-9)


def test_identity_battery_summary():
    summary = identity_battery(trials=200, seed=3)
    assert summary["max_low_degree_residual"] <= 1e-9
    assert summary["counterexample_fraction"] >= 0.95


# ---------------------------------------------------------------------------
# Instance search
# ---------------------------------------------------------------------------

def test_polynomial_below_m_has_no_gap():
    linear = PolynomialLink([0.0, 0.3])
    inst = find_hard_instance(linear, m=2, b=2, grid_step=1 / 50)
    assert inst.gamma <= 1e-8
    # cross-check with the alternating identity: depth-2 mean is pinned
    assert abs(comb_identity_residual([0.0, 1.0], (0.2, 0.9))) <= 1e-12


def test_single_coordinate_instance_is_endpoint_scan(mnl_link):
    inst = find_hard_instance(mnl_link, m=1, b=2, grid_step=1 / 50,
                              x0_candidates=[0.3])
    # oracle: no constraints, so the optimum is the best grid point
    grid = np.unique(np.append(np.arange(51) / 50, 0.3))
    vals = mnl_link(grid + 0.3)
    assert inst.gamma == pytest.approx(float(vals.max() - mnl_link(0.6)), abs=1e-12)
    assert inst.support[0, 0] == pytest.approx(1.0)


def test_mnl_m2_instance_regression(mnl_hard_m2, mnl_link):
    # frozen regression values from the first solve of this configuration
    assert mnl_hard_m2.gamma >= 1e-3
    assert mnl_hard_m2.gamma == pytest.approx(0.07409493006824724, abs=1e-9)
    assert mnl_hard_m2.x0 == pytest.approx(0.35)
    report = verify_hard_instance(mnl_hard_m2, mnl_link)
    assert report.valid


def test_exponential_link_has_gap():
    for m in (2, 3):
        link = ExpLink(m)
        inst = find_hard_instance(link, m=m, b=m, grid_step=1 / 25)
        assert inst.gamma > 0
        assert np.max(np.abs(inst.residuals)) <= 1e-8


def _random_low_degree_link(rng, m):
    """A random polynomial of degree m - 1, mapped into [0.05, 0.95] on [0, m]."""
    while True:
        coeffs = rng.uniform(-1, 1, size=m)  # degree m-1
        raw = PolynomialLink(coeffs)
        xs = np.linspace(0, m, 201)
        ys = raw(xs)
        if ys.max() - ys.min() > 0.1 and abs(coeffs[-1]) > 0.1:
            break
    scale = 0.9 / (ys.max() - ys.min())
    shift = 0.05 - scale * ys.min()
    mapped = [scale * c for c in coeffs]
    mapped[0] += shift
    return PolynomialLink(mapped)


def test_random_low_degree_polynomials_have_no_gap(rng):
    for m in (2, 3):
        for _ in range(3):
            link = _random_low_degree_link(rng, m)
            inst = find_hard_instance(link, m=m, b=m, grid_step=1 / 25)
            assert inst.gamma <= 1e-8


@pytest.mark.parametrize("m, q", [(5, 20), (6, 15)])
def test_dichotomy_at_five_and_six_coordinates(m, q):
    """The criterion-2 dichotomy past m = 4: MNL keeps a gap (about 0.0043 at
    m = 5 and 0.0018 at m = 6), a degree-(m - 1) polynomial gets none."""
    mnl = MnlLink()
    inst = find_hard_instance(mnl, m=m, b=m, grid_step=1 / q)
    assert inst.gamma > DEFAULT_GAP_TOL
    assert verify_hard_instance(inst, mnl).valid
    link = _random_low_degree_link(np.random.default_rng(m), m)
    assert abs(find_hard_instance(link, m=m, b=m, grid_step=1 / q).gamma) <= 1e-8


def test_grid_refinement_never_shrinks_gap(mnl_link):
    gammas = [
        find_hard_instance(mnl_link, m=2, b=2, grid_step=step).gamma
        for step in (1 / 25, 1 / 50, 1 / 100)
    ]
    assert gammas[1] >= gammas[0] - 1e-12
    assert gammas[2] >= gammas[1] - 1e-12


def test_find_hard_instance_validates():
    with pytest.raises(ValueError):
        find_hard_instance(MnlLink(), m=2, b=1)
    with pytest.raises(ValueError, match="at least one x0"):
        find_hard_instance(MnlLink(), m=2, b=2, x0_candidates=[])
    with pytest.raises(ValueError):
        find_hard_instance(MnlLink(), m=2, b=2, grid_step=1 / 300)
    with pytest.raises(ValueError):
        find_hard_instance(MnlLink(), m=2, b=2, x0_candidates=[0.0])


def _reference_tuples(n_values, m):
    return np.array(
        list(itertools.combinations_with_replacement(range(n_values), m)),
        dtype=np.int64,
    )


def _reference_columns(link, tuples, x0, b):
    """The slow column build: one link call per sub-tuple combination."""
    n, m = tuples.shape
    cols = np.zeros((m, n))
    for level in range(1, m + 1):
        shift = (b - level) * x0
        acc = np.zeros(n)
        for combo in itertools.combinations(range(m), level):
            acc += link(tuples[:, list(combo)].sum(axis=1) + shift)
        cols[level - 1] = acc / math.comb(m, level)
    return cols


@pytest.mark.parametrize("n_values, m", [(52, 2), (53, 3), (26, 4), (27, 4), (7, 1)])
def test_sorted_tuple_table_is_itertools_order(n_values, m):
    table = hardinstances._sorted_tuples(n_values, m)
    assert np.array_equal(table, _reference_tuples(n_values, m))
    assert not table.flags.writeable
    assert hardinstances._sorted_tuples(n_values, m) is table


# Knots every 0.5 on [0, 4], so that depth-4 sums with b = m = 4 stay inside
# the domain.
_TABULATED = TabulatedLink(np.linspace(0.0, 4.0, 9),
                           [0.0, 0.3, 0.5, 0.62, 0.7, 0.75, 0.78, 0.8, 0.81])

# Degree m - 1 for m = 1..4, each increasing and inside [0, 1] on [0, m].
_LOW_DEGREE = {
    1: PolynomialLink([0.4]),
    2: PolynomialLink([0.05, 0.2]),
    3: PolynomialLink([0.05, 0.1, 0.05]),
    4: PolynomialLink([0.05, 0.2, -0.02, 0.001]),
}


@pytest.mark.parametrize("q, x0, n_values", [(4, 0.5, 5), (4, 0.35, 6), (5, 0.4, 6)],
                         ids=["on-grid-G5", "off-grid-G6", "on-grid-G6"])
@pytest.mark.parametrize("kind", ["mnl", "poly", "tabulated"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symmetrized_columns_match_per_combination_build(m, kind, q, x0, n_values):
    link = {"mnl": MnlLink(), "poly": _LOW_DEGREE[m], "tabulated": _TABULATED}[kind]
    grid = hardinstances._grid_values(1 / q, x0)
    assert grid.size == n_values
    fast = hardinstances._symmetrized_columns(link, grid, m, x0, m)
    slow = _reference_columns(link, grid[_reference_tuples(grid.size, m)], x0, m)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("n_values, m", [(5, 4), (6, 3), (27, 4)])
def test_sub_tuple_ranks_index_the_level_enumeration(n_values, m):
    tuples = hardinstances._sorted_tuples(n_values, m)
    for level in range(1, m):
        ranks = hardinstances._sub_tuple_ranks(n_values, m, level)
        assert not ranks.flags.writeable
        assert hardinstances._sub_tuple_ranks(n_values, m, level) is ranks
        by_rank = subsets_by_rank(n_values + level - 1, level) - np.arange(level)
        for sub_ranks, combo in zip(ranks, all_subsets(m, level)[0]):
            assert np.array_equal(by_rank[sub_ranks], tuples[:, combo])


class _CountingLink(LinkFunction):
    """Wraps a link and counts the values it is evaluated at."""

    def __init__(self, inner):
        self.inner = inner
        self.values = 0

    def _eval(self, x):
        self.values += x.size
        return self.inner._eval(x)


def test_x0_problem_evaluates_each_distinct_sum_once():
    m, q, x0 = 4, 25, 0.35
    link = _CountingLink(MnlLink())
    hardinstances._x0_problem(link, m, m, hardinstances._grid_values(1 / q, x0), x0)
    n_values = q + 2  # x0 is off the grid
    n = math.comb(n_values + m - 1, m)
    assert link.values <= sum(n_values ** level for level in range(1, m)) + n
    # One value per sorted sub-tuple of grid points (31 464), plus the target
    # g(b * x0); a per-combination build evaluates n * C(m, level) values per
    # depth, 411 075 in all.
    assert link.values == sum(math.comb(n_values + level - 1, level)
                              for level in range(1, m + 1)) + 1


def _reference_search_columns(link, grid, m, x0, b):
    return _reference_columns(link, grid[_reference_tuples(grid.size, m)], x0, b)


@pytest.mark.parametrize("link, m, q", [
    (MnlLink(), 2, 50),
    (MnlLink(), 3, 50),
    (MnlLink(), 4, 25),
    (PolynomialLink([0.05, 0.1, 0.05]), 3, 50),
    (_LOW_DEGREE[4], 4, 25),
    (_TABULATED, 3, 50),
    (_TABULATED, 4, 25),
], ids=["mnl-m2", "mnl-m3", "mnl-m4", "poly-deg2-m3", "poly-deg3-m4",
        "tabulated-m3", "tabulated-m4"])
def test_search_matches_slow_reference_build(monkeypatch, link, m, q):
    fast = find_hard_instance(link, m=m, b=m, grid_step=1 / q).to_json_dict()
    with monkeypatch.context() as patched:
        patched.setattr(hardinstances, "_sorted_tuples", _reference_tuples)
        patched.setattr(hardinstances, "_symmetrized_columns", _reference_search_columns)
        slow = find_hard_instance(link, m=m, b=m, grid_step=1 / q).to_json_dict()
    assert fast == slow


def _no_enumeration(*args):
    raise AssertionError("the sorted-tuple table was enumerated past the cap")


@pytest.mark.parametrize("m, q, x0_candidates", [
    (4, 200, None),          # C(205, 4) = 71 452 955 tuples
    (6, 50, None),           # C(57, 6) = 36 288 252 tuples
    (4, 121, [50 / 121, 0.5]),  # C(125, 4) on the grid, C(126, 4) = 10 009 125 off it
])
def test_find_hard_instance_caps_enumeration(monkeypatch, m, q, x0_candidates):
    monkeypatch.setattr(hardinstances, "_sorted_tuples", _no_enumeration)
    with pytest.raises(CapExceededError, match="exceed cap"):
        find_hard_instance(MnlLink(), m=m, b=m, grid_step=1 / q,
                           x0_candidates=x0_candidates)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_point_mass_is_invalid_at_positive_gap_tolerance(mnl_link):
    x0 = 0.4
    inst = HardInstance(x0=x0, m=2, b=2, support=[[x0, x0]], weights=[1.0],
                        gamma=0.0, residuals=[0.0])
    report = verify_hard_instance(inst, mnl_link)
    assert not report.valid
    assert report.gamma == pytest.approx(0.0, abs=1e-14)
    assert report.max_abs_residual <= 1e-14


def test_verification_recomputation_matches_search(mnl_hard_m2, mnl_link):
    report = verify_hard_instance(mnl_hard_m2, mnl_link)
    assert report.valid
    assert np.allclose(report.residuals, mnl_hard_m2.residuals, atol=1e-10)
    assert report.gamma == pytest.approx(mnl_hard_m2.gamma, abs=1e-10)


def test_perturbed_weights_fail_verification(mnl_hard_m3, mnl_link):
    inst = mnl_hard_m3
    target = inst.baseline(mnl_link)
    # bump the atom whose depth-1 moment deviates most, then renormalize
    effects = [abs(symmetrized_link(mnl_link, 1, atom, inst.x0, inst.b) - target)
               for atom in inst.support]
    w = inst.weights.copy()
    w[int(np.argmax(effects))] += 1e-3
    w /= w.sum()
    perturbed = HardInstance(
        x0=inst.x0, m=inst.m, b=inst.b, support=inst.support.copy(),
        weights=w, gamma=inst.gamma, residuals=inst.residuals.copy(),
    )
    report = verify_hard_instance(perturbed, mnl_link)
    assert not report.valid
    assert report.max_abs_residual > 1e-4


def test_instance_json_roundtrip(tmp_path, mnl_hard_m2):
    path = tmp_path / "inst.json"
    mnl_hard_m2.save(path)
    loaded = HardInstance.load(path)
    assert loaded.m == mnl_hard_m2.m and loaded.b == mnl_hard_m2.b
    assert loaded.x0 == mnl_hard_m2.x0
    assert loaded.gamma == mnl_hard_m2.gamma
    assert np.array_equal(loaded.support, mnl_hard_m2.support)
    assert np.array_equal(loaded.weights, mnl_hard_m2.weights)


def test_instance_validation():
    with pytest.raises(ValueError):
        HardInstance(x0=0.5, m=2, b=2, support=[[0.5, 0.2]], weights=[1.0], gamma=0.0)
    with pytest.raises(ValueError):
        HardInstance(x0=0.5, m=2, b=2, support=[[0.2, 0.5]], weights=[0.7], gamma=0.0)
    with pytest.raises(ValueError):
        HardInstance(x0=0.5, m=2, b=1, support=[[0.2, 0.5]], weights=[1.0], gamma=0.0)
