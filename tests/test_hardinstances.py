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
from nonlinbandit.core import subsets_by_rank
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
    w, obj = solve_lp(problem, start=[1])
    assert np.allclose(w, [1.0, 0.0])
    assert obj == pytest.approx(1.0)


def test_solve_lp_zero_objective():
    problem = LpProblem(objective=[0.0, 0.0, 0.0],
                        eq_matrix=[[1.0, 1.0, 1.0]], eq_rhs=[1.0])
    w, obj = solve_lp(problem, start=[2])
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
        start = rng.choice(n, size=3, replace=False)
        b = A[:, start] @ rng.dirichlet(np.ones(3))
        c = rng.uniform(0, 1, size=n)
        problem = LpProblem(objective=c, eq_matrix=A, eq_rhs=b)
        w, obj = solve_lp(problem, start=start)
        assert np.allclose(A @ w, b, atol=1e-9)
        oracle = _vertex_enumeration_optimum(c, A, b)
        assert obj == pytest.approx(oracle, abs=1e-8)


def test_solve_lp_infeasible():
    problem = LpProblem(objective=[1.0, 1.0],
                        eq_matrix=[[1.0, 1.0], [1.0, 1.0]], eq_rhs=[1.0, 2.0])
    with pytest.raises(SimplexError, match="singular"):
        solve_lp(problem, start=[0, 1])
    # x0 + x1 = 1 and x0 - x1 = 3 force x1 = -1
    problem = LpProblem(objective=[1.0, 1.0],
                        eq_matrix=[[1.0, 1.0], [1.0, -1.0]], eq_rhs=[1.0, 3.0])
    with pytest.raises(SimplexError, match="infeasible"):
        solve_lp(problem, start=[0, 1])


def test_solve_lp_redundant_rows():
    # every basis of dependent rows is singular; the caller drops such rows
    problem = LpProblem(objective=[1.0, 0.0],
                        eq_matrix=[[1.0, 1.0], [2.0, 2.0]], eq_rhs=[1.0, 2.0])
    with pytest.raises(SimplexError, match="singular"):
        solve_lp(problem, start=[0, 1])


def test_lp_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(objective=[1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    with pytest.raises(ValueError):
        LpProblem(objective=[np.inf, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])


@pytest.mark.parametrize("link_kind", ["mnl", "linear", "poly"])
@pytest.mark.parametrize("m, q", [(2, 50), (3, 50), (4, 25)])
def test_solve_lp_matches_highs_on_search_lps(link_kind, m, q):
    """Every x0 LP of the criterion-2 search, against an independent solver.

    A polynomial link of degree below m is settled by the dual residual: its
    optimum is the diagonal point mass.  MNL's LPs are solved from the
    search's crash start.  HiGHS solves the dual, min b'y subject to
    A'y >= c with y free, whose optimum equals the primal optimum by strong
    duality; on these few-row, many-column LPs it runs about four times
    faster than the primal.  With HiGHS's default 1e-7 feasibility
    tolerances the primal came out 3.7e-8 off at m = 4, so both are
    tightened.
    """
    optimize = pytest.importorskip("scipy.optimize")
    link = {"mnl": MnlLink(), "linear": PolynomialLink([0.0, 0.3]),
            "poly": _LOW_DEGREE[m]}[link_kind]
    for x0 in DEFAULT_X0_CANDIDATES:
        grid = hardinstances._grid_values(1 / q, x0)
        *_, diag, problem = hardinstances._x0_problem(link, m, m, grid, x0,
                                                      hardinstances._workspace(m, grid.size))
        dual = optimize.linprog(
            problem.eq_rhs, A_ub=-problem.eq_matrix.T, b_ub=-problem.objective,
            bounds=(None, None), method="highs",
            options={"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10},
        )
        assert dual.status == 0, dual.message
        no_gap = hardinstances._has_no_gap(problem, diag, np.empty(problem.objective.size))
        assert no_gap == (link_kind != "mnl"), f"x0={x0}"
        if no_gap:
            objective = problem.objective[diag]
        else:
            _, objective = solve_lp(*hardinstances._crash_start(problem, diag))
        assert objective == pytest.approx(dual.fun, abs=1e-9), f"x0={x0}"


# max x2 subject to x0 + x1 + x2 + 2 x3 = 1 and x0 + 2 x1 + 2 x3 = 1.5, where
# column 3 is twice column 0; the optimum is x1 = 0.75, x2 = 0.25.
_HAND_LP = LpProblem(objective=[0.0, 0.0, 1.0, 0.0],
                     eq_matrix=[[1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 0.0, 2.0]],
                     eq_rhs=[1.0, 1.5])


@pytest.mark.parametrize("start", [[0, 3], [0, 2], [0, 0], [1]],
                         ids=["singular", "infeasible", "repeated-column", "too-few-columns"])
def test_solve_lp_bad_start_raises_on_hand_lp(start):
    # the infeasible start has basic values x0 = 1.5, x2 = -0.5
    with pytest.raises(SimplexError, match="start"):
        solve_lp(_HAND_LP, start=start)


def test_solve_lp_good_start_solves_hand_lp():
    weights, objective = solve_lp(_HAND_LP, start=[1, 2])
    assert np.allclose(weights, [0.0, 0.75, 0.25, 0.0]) and objective == pytest.approx(0.25)
    weights, objective = solve_lp(_HAND_LP, start=[0, 1])
    assert np.allclose(weights, [0.0, 0.75, 0.25, 0.0]) and objective == pytest.approx(0.25)


def test_solve_lp_raises_on_unbounded_hand_lp():
    # max x1 subject to x0 - x1 = 0: x1 enters and no row bounds its step
    problem = LpProblem(objective=[0.0, 1.0], eq_matrix=[[1.0, -1.0]], eq_rhs=[0.0])
    with pytest.raises(SimplexError, match="unbounded objective at iteration 1"):
        solve_lp(problem, start=[0])


@pytest.mark.parametrize("m", [2, 3])
def test_blands_rule_finds_the_default_instance(monkeypatch, m):
    # With no stall allowance every pivot uses Bland's rule (Bland 1977).  At
    # m = 4 on the 1/25 grid it reaches the same gap through other weights,
    # so the bits are compared at m <= 3 only.
    default = find_hard_instance(MnlLink(), m=m, b=m, grid_step=1 / 50)
    monkeypatch.setattr(hardinstances, "_STALL_LIMIT", 0)
    bland = find_hard_instance(MnlLink(), m=m, b=m, grid_step=1 / 50)
    assert _instance_bits(bland) == _instance_bits(default)


@pytest.mark.parametrize("x0", [0.2, 0.5, 0.85])
def test_solve_lp_singular_crash_start_falls_back_on_linear_link(x0):
    # A linear link's depth-1 and depth-2 rows are both affine in the tuple
    # mean, so with the ones row every 3-column basis is singular.  The crash
    # start falls back to every column, keeps the ones row and one moment
    # row, and the dropped row holds at the optimum; the search itself
    # settles this LP by the dual residual.
    grid = hardinstances._grid_values(1 / 50, x0)
    *_, diag, problem = hardinstances._x0_problem(PolynomialLink([0.0, 0.3]), 3, 3, grid, x0,
                                                  hardinstances._workspace(3, grid.size))
    reduced, basis = hardinstances._crash_start(problem, diag)
    assert reduced.eq_matrix.shape[0] == len(basis) == 2 and basis[0] == diag
    assert np.array_equal(reduced.eq_matrix[-1], np.ones(problem.objective.size))
    extra = next(j for j in range(problem.objective.size) if j not in basis)
    with pytest.raises(SimplexError, match="singular"):
        solve_lp(problem, start=basis + [extra])
    weights, objective = solve_lp(reduced, start=basis)
    assert np.allclose(problem.eq_matrix @ weights, problem.eq_rhs, atol=1e-12)
    assert objective == pytest.approx(problem.objective[diag], abs=1e-12)
    assert hardinstances._has_no_gap(problem, diag, np.empty(problem.objective.size))


@pytest.mark.parametrize("m, q", [(2, 50), (3, 50), (4, 25)])
def test_crash_basis_holds_the_diagonal_and_is_nonsingular(m, q):
    for x0 in DEFAULT_X0_CANDIDATES:
        grid = hardinstances._grid_values(1 / q, x0)
        tuples, _, diag, problem = hardinstances._x0_problem(
            MnlLink(), m, m, grid, x0, hardinstances._workspace(m, grid.size))
        reduced, start = hardinstances._crash_start(problem, diag)
        diagonal = np.flatnonzero(np.all(grid[tuples] == x0, axis=1))
        assert diagonal.tolist() == [diag] and start[0] == diag, f"x0={x0}"
        assert np.array_equal(problem.eq_rhs, problem.eq_matrix[:, diag])
        assert reduced.eq_matrix.shape == problem.eq_matrix.shape and len(set(start)) == m
        B = problem.eq_matrix[:, start]
        assert np.linalg.matrix_rank(B) == m and np.linalg.cond(B) < 1e10, f"x0={x0}"
        solve_lp(reduced, start=start)


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


@pytest.mark.parametrize("m, seeds", [(7, (7000, 7001, 7002)), (8, (8001, 8003, 8004))])
def test_dichotomy_at_seven_and_eight_coordinates(m, seeds):
    """On the 1/10 grid MNL keeps a verified gap (about 8.2e-4 at m = 7 and
    3.3e-4 at m = 8), and each degree-(m - 1) polynomial is settled as
    gap-free by the dual residual: the diagonal point mass at the first x0
    candidate, with gamma exactly 0."""
    mnl = MnlLink()
    inst = find_hard_instance(mnl, m=m, b=m, grid_step=1 / 10)
    assert inst.gamma > DEFAULT_GAP_TOL
    assert verify_hard_instance(inst, mnl).valid
    for seed in seeds:
        link = _random_low_degree_link(np.random.default_rng(seed), m)
        inst = find_hard_instance(link, m=m, b=m, grid_step=1 / 10)
        assert inst.gamma == 0.0, f"seed={seed}"
        assert inst.x0 == DEFAULT_X0_CANDIDATES[0] and inst.weights.tolist() == [1.0]
        assert abs(verify_hard_instance(inst, link).gamma) <= 1e-8


# Piecewise-linear links with one kink, whose moment rows are dependent on
# some grids: the search keeps only independent rows.  The expected gaps are
# two-phase simplex optima, and VALID.  At x0 = 0.55 the strided crash pool
# spans two columns while the full matrix has rank 3, so a rank test on the
# pool alone drops a row that is not implied by the others.
@pytest.mark.parametrize("xs, ys, m, q, x0_candidates, gamma", [
    ([0, 2.6, 3], [0, 0.5, 0.8], 3, 50, None, 0.13384615384615384),
    ([0, 3.5, 4], [0, 0.6, 0.9], 4, 10, None, 0.10714285714285715),
    ([0, 3.5, 4], [0, 0.6, 0.9], 4, 10, [0.55], 0.07443609022556469),
], ids=["m3", "m4", "m4-x0-0.55"])
def test_kinked_tabulated_link_drops_dependent_rows(xs, ys, m, q, x0_candidates, gamma):
    link = TabulatedLink(xs, ys)
    inst = find_hard_instance(link, m=m, b=m, grid_step=1 / q, x0_candidates=x0_candidates)
    assert inst.gamma == pytest.approx(gamma, abs=1e-12)
    assert verify_hard_instance(inst, link).valid


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
    n = math.comb(n_values + m - 1, m)
    fast = np.empty((m, n))
    hardinstances._symmetrized_columns(link, grid, m, x0, m, fast, np.empty(n))
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
        for sub_ranks, combo in zip(ranks, itertools.combinations(range(m), level)):
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
    n_values = q + 2  # x0 is off the grid
    hardinstances._x0_problem(link, m, m, hardinstances._grid_values(1 / q, x0), x0,
                              hardinstances._workspace(m, n_values))
    n = math.comb(n_values + m - 1, m)
    assert link.values <= sum(n_values ** level for level in range(1, m)) + n
    # One value per sorted sub-tuple of grid points (31 464), plus the target
    # g(b * x0); a per-combination build evaluates n * C(m, level) values per
    # depth, 411 075 in all.
    assert link.values == sum(math.comb(n_values + level - 1, level)
                              for level in range(1, m + 1)) + 1


def _reference_search_columns(link, grid, m, x0, b, rows, scratch):
    slow = _reference_columns(link, grid[_reference_tuples(grid.size, m)], x0, b)
    for row, col in zip(rows, slow):
        row[:] = col


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


def _instance_bits(inst):
    return (np.float64(inst.x0).tobytes(), inst.support.shape, inst.support.tobytes(),
            inst.weights.tobytes(), np.float64(inst.gamma).tobytes(),
            inst.residuals.tobytes())


# The x0 lists alternate between x0 on the 1/q grid (q + 1 points) and x0
# inserted into it (q + 2 points), so a search switches between its two
# workspaces at every candidate.  MNL and the tabulated link are solved by the
# simplex; the degree-2 polynomial is settled by the dual residual.
@pytest.mark.parametrize("link, m, q, x0_candidates", [
    (MnlLink(), 3, 50, [0.3, 0.333, 0.5, 0.517, 0.12, 0.35]),
    (_TABULATED, 4, 25, [0.2, 0.21, 0.6, 0.5, 0.32, 0.3]),
    (_LOW_DEGREE[3], 3, 50, [0.3, 0.333, 0.5, 0.517, 0.12, 0.35]),
], ids=["mnl-m3", "tabulated-m4", "poly-deg2-m3"])
def test_search_workspaces_carry_no_state_across_candidates(link, m, q, x0_candidates):
    grids = [hardinstances._grid_values(1 / q, x0) for x0 in x0_candidates]
    assert [grid.size for grid in grids] == [q + 1, q + 2] * 3
    workspaces = {size: hardinstances._workspace(m, size) for size in (q + 1, q + 2)}
    shared = [hardinstances._solve_for_x0(link, m, m, grid, x0, workspaces[grid.size])
              for x0, grid in zip(x0_candidates, grids)]
    # checked after every candidate has run, so an instance that views a
    # workspace shows the later candidates' values
    for x0, grid, inst in zip(x0_candidates, grids, shared):
        fresh = hardinstances._solve_for_x0(link, m, m, grid, x0,
                                            hardinstances._workspace(m, grid.size))
        assert _instance_bits(inst) == _instance_bits(fresh), f"x0={x0}"
    best = find_hard_instance(link, m=m, b=m, grid_step=1 / q, x0_candidates=x0_candidates)
    assert _instance_bits(best) == _instance_bits(max(shared, key=lambda inst: inst.gamma))
    kept = _instance_bits(best)
    find_hard_instance(link, m=m, b=m, grid_step=1 / q, x0_candidates=x0_candidates[::-1])
    assert _instance_bits(best) == kept


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


@pytest.mark.parametrize("x0, support, ok", [
    (0.0, [[0.0, 1.0]], True),
    (1.0, [[-1e-12, 1.0 + 1e-12]], True),  # the support's 1e-12 slack
    (np.nextafter(1.0, 2.0), [[0.2, 0.6]], False),  # x0 takes none
    (-1e-300, [[0.2, 0.6]], False),
    (0.4, [[0.2, 1.0 + 2e-12]], False),
    (0.4, [[-2e-12, 0.6]], False),
])
def test_instance_range_checks(x0, support, ok):
    def build():
        return HardInstance(x0=x0, m=2, b=2, support=support, weights=[1.0], gamma=0.1)
    if ok:
        build()
    else:
        with pytest.raises(ValueError, match="outside"):
            build()


@pytest.mark.parametrize("field", ["x0", "support", "weights", "gamma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_instance_rejects_non_finite_values(field, bad):
    data = {"x0": 0.4, "m": 2, "b": 2, "support": [[0.2, 0.6]], "weights": [1.0],
            "gamma": 0.1}
    if field == "support":
        data["support"] = [[0.2, bad]]
    elif field == "weights":
        data["weights"] = [bad]
    else:
        data[field] = bad
    with pytest.raises(ValueError, match="finite"):
        HardInstance(**data)


class _NanAbove(LinkFunction):
    """x / (1 + x), NaN above a threshold."""

    def __init__(self, threshold):
        self.threshold = threshold

    def _eval(self, x):
        return np.where(x > self.threshold, np.nan, x / (1.0 + x))


def test_nan_gap_or_residual_grades_invalid():
    # m = 1 has no residuals: only the gap is NaN
    single = HardInstance(x0=0.3, m=1, b=2, support=[[0.6]], weights=[1.0], gamma=0.1)
    report = verify_hard_instance(single, _NanAbove(0.85))
    assert math.isnan(report.gamma) and not report.valid
    # depth-1 sums 0.5 and 0.9, depth-2 sum 0.8 against the baseline at 0.6:
    # one NaN residual next to a positive gap
    pair = HardInstance(x0=0.3, m=2, b=2, support=[[0.2, 0.6]], weights=[1.0], gamma=0.1)
    report = verify_hard_instance(pair, _NanAbove(0.85))
    assert report.gamma > DEFAULT_GAP_TOL
    assert math.isnan(report.max_abs_residual) and not report.valid
    assert len(report.messages) == 1 and "residual" in report.messages[0]
