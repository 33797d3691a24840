"""Synthesis and verification of exchangeable hard instances by LP search.

A hard instance for subset size K plants an exchangeable joint distribution
on m coordinates whose symmetrized moments of every depth below m match the
baseline value ``g(b * x0)`` while the depth-m moment exceeds it by a gap
``gamma``.  The search discretizes the coordinates on a grid, encodes the
moment constraints as a small dense LP over sorted support tuples, and
maximizes the gap.  Weight on a sorted tuple stands for uniform mass over
its permutations, which the subset-averaged moments already encode.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    LinkFunction,
    PolynomialLink,
    check_enumeration,
    check_unit_interval,
    real_array,
    real_number,
    subset_sums,
    subsets_by_rank,
    whole_number,
)

DEFAULT_X0_CANDIDATES = tuple(round(0.05 * k, 2) for k in range(1, 20))
DEFAULT_EQ_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-6


class SimplexError(RuntimeError):
    """LP solve failed (unusable start, unbounded, or no convergence)."""


# ---------------------------------------------------------------------------
# Dense primal simplex
# ---------------------------------------------------------------------------

@dataclass
class LpProblem:
    """max objective . w  subject to  eq_matrix @ w == eq_rhs, w >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.eq_matrix = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        r, n = self.eq_matrix.shape
        if self.objective.shape != (n,) or self.eq_rhs.shape != (r,):
            raise ValueError("inconsistent LP dimensions")
        for arr in (self.objective, self.eq_matrix, self.eq_rhs):
            if not np.all(np.isfinite(arr)):
                raise ValueError("LP data must be finite")


_STALL_LIMIT = 25
# Optimality: every reduced cost at most PRICING_TOL.  A solve of an LP with
# n columns gives up after BASE_PIVOTS + 5 n pivots.
PRICING_TOL = 1e-9
BASE_PIVOTS = 5_000


def _simplex_phase(A, b, c, basis, max_iters):
    """Primal simplex from a feasible basis; Dantzig pricing with a switch to
    Bland's rule after a run of degenerate (non-improving) pivots."""
    r, n = A.shape
    stall = 0
    last_obj = -np.inf
    reduced = np.empty(n)
    for iteration in range(1, max_iters + 1):
        B = A[:, basis]
        try:
            x_b = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise SimplexError(f"singular basis at iteration {iteration}") from exc
        obj = float(c[basis] @ x_b)
        stall = stall + 1 if obj <= last_obj + 1e-13 else 0
        last_obj = max(last_obj, obj)

        np.matmul(y, A, out=reduced)
        np.subtract(c, reduced, out=reduced)
        reduced[basis] = 0.0
        bland = stall >= _STALL_LIMIT
        if bland:
            improving = np.nonzero(reduced > PRICING_TOL)[0]
            if improving.size == 0:
                return basis, x_b, iteration
            enter = int(improving[0])
        else:
            enter = int(np.argmax(reduced))
            if reduced[enter] <= PRICING_TOL:
                return basis, x_b, iteration

        direction = np.linalg.solve(B, A[:, enter])
        positive = direction > 1e-11
        if not np.any(positive):
            raise SimplexError(f"unbounded objective at iteration {iteration}")
        ratios = np.full(r, np.inf)
        ratios[positive] = np.maximum(x_b[positive], 0.0) / direction[positive]
        theta = float(ratios.min())
        ties = np.nonzero(ratios <= theta + 1e-12)[0]
        if bland:
            leave = min(ties, key=lambda i: basis[i])
        else:
            leave = int(ties[np.argmax(direction[ties])])
        basis[leave] = enter
    raise SimplexError(f"no convergence within {max_iters} iterations")


_START_COND_LIMIT = 1e10
_START_NEG_TOL = 1e-9


def solve_lp(problem: LpProblem, start) -> tuple[np.ndarray, float]:
    """Optimal basic feasible solution of the LP in ``problem`` by the dense
    primal simplex from the basis ``start``: one distinct column index per
    row of ``eq_matrix``.  Returns (weights, objective value).

    The start's basis matrix must have condition number at most 1e10 and
    basic values all >= -1e-9; the ratio test reads slightly negative basic
    values as 0, so a start feasible only up to rounding takes a large
    pivot, not a backward step.  Termination requires every reduced cost to
    be <= ``PRICING_TOL``, which certifies dual feasibility of the returned
    basis.  Raises :class:`SimplexError` for an unusable start (wrong size,
    repeated or out-of-range columns, singular, ill-conditioned or
    infeasible; dependent rows leave no usable start, so drop them first, as
    :func:`_crash_start` does) and for an unbounded or non-converging solve.
    """
    A, b, c = problem.eq_matrix, problem.eq_rhs, problem.objective
    r, n = A.shape
    basis = np.array(start, dtype=np.intp)
    if (basis.shape != (r,) or np.unique(basis).size != r
            or basis.min() < 0 or basis.max() >= n):
        raise SimplexError(f"start must name {r} distinct columns of {n}")
    B = A[:, basis]
    if not np.linalg.cond(B) <= _START_COND_LIMIT:
        raise SimplexError("start basis is singular or ill-conditioned")
    if np.any(np.linalg.solve(B, b) < -_START_NEG_TOL):
        raise SimplexError("start basis is infeasible")
    basis, x_b, iters = _simplex_phase(A, b, c, basis, BASE_PIVOTS + 5 * n)
    weights = np.zeros(n)
    weights[basis] = x_b
    if np.any(weights < -1e-9):
        raise SimplexError(f"negative basic variable after {iters} iterations")
    weights = np.maximum(weights, 0.0)
    return weights, float(c @ weights)


# ---------------------------------------------------------------------------
# Symmetrized moments and the alternating identity
# ---------------------------------------------------------------------------

def symmetrized_link(link: LinkFunction, level: int, x, x0: float, b: int) -> float:
    """Average of ``link(sum over a size-`level` subset of x + (b - level) * x0)``
    over all subsets of that size."""
    arr = np.asarray(x, dtype=float)
    m = arr.size
    if not 1 <= level <= m:
        raise ValueError(f"level must be in [1, {m}]")
    if b < m:
        raise ValueError("shift budget b must be >= m")
    check_unit_interval(arr, "coordinates")
    check_unit_interval(float(x0), "x0", tol=0.0)
    shift = (b - level) * x0
    total = 0.0
    for combo in itertools.combinations(range(m), level):
        total += link(float(arr[list(combo)].sum()) + shift)
    return total / math.comb(m, level)


def comb_identity_residual(coefficients, y) -> float:
    """Alternating binomial-weighted sum of subset-averaged polynomial means.

    For a polynomial of degree at most m-1 evaluated on an m-tuple the sum
    vanishes identically; a degree-m leading term contributes
    ``(-1)**m * m! * a_m * prod(y)``.  Each ``y`` lies in [0, 1].
    """
    m = np.asarray(y, dtype=float).size
    if m < 1:
        raise ValueError("need at least one coordinate")
    link = PolynomialLink(coefficients)
    total = link(0.0)
    for level in range(1, m + 1):
        mean = symmetrized_link(link, level, y, 0.0, m)
        total += (-1) ** level * math.comb(m, level) * mean
    return float(total)


BATTERY_M_VALUES = (2, 3, 4, 5, 6)


def identity_battery(trials: int = 500, seed: int = 0) -> dict:
    """Randomized check of the alternating identity and its degree-m failure.

    Draws ``trials`` polynomials of degree <= m-1 (identity should hold to
    float precision) and ``trials`` counterexamples of exact degree m with
    leading coefficient bounded away from zero, each at an m drawn from
    ``BATTERY_M_VALUES``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    max_resid = 0.0
    for _ in range(trials):
        m = int(rng.choice(BATTERY_M_VALUES))
        degree = int(rng.integers(0, m))
        coeffs = rng.uniform(-1, 1, size=degree + 1)
        y = rng.uniform(0, 1, size=m)
        max_resid = max(max_resid, abs(comb_identity_residual(coeffs, y)))
    exceed = 0
    for _ in range(trials):
        m = int(rng.choice(BATTERY_M_VALUES))
        coeffs = rng.uniform(-1, 1, size=m + 1)
        coeffs[-1] = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.5, 1.0)
        y = rng.uniform(0, 1, size=m)
        if abs(comb_identity_residual(coeffs, y)) > 1e-3:
            exceed += 1
    return {
        "trials": trials,
        "max_low_degree_residual": max_resid,
        "counterexample_fraction": exceed / trials,
        "elapsed_s": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# Hard instances
# ---------------------------------------------------------------------------

@dataclass
class HardInstance:
    """Exchangeable hard distribution: sorted support atoms with weights.

    ``support`` rows are sorted m-tuples in [0, 1]; a row's weight stands for
    uniform mass on all its permutations.  ``residuals`` carries the signed
    moment-constraint errors for depths 1..m-1 from the solve; ``gamma`` is
    the depth-m gap over the baseline ``g(b * x0)``.
    """

    x0: float
    m: int
    b: int
    support: np.ndarray
    weights: np.ndarray
    gamma: float
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.residuals = np.atleast_1d(np.asarray(self.residuals, dtype=float))
        if self.m < 1 or self.b < self.m:
            raise ValueError("need m >= 1 and b >= m")
        if not all(np.all(np.isfinite(value)) for value in
                   (self.x0, self.support, self.weights, self.gamma, self.residuals)):
            raise ValueError("x0, support, weights, gamma and residuals must be finite")
        check_unit_interval(float(self.x0), "x0", tol=0.0)
        if self.support.shape[1] != self.m or self.support.shape[0] != self.weights.size:
            raise ValueError("support/weights shapes inconsistent with m")
        check_unit_interval(self.support, "support coordinates")
        if np.any(np.diff(self.support, axis=1) < -1e-12):
            raise ValueError("support rows must be sorted ascending")
        if np.any(self.weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    # -- exact moments ----------------------------------------------------
    def moment_mean(self, link: LinkFunction, level: int) -> float:
        """Exact weighted symmetrized moment at the given depth."""
        return float(sum(
            w * symmetrized_link(link, level, atom, self.x0, self.b)
            for w, atom in zip(self.weights, self.support)
        ))

    def baseline(self, link: LinkFunction) -> float:
        return float(link(self.b * self.x0))

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "x0": self.x0,
            "m": self.m,
            "b": self.b,
            "support": [[float(v) for v in row] for row in self.support],
            "weights": [float(w) for w in self.weights],
            "gamma": self.gamma,
            "residuals": [float(r) for r in self.residuals],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HardInstance":
        return cls(
            x0=real_number(data["x0"], "instance x0"),
            m=whole_number(data["m"], "instance m"),
            b=whole_number(data["b"], "instance b"),
            support=real_array(data["support"], "instance support entry"),
            weights=real_array(data["weights"], "instance weight"),
            gamma=real_number(data["gamma"], "instance gamma"),
            residuals=real_array(data.get("residuals", []), "instance residual"),
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "HardInstance":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _symmetrized_columns(link, grid, m, x0, b, rows, scratch):
    """Symmetrized moment value of every sorted ``m``-tuple of ``grid`` points
    (the rows of ``_sorted_tuples(grid.size, m)``) at every depth 1..m.

    Writes the depth-``level`` subset-averaged link values into
    ``rows[level - 1]``, gathering through the n_tuples-vector ``scratch``;
    every row is zero-filled before it accumulates.  A depth-``level``
    sub-tuple sum depends only on which grid points the sub-tuple holds, so
    each depth below m takes one link call on the C(G + level - 1, level)
    sums over the sorted ``level``-tuples of the G grid points, stored by
    colexicographic rank, and accumulates its column, in subset enumeration
    order, from gathers at the cached ranks of the sub-tuples
    (:func:`_sub_tuple_ranks`).  Depth m takes one link call on the
    per-tuple sums.  Every sum is added left to right, so each entry carries
    the same bits as a per-combination build.
    """
    tuples = _sorted_tuples(grid.size, m)
    for level in range(1, m):
        by_rank = subsets_by_rank(grid.size + level - 1, level)
        table = link(subset_sums(grid, by_rank - np.arange(level)) + (b - level) * x0)
        acc = rows[level - 1]
        acc.fill(0.0)
        for sub_ranks in _sub_tuple_ranks(grid.size, m, level):
            # the ranks are in range; mode "raise" would buffer the output
            acc += np.take(table, sub_ranks, out=scratch, mode="clip")
        np.divide(acc, math.comb(m, level), out=acc)
    rows[m - 1].fill(0.0)
    rows[m - 1] += link(_take_sum([grid] * m, tuples, range(m)) + (b - m) * x0)


def _take_sum(tables, tuples, combo):
    """``tables[j][tuples[:, combo[j]]]`` summed over j, added left to right.

    ``np.take`` gathers through the uint8 index columns about three times
    faster than fancy indexing, which first converts them.
    """
    total = np.take(tables[0], tuples[:, combo[0]])
    for table, column in zip(tables[1:], combo[1:]):
        total += np.take(table, tuples[:, column])
    return total


@lru_cache(maxsize=16)
def _sorted_tuples(n_values: int, m: int) -> np.ndarray:
    """Read-only (C(n_values + m - 1, m), m) table of the sorted index tuples
    over ``range(n_values)``, in ``itertools.combinations_with_replacement``
    order.

    The table is kept in the smallest unsigned dtype that holds
    ``n_values - 1`` (uint8 on every grid the search accepts) and filled
    straight from the iterator, so no int64 copy is built or cached.
    """
    count = math.comb(n_values + m - 1, m)
    flat = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(n_values), m))
    table = np.fromiter(flat, dtype=np.min_scalar_type(n_values - 1),
                        count=count * m).reshape(count, m)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _sub_tuple_ranks(n_values: int, m: int, level: int) -> np.ndarray:
    """Read-only (C(m, level), n_tuples) table of sub-tuple ranks.

    Row k holds, for every row of ``_sorted_tuples(n_values, m)``, the
    colexicographic rank among the sorted ``level``-tuples over
    ``range(n_values)`` of its sub-tuple at the k-th positions of
    ``itertools.combinations(range(m), level)``; the columns accumulate in
    this lexicographic order, which fixes their bits.  By stars and bars the
    sorted tuple a_0 <= ... <= a_{level-1} is the subset {a_j + j} of
    ``range(n_values + level - 1)``, whose rank is sum_j C(a_j + j, j + 1),
    as in :func:`core.colex_ranks`.  Kept in the smallest unsigned dtype that
    holds the ranks: uint8 at level 1, uint16 at m = 3 on the 1/50 grid and
    at m = 4 on the 1/25 grid.
    """
    tuples = _sorted_tuples(n_values, m)
    terms = [np.array([math.comb(a + j, j + 1) for a in range(n_values)])
             for j in range(level)]
    dtype = np.min_scalar_type(math.comb(n_values + level - 1, level) - 1)
    table = np.empty((math.comb(m, level), tuples.shape[0]), dtype=dtype)
    for row, combo in zip(table, itertools.combinations(range(m), level)):
        row[:] = _take_sum(terms, tuples, combo)
    table.setflags(write=False)
    return table


def _grid_values(grid_step: float, x0: float) -> np.ndarray:
    q = round(1.0 / grid_step)
    if q < 1 or q > 200 or abs(q * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must equal 1/q for an integer q <= 200")
    grid = np.arange(q + 1) / q
    # x0 joins the grid so the diagonal point mass is always representable,
    # which keeps the LP feasible for every candidate.
    return np.unique(np.append(grid, x0))


def _workspace(m, n_values):
    """The only buffers of a search on a grid of ``n_values`` points, reused
    across its x0 candidates: an (m + 1, n) block and an n-vector of
    scratch, for the n = C(n_values + m - 1, m) sorted tuples.  Rows 0..m-2
    of the block hold the depth 1..m-1 moment rows, row m - 1 the ones row
    (filled here, once) and row m the depth-m row; :func:`_x0_problem`
    takes rows 0..m-1 as its LP's equality matrix and row m as its
    objective.  :func:`_symmetrized_columns` gathers through the scratch,
    and :func:`_has_no_gap` forms its residual in it.  Each candidate
    rewrites every row it reads, and reusing the arrays keeps the allocator
    from returning them to the system and faulting them in again."""
    block = np.empty((m + 1, math.comb(n_values + m - 1, m)))
    block[m - 1] = 1.0
    return block, np.empty(block.shape[1])


def _x0_problem(link, m, b, grid, x0, workspace):
    """The LP of one base level ``x0`` on its ``grid`` (:func:`_grid_values`):
    maximize the depth-m moment over weights on the sorted grid tuples, with
    the depths 1..m-1 pinned to ``g(b * x0)`` and the weights summing to 1.
    The LP is a view of ``workspace`` (:func:`_workspace`), which the next
    candidate on the same grid size overwrites.

    The right-hand side is the diagonal tuple's own column, (g(b * x0), ...,
    g(b * x0), 1) up to rounding, so the diagonal point mass is exactly
    feasible.  Its row in the tuple table is closed-form: exactly the
    C(G - i + m - 1, m) sorted tuples over ``range(i, G)`` come at or after
    (i, ..., i), where i is the grid index of x0.

    Returns (sorted index tuples, target g(b * x0), diagonal column index,
    problem).
    """
    tuples = _sorted_tuples(grid.size, m)
    block, scratch = workspace
    _symmetrized_columns(link, grid, m, x0, b, [*block[:m - 1], block[m]], scratch)
    target = float(link(b * x0))
    i = int(np.searchsorted(grid, x0))
    diag = tuples.shape[0] - math.comb(grid.size - i + m - 1, m)
    matrix = block[:m]
    problem = LpProblem(objective=block[m], eq_matrix=matrix, eq_rhs=matrix[:, diag])
    return tuples, target, diag, problem


_CRASH_POOL = 256
# A column (row) joins a greedy pick only when more than this share of its
# norm lies outside the span of those already picked.
_INDEPENDENCE_TOL = 1e-12
# Twice the largest dual residual at which an LP is settled as gap-free.
_NO_GAP_TOL = 1e-10


def _crash_pool(n: int, diag: int) -> np.ndarray:
    """At most 256 evenly strided column indices, without ``diag``."""
    pool = np.arange(0, n, -(-n // _CRASH_POOL))
    return pool[pool != diag]


def _has_no_gap(problem: LpProblem, diag: int, scratch) -> bool:
    """Whether weak duality rules out a gap above ``_NO_GAP_TOL / 2``.

    For any y the objective row splits as c = y A + r, so on the feasible
    set c . x = y . rhs + r . x, and the diagonal point mass, which is
    feasible, has c . x = y . rhs + r_diag.  No feasible x then beats it by
    more than 2 max |r|.  y is the least-squares fit of c on the columns of
    :func:`_crash_pool`; a polynomial link of degree below m puts c in the
    row span of the moment rows, which makes r vanish up to rounding.  r is
    formed in the n-vector ``scratch``.
    """
    A, c = problem.eq_matrix, problem.objective
    pool = _crash_pool(c.size, diag)
    y = np.linalg.lstsq(A[:, pool].T, c[pool], rcond=None)[0]
    residual = np.matmul(y, A, out=scratch)
    np.subtract(c, residual, out=residual)
    return 2 * float(np.max(np.abs(residual, out=residual))) <= _NO_GAP_TOL


def _greedy_independent(matrix: np.ndarray, first: int, candidates: np.ndarray,
                        count: int) -> list[int]:
    """Column ``first`` plus up to ``count - 1`` of ``candidates``, picked by
    greedy modified Gram-Schmidt: each pick is the candidate with the largest
    share of its norm outside the span of the columns already picked, and
    the picking stops when that share is at most ``_INDEPENDENCE_TOL``.
    Only the candidates' residuals are updated."""
    residual = matrix[:, candidates]
    norms = np.maximum(np.linalg.norm(residual, axis=0), np.finfo(float).tiny)
    picks = [first]
    direction = matrix[:, first] / np.linalg.norm(matrix[:, first])
    for _ in range(count - 1):
        residual = residual - np.outer(direction, direction @ residual)
        left = np.linalg.norm(residual, axis=0)
        pick = int(np.argmax(left / norms))
        if not left[pick] > _INDEPENDENCE_TOL * norms[pick]:
            break
        picks.append(int(candidates[pick]))
        direction = residual[:, pick] / left[pick]
    return picks


def _crash_start(problem: LpProblem, diag: int) -> tuple[LpProblem, list[int]]:
    """Crash start for the LP of :func:`_x0_problem`: the LP with only
    independent rows, and a basis for it of the diagonal tuple's column
    ``diag`` plus columns picked to keep it well conditioned.

    With the diagonal column as the right-hand side, a basis holding it is
    feasible whatever else it holds (Bixby, "Implementing the simplex
    method: the initial basis", 1992).  The other columns come from the
    strided :func:`_crash_pool`, or from every column when it spans too few.
    When every column spans fewer than one per row, the rows are dependent,
    and only rows independent on the basis are kept, the ones row first;
    the basis then spans every column, so the kept rows imply the others.
    """
    matrix = problem.eq_matrix
    rows, n = matrix.shape
    basis = _greedy_independent(matrix, diag, _crash_pool(n, diag), rows)
    if len(basis) < rows:
        basis = _greedy_independent(matrix, diag, np.delete(np.arange(n), diag), rows)
    if len(basis) == rows:
        return problem, basis
    kept = np.sort(_greedy_independent(matrix[:, basis].T, rows - 1,
                                       np.arange(rows - 1), len(basis)))
    return LpProblem(problem.objective, matrix[kept], problem.eq_rhs[kept]), basis


def _solve_for_x0(link, m, b, grid, x0, workspace):
    """The instance of one base level ``x0``, built in ``workspace``
    (:func:`_workspace`); it holds no view of the workspace."""
    tuples, target, diag, problem = _x0_problem(link, m, b, grid, x0, workspace)
    if _has_no_gap(problem, diag, workspace[1]):
        return HardInstance(x0=x0, m=m, b=b, support=grid[tuples[[diag]]],
                            weights=[1.0], gamma=0.0,
                            residuals=problem.eq_matrix[:m - 1, diag] - target)
    weights, _ = solve_lp(*_crash_start(problem, diag))
    keep = weights > 1e-14
    support = grid[tuples[keep]]
    kept = weights[keep]
    kept = kept / kept.sum()
    residuals = np.array([float(row[keep] @ kept - target)
                          for row in problem.eq_matrix[:m - 1]])
    gamma = float(problem.objective[keep] @ kept - target)
    return HardInstance(x0=x0, m=m, b=b, support=support, weights=kept,
                        gamma=gamma, residuals=residuals)


def find_hard_instance(link: LinkFunction, m: int, b: int, grid_step: float = 0.02,
                       x0_candidates=None) -> HardInstance:
    """Search the coordinate grid for the instance with the largest gap.

    For each candidate base level ``x0`` the moment constraints become a
    small LP over sorted grid tuples whose objective maximizes the depth-m
    moment; the candidate with the largest resulting ``gamma`` wins.  The
    diagonal point mass is always feasible, so the search cannot fail.  An
    LP whose dual residual rules out a gap (:func:`_has_no_gap`), as every LP
    of a polynomial link of degree below m does, yields the diagonal point
    mass with ``gamma`` = 0; every other LP is solved from a crash basis
    that holds it.  The candidates share one workspace (:func:`_workspace`)
    per grid size, at most two of them: x0 on the grid, and x0 inserted
    into it.  Each is allocated at its first candidate, after the cap
    checks, and dropped when the search returns.

    Raises ``ValueError`` for an empty candidate list, and
    :class:`CapExceededError`, before any tuple is enumerated, when a
    candidate's grid of G points has more sorted m-tuples, C(G + m - 1, m),
    than the enumeration cap.
    """
    if m < 1 or b < m:
        raise ValueError("need m >= 1 and b >= m")
    if x0_candidates is None:
        x0_candidates = DEFAULT_X0_CANDIDATES
    x0_candidates = [float(x0) for x0 in x0_candidates]
    if not x0_candidates:
        raise ValueError("need at least one x0 candidate")
    grids = []
    for x0 in x0_candidates:
        if not 0 < x0 < 1:
            raise ValueError("x0 candidates must lie in (0, 1)")
        grid = _grid_values(grid_step, x0)
        check_enumeration(math.comb(grid.size + m - 1, m),
                          f"sorted {m}-tuples of {grid.size} grid points")
        grids.append(grid)
    best = None
    workspaces = {}
    for x0, grid in zip(x0_candidates, grids):
        if grid.size not in workspaces:
            workspaces[grid.size] = _workspace(m, grid.size)
        inst = _solve_for_x0(link, m, b, grid, x0, workspaces[grid.size])
        if best is None or inst.gamma > best.gamma:
            best = inst
    return best


@dataclass
class HardInstanceReport:
    """Outcome of an independent recomputation of an instance's constraints."""

    valid: bool
    gamma: float
    residuals: np.ndarray
    max_abs_residual: float
    messages: list[str]

    def __str__(self):
        status = "VALID" if self.valid else "INVALID"
        residuals = ", ".join(f"{r:.3e}" for r in self.residuals) or "none"
        lines = [f"{status}: gamma={self.gamma:.6g}, residuals=[{residuals}], "
                 f"max |residual|={self.max_abs_residual:.3g}"]
        lines += [f"  - {msg}" for msg in self.messages]
        return "\n".join(lines)


def verify_hard_instance(instance: HardInstance, link: LinkFunction) -> HardInstanceReport:
    """Recompute every moment constraint from scratch and grade the instance
    against ``DEFAULT_EQ_TOL`` and ``DEFAULT_GAP_TOL``.

    Uses the scalar per-atom symmetrized means rather than the vectorized
    column construction of the search, so it exercises an independent path.
    """
    target = instance.baseline(link)
    residuals = np.array([
        instance.moment_mean(link, level) - target
        for level in range(1, instance.m)
    ])
    gamma = instance.moment_mean(link, instance.m) - target
    max_resid = float(np.max(np.abs(residuals))) if residuals.size else 0.0
    messages = []
    # written so that a NaN residual or gap fails too
    if not max_resid <= DEFAULT_EQ_TOL:
        messages.append(f"moment residual {max_resid:.3g} exceeds tol_eq={DEFAULT_EQ_TOL:.3g}")
    if not gamma >= DEFAULT_GAP_TOL:
        messages.append(f"gap {gamma:.3g} below tol_gap={DEFAULT_GAP_TOL:.3g}")
    return HardInstanceReport(
        valid=not messages,
        gamma=float(gamma),
        residuals=residuals,
        max_abs_residual=max_resid,
        messages=messages,
    )
