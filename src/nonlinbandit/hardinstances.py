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

from .core import LinkFunction, all_subsets, check_enumeration, subset_sums

DEFAULT_X0_CANDIDATES = tuple(round(0.05 * k, 2) for k in range(1, 20))
DEFAULT_EQ_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-6


class SimplexError(RuntimeError):
    """LP solve failed (infeasible, unbounded, or no convergence)."""


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
# n columns gives up after BASE_PIVOTS + 5 n pivots per phase.
PRICING_TOL = 1e-9
BASE_PIVOTS = 5_000


def _simplex_phase(A, b, c, basis, max_iters):
    """Primal simplex from a feasible basis; Dantzig pricing with a switch to
    Bland's rule after a run of degenerate (non-improving) pivots."""
    r, _ = A.shape
    stall = 0
    last_obj = -np.inf
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

        reduced = c - y @ A
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


def solve_lp(problem: LpProblem, start=None) -> tuple[np.ndarray, float]:
    """Optimal basic feasible solution of the LP in ``problem``.

    Dense primal simplex.  Termination requires every reduced cost to be
    <= ``PRICING_TOL``, which certifies dual feasibility of the returned
    basis.  Returns (weights, objective value).

    ``start`` optionally names a feasible basis: one distinct column index
    per row of ``eq_matrix``.  When its basis matrix has condition number at
    most 1e10 and its basic values are all >= -1e-9 (a basis that is
    feasible only up to rounding), the simplex starts there on the problem's
    own arrays and skips phase 1.  Otherwise (a singular, ill-conditioned or
    infeasible start, or one of the wrong size) and always when ``start`` is
    None, the two-phase path runs: phase 1 drives artificial variables to
    zero from the identity basis of an (r, n + r) copy, pivots zero-level
    artificials out and drops the rows where none can leave as redundant.
    The ratio test reads slightly negative basic values as 0, so a start
    that is feasible only up to rounding takes a large pivot, not a backward
    step.  The hard-instance search passes the crash basis of
    :func:`_crash_basis`; a linear link's redundant moment rows make that
    basis singular, and its LPs take the two-phase path.
    """
    A, b, c = problem.eq_matrix, problem.eq_rhs, problem.objective
    n = A.shape[1]
    max_iters = BASE_PIVOTS + 5 * n
    basis = None if start is None else _feasible_start(A, b, start)
    if basis is None:
        A, b, basis = _phase_one(A, b, max_iters)
    basis, x_b, iters = _simplex_phase(A, b, c, basis, max_iters)
    weights = np.zeros(n)
    weights[basis] = x_b
    if np.any(weights < -1e-9):
        raise SimplexError(f"negative basic variable after {iters} iterations")
    weights = np.maximum(weights, 0.0)
    return weights, float(c @ weights)


def _feasible_start(A, b, start):
    """``start`` as a basis array if it is a usable feasible basis, else None."""
    r, n = A.shape
    basis = np.array(start, dtype=np.intp)
    if (basis.shape != (r,) or np.unique(basis).size != r
            or basis.min() < 0 or basis.max() >= n):
        return None
    B = A[:, basis]
    if not np.linalg.cond(B) <= _START_COND_LIMIT:
        return None
    if np.any(np.linalg.solve(B, b) < -_START_NEG_TOL):
        return None
    return basis


def _phase_one(A, b, max_iters):
    """Feasible basis by the artificial-variable phase 1.

    Returns the row-flipped constraint arrays, with redundant rows removed,
    and a basis of real columns for them.
    """
    A = A.copy()
    b = b.copy()
    r, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    A1 = np.hstack([A, np.eye(r)])
    c1 = np.concatenate([np.zeros(n), -np.ones(r)])
    basis = list(range(n, n + r))
    basis, x_b, _ = _simplex_phase(A1, b, c1, np.array(basis), max_iters)
    basis = list(basis)
    if float(c1[np.array(basis)] @ x_b) < -1e-7:
        raise SimplexError("LP infeasible (artificial variables remain positive)")

    # Remove any zero-level artificials: pivot them out or drop redundant rows.
    keep_rows = list(range(r))
    while any(j >= n for j in basis):
        pos = next(i for i, j in enumerate(basis) if j >= n)
        B = A1[np.ix_(keep_rows, basis)]
        row = np.linalg.solve(B, A1[keep_rows, :n])[pos]
        eligible = np.abs(row) > 1e-9
        eligible[[j for j in basis if j < n]] = False
        candidates = np.flatnonzero(eligible)
        if candidates.size:
            basis[pos] = int(candidates[0])
        else:
            del keep_rows[pos]
            del basis[pos]
    if len(keep_rows) < r:
        A, b = A[keep_rows], b[keep_rows]
    return A, b, np.array(basis)


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
    if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12) or not 0 <= x0 <= 1:
        raise ValueError("coordinates and x0 must lie in [0, 1]")
    shift = (b - level) * x0
    total = 0.0
    for combo in itertools.combinations(range(m), level):
        total += link(float(arr[list(combo)].sum()) + shift)
    return total / math.comb(m, level)


def comb_identity_residual(coefficients, y) -> float:
    """Alternating binomial-weighted sum of subset-averaged polynomial means.

    For a polynomial of degree at most m-1 evaluated on an m-tuple the sum
    vanishes identically; a degree-m leading term contributes
    ``(-1)**m * m! * a_m * prod(y)``.
    """
    arr = np.asarray(y, dtype=float)
    m = arr.size
    if m < 1:
        raise ValueError("need at least one coordinate")
    coeffs = np.asarray(coefficients, dtype=float)

    def s(x: float) -> float:
        out = 0.0
        for coef in coeffs[::-1]:
            out = out * x + coef
        return out

    total = s(0.0)
    for level in range(1, m + 1):
        acc = 0.0
        for combo in itertools.combinations(range(m), level):
            acc += s(float(arr[list(combo)].sum()))
        avg = acc / math.comb(m, level)
        total += (-1) ** level * math.comb(m, level) * avg
    return float(total)


BATTERY_M_VALUES = (2, 3, 4, 5, 6)


def identity_battery(trials: int = 500, seed: int = 0) -> dict:
    """Randomized check of the alternating identity and its degree-m failure.

    Draws ``trials`` polynomials of degree <= m-1 (identity should hold to
    float precision) and ``trials`` counterexamples of exact degree m with
    leading coefficient bounded away from zero, each at an m drawn from
    ``BATTERY_M_VALUES``.
    """
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
        if not 0 <= self.x0 <= 1:
            raise ValueError("x0 must lie in [0, 1]")
        if self.support.shape[1] != self.m or self.support.shape[0] != self.weights.size:
            raise ValueError("support/weights shapes inconsistent with m")
        if np.any(self.support < -1e-12) or np.any(self.support > 1 + 1e-12):
            raise ValueError("support coordinates must lie in [0, 1]")
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
            x0=float(data["x0"]),
            m=int(data["m"]),
            b=int(data["b"]),
            support=np.asarray(data["support"], dtype=float),
            weights=np.asarray(data["weights"], dtype=float),
            gamma=float(data["gamma"]),
            residuals=np.asarray(data.get("residuals", []), dtype=float),
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "HardInstance":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _symmetrized_columns(link, grid, m, x0, b):
    """Symmetrized moment value of every sorted ``m``-tuple of ``grid`` points
    (the rows of ``_sorted_tuples(grid.size, m)``) at every depth 1..m.

    Returns an (m, n_tuples) array; row ``level-1`` holds the depth-``level``
    subset-averaged link values.  A depth-``level`` sub-tuple sum depends only
    on which grid points the sub-tuple holds, so each depth below m takes one
    link call on the C(G + level - 1, level) sums over the sorted
    ``level``-tuples of the G grid points, stored by colexicographic rank, and
    accumulates its column, in subset enumeration order, from gathers at the
    cached ranks of the sub-tuples (:func:`_sub_tuple_ranks`).  Depth m takes
    one link call on the per-tuple sums.  Every sum is added left to right,
    so each entry carries the same bits as a per-combination build.
    """
    tuples = _sorted_tuples(grid.size, m)
    n = tuples.shape[0]
    cols = np.zeros((m, n))
    for level in range(1, m):
        combos, ranks = all_subsets(grid.size + level - 1, level)
        table = np.empty(ranks.size)
        table[ranks] = link(subset_sums(grid, combos - np.arange(level))
                            + (b - level) * x0)
        acc = np.zeros(n)
        for sub_ranks in _sub_tuple_ranks(grid.size, m, level):
            acc += np.take(table, sub_ranks)
        cols[level - 1] = acc / math.comb(m, level)
    cols[m - 1] += link(_take_sum([grid] * m, tuples, range(m)) + (b - m) * x0)
    return cols


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
    ``range(n_values)`` of its sub-tuple at the positions
    ``all_subsets(m, level)[0][k]``.  By stars and bars the sorted tuple
    a_0 <= ... <= a_{level-1} is the subset {a_j + j} of
    ``range(n_values + level - 1)``, whose rank is sum_j C(a_j + j, j + 1),
    as in :func:`core.colex_ranks`.  Kept in the smallest unsigned dtype that
    holds the ranks: uint8 at level 1, uint16 at m = 3 on the 1/50 grid and
    at m = 4 on the 1/25 grid.
    """
    tuples = _sorted_tuples(n_values, m)
    terms = [np.array([math.comb(a + j, j + 1) for a in range(n_values)])
             for j in range(level)]
    combos = all_subsets(m, level)[0]
    dtype = np.min_scalar_type(math.comb(n_values + level - 1, level) - 1)
    table = np.empty((combos.shape[0], tuples.shape[0]), dtype=dtype)
    for row, combo in zip(table, combos):
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


def _x0_problem(link, m, b, grid, x0):
    """The LP of one base level ``x0`` on its ``grid`` (:func:`_grid_values`):
    maximize the depth-m moment over weights on the sorted grid tuples, with
    the depths 1..m-1 pinned to ``g(b * x0)`` and the weights summing to 1.

    Returns (sorted index tuples, symmetrized columns, target, problem).
    """
    tuples = _sorted_tuples(grid.size, m)
    cols = _symmetrized_columns(link, grid, m, x0, b)
    target = float(link(b * x0))
    n = tuples.shape[0]
    rows = [cols[level - 1] for level in range(1, m)] + [np.ones(n)]
    rhs = np.array([target] * (m - 1) + [1.0])
    problem = LpProblem(objective=cols[m - 1], eq_matrix=np.vstack(rows), eq_rhs=rhs)
    return tuples, cols, target, problem


_CRASH_POOL = 256


def _crash_basis(grid: np.ndarray, x0: float, matrix: np.ndarray) -> list[int]:
    """Crash start for the LP of :func:`_x0_problem` at ``x0``: the column of
    the diagonal tuple (x0, ..., x0) plus m - 1 columns picked to keep the
    basis well conditioned.

    The diagonal tuple meets every moment row with weight 1, so a basis
    holding it is feasible up to rounding whatever else it holds (Bixby,
    "Implementing the simplex method: the initial basis", 1992).  Its row in
    the lexicographic tuple table is closed-form: exactly the
    C(G - i + m - 1, m) sorted tuples over ``range(i, G)`` come at or after
    (i, ..., i), where i is the grid index of x0.  The other columns come
    from greedy modified Gram-Schmidt over at most 256 evenly strided
    columns: each pick is the pool column with the largest share of its norm
    outside the span of the columns already picked, and only the pool's
    residuals are updated, never the whole matrix.
    """
    m, n = matrix.shape
    i = int(np.searchsorted(grid, x0))
    diag = math.comb(grid.size + m - 1, m) - math.comb(grid.size - i + m - 1, m)
    pool = np.arange(0, n, -(-n // _CRASH_POOL))
    pool = pool[pool != diag]
    residual = matrix[:, pool]
    norms = np.linalg.norm(residual, axis=0)
    basis = [diag]
    direction = matrix[:, diag] / np.linalg.norm(matrix[:, diag])
    for _ in range(m - 1):
        residual = residual - np.outer(direction, direction @ residual)
        left = np.linalg.norm(residual, axis=0)
        pick = int(np.argmax(left / norms))
        if not left[pick] > 0:
            break
        basis.append(int(pool[pick]))
        direction = residual[:, pick] / left[pick]
    return basis


def _solve_for_x0(link, m, b, grid, x0):
    tuples, cols, target, problem = _x0_problem(link, m, b, grid, x0)
    weights, _ = solve_lp(problem, start=_crash_basis(grid, x0, problem.eq_matrix))
    keep = weights > 1e-14
    support = grid[tuples[keep]]
    kept = weights[keep]
    kept = kept / kept.sum()
    residuals = np.array([
        float(cols[level - 1][keep] @ kept - target) for level in range(1, m)
    ])
    gamma = float(cols[m - 1][keep] @ kept - target)
    return HardInstance(x0=x0, m=m, b=b, support=support, weights=kept,
                        gamma=gamma, residuals=residuals)


def find_hard_instance(link: LinkFunction, m: int, b: int, grid_step: float = 0.02,
                       x0_candidates=None) -> HardInstance:
    """Search the coordinate grid for the instance with the largest gap.

    For each candidate base level ``x0`` the moment constraints become a
    small LP over sorted grid tuples whose objective maximizes the depth-m
    moment; the candidate with the largest resulting ``gamma`` wins.  The
    diagonal point mass is always feasible, so the search cannot fail, and
    each LP starts from a crash basis that holds it; a polynomial link of
    degree below m yields ``gamma`` at float-noise level.

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
    for x0, grid in zip(x0_candidates, grids):
        inst = _solve_for_x0(link, m, b, grid, x0)
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


def verify_hard_instance(instance: HardInstance, link: LinkFunction,
                         tol_eq: float = DEFAULT_EQ_TOL,
                         tol_gap: float = DEFAULT_GAP_TOL) -> HardInstanceReport:
    """Recompute every moment constraint from scratch and grade the instance.

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
    if max_resid > tol_eq:
        messages.append(f"moment residual {max_resid:.3g} exceeds tol_eq={tol_eq:.3g}")
    if gamma < tol_gap:
        messages.append(f"gap {gamma:.3g} below tol_gap={tol_gap:.3g}")
    return HardInstanceReport(
        valid=not messages,
        gamma=float(gamma),
        residuals=residuals,
        max_abs_residual=max_resid,
        messages=messages,
    )
