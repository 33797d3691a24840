"""Core types: reward links, subset indexing, expected rewards, tensor features.

Arms are indexed ``0..N-1`` and an action is a size-``K`` subset.  Subsets are
ranked colexicographically through the combinatorial number system, which
gives O(K) conversions in both directions without materializing the full
C(N, K) action set.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

DEFAULT_ENUMERATION_CAP = 10**7


class CapExceededError(RuntimeError):
    """An enumeration would exceed the desk-scale cap."""


def check_enumeration(count: int, what: str):
    """Raise :class:`CapExceededError` when ``count`` items, named in the
    message by the plural noun phrase ``what``, exceed the cap.

    The one enumeration-cap check of the package.  It reads the cap at call
    time, and every table indexed by subsets, tensor entries or grid tuples
    runs it before the table is built.
    """
    if count > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(f"{count} {what} exceed cap {DEFAULT_ENUMERATION_CAP}")


class LinkDomainError(ValueError):
    """A link function was evaluated outside its domain."""


class LinkRangeError(ValueError):
    """A link evaluation left [0, 1] where a reward was required."""


# ---------------------------------------------------------------------------
# Link functions
# ---------------------------------------------------------------------------

class LinkFunction:
    """Maps the summed values of a chosen subset to an expected reward.

    Subclasses implement ``_eval`` on float arrays; ``__call__`` accepts
    scalars or arrays and preserves the input shape.  A scalar goes through
    ``_eval`` as a 0-d array and comes back as a float.
    """

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return float(self._eval(arr))
        return np.asarray(self._eval(arr), dtype=float)


class MnlLink(LinkFunction):
    """Purchase probability x / (1 + x) of a unit-price multinomial-logit customer."""

    def _eval(self, x):
        if np.any(x < -1e-12):
            raise LinkDomainError("MNL link requires nonnegative inputs")
        x = np.maximum(x, 0.0)
        return x / (1.0 + x)

    def __repr__(self):
        return "MnlLink()"


class PolynomialLink(LinkFunction):
    """Polynomial link with coefficients ordered from the constant to the leading term.

    Trailing zero coefficients are trimmed, so ``degree`` is the true degree.
    The [0, 1] range requirement is enforced where rewards are produced, not
    at construction, so arbitrary polynomials can still be lifted to tensor
    coefficient vectors.
    """

    def __init__(self, coefficients):
        coeffs = [float(c) for c in coefficients]
        if not coeffs:
            raise ValueError("at least one coefficient is required")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def _eval(self, x):
        out = np.zeros_like(x)
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def __repr__(self):
        return f"PolynomialLink({list(self.coefficients)})"


class TabulatedLink(LinkFunction):
    """Piecewise-linear link through a strictly increasing grid of (x, g(x)) pairs."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("grid needs matching 1-D xs/ys with at least two points")
        if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)):
            raise ValueError("grid abscissae must be finite and strictly increasing")
        check_unit_interval(ys, "tabulated values", error=LinkRangeError)
        self.xs = xs
        self.ys = np.clip(ys, 0.0, 1.0)

    def _eval(self, x):
        lo, hi = self.xs[0], self.xs[-1]
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            raise LinkDomainError(f"input outside tabulated domain [{lo}, {hi}]")
        return np.interp(np.clip(x, lo, hi), self.xs, self.ys)

    def __repr__(self):
        return f"TabulatedLink(<{self.xs.size} points on [{self.xs[0]}, {self.xs[-1]}]>)"


# ---------------------------------------------------------------------------
# Subset indexing (colexicographic / combinatorial number system)
# ---------------------------------------------------------------------------

def n_subsets(n_arms: int, subset_size: int) -> int:
    """Number of size-``subset_size`` subsets of ``n_arms`` arms."""
    _validate_dims(n_arms, subset_size)
    return math.comb(n_arms, subset_size)


def _validate_dims(n_arms, subset_size):
    if not (isinstance(n_arms, (int, np.integer)) and isinstance(subset_size, (int, np.integer))):
        raise ValueError("dimensions must be integers")
    if not 1 <= subset_size <= n_arms:
        raise ValueError(f"need 1 <= K <= N, got K={subset_size}, N={n_arms}")


def rank_subset(indices, n_arms: int, subset_size: int) -> int:
    """Colexicographic rank of a sorted index tuple among all size-K subsets."""
    _validate_dims(n_arms, subset_size)
    idx = [int(i) for i in indices]
    if len(idx) != subset_size:
        raise ValueError(f"expected {subset_size} indices, got {len(idx)}")
    if idx != sorted(set(idx)):
        raise ValueError("indices must be strictly increasing")
    if idx[0] < 0 or idx[-1] >= n_arms:
        raise ValueError("index out of range")
    return sum(math.comb(c, j + 1) for j, c in enumerate(idx))


def unrank_subset(rank: int, n_arms: int, subset_size: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_subset`."""
    _validate_dims(n_arms, subset_size)
    total = math.comb(n_arms, subset_size)
    rank = int(rank)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    out = []
    rem = rank
    hi = n_arms  # C(hi, j) > rem: an exclusive bound on the next index
    for j in range(subset_size, 0, -1):
        # bisect for the largest c with C(c, j) <= rem; C(j - 1, j) = 0
        c = j - 1
        while hi - c > 1:
            mid = (c + hi) // 2
            if math.comb(mid, j) <= rem:
                c = mid
            else:
                hi = mid
        out.append(c)
        rem -= math.comb(c, j)
        hi = c
    return tuple(reversed(out))


@dataclass(frozen=True)
class SubsetAction:
    """A size-K subset of arms together with its colexicographic rank."""

    indices: tuple[int, ...]
    rank: int

    @classmethod
    def from_indices(cls, indices, n_arms: int) -> "SubsetAction":
        idx = tuple(int(i) for i in indices)
        return cls(idx, rank_subset(idx, n_arms, len(idx)))

    @classmethod
    def from_rank(cls, rank: int, n_arms: int, subset_size: int) -> "SubsetAction":
        return cls(unrank_subset(rank, n_arms, subset_size), int(rank))

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class ProblemDims:
    """Shared problem dimensions: arms, subset size, horizon, optional degree."""

    n_arms: int
    subset_size: int
    horizon: int
    degree: int | None = None

    def __post_init__(self):
        _validate_dims(self.n_arms, self.subset_size)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.degree is not None and self.degree < 1:
            raise ValueError("degree must be >= 1 when given")


def colex_ranks(combos: np.ndarray, n_arms: int) -> np.ndarray:
    """Vectorized :func:`rank_subset` of the increasing index tuples (below
    ``n_arms``) along the last axis of ``combos``: sum_j C(c_j, j + 1)."""
    ranks = np.zeros(combos.shape[:-1], dtype=np.int64)
    for j in range(combos.shape[-1]):
        binom = np.array([math.comb(c, j + 1) for c in range(n_arms)], dtype=np.int64)
        ranks += binom[combos[..., j]]
    return ranks


def subsets_by_rank(n_arms: int, subset_size: int) -> np.ndarray:
    """All size-K subsets as a read-only (A, K) index array whose row r is the
    subset of colexicographic rank r: the package's one enumeration of them.

    Runs :func:`check_enumeration` on C(N, K) at every call, cached or not, so
    a lowered cap also refuses a table built before it was lowered.
    """
    check_enumeration(math.comb(n_arms, subset_size),
                      f"size-{subset_size} subsets of {n_arms} arms")
    return _rank_table(n_arms, subset_size)


@lru_cache(maxsize=32)
def _rank_table(n_arms: int, subset_size: int) -> np.ndarray:
    # the combinations of N-1, ..., 0 come out in decreasing colex rank, each
    # in decreasing order: reversing rows and columns gives rank order
    count = math.comb(n_arms, subset_size)
    flat = itertools.chain.from_iterable(
        itertools.combinations(range(n_arms - 1, -1, -1), subset_size))
    table = np.fromiter(flat, dtype=np.int64, count=count * subset_size)
    table = np.ascontiguousarray(table.reshape(count, subset_size)[::-1, ::-1])
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

def check_unit_interval(values, what: str, tol: float = 1e-12,
                        error: type[ValueError] = ValueError):
    """Raise ``error`` unless every entry of ``values`` lies in [-tol, 1 + tol].

    The one [0, 1] range check of the package, run once where the data
    enters: reward vectors and feedback means with the default 1e-12 slack,
    link outputs 1e-9 with :class:`LinkRangeError`, and realized rewards and
    prices no slack.  NaN fails the check; an empty array passes.
    """
    if isinstance(values, float):
        ok = -tol <= values <= 1.0 + tol
    else:
        arr = np.asarray(values, dtype=float)
        ok = arr.size == 0 or (float(arr.min()) >= -tol and float(arr.max()) <= 1.0 + tol)
    if not ok:
        raise error(f"{what} outside [0, 1]")


def whole_number(value, what: str) -> int:
    """``value`` as an int; a boolean, a string or a fraction raises ValueError
    naming ``what`` instead of being read as 0 or 1, parsed or truncated."""
    if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def real_number(value, what: str) -> float:
    """``value`` as a float; a boolean or a string raises ValueError naming ``what``."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def real_array(values, what: str) -> np.ndarray:
    """``values``, nested lists of numbers, as a float array, each entry checked
    by :func:`real_number`; a null reads as NaN, which finiteness checks reject."""
    entries = np.asarray(values, dtype=object)
    for value in entries.flat:
        if value is not None:
            real_number(value, what)
    return entries.astype(float)


def subset_sums(values, combos: np.ndarray) -> np.ndarray:
    """Sum of ``values[..., i]`` over each row of ``combos`` (A x K), added
    left to right so every entry carries the same bits as the scalar loop of
    :func:`expected_reward`."""
    total = values[..., combos[:, 0]]
    for j in range(1, combos.shape[1]):
        total = total + values[..., combos[:, j]]
    return total


def expected_reward(subset: SubsetAction, values, link: LinkFunction) -> float:
    """Expected reward ``g(sum of the chosen arms' values)``, clamped to [0, 1]."""
    v = np.asarray(values, dtype=float)
    check_unit_interval(v, "reward-vector entries")
    if subset.indices[-1] >= v.size:
        raise ValueError("subset index outside the reward vector")
    total = 0.0
    for i in subset.indices:
        total += v[i]
    y = float(link(float(total)))
    check_unit_interval(y, "link value", tol=1e-9, error=LinkRangeError)
    return min(1.0, max(0.0, y))


def best_subset(values, link: LinkFunction, n_arms: int,
                subset_size: int) -> tuple[SubsetAction, float]:
    """Exact argmax of the expected reward over all size-K subsets.

    Ties break toward the smallest colexicographic rank.  Raises
    :class:`CapExceededError` when C(N, K) exceeds the enumeration cap.
    """
    _validate_dims(n_arms, subset_size)
    v = np.asarray(values, dtype=float)
    check_unit_interval(v, "reward-vector entries")
    if v.size != n_arms:
        raise ValueError("reward vector length must equal n_arms")
    table = subsets_by_rank(n_arms, subset_size)
    ys = np.asarray(link(v[table].sum(axis=1)), dtype=float)
    check_unit_interval(ys, "link value", tol=1e-9, error=LinkRangeError)
    pick = int(np.argmax(ys))  # the first maximum: the smallest rank
    action = SubsetAction(tuple(int(i) for i in table[pick]), pick)
    return action, min(1.0, max(0.0, float(ys[pick])))


# ---------------------------------------------------------------------------
# Tensorization
# ---------------------------------------------------------------------------

def tensor_features(subset: SubsetAction, n_arms: int, order: int) -> np.ndarray:
    """Flattened ``order``-fold tensor power of the subset indicator vector.

    Entry at multi-index (i_1, ..., i_d) is 1 iff every i_j belongs to the
    subset; exactly K**order entries are one.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    check_enumeration(n_arms ** order, f"order-{order} tensor entries")
    ind = np.zeros(n_arms)
    ind[list(subset.indices)] = 1.0
    out = ind
    for _ in range(order - 1):
        out = np.kron(out, ind)
    return out


def lift_reward_vector(values, link: PolynomialLink, subset_size: int,
                       order: int) -> np.ndarray:
    """Tensor coefficient vector whose pairing with any subset's order-d feature
    reproduces the polynomial reward of that subset exactly.

    The degree-j monomial contributes its coefficient times the j-fold tensor
    power of ``values`` padded with uniform 1/K factors, so that
    ``<lift, features(S)> == g(sum of values on S)`` for every size-K subset.
    """
    if not isinstance(link, PolynomialLink):
        raise ValueError("lift requires a polynomial link")
    if order < 1:
        raise ValueError("order must be >= 1")
    if link.degree > order:
        raise ValueError(f"polynomial degree {link.degree} exceeds tensor order {order}")
    v = np.asarray(values, dtype=float)
    n = v.size
    check_enumeration(n ** order, f"order-{order} tensor entries")
    base = np.full(n, 1.0 / subset_size)
    lifted = np.zeros(n ** order)
    for j, coeff in enumerate(link.coefficients):
        if coeff == 0.0:
            continue
        parts = [v] * j + [base] * (order - j)
        lifted += coeff * reduce(np.kron, parts)
    return lifted
