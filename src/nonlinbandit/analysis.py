"""Regret accounting against the best fixed subset and information diagnostics."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import LinkFunction, SubsetAction, all_subsets


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------

def _kl_term(p: float, q: float) -> float:
    if p == 0.0:
        return 0.0
    if q == 0.0:
        return math.inf
    return p * math.log(p / q)


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q); +inf on mass mismatch."""
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    # KL >= 0 exactly; the two log terms can cancel to a rounding-sized negative.
    return max(0.0, _kl_term(p, q) + _kl_term(1 - p, 1 - q))


def categorical_kl(p, q) -> float:
    """KL divergence between two categorical distributions given as vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have matching shapes")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1) > 1e-9 or abs(q.sum() - 1) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return max(0.0, float(sum(_kl_term(float(a), float(b)) for a, b in zip(p, q))))


def tv_distance(p, q) -> float:
    """Total variation distance; scalars are treated as Bernoulli parameters."""
    if np.isscalar(p) and np.isscalar(q):
        if not (0 <= p <= 1 and 0 <= q <= 1):
            raise ValueError("Bernoulli parameters must lie in [0, 1]")
        return abs(float(p) - float(q))
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have matching shapes")
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# Regret traces
# ---------------------------------------------------------------------------

@dataclass
class RegretTrace:
    """Per-round expected regret of a run against the best fixed subset."""

    benchmark: SubsetAction
    benchmark_values: np.ndarray
    played_values: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])


def _subset_values(hidden, idx, link, prices):
    """Per-round expected reward of one subset (index list) over a T x N matrix."""
    if link is not None:
        return np.asarray(link(hidden[:, idx].sum(axis=1)), dtype=float)
    util = hidden[:, idx].sum(axis=1)
    revenue = (hidden[:, idx] * prices[idx]).sum(axis=1)
    return revenue / (1.0 + util)


def regret_of_run(records, link: LinkFunction | None = None,
                  prices=None) -> RegretTrace:
    """Exact expected-regret trace of a recorded run.

    Finds the fixed subset maximizing the summed expected reward over the
    realized hidden vectors by exhaustive enumeration (ties to the smallest
    rank), then reports per-round and cumulative shortfalls of the played
    sequence.  Expected rewards are used throughout, never the realized
    feedback noise.
    """
    if (link is None) == (prices is None):
        raise ValueError("provide exactly one of link or prices")
    records = list(records)
    if not records:
        raise ValueError("empty run")
    hidden = np.stack([r.hidden_values for r in records])
    n_arms = hidden.shape[1]
    subset_size = len(records[0].subset)
    if prices is not None:
        prices = np.asarray(prices, dtype=float)
        if prices.shape != (n_arms,):
            raise ValueError("prices must have one entry per arm")
    combos, ranks = all_subsets(n_arms, subset_size)
    best_total, best_pos = -np.inf, -1
    for pos in np.argsort(ranks):  # ascending rank makes ties prefer smaller ranks
        total = float(_subset_values(hidden, list(combos[pos]), link, prices).sum())
        if total > best_total:
            best_total, best_pos = total, pos
    benchmark = SubsetAction(tuple(int(i) for i in combos[best_pos]),
                             int(ranks[best_pos]))

    bench_vals = _subset_values(hidden, list(combos[best_pos]), link, prices)
    played_idx = np.array([list(r.subset.indices) for r in records], dtype=np.int64)
    rows = np.arange(len(records))[:, None]
    if link is not None:
        played_vals = np.asarray(link(hidden[rows, played_idx].sum(axis=1)), dtype=float)
    else:
        util = hidden[rows, played_idx].sum(axis=1)
        revenue = (hidden[rows, played_idx] * prices[played_idx]).sum(axis=1)
        played_vals = revenue / (1.0 + util)
    inst = bench_vals - played_vals
    return RegretTrace(
        benchmark=benchmark,
        benchmark_values=bench_vals,
        played_values=played_vals,
        inst_regret=inst,
        cum_regret=np.cumsum(inst),
    )


# ---------------------------------------------------------------------------
# Scaling statistics
# ---------------------------------------------------------------------------

def slope_estimate(horizons, mean_regrets) -> tuple[float, float, float]:
    """Ordinary least squares on (log T, log regret): (slope, intercept, r^2).

    Nonpositive regrets are dropped with a warning since they have no
    log-scale image.
    """
    horizons = np.asarray(horizons, dtype=float)
    regrets = np.asarray(mean_regrets, dtype=float)
    if horizons.shape != regrets.shape or horizons.size < 3:
        raise ValueError("need at least three matching grid points")
    keep = regrets > 0
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} nonpositive regret value(s)",
                      stacklevel=2)
    horizons, regrets = horizons[keep], regrets[keep]
    if horizons.size < 2:
        raise ValueError("fewer than two positive regret values remain")
    lx, ly = np.log(horizons), np.log(regrets)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2
