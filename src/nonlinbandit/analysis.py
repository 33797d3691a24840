"""Regret accounting against the best fixed subset and information diagnostics."""
from __future__ import annotations

import math
import warnings

import numpy as np

from .core import LinkFunction, subsets_by_rank


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


def _check_distributions(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two categorical distributions of one shape as float arrays; raises on
    NaN, a negative entry or a total off 1 by more than 1e-9."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have matching shapes")
    # written so that NaN fails every test
    if not (np.all(p >= 0) and np.all(q >= 0)):
        raise ValueError("probabilities must be nonnegative numbers")
    if not (abs(p.sum() - 1) <= 1e-9 and abs(q.sum() - 1) <= 1e-9):
        raise ValueError("probabilities must sum to 1")
    return p, q


def categorical_kl(p, q) -> float:
    """KL divergence between two categorical distributions given as vectors."""
    p, q = _check_distributions(p, q)
    return max(0.0, float(sum(_kl_term(float(a), float(b)) for a, b in zip(p, q))))


def tv_distance(p, q) -> float:
    """Total variation distance; scalars are treated as Bernoulli parameters."""
    if np.isscalar(p) and np.isscalar(q):
        if not (0 <= p <= 1 and 0 <= q <= 1):
            raise ValueError("Bernoulli parameters must lie in [0, 1]")
        return abs(float(p) - float(q))
    p, q = _check_distributions(p, q)
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# Regret of a recorded run
# ---------------------------------------------------------------------------

def check_feedback_model(link, prices):
    """Exactly one of ``link`` (Bernoulli) or ``prices`` (choice feedback)."""
    if (link is None) == (prices is None):
        raise ValueError("provide exactly one of link or prices")


def _subset_values(hidden, idx, link, prices):
    """Per-round expected reward over a T x N matrix of one subset, index
    array shape (K,), or of one subset per round, shape (T, K)."""
    offered = hidden[np.arange(hidden.shape[0])[:, None], idx]
    util = offered.sum(axis=1)
    if link is not None:
        return np.asarray(link(util), dtype=float)
    return (offered * prices[idx]).sum(axis=1) / (1.0 + util)


def regret_of_run(hidden, played, link: LinkFunction | None = None,
                  prices=None) -> tuple[int, np.ndarray]:
    """Exact expected regret of a recorded run: the hidden values (T, N) and
    the played subsets' arms (T, K) of :func:`harness.simulate`.

    Finds the fixed subset maximizing the summed expected reward over the
    realized hidden vectors by exhaustive enumeration (ties to the smallest
    rank), then returns its colex rank and the played sequence's per-round
    shortfall against it, shape (T,); the cumulative regret is its running
    sum.  Expected rewards are used throughout, never the realized feedback
    noise.
    """
    check_feedback_model(link, prices)
    hidden = np.asarray(hidden, dtype=float)
    played = np.asarray(played, dtype=np.int64)
    if hidden.shape[0] == 0:
        raise ValueError("empty run")
    if played.shape[0] != hidden.shape[0]:
        raise ValueError(f"{hidden.shape[0]} rounds of hidden values, "
                         f"{played.shape[0]} of played subsets")
    n_arms, subset_size = hidden.shape[1], played.shape[1]
    if prices is not None:
        prices = np.asarray(prices, dtype=float)
        if prices.shape != (n_arms,):
            raise ValueError("prices must have one entry per arm")
    table = subsets_by_rank(n_arms, subset_size)
    totals = [_subset_values(hidden, combo, link, prices).sum() for combo in table]
    best_rank = int(np.argmax(totals))  # the first maximum: ties to the smallest rank
    bench_vals = _subset_values(hidden, table[best_rank], link, prices)
    return best_rank, bench_vals - _subset_values(hidden, played, link, prices)


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
