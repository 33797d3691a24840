"""Adversaries, feedback channels, and exact mixture-law diagnostics.

The hard adversary plants a hidden optimal subset: every round all arms sit
at the base level ``x0`` except that, with probability ``delta``, the planted
arms receive a uniformly permuted atom of the instance's exchangeable
support.  Any action that fails to cover the planted subset then sees the
same feedback law as the all-``x0`` world, which is what the closed-form
checks in this module verify.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import bernoulli_kl
from .core import LinkFunction, SubsetAction, check_unit_interval
from .hardinstances import HardInstance, verify_hard_instance


@dataclass
class EnvRecord:
    """One interaction round: hidden values, action, feedback, realized reward.

    ``feedback`` is the Bernoulli outcome for binary channels; for the choice
    channel it is the purchased arm index, with -1 meaning no purchase.
    """

    t: int
    hidden_values: np.ndarray
    subset: SubsetAction
    feedback: int
    reward: float

    def __post_init__(self):
        check_unit_interval(self.reward, "reward", tol=0.0)


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------

class Adversary:
    """Oblivious reward-vector process with a fixed per-round random layout.

    Every round consumes exactly ``n_uniforms`` uniforms from the environment
    stream, whatever happens in it, so the stream never depends on the
    learner.  :meth:`reward_vector` draws one round from a generator (the
    reference path); :meth:`reward_block` maps a block of already drawn
    uniforms, shape (R, B, n_uniforms), to the hidden vectors of rounds
    ``t0 .. t0 + B - 1``, shape (R, B, N), or (1, B, N) when they do not
    depend on the draws.  Both give the same bits for the same uniforms.
    """

    n_arms: int
    n_uniforms = 0

    def reward_vector(self, t: int, rng) -> np.ndarray:
        raise NotImplementedError

    def reward_block(self, t0: int, uniforms: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class StochasticAdversary(Adversary):
    """Plays one fixed reward vector every round."""

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        check_unit_interval(v, "values", tol=0.0)
        self.values = v
        self.n_arms = v.size

    def reward_vector(self, t, rng):
        return self.values.copy()

    def reward_block(self, t0, uniforms):
        return np.broadcast_to(self.values, (1, uniforms.shape[-2], self.n_arms))


class ObliviousAdversary(Adversary):
    """Plays a fixed per-round schedule of reward vectors."""

    def __init__(self, schedule):
        sched = np.atleast_2d(np.asarray(schedule, dtype=float))
        check_unit_interval(sched, "schedule values", tol=0.0)
        self.schedule = sched
        self.n_arms = sched.shape[1]

    def _check_rounds(self, first, last):
        if not 1 <= first <= last <= self.schedule.shape[0]:
            raise ValueError(f"rounds {first}..{last} outside schedule of length "
                             f"{self.schedule.shape[0]}")

    def reward_vector(self, t, rng):
        self._check_rounds(t, t)
        return self.schedule[t - 1].copy()

    def reward_block(self, t0, uniforms):
        count = uniforms.shape[-2]
        self._check_rounds(t0, t0 + count - 1)
        return self.schedule[None, t0 - 1:t0 - 1 + count]


class HardMixtureAdversary(Adversary):
    """Mixture adversary planting a hidden optimal subset.

    ``planted`` has ``instance.m`` arms: equal to the action size K for the
    general construction, or smaller for the low-degree polynomial variant
    where any action covering the planted set is optimal.  Refuses instances
    that fail independent verification at the default tolerances.

    A round takes ``m + 2`` uniforms: the planted test (planted when below
    ``delta``), the atom draw (inverse CDF over the weights), and m keys
    whose argsort is the uniformly random permutation of the atom.
    """

    def __init__(self, instance: HardInstance, link: LinkFunction, planted,
                 delta: float, n_arms: int, subset_size: int):
        if not 0 < delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        planted = tuple(sorted(int(i) for i in planted))
        if len(planted) != instance.m or len(set(planted)) != instance.m:
            raise ValueError(f"planted subset must have {instance.m} distinct arms")
        if planted[0] < 0 or planted[-1] >= n_arms:
            raise ValueError("planted arm outside range")
        if instance.b != subset_size:
            raise ValueError("instance shift budget must equal the action size")
        if instance.m > subset_size:
            raise ValueError("planted subset cannot exceed the action size")
        report = verify_hard_instance(instance, link)
        if not report.valid:
            raise ValueError(f"refusing INVALID instance:\n{report}")
        self.instance = instance
        self.link = link
        self.planted = planted
        self.delta = float(delta)
        self.n_arms = int(n_arms)
        self.subset_size = int(subset_size)
        self._planted_arr = np.array(planted, dtype=np.int64)
        self._cum_weights = np.cumsum(instance.weights)
        self._cum_weights[-1] = 1.0
        self.n_uniforms = instance.m + 2

    def reward_vector(self, t, rng):
        inst = self.instance
        planted = rng.random() < self.delta
        pick = rng.random()
        keys = rng.random(inst.m)
        v = np.full(self.n_arms, inst.x0)
        if planted:
            atom = inst.support[int(np.searchsorted(self._cum_weights, pick,
                                                    side="right"))]
            v[self._planted_arr] = atom[np.argsort(keys)]
        return v

    def reward_block(self, t0, uniforms):
        inst = self.instance
        planted = uniforms[..., 0] < self.delta
        atoms = inst.support[np.searchsorted(self._cum_weights, uniforms[..., 1],
                                             side="right")]
        shuffled = np.take_along_axis(atoms, np.argsort(uniforms[..., 2:], axis=-1),
                                      axis=-1)
        v = np.full(uniforms.shape[:-1] + (self.n_arms,), inst.x0)
        v[..., self._planted_arr] = np.where(planted[..., None], shuffled, inst.x0)
        return v


# ---------------------------------------------------------------------------
# Feedback channels
# ---------------------------------------------------------------------------

def bernoulli_feedback(mean: float, rng) -> int:
    """Binary reward with the given success probability."""
    check_unit_interval(float(mean), "Bernoulli mean")
    return int(rng.random() < min(1.0, max(0.0, mean)))


def mnl_sample_choice(subset: SubsetAction, values, rng) -> int:
    """Sampled customer choice from the offered subset; -1 means no purchase.

    Item i is chosen with probability v_i / (1 + sum of offered v); the
    remaining mass is the no-purchase outcome.  One uniform, scaled by the
    running bound 1 + v_1 + ... + v_K (added left to right), picks the first
    slot whose running bound exceeds it.
    """
    v = np.asarray(values, dtype=float)
    idx = list(subset.indices)
    offered = v[idx]
    if np.any(offered < 0):
        raise ValueError("utilities must be nonnegative")
    bounds = [1.0]
    for util in offered:
        bounds.append(bounds[-1] + float(util))
    u = rng.random() * bounds[-1]
    for slot, bound in enumerate(bounds):
        if u < bound:
            return -1 if slot == 0 else int(idx[slot - 1])
    return int(idx[-1])


def mnl_revenue(subset: SubsetAction, values, prices) -> float:
    """Expected revenue of an offered subset under multinomial-logit choice."""
    v = np.asarray(values, dtype=float)
    p = np.asarray(prices, dtype=float)
    check_unit_interval(p, "prices", tol=0.0)
    idx = list(subset.indices)
    return float((p[idx] * v[idx]).sum() / (1.0 + v[idx].sum()))


# ---------------------------------------------------------------------------
# Exact mixture diagnostics
# ---------------------------------------------------------------------------

def mixture_mean_reward(instance: HardInstance, link: LinkFunction, delta: float,
                        overlap: int) -> float:
    """Exact expected reward of an action overlapping the planted set in
    ``overlap`` arms, averaged over the adversary's mixture."""
    if not 0 <= overlap <= instance.m:
        raise ValueError("overlap outside [0, m]")
    base = instance.baseline(link)
    inner = base if overlap == 0 else instance.moment_mean(link, overlap)
    return (1.0 - delta) * base + delta * inner


@dataclass
class MnlChoiceLaw:
    """Exact mixture choice probabilities, split by planted-set membership.

    ``planted_item`` / ``other_item`` are per-item probabilities; a slot is
    NaN when the action contains no item of that kind.
    """

    no_purchase: float
    planted_item: float
    other_item: float


def mnl_mixture_choice_law(instance: HardInstance, delta: float, overlap: int,
                           subset_size: int) -> MnlChoiceLaw:
    """Exact per-item mixture choice law for an action with ``overlap`` planted
    arms out of ``subset_size`` offered, under unit prices."""
    if not 0 <= overlap <= min(instance.m, subset_size):
        raise ValueError("invalid overlap")
    x0, m = instance.x0, instance.m
    k = subset_size

    base_total = 1.0 + k * x0
    p0 = (1.0 - delta) / base_total
    p_planted = (1.0 - delta) * x0 / base_total
    p_other = (1.0 - delta) * x0 / base_total

    n_combos = math.comb(m, overlap)
    atom_p0 = atom_planted = atom_other = 0.0
    for weight, atom in zip(instance.weights, instance.support):
        acc0 = acc_pl = acc_ot = 0.0
        for combo in itertools.combinations(range(m), overlap):
            chosen = atom[list(combo)]
            total = 1.0 + float(chosen.sum()) + (k - overlap) * x0
            acc0 += 1.0 / total
            acc_ot += x0 / total
            if overlap:
                acc_pl += float(chosen.mean()) / total
        atom_p0 += weight * acc0 / n_combos
        atom_other += weight * acc_ot / n_combos
        atom_planted += weight * acc_pl / n_combos

    p0 += delta * atom_p0
    p_other += delta * atom_other
    p_planted += delta * atom_planted
    return MnlChoiceLaw(
        no_purchase=p0,
        planted_item=p_planted if overlap > 0 else float("nan"),
        other_item=p_other if overlap < k else float("nan"),
    )


# ---------------------------------------------------------------------------
# Perturbation schedule
# ---------------------------------------------------------------------------

KL_DELTAS = np.arange(1, 101) / 100.0


def kl_coefficient(instance: HardInstance, link: LinkFunction) -> float:
    """Coefficient bounding the per-round KL between the uninformative and the
    planted-subset Bernoulli laws: KL <= (coeff * delta)**2 on the scanned
    mixture weights.

    Takes the supremum of sqrt(KL(q, q + delta * gamma)) / delta over the
    delta grid ``KL_DELTAS`` (0.01, 0.02, ..., 1); the ratio is increasing in
    delta, so the bound extends to every smaller mixture weight.
    """
    q = instance.baseline(link)
    gamma = instance.gamma
    if gamma <= 0:
        raise ValueError("instance gap must be positive")
    best = 0.0
    for d in KL_DELTAS:
        alt = q + d * gamma
        if alt >= 1.0 - 1e-12:
            continue
        best = max(best, math.sqrt(bernoulli_kl(q, alt)) / d)
    if best == 0.0:
        raise ValueError("no usable delta in the scan grid")
    return best


def delta_schedule(n_arms: int, subset_size: int, horizon: int, kl_coeff: float,
                   mode: str = "nonpoly", degree: int | None = None) -> float:
    """Mixture weight balancing per-round gap against total information leakage.

    General mode: min(1, sqrt(C(N, K)) / (2 * coeff * sqrt(T))).  Polynomial
    mode replaces the action count by C(N, d) and scales the horizon by the
    C(K, d) coverage multiplicity of size-d planted sets.
    """
    if kl_coeff <= 0:
        raise ValueError("kl_coeff must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode == "nonpoly":
        num = math.sqrt(math.comb(n_arms, subset_size))
        den = 2.0 * kl_coeff * math.sqrt(horizon)
    elif mode == "poly":
        if degree is None or not 1 <= degree < subset_size:
            raise ValueError("poly mode needs a degree in [1, K)")
        num = math.sqrt(math.comb(n_arms, degree))
        den = 2.0 * kl_coeff * math.sqrt(math.comb(subset_size, degree) * horizon)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return min(1.0, num / den)


# ---------------------------------------------------------------------------
# Schedule I/O
# ---------------------------------------------------------------------------

def load_utility_schedule(path, n_arms: int | None = None) -> np.ndarray:
    """Load a per-round utility schedule from CSV with header ``t,v_0,...,v_{N-1}``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "t":
            raise ValueError("schedule CSV must start with header t,v_0,...")
        width = len(header) - 1
        expected = [f"v_{i}" for i in range(width)]
        if header[1:] != expected:
            raise ValueError("schedule CSV columns must be v_0..v_{N-1} in order")
        if n_arms is not None and width != n_arms:
            raise ValueError(f"schedule has {width} arms, expected {n_arms}")
        rows = []
        for t, row in enumerate(reader, start=1):
            if int(row[0]) != t:
                raise ValueError("schedule rounds must be consecutive from 1")
            rows.append([float(x) for x in row[1:]])
    if not rows:
        raise ValueError("schedule CSV has no rounds")
    sched = np.asarray(rows, dtype=float)
    check_unit_interval(sched, "schedule values", tol=0.0)
    return sched
