"""The benchmark's four workloads.

Each workload has three phases:

- ``setup(nb)``: input synthesis (hard instances) and config construction,
  timed as part of ``setup_s``;
- ``prepare(nb, state, seed, index)``: the parts of body ``index`` (configs
  and links built from the benchmark seed), outside any timed region;
- ``run_part(nb, part, outdir)``: one timed part of the body, which calls
  only the public library API: one sweep, one run with its CSV, or the
  searches of one m.  The speed calibration (``speed.py``) runs between
  parts, so it follows the machine through the body.
  ``check(nb, parts, results, tally, outdir)`` then applies the output
  gates outside the timed region.

The package is passed in as ``nb`` and every callable is looked up on it or
on its modules at call time, so the traced run sees the calls.  ``toy=True``
shrinks every size for the self-test.
"""
from __future__ import annotations

import math
import os

import numpy as np

from checks import (
    check_gap_search,
    check_no_gap_search,
    check_run_csv,
    check_runs,
    check_sweep,
    check_unbiased,
)


def body_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def body_base_seed(seed: int, index: int) -> int:
    # replication r of a sweep uses base_seed + r, so bodies stay 100 apart
    return seed * 100_000 + index * 100


def random_polynomial(rng, degree: int, span: float) -> list[float]:
    """Coefficients of a random degree-``degree`` polynomial mapped onto
    [0.05, 0.95] over [0, span] (the recipe of the criterion-2 test)."""
    grid = np.linspace(0.0, span, 201)
    while True:
        coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
        ys = np.polynomial.polynomial.polyval(grid, coeffs)
        if ys.max() - ys.min() > 0.1 and abs(coeffs[-1]) > 0.1:
            break
    scale = 0.9 / (ys.max() - ys.min())
    mapped = [float(scale * c) for c in coeffs]
    mapped[0] += 0.05 - scale * float(ys.min())
    return mapped


def sweep_ops(parts) -> int:
    return sum(config.replications * sum(config.t_grid) * len(config.algorithm_specs)
               for config in parts)


class Workload:
    name = ""
    why = ""
    op = ""  # what one operation of ops_per_s is

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self, nb):
        return None

    def prepare(self, nb, state, seed: int, index: int) -> list:
        raise NotImplementedError

    def run_part(self, nb, part, outdir):
        raise NotImplementedError

    def ops(self, parts) -> int:
        raise NotImplementedError

    def check(self, nb, parts, results, tally, outdir):
        raise NotImplementedError

    def check_once(self, nb, seed: int, tally):
        """Gates that need no body result; run once per benchmark run."""


class SubsetSmall(Workload):
    name = "subset_small"
    why = ("criterion-5 shape: MNL hard_nonpoly at N=5, K=2 (A=10) with exp3 and "
           "tsallis_inf; per-call Python overhead dominates at this small A")
    op = "replication-round"

    def __init__(self, toy: bool = False):
        self.n, self.k = 5, 2
        self.grid = [100, 1000] if toy else [1000, 3162, 10000]
        self.reps = 1 if toy else 2
        self.algos = ("exp3", "tsallis_inf")
        self.inst_grid = 50

    def sizes(self):
        return {"N": self.n, "K": self.k, "A": math.comb(self.n, self.k),
                "T_grid": self.grid, "reps": self.reps, "algorithms": list(self.algos),
                "adversary": "hard_nonpoly", "instance": f"mnl m=2 grid 1/{self.inst_grid}"}

    def setup(self, nb):
        inst = nb.find_hard_instance(nb.MnlLink(), m=2, b=2, grid_step=1 / self.inst_grid)
        return self._parts(nb, inst.to_json_dict(), 0)

    def _parts(self, nb, instance, base_seed):
        # one sweep of both algorithms over the whole grid, as criterion 5 runs it
        return [nb.ExperimentConfig.from_dict({
            "dims": {"N": self.n, "K": self.k, "T": self.grid[-1], "d": None},
            "link": {"kind": "mnl"},
            "adversary": {"kind": "hard_nonpoly", "instance": instance,
                          "s_star": [0, 1], "delta": "auto"},
            "algorithms": [{"name": algo, "params": {}} for algo in self.algos],
            "replications": self.reps,
            "base_seed": base_seed,
            "t_grid": self.grid,
        })]

    def prepare(self, nb, state, seed, index):
        return self._parts(nb, state[0].adversary_spec["instance"],
                           body_base_seed(seed, index))

    def run_part(self, nb, part, outdir):
        return nb.run_sweep(part)

    def ops(self, parts):
        return sweep_ops(parts)

    def check(self, nb, parts, results, tally, outdir):
        # delta "auto" shrinks with T, so regret per round falls along the grid
        check_sweep(tally, self.name, results[0], self.algos, self.grid, self.reps,
                    math.comb(self.n, self.k), sublinear=True)


class TensorSweep(Workload):
    name = "tensor_sweep"
    why = ("criterion-7 shape: exp2 alone on a stochastic adversary with a random "
           "polynomial link, d=1 at N=8 K=3 and d=2 at N=7 K=3 (EXP2 pinv, KW design)")
    op = "replication-round"

    def __init__(self, toy: bool = False):
        self.cells = ((1, 8, 3), (2, 7, 3)) if not toy else ((1, 5, 2), (2, 4, 2))
        self.grid = [100, 316] if toy else [1000, 3162]
        # one replication: the body stays short, so a run holds about ten
        self.reps = 1

    def sizes(self):
        return {"cells": [{"d": d, "N": n, "K": k, "A": math.comb(n, k), "dim": n ** d}
                          for d, n, k in self.cells],
                "T_grid": self.grid, "reps": self.reps, "algorithms": ["exp2"],
                "adversary": "stochastic", "link": "random polynomial of degree d"}

    def prepare(self, nb, state, seed, index):
        rng = body_rng(seed, index)
        # one sweep per cell, over the whole grid
        return [nb.ExperimentConfig.from_dict({
            "dims": {"N": n, "K": k, "T": self.grid[-1], "d": d},
            "link": {"kind": "polynomial",
                     "coefficients": random_polynomial(rng, d, float(k))},
            "adversary": {"kind": "stochastic",
                          "v": [float(x) for x in rng.uniform(0.1, 0.9, size=n)]},
            "algorithms": [{"name": "exp2", "params": {}}],
            "replications": self.reps,
            "base_seed": body_base_seed(seed, index),
            "t_grid": self.grid,
        }) for d, n, k in self.cells]

    def run_part(self, nb, part, outdir):
        return nb.run_sweep(part)

    def ops(self, parts):
        return sweep_ops(parts)

    def check(self, nb, parts, results, tally, outdir):
        for (d, n, k), rows in zip(self.cells, results):
            check_sweep(tally, f"{self.name}/d={d}", rows, ("exp2",), self.grid,
                        self.reps, math.comb(n, k))

    def check_once(self, nb, seed, tally):
        """EXP2 estimator unbiasedness on small instances (criterion 4),
        against means from the reference tensor features and lift."""
        rng = np.random.default_rng(seed)
        links = {1: nb.PolynomialLink([0.1, 0.3]),
                 2: nb.PolynomialLink([0.05, 0.1, 0.08])}
        for n, k, order in ((3, 2, 1), (4, 2, 2)):
            learner = nb.Exp2(n, k, order, horizon=100)
            probs = rng.dirichlet(np.ones(learner.n_actions))
            lifted = nb.lift_reward_vector(rng.uniform(0, 1, size=n), links[order],
                                           subset_size=k, order=order)
            actions = [nb.SubsetAction.from_rank(r, n, k) for r in range(learner.n_actions)]
            means = np.array([nb.tensor_features(a, n, order) @ lifted for a in actions])
            estimates = [learner.estimate_rewards(r, 1.0, probs)
                         for r in range(learner.n_actions)]
            check_unbiased(tally, f"{self.name}/unbiased N={n} K={k} d={order}",
                           probs, means, estimates)


class HardSearch(Workload):
    name = "hard_search"
    why = ("criterion-2 dichotomy: find_hard_instance for m=2,3,4 with MNL and seeded "
           "random polynomials of degree below m; all LP building and solving, no simulation")
    op = "search"

    def __init__(self, toy: bool = False):
        self.ms = (2, 3) if toy else (2, 3, 4)
        self.polys_per_m = 1 if toy else 2
        self.toy = toy

    def grid(self, m):
        if self.toy:
            return 10
        return 25 if m == 4 else 50

    def sizes(self):
        return {"m": list(self.ms), "grid": {f"m{m}": f"1/{self.grid(m)}" for m in self.ms},
                "links": f"MNL + {self.polys_per_m} random polynomial(s) of degree m-1 per m",
                "searches_per_body": len(self.ms) * (1 + self.polys_per_m)}

    def prepare(self, nb, state, seed, index):
        rng = body_rng(seed, index)
        parts = []
        for m in self.ms:
            searches = [("mnl", m, nb.MnlLink())]
            for j in range(self.polys_per_m):
                coeffs = random_polynomial(rng, m - 1, float(m))
                searches.append((f"poly{j}", m, nb.PolynomialLink(coeffs)))
            parts.append(searches)
        return parts

    def run_part(self, nb, part, outdir):
        out = []
        for kind, m, link in part:
            try:
                inst = nb.find_hard_instance(link, m=m, b=m, grid_step=1 / self.grid(m))
                report = nb.verify_hard_instance(inst, link)
                kl = nb.kl_coefficient(inst, link) if kind == "mnl" else None
                out.append((inst, report, kl, None))
            except Exception as exc:  # a failed search is counted, not fatal
                out.append((None, None, None, f"{type(exc).__name__}: {exc}"))
        return out

    def ops(self, parts):
        return sum(len(part) for part in parts)

    def check(self, nb, parts, results, tally, outdir):
        for (kind, m, _), (inst, report, kl, error) in zip(
                (s for part in parts for s in part), (r for res in results for r in res)):
            label = f"{self.name}/{kind} m={m}"
            tally.ops(1, error is not None, f"{label}: search failed: {error}")
            if error is not None:
                continue
            if kind == "mnl":
                check_gap_search(tally, label, inst, report, kl)
            else:
                check_no_gap_search(tally, label, inst, report)


class AssortmentWide(Workload):
    name = "assortment_wide"
    why = ("mnl_hard choice channel with prices at N=12, K=3 (A=220), run mode with "
           "full_trace and write_run_csv: choice feedback, vector work over A, CSV rows")
    op = "replication-round"

    def __init__(self, toy: bool = False):
        self.n, self.k = (6, 3) if toy else (12, 3)
        self.horizon = 300 if toy else 10000
        self.reps = 1 if toy else 2
        self.algos = ("exp3", "tsallis_inf")
        self.inst_grid = 10 if toy else 50

    def sizes(self):
        return {"N": self.n, "K": self.k, "A": math.comb(self.n, self.k),
                "T": self.horizon, "reps": self.reps, "algorithms": list(self.algos),
                "adversary": "mnl_hard", "full_trace": True,
                "instance": f"mnl m=3 grid 1/{self.inst_grid}"}

    def setup(self, nb):
        inst = nb.find_hard_instance(nb.MnlLink(), m=3, b=3, grid_step=1 / self.inst_grid)
        return self._configs(nb, inst.to_json_dict(), 0)

    def _configs(self, nb, instance, base_seed):
        return [nb.ExperimentConfig.from_dict({
            "dims": {"N": self.n, "K": self.k, "T": self.horizon, "d": None},
            "link": {"kind": "mnl"},
            "adversary": {"kind": "mnl_hard", "instance": instance,
                          "s_star": [0, 1, 2], "delta": "auto"},
            "algorithms": [{"name": algo, "params": {}}],
            "replications": self.reps,
            "base_seed": base_seed,
            "full_trace": True,
        }) for algo in self.algos]

    def prepare(self, nb, state, seed, index):
        return self._configs(nb, state[0].adversary_spec["instance"],
                             body_base_seed(seed, index))

    def csv_path(self, outdir, algo):
        return os.path.join(outdir, f"{self.name}-{algo}.csv")

    def run_part(self, nb, part, outdir):
        results = nb.run_experiment(part)
        nb.write_run_csv(results, self.csv_path(outdir, part.algorithm_specs[0]["name"]))
        return results

    def ops(self, parts):
        return self.reps * self.horizon * len(parts)

    def check(self, nb, parts, results_per_part, tally, outdir):
        n_actions = math.comb(self.n, self.k)
        for algo, results in zip(self.algos, results_per_part):
            label = f"{self.name}/{algo}"
            check_runs(tally, label, results, self.horizon, n_actions)
            check_run_csv(tally, label, self.csv_path(outdir, algo), self.reps,
                          self.horizon)


WORKLOADS = {w.name: w for w in (SubsetSmall, TensorSweep, HardSearch, AssortmentWide)}
