"""Output gates for the benchmark workloads.

Every gate is a statistical or structural bound, never an exact regret
value, so the gates hold across changes of the simulator's random-number
layout.  Each gate counts as one attempted output check; replications and
searches are counted on their own.
"""
from __future__ import annotations

import csv
import math

import numpy as np

RESIDUAL_TOL = 1e-8
POLY_GAP_TOL = 1e-8
UNBIASED_TOL = 1e-10
CSV_SUM_TOL = 1e-9


class Tally:
    """Attempted and failed operations of one run, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def gate(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)

    def ops(self, attempted: int, failed: int, message: str):
        """Count ``attempted`` operations (replications, searches) of which
        ``failed`` failed."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.messages.append(message)


def regret_bound(n_actions: int, horizon: int) -> float:
    return 10.0 * math.sqrt(n_actions * horizon)


def check_regret_curve(tally: Tally, label: str, horizons, means, n_actions: int,
                       sublinear: bool = False):
    """Mean regret is finite, strictly increasing in T, below 10 sqrt(A T),
    and positive at the largest T.  With ``sublinear``, the regret per round
    also falls from the smallest T to the largest.

    Regret per round is at most 1, so the 10 sqrt(A T) gate can only fail
    where T > 100 A.  The positive final mean can fail on every workload: at
    these horizons no learner finds the best subset of a hard or stochastic
    instance for free.
    """
    means = [float(m) for m in means]
    if not tally.gate(all(math.isfinite(m) for m in means),
                      f"{label}: non-finite mean regret {means}"):
        return
    tally.gate(all(a < b for a, b in zip(means, means[1:])),
               f"{label}: mean regret not increasing in T: {means}")
    tally.gate(all(m < regret_bound(n_actions, t) for t, m in zip(horizons, means)),
               f"{label}: mean regret {means} above 10 sqrt(A T) at T={list(horizons)}")
    tally.gate(means[-1] > 0, f"{label}: mean regret {means[-1]} at T={horizons[-1]} "
               "not positive")
    if sublinear:
        tally.gate(means[-1] / horizons[-1] < means[0] / horizons[0],
                   f"{label}: regret per round does not fall from T={horizons[0]} "
                   f"to T={horizons[-1]}: {means}")


def check_sweep(tally: Tally, label: str, rows, algos, grid, reps: int, n_actions: int,
                sublinear: bool = False):
    """Gates on run_sweep summary rows: all replications survive, and each
    algorithm's regret curve passes :func:`check_regret_curve`."""
    for algo in algos:
        algo_rows = sorted((r for r in rows if r["algo"] == algo), key=lambda r: r["T"])
        tally.gate([r["T"] for r in algo_rows] == list(grid),
                   f"{label}/{algo}: rows cover T={[r['T'] for r in algo_rows]}, "
                   f"expected {list(grid)}")
        lost = sum(reps - int(r["reps"]) for r in algo_rows)
        tally.ops(reps * len(algo_rows), lost,
                  f"{label}/{algo}: {lost} replication(s) failed")
        check_regret_curve(tally, f"{label}/{algo}", [r["T"] for r in algo_rows],
                           [r["mean_regret"] for r in algo_rows], n_actions, sublinear)


def check_runs(tally: Tally, label: str, results, horizon: int, n_actions: int):
    """Gates on run_experiment results: all replications survive, and the
    mean cumulative regret at T/100, T/10 and T passes the curve gate."""
    failed = [r for r in results if r.error is not None]
    tally.ops(len(results), len(failed),
              f"{label}: {len(failed)} replication(s) failed: "
              + "; ".join(str(r.error) for r in failed[:3]))
    ok = [r for r in results if r.error is None]
    if not ok:
        return
    points = sorted({max(1, horizon // 100), max(1, horizon // 10), horizon})
    cums = [{t: cum for (t, _, _, _, cum) in res.checkpoints} for res in ok]
    means = [float(np.mean([c.get(t, np.nan) for c in cums])) for t in points]
    check_regret_curve(tally, label, points, means, n_actions)


def check_run_csv(tally: Tally, label: str, path, reps: int, horizon: int):
    """The run CSV has reps x T rows, and cum_regret is the running sum of
    inst_regret within each replication."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tally.gate(len(rows) == reps * horizon,
               f"{label}: {len(rows)} CSV rows, expected {reps} x {horizon}")
    worst = 0.0
    running: dict[str, float] = {}
    for row in rows:
        total = running.get(row["run_id"], 0.0) + float(row["inst_regret"])
        running[row["run_id"]] = total
        cum = float(row["cum_regret"])
        worst = max(worst, abs(cum - total) / max(1.0, abs(cum)))
    tally.gate(worst <= CSV_SUM_TOL,
               f"{label}: cum_regret departs from the running sum of inst_regret "
               f"by {worst:.3g}")


def check_gap_search(tally: Tally, label: str, instance, report, kl_coeff: float):
    """A non-polynomial link yields gamma > 0, a VALID re-verification,
    residuals within 1e-8, and a finite positive KL coefficient."""
    tally.gate(instance.gamma > 0, f"{label}: gamma {instance.gamma:.3g} not positive")
    tally.gate(bool(report.valid), f"{label}: verification failed: {report}")
    resid = max([abs(float(r)) for r in instance.residuals]
                + [float(report.max_abs_residual)])
    tally.gate(resid <= RESIDUAL_TOL, f"{label}: residual {resid:.3g} above 1e-8")
    tally.gate(math.isfinite(kl_coeff) and kl_coeff > 0,
               f"{label}: KL coefficient {kl_coeff!r}")


def check_no_gap_search(tally: Tally, label: str, instance, report):
    """A polynomial link of degree below m yields no gap (<= 1e-8), both in
    the search result and in the independent re-verification."""
    gap = max(float(instance.gamma), float(report.gamma))
    tally.gate(gap <= POLY_GAP_TOL, f"{label}: polynomial gap {gap:.3g} above 1e-8")


def check_unbiased(tally: Tally, label: str, probs, means, estimates):
    """EXP2 estimator unbiasedness: sum_r p_r mean_r est_r == means to 1e-10,
    where ``estimates[r]`` are the per-action estimates after playing r with
    reward 1."""
    probs = np.asarray(probs, dtype=float)
    means = np.asarray(means, dtype=float)
    expect = (probs * means) @ np.asarray(estimates, dtype=float)
    err = float(np.max(np.abs(expect - means)))
    tally.gate(err <= UNBIASED_TOL, f"{label}: estimator bias {err:.3g} above 1e-10")
    return err
