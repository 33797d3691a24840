"""Fast self-test of the benchmark at toy sizes.

    python3 perfbench/selfcheck.py

Checks that

- every workload runs clean at toy size in both modes, and the metric names
  it prints are exactly the ones ``BENCHMARK.json`` lists for that mode;
- every output gate trips when fed a deliberately corrupted result;
- the tracer restores every wrapped callable;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result line.

Exits 0 when all checks pass, 1 otherwise.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from checks import (
    Tally,
    check_gap_search,
    check_no_gap_search,
    check_regret_curve,
    check_run_csv,
    check_runs,
    check_sweep,
    check_unbiased,
)
from tracing import Tracer
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(ok: bool, message: str):
    print(f"[selfcheck] {'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        FAILURES.append(message)


def trips(label: str, apply) -> None:
    """``apply(tally)`` feeds one corrupted result to a gate."""
    tally = Tally()
    apply(tally)
    expect(tally.failed > 0, f"gate trips on {label}")


def check_metric_names(nb, spec):
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json lists exactly the benchmark's workloads")
    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            args = argparse.Namespace(seed=7, seconds=0.0, trace=trace)
            result, info, tally = run.run_benchmark(nb, cls(toy=True), args)
            printed = result["metrics"]
            expect(set(printed) == wanted[trace],
                   f"{name} trace={trace}: metric names match BENCHMARK.json "
                   f"(extra {sorted(set(printed) - wanted[trace])}, "
                   f"missing {sorted(wanted[trace] - set(printed))})")
            expect(all(units.get(k) == v["unit"] for k, v in printed.items()),
                   f"{name} trace={trace}: units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: toy run is correct {tally.messages}")
            if trace == 0:
                expect(all(v["value"] > 0 for v in printed.values()),
                       f"{name}: every end-to-end metric is positive")
            else:
                expect(not info["unwrapped"], f"{name}: every layer site wrapped")


def check_gates(nb):
    outdir = str(run.OUT_DIR)
    sub = WORKLOADS["subset_small"](toy=True)
    parts = sub.prepare(nb, sub.setup(nb), 3, 0)
    results = [sub.run_part(nb, part, outdir) for part in parts]
    clean = Tally()
    sub.check(nb, parts, results, clean, outdir)
    expect(clean.failed == 0, f"clean sweep passes {clean.messages}")
    rows = [row for part_rows in results for row in part_rows]

    def corrupt_rows(edit):
        bad = copy.deepcopy(rows)
        edit(bad)
        return lambda t: check_sweep(t, "x", bad, sub.algos, sub.grid, sub.reps, 10)

    trips("a lost replication", corrupt_rows(lambda b: b[0].update(reps=0)))
    trips("a NaN mean regret", corrupt_rows(lambda b: b[1].update(mean_regret=float("nan"))))
    trips("regret falling with T", corrupt_rows(lambda b: b[1].update(mean_regret=-1.0)))
    trips("regret above 10 sqrt(A T)", corrupt_rows(lambda b: b[-1].update(mean_regret=1e9)))
    trips("a missing horizon row", corrupt_rows(lambda b: b.pop(0)))
    trips("a negative final mean regret",
          lambda t: check_regret_curve(t, "x", [100, 1000], [-2.0, -1.0], 10))
    trips("regret per round rising with T",
          lambda t: check_regret_curve(t, "x", [100, 1000], [1.0, 20.0], 10,
                                       sublinear=True))

    wide = WORKLOADS["assortment_wide"](toy=True)
    parts = wide.prepare(nb, wide.setup(nb), 3, 0)
    results = [wide.run_part(nb, part, outdir) for part in parts]
    clean = Tally()
    wide.check(nb, parts, results, clean, outdir)
    expect(clean.failed == 0, f"clean run-mode body passes {clean.messages}")
    first = results[0]
    trips("a failed run-mode replication",
          lambda t: check_runs(t, "x", [replace(first[0], error="boom")],
                               wide.horizon, 20))
    flat = replace(first[0], checkpoints=[
        row[:4] + (1.0,) for row in first[0].checkpoints])
    trips("a flat cumulative regret", lambda t: check_runs(t, "x", [flat], wide.horizon, 20))

    path = wide.csv_path(outdir, wide.algos[0])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    bad_path = os.path.join(outdir, "selfcheck-corrupt.csv")

    def write_csv(text_lines):
        with open(bad_path, "w", encoding="utf-8") as fh:
            fh.writelines(text_lines)
        return bad_path

    trips("a missing CSV row",
          lambda t: check_run_csv(t, "x", write_csv(lines[:-1]), wide.reps, wide.horizon))
    fields = lines[5].rstrip("\n").split(",")
    fields[-1] = repr(float(fields[-1]) + 0.5)
    edited = lines[:5] + [",".join(fields) + "\n"] + lines[6:]
    trips("a cum_regret that is not the running sum",
          lambda t: check_run_csv(t, "x", write_csv(edited), wide.reps, wide.horizon))
    os.remove(bad_path)

    g = nb.MnlLink()
    inst = nb.find_hard_instance(g, m=2, b=2, grid_step=1 / 10)
    report = nb.verify_hard_instance(inst, g)
    clean = Tally()
    check_gap_search(clean, "x", inst, report, nb.kl_coefficient(inst, g))
    expect(clean.failed == 0, f"clean MNL search passes {clean.messages}")
    trips("a zero MNL gap", lambda t: check_gap_search(
        t, "x", replace(inst, gamma=0.0), report, 1.0))
    trips("an INVALID verification", lambda t: check_gap_search(
        t, "x", inst, replace(report, valid=False), 1.0))
    trips("a residual above 1e-8", lambda t: check_gap_search(
        t, "x", replace(inst, residuals=[1e-6]), report, 1.0))
    trips("a NaN KL coefficient", lambda t: check_gap_search(
        t, "x", inst, report, float("nan")))
    line = nb.PolynomialLink([0.1, 0.2])
    flat_inst = nb.find_hard_instance(line, m=2, b=2, grid_step=1 / 10)
    flat_report = nb.verify_hard_instance(flat_inst, line)
    clean = Tally()
    check_no_gap_search(clean, "x", flat_inst, flat_report)
    expect(clean.failed == 0, f"clean polynomial search passes {clean.messages}")
    trips("a polynomial gap above 1e-8", lambda t: check_no_gap_search(
        t, "x", replace(flat_inst, gamma=1e-6), flat_report))

    learner = nb.Exp2(3, 2, 1, horizon=100)
    probs = learner.sampling_distribution()
    means = [0.3, 0.5, 0.7]
    estimates = [learner.estimate_rewards(r, 1.0, probs) for r in range(3)]
    clean = Tally()
    check_unbiased(clean, "x", probs, means, estimates)
    expect(clean.failed == 0, f"clean estimator passes {clean.messages}")
    skewed = [e + 1e-6 for e in estimates]
    trips("a biased EXP2 estimate",
          lambda t: check_unbiased(t, "x", probs, means, skewed))


def check_restore(nb):
    before = {name: getattr(nb.harness, name) for name in ("simulate", "expected_reward")}
    select = nb.SubsetMab.__dict__["select"]
    with Tracer(nb):
        wrapped = nb.harness.simulate is not before["simulate"]
    expect(wrapped and all(getattr(nb.harness, k) is v for k, v in before.items())
           and nb.SubsetMab.__dict__["select"] is select,
           "tracer wraps and then restores the package callables")


def check_bare_directory():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    done = subprocess.run(command + ["--workload", "hard_search", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    expect(done.returncode != 0 and not last.startswith("{"),
           f"bare directory: exit {done.returncode}, no result line")


def main() -> int:
    nb = run.load_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_gates(nb)
    check_restore(nb)
    check_metric_names(nb, spec)
    check_bare_directory()
    print(f"[selfcheck] {'PASS' if not FAILURES else f'{len(FAILURES)} FAILED'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
