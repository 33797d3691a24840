"""Benchmark runner for nonlinbandit.

    python3 perfbench/run.py --workload subset_small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of the checkout that holds this file, and the run stops with exit
code 2 if that source tree is missing.

``--trace 0`` alternates set-ups and workload bodies for about ``--seconds``
seconds, each body in a forked child that starts from the state the set-up
left, and reports the end-to-end metrics: the median body wall time and
throughput, the median set-up time, and the peak resident memory.  Times
are scaled to the reference machine speed (``speed.py``); the raw wall
times go to the manifest.
``--trace 1`` runs one fully traced set-up and body plus untraced bodies for
the rest of the time, and reports the per-layer metrics with the tracing
overhead.  Both modes apply
every output gate to every body, print a run manifest, and end with one
JSON result line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import Tally
from speed import SpeedClock
from tracing import Tracer, per_layer_metric_units
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_BODIES = 3
MIN_UNTRACED_BODIES = 2

# Baselines quoted in ROADMAP.md (Python 3.11.7, numpy 2.4.6, 2-core box).
ROADMAP_BASELINES = {
    "exp3_us_per_round": 41.0,
    "tsallis_inf_us_per_round": 104.0,
    "exp2_d1_us_per_round": 128.0,
    "find_hard_instance_m2_MnlLink_s": 0.04,
    "find_hard_instance_m3_MnlLink_s": 0.35,
    "find_hard_instance_m4_MnlLink_s": 0.51,
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import nonlinbandit; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Package import time, measured inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package():
    if not (SRC / "nonlinbandit" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'nonlinbandit'}; "
              "run from the root of a nonlinbandit checkout")
    # the program's default threading: replication threads off
    os.environ.pop("NONLIN_THREADS", None)
    sys.path.insert(0, str(SRC))
    import nonlinbandit
    if Path(nonlinbandit.__file__).resolve().parent != SRC / "nonlinbandit":
        _fail(f"imported {nonlinbandit.__file__}, not the checkout's source")
    return nonlinbandit


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nonlinbandit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _command_output(args) -> str | None:
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def manifest(nb, workload, args, extra) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    llc = _command_output(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": (_command_output(["git", "rev-parse", "HEAD"])
                   if (ROOT / ".git").exists() else None),
        "source_sha256": source_digest(),
        "package_version": getattr(nb, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in (
            "NONLIN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "op": workload.op,
        "sizes": workload.sizes(),
        **extra,
    }


def timed_body(nb, workload, parts, tally, clock):
    """Run one body part by part, then check it; returns its wall time and
    its time scaled to the reference speed, part by part."""
    results, wall, scaled = [], 0.0, 0.0
    for part in parts:
        start = time.perf_counter()
        results.append(workload.run_part(nb, part, str(OUT_DIR)))
        elapsed = time.perf_counter() - start
        wall += elapsed
        scaled += clock.scale(elapsed)
    workload.check(nb, parts, results, tally, str(OUT_DIR))
    return wall, scaled


def _body_child(conn, nb, workload, parts, clock):
    tally = Tally()
    raw, scaled = timed_body(nb, workload, parts, tally, clock)
    conn.send((raw, scaled, tally, clock.samples))
    conn.close()


def forked_body(nb, workload, parts, tally, clock):
    """``timed_body`` in a forked child of this process.  Every body thus
    starts from the process state the set-up left, heap included, and not
    from whatever state the earlier bodies of the run left behind."""
    fork = multiprocessing.get_context("fork")
    reader, writer = fork.Pipe(duplex=False)
    child = fork.Process(target=_body_child, args=(writer, nb, workload, parts, clock))
    child.start()
    writer.close()
    try:
        raw, scaled, child_tally, clock.samples = reader.recv()
    except EOFError:
        raise RuntimeError("the body process died") from None
    finally:
        child.join()
        reader.close()
    tally.merge(child_tally)
    return raw, scaled


def timed_setup(nb, workload):
    """Package import in a fresh interpreter plus the workload's input
    synthesis; returns (state, seconds)."""
    probe = import_seconds()
    start = time.perf_counter()
    state = workload.setup(nb)
    return state, probe + time.perf_counter() - start


def measure(nb, workload, args, tally):
    """Untraced run: end-to-end metrics, each the median of its samples
    scaled to the reference speed (see ``speed.py``).  A set-up precedes
    every body, so both sample the whole run.  Each body runs in a forked
    child; the peak memory is the largest of this process and its children."""
    clock = SpeedClock()
    raw_setups, setups, raw_walls, walls = [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_BODIES or (
            time.perf_counter() - start + statistics.median(raw_walls) <= args.seconds):
        state, seconds = timed_setup(nb, workload)
        raw_setups.append(seconds)
        setups.append(clock.scale(seconds))
        parts = workload.prepare(nb, state, args.seed, len(walls))
        raw, scaled = forked_body(nb, workload, parts, tally, clock)
        raw_walls.append(raw)
        walls.append(scaled)
    wall = statistics.median(walls)
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (workload.ops(parts) / wall, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    extra = {"bodies": len(walls), "body_walls_s": raw_walls, "body_scaled_s": walls,
             "setup_samples_s": raw_setups, "setup_scaled_s": setups,
             "calibration_s": clock.samples}
    return metrics, extra


def measure_traced(nb, workload, args, tally):
    """Traced run: one fully traced set-up and body, then untraced bodies on
    the same inputs for the overhead; per-layer metrics."""
    start = time.perf_counter()
    clock = SpeedClock()
    tracer = Tracer(nb)
    with tracer:
        state = tracer.span("bench.setup", workload.setup, nb)
        parts = workload.prepare(nb, state, args.seed, 0)
        _, traced_wall = tracer.span("bench.body", timed_body, nb, workload, parts,
                                     tally, clock)
    # coarse spans only: a few wrapped calls per replication, not per round
    coarse = Tracer(nb, coarse=True)
    raw_walls, walls = [], []
    with coarse:
        while len(walls) < MIN_UNTRACED_BODIES or (
                time.perf_counter() - start + statistics.median(raw_walls) <= args.seconds):
            raw, scaled = timed_body(nb, workload, parts, tally, clock)
            raw_walls.append(raw)
            walls.append(scaled)
    untraced = statistics.median(walls)
    layers = tracer.layer_metrics()
    layers["bench.trace_overhead_s"] = traced_wall - untraced
    layers["bench.trace_overhead_ratio"] = (traced_wall - untraced) / untraced
    units = per_layer_metric_units()
    metrics = {name: (value, units[name]) for name, value in layers.items()}

    measured = {f"{algo}_us_per_round": us
                for algo, us in coarse.simulate_us_per_round().items()}
    measured.update({f"find_hard_instance_{key}_s": s
                     for key, s in coarse.search_seconds().items()})
    baselines = {key: {"roadmap": value, "measured": measured.get(key)}
                 for key, value in ROADMAP_BASELINES.items()}
    for key, value in measured.items():
        baselines.setdefault(key, {"roadmap": None, "measured": value})

    trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    dump = tracer.dump()
    dump["untraced_bodies"] = [r for r in coarse.dump()["spans"]
                               if r["name"] == "harness.simulate"]
    trace_path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    extra = {"traced_body_scaled_s": traced_wall, "untraced_body_walls_s": raw_walls,
             "untraced_body_scaled_s": walls, "calibration_s": clock.samples,
             "self_s": tracer.self_times(), "unwrapped": tracer.unwrapped,
             "baselines": baselines, "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, extra


def run_benchmark(nb, workload, args) -> tuple[dict, dict, Tally]:
    """One benchmark run: (result line, manifest, tally)."""
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    if args.trace:
        metrics, extra = measure_traced(nb, workload, args, tally)
    else:
        metrics, extra = measure(nb, workload, args, tally)
    workload.check_once(nb, args.seed, tally)
    info = manifest(nb, workload, args, extra)
    info["error_rate"] = tally.failed / tally.attempted if tally.attempted else 1.0
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nb = load_package()
    workload = WORKLOADS[args.workload]()
    result, info, tally = run_benchmark(nb, workload, args)
    name = workload.name
    (OUT_DIR / f"manifest-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2) + "\n", encoding="utf-8")
    print("[perfbench] manifest " + json.dumps(info))
    for message in tally.messages:
        print(f"[perfbench] FAILED {message}")
    print(f"[perfbench] {name}: error_rate = {info['error_rate']} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for metric, entry in result["metrics"].items():
        print(f"[perfbench] {name}: {metric} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
