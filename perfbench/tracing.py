"""Per-layer tracing from outside the package.

The tracer replaces public callables in the namespaces where the package
resolves them (``nonlinbandit.harness.expected_reward``,
``SubsetMab.select``, ...) with timing wrappers, and restores them on exit.
Nothing inside the package changes.

Coarse layers (one call per replication or per search) record a full span:
name, start, end, parent span and replication id.  Per-round layers are
folded into per-layer call counts and busy time, so a traced run keeps a few
hundred spans in memory however long the horizon is.  Every wrapped call adds
its duration to the enclosing wrapped call's child time, which gives each
layer's self time.

A callable the package no longer resolves is skipped and listed under
``unwrapped`` in the trace file, so the benchmark keeps running across
refactors; the layer then reports zero calls.
"""
from __future__ import annotations

import time
from collections import defaultdict

# Layer name -> the (module, attribute path) sites where the package resolves
# it.  find_hard_instance is reported per ``m`` argument as .m2/.m3/.m4.
LAYERS = {
    "learners.select": (("learners", "SubsetMab.select"), ("learners", "Exp2.select")),
    "learners.update": (("learners", "SubsetMab.update"), ("learners", "Exp2.update")),
    "learners.tsallis_distribution": (("learners", "tsallis_distribution"),),
    "learners.exp2_pinv": (("learners", "Exp2.second_moment_pinv"),),
    "learners.kw_optimal_design": (("learners", "kw_optimal_design"),),
    "environments.reward_vector": (("environments", "HardMixtureAdversary.reward_vector"),
                                   ("environments", "StochasticAdversary.reward_vector"),
                                   ("environments", "ObliviousAdversary.reward_vector")),
    "environments.feedback": (("harness", "bernoulli_feedback"),
                              ("harness", "mnl_sample_choice")),
    "environments.kl_coefficient": (("harness", "kl_coefficient"),
                                    ("package", "kl_coefficient")),
    "core.expected_reward": (("harness", "expected_reward"),),
    "analysis.regret_of_run": (("harness", "regret_of_run"),),
    "harness.simulate": (("harness", "simulate"),),
    "harness.build_learner": (("harness", "build_learner"),),
    "harness.build_adversary": (("harness", "build_adversary"),),
    "harness.write_run_csv": (("package", "write_run_csv"),),
    "hardinstances.find_hard_instance": (("package", "find_hard_instance"),),
    "hardinstances.solve_lp": (("hardinstances", "solve_lp"),),
    "hardinstances.verify_hard_instance": (("environments", "verify_hard_instance"),
                                           ("package", "verify_hard_instance")),
}

# Per-round layers: folded into counts and busy time, no span records.
FOLDED = {
    "learners.select", "learners.update", "learners.tsallis_distribution",
    "learners.exp2_pinv", "environments.reward_vector", "environments.feedback",
    "core.expected_reward", "hardinstances.solve_lp",
}

# Layers reported as <layer>.{calls,busy_s,us_per_call}.
TIMED_LAYERS = [name for name in LAYERS if name != "hardinstances.find_hard_instance"] + [
    f"hardinstances.find_hard_instance.m{m}" for m in (2, 3, 4)
]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.us_per_call"] = "us"
    units.update({
        "harness.simulate.self_s": "s",
        "harness.simulate.covered_ratio": "ratio",
        "learners.kw_optimal_design.iterations": "count",
        "learners.kw_optimal_design.certified_ratio": "ratio",
        "environments.planted_rate": "ratio",
        "environments.planted_delta": "ratio",
        "bench.trace_overhead_s": "s",
        "bench.trace_overhead_ratio": "ratio",
    })
    return units


class _Stat:
    __slots__ = ("calls", "busy", "child")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0


def replication_id(rng):
    """Replication tag read from a generator's seed sequence, or None."""
    seq = getattr(getattr(rng, "bit_generator", None), "seed_seq", None)
    entropy = getattr(seq, "entropy", None)
    if entropy is None:
        return None
    key = tuple(getattr(seq, "spawn_key", ()))[:-1]
    return f"{entropy}" + "".join(f":{k}" for k in key)


def _algorithm_tag(learner) -> str:
    algo = getattr(learner, "algorithm", None)
    if algo is not None:
        return str(algo)
    order = getattr(learner, "order", None)
    return type(learner).__name__.lower() + (f"_d{order}" if order is not None else "")


class Tracer:
    """Wraps the package's layer callables while active (a context manager)."""

    def __init__(self, package, coarse: bool = False):
        self.package = package
        # coarse mode wraps only span layers: its cost is per replication,
        # not per round, so it serves as the untraced reference that still
        # sees per-algorithm simulate times
        self.coarse = coarse
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.spans: list[dict] = []
        self.unwrapped: list[str] = []
        self.kw_iterations = 0
        self.kw_certified = 0
        self.draws = 0
        self.planted = 0
        self.delta_sum = 0.0
        self._stack: list[list] = []
        self._next_id = 0
        self._rep = None
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------
    def _call(self, name, span, fn, args, kwargs, tags=None):
        frame = [0.0, None]
        if span:
            frame[1] = self._next_id
            self._next_id += 1
        parent_span = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            stat = self.stats[name]
            stat.calls += 1
            stat.busy += end - start
            stat.child += frame[0]
            if parent is not None:
                parent[0] += end - start
            if span:
                record = {"id": frame[1], "name": name, "start": start, "end": end,
                          "parent": parent_span, "rep": self._rep}
                if tags:
                    record.update(tags)
                self.spans.append(record)

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a benchmark-level span (setup, body)."""
        return self._call(name, True, fn, args, kwargs)

    # -- wrappers -------------------------------------------------------------
    def _make_wrapper(self, layer, original):
        span = layer not in FOLDED
        call = self._call
        if layer == "harness.simulate":
            def wrapper(*args, **kwargs):
                rng = kwargs.get("rng", args[3] if len(args) > 3 else None)
                learner = kwargs.get("learner", args[1] if len(args) > 1 else None)
                horizon = kwargs.get("horizon", args[2] if len(args) > 2 else None)
                previous, self._rep = self._rep, replication_id(rng)
                try:
                    return call(layer, True, original, args, kwargs,
                                {"algo": _algorithm_tag(learner), "horizon": horizon})
                finally:
                    self._rep = previous
        elif layer == "hardinstances.find_hard_instance":
            def wrapper(*args, **kwargs):
                m = kwargs.get("m", args[1] if len(args) > 1 else None)
                link = kwargs.get("link", args[0] if args else None)
                return call(f"{layer}.m{m}", True, original, args, kwargs,
                            {"link": type(link).__name__})
        elif layer == "learners.kw_optimal_design":
            def wrapper(*args, **kwargs):
                design = call(layer, True, original, args, kwargs)
                self.kw_iterations += int(getattr(design, "iterations", 0))
                self.kw_certified += bool(getattr(design, "certified", False))
                return design
        elif layer == "environments.reward_vector":
            timed = self._folded_wrapper(layer, original)

            def wrapper(adversary, *args, **kwargs):
                values = timed(adversary, *args, **kwargs)
                instance = getattr(adversary, "instance", None)
                if instance is not None:
                    self.draws += 1
                    self.planted += bool((values != instance.x0).any())
                    self.delta_sum += float(adversary.delta)
                return values
        elif span:
            def wrapper(*args, **kwargs):
                return call(layer, True, original, args, kwargs)
        else:
            wrapper = self._folded_wrapper(layer, original)
        return wrapper

    def _folded_wrapper(self, layer, original):
        """Per-round wrapper: the same bookkeeping as ``_call`` without the
        span record, kept short because its cost lands in the caller's self
        time."""
        stack = self._stack
        stat = self.stats[layer]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.busy += elapsed
                stat.child += frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    def __enter__(self):
        modules = {"package": self.package}
        for sub in ("learners", "environments", "harness", "hardinstances"):
            modules[sub] = getattr(self.package, sub, None)
        for layer, sites in LAYERS.items():
            if self.coarse and layer in FOLDED:
                continue
            for module_key, path in sites:
                owner = modules.get(module_key)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                if owner is None or not callable(getattr(owner, attr, None)):
                    self.unwrapped.append(f"{module_key}:{path}")
                    continue
                own = vars(owner).get(attr, _MISSING)
                self._restore.append((owner, attr, own))
                setattr(owner, attr, self._make_wrapper(layer, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, own in reversed(self._restore):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._restore.clear()
        return False

    # -- reporting ------------------------------------------------------------
    def _tag_build_spans(self):
        """A replication's builds are the last build_adversary and
        build_learner spans before its simulate under the same parent; the
        harness's up-front config validation builds keep ``rep`` None."""
        pending = {}
        for record in sorted(self.spans, key=lambda s: s["start"]):
            if record["name"] in ("harness.build_adversary", "harness.build_learner"):
                pending[(record["parent"], record["name"])] = record
            elif record["name"] == "harness.simulate":
                for key in [k for k in pending if k[0] == record["parent"]]:
                    pending.pop(key)["rep"] = record["rep"]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, busy and self time, and the ratio counters."""
        out = {}
        for layer in TIMED_LAYERS:
            stat = self.stats.get(layer, _Stat())
            out[f"{layer}.calls"] = stat.calls
            out[f"{layer}.busy_s"] = stat.busy
            out[f"{layer}.us_per_call"] = 1e6 * stat.busy / stat.calls if stat.calls else 0.0
        sim = self.stats.get("harness.simulate", _Stat())
        out["harness.simulate.self_s"] = sim.busy - sim.child
        out["harness.simulate.covered_ratio"] = sim.child / sim.busy if sim.busy else 0.0
        kw = self.stats.get("learners.kw_optimal_design", _Stat())
        out["learners.kw_optimal_design.iterations"] = (
            self.kw_iterations / kw.calls if kw.calls else 0.0)
        out["learners.kw_optimal_design.certified_ratio"] = (
            self.kw_certified / kw.calls if kw.calls else 0.0)
        out["environments.planted_rate"] = self.planted / self.draws if self.draws else 0.0
        out["environments.planted_delta"] = self.delta_sum / self.draws if self.draws else 0.0
        return out

    def self_times(self) -> dict[str, float]:
        return {name: stat.busy - stat.child for name, stat in sorted(self.stats.items())}

    def simulate_us_per_round(self) -> dict[str, float]:
        """Mean simulate time per round for each algorithm tag."""
        busy, rounds = defaultdict(float), defaultdict(int)
        for record in self.spans:
            if record["name"] == "harness.simulate" and record.get("horizon"):
                busy[record["algo"]] += record["end"] - record["start"]
                rounds[record["algo"]] += int(record["horizon"])
        return {algo: 1e6 * busy[algo] / rounds[algo] for algo in busy}

    def search_seconds(self) -> dict[str, float]:
        """Mean find_hard_instance time per (m, link type)."""
        acc = defaultdict(list)
        for record in self.spans:
            if record["name"].startswith("hardinstances.find_hard_instance."):
                key = f"{record['name'].rsplit('.', 1)[1]}_{record['link']}"
                acc[key].append(record["end"] - record["start"])
        return {key: sum(v) / len(v) for key, v in sorted(acc.items())}

    def dump(self) -> dict:
        self._tag_build_spans()
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                 for s in sorted(self.spans, key=lambda s: s["start"])]
        return {
            "spans": spans,
            "layers": {name: {"calls": st.calls, "busy_s": st.busy,
                              "self_s": st.busy - st.child}
                       for name, st in sorted(self.stats.items())},
            "unwrapped": self.unwrapped,
        }


_MISSING = object()
