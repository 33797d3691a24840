"""Experiment configuration, replication-batched execution, CSV output.

Runs are reproducible byte-for-byte.  Replication r of a config draws from
an environment and a learner stream seeded by the two children of
``SeedSequence(base_seed, spawn_key=(r,))``, so no two (base seed,
replication) pairs share a stream, and every horizon of a sweep reuses the
same replication seeds (common random numbers).  Each algorithm runs every
(horizon, replication) row of a sweep as one batch in ``kernel.run_batch``,
in the config's one environment, and a row retires at its horizon; run mode
is the one-horizon case.  A horizon sets only a hard mixture's delta and
EXP2's default rates, which the batch holds per row.  A replication gives
the same bits alone or in a batch, so a batch that raises is re-run by
halves down to the rows that fail alone, which are recorded as failed;
:func:`run_replication` re-runs one replication by its index.  Results are
ordered by run id.  A sweep's algorithms run in forked workers, one per
usable CPU (:func:`_fork_map`), with the bits and order of a serial run.

:func:`simulate` with ``analysis.regret_of_run`` is the per-round reference
path (:func:`reference_replication`) that the kernel is tested against: it
records a run as columns (hidden values, played arms, realized rewards),
and ``regret_of_run`` reads the first two and returns the per-round regret.
Both paths yield a ``kernel.BatchTrace``, the reference path one row at the
checkpoints, and one helper builds every :class:`RunResult` from a trace.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import check_feedback_model, regret_of_run
from .core import (
    LinkFunction,
    MnlLink,
    PolynomialLink,
    ProblemDims,
    SubsetAction,
    TabulatedLink,
    colex_ranks,
    expected_reward,
    real_array,
    real_number,
    subsets_by_rank,
    whole_number,
)
from .environments import (
    Adversary,
    HardMixtureAdversary,
    ObliviousAdversary,
    StochasticAdversary,
    bernoulli_feedback,
    delta_schedule,
    kl_coefficient,
    load_utility_schedule,
    mnl_sample_choice,
)
from .hardinstances import HardInstance
from .kernel import BatchTrace, BernoulliChannel, ChoiceChannel, replication_seeds, run_batch
from .learners import ConstantPolicy, Exp2, SubsetMab

HARD_KINDS = ("hard_nonpoly", "hard_poly", "mnl_hard")
ADVERSARY_KINDS = HARD_KINDS + ("mnl_general", "oblivious", "stochastic")
# The ``params`` keys each algorithm accepts; any other key is an error.
ALGORITHM_PARAMS = {"exp3": ("mixing",), "tsallis_inf": (),
                    "exp2": ("eta", "gamma_mix"), "constant": ("subset",)}

RUN_CSV_HEADER = "run_id,seed,t,subset_rank,reward,inst_regret,cum_regret"
SWEEP_CSV_HEADER = "algo,N,K,T,reps,mean_regret,stderr"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One policy/adversary pairing with replication and output settings."""

    dims: ProblemDims
    link_spec: dict
    adversary_spec: dict
    algorithm_specs: list[dict]
    replications: int = 1
    base_seed: int = 0
    t_grid: list[int] | None = None
    output: str | None = None
    full_trace: bool = False

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if not self.algorithm_specs:
            raise ValueError("need at least one algorithm")
        for spec in self.algorithm_specs:
            if spec.get("name") not in ALGORITHM_PARAMS:
                raise ValueError(f"unknown algorithm {spec.get('name')!r}")
        if self.adversary_spec.get("kind") not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.adversary_spec.get('kind')!r}")
        if self.t_grid is not None:
            if len(self.t_grid) == 0 or any(t < 1 for t in self.t_grid):
                raise ValueError("t_grid entries must be positive")
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"output must be a path string or null, got {self.output!r}")
        if not isinstance(self.full_trace, bool):
            raise ValueError(f"full_trace must be true or false, got {self.full_trace!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from its JSON form; a value of the wrong JSON type raises ValueError."""
        try:
            dims = data["dims"]
            return cls(
                dims=ProblemDims(
                    n_arms=whole_number(dims["N"], "N"),
                    subset_size=whole_number(dims["K"], "K"),
                    horizon=whole_number(dims["T"], "T"),
                    degree=None if dims.get("d") is None else whole_number(dims["d"], "d"),
                ),
                link_spec=dict(data["link"]),
                adversary_spec=dict(data["adversary"]),
                algorithm_specs=[dict(a) for a in data["algorithms"]],
                replications=whole_number(data.get("replications", 1), "replications"),
                base_seed=whole_number(data.get("base_seed", 0), "base_seed"),
                t_grid=(None if data.get("t_grid") is None
                        else [whole_number(t, "t_grid entry") for t in data["t_grid"]]),
                output=data.get("output"),
                full_trace=data.get("full_trace", False),
            )
        except TypeError as exc:
            raise ValueError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "dims": {
                "N": self.dims.n_arms,
                "K": self.dims.subset_size,
                "T": self.dims.horizon,
                "d": self.dims.degree,
            },
            "link": self.link_spec,
            "adversary": self.adversary_spec,
            "algorithms": self.algorithm_specs,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "t_grid": self.t_grid,
            "output": self.output,
            "full_trace": self.full_trace,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_link(spec: dict) -> LinkFunction:
    kind = spec.get("kind")
    if kind == "mnl":
        return MnlLink()
    if kind == "polynomial":
        return PolynomialLink(real_array(spec["coefficients"], "coefficient"))
    if kind == "tabulated":
        return TabulatedLink(real_array(spec["xs"], "xs entry"),
                             real_array(spec["ys"], "ys entry"))
    raise ValueError(f"unknown link kind {kind!r}")


def _load_instance(spec: dict) -> HardInstance:
    if "instance" in spec:
        return HardInstance.from_json_dict(spec["instance"])
    if "instance_path" in spec:
        return HardInstance.load(spec["instance_path"])
    raise ValueError("hard adversary needs 'instance' or 'instance_path'")


def build_adversary(spec: dict, dims: ProblemDims, link: LinkFunction, horizons
                    ) -> tuple[Adversary, BernoulliChannel | ChoiceChannel]:
    """The adversary of ``horizons`` and its channel, the one place that picks
    the feedback model: choice at unit prices (``mnl_hard``) or the spec's
    (``mnl_general``), else Bernoulli through ``link``, on the adversary's
    columns; checks the cap, a schedule's length, and the link's range on
    stochastic values.  The horizons differ at most in a hard mixture's delta,
    which the adversary holds per horizon: ``adversary.for_rows(i)`` is the
    adversary of ``horizons[i]``."""
    subsets = subsets_by_rank(dims.n_arms, dims.subset_size)
    kind = spec.get("kind")
    prices = np.ones(dims.n_arms) if kind == "mnl_hard" else None
    if kind in HARD_KINDS:
        instance = _load_instance(spec)
        if kind == "hard_poly":
            if dims.degree is None or instance.m != dims.degree:
                raise ValueError("polynomial hard adversary needs dims.d == instance.m")
            if instance.m >= dims.subset_size:
                raise ValueError("polynomial hard adversary needs m < K")
        elif instance.m != dims.subset_size:
            raise ValueError(f"{kind} adversary needs a planted set of size K")
        if kind == "mnl_hard" and not isinstance(link, MnlLink):
            raise ValueError("mnl_hard requires the MNL link")
        delta = spec.get("delta", "auto")
        coeff = kl_coefficient(instance, link) if delta == "auto" else None
        degree = instance.m if kind == "hard_poly" else None
        deltas = [real_number(delta, "delta") if coeff is None else
                  delta_schedule(dims.n_arms, dims.subset_size, horizon, coeff, degree)
                  for horizon in horizons]
        adversary = HardMixtureAdversary(instance, link, spec["s_star"], np.array(deltas),
                                         n_arms=dims.n_arms, subset_size=dims.subset_size)
    elif kind in ("mnl_general", "oblivious"):
        schedule = (real_array(spec["schedule"], "schedule entry") if "schedule" in spec
                    else load_utility_schedule(spec["schedule_csv"], dims.n_arms))
        if schedule.ndim != 2 or schedule.shape[1] != dims.n_arms:
            raise ValueError(f"schedule rows must have one entry per arm ({dims.n_arms})")
        if schedule.shape[0] < max(horizons):
            raise ValueError(f"schedule covers {schedule.shape[0]} rounds, "
                             f"horizon needs {max(horizons)}")
        if kind == "mnl_general":
            prices = real_array(spec["prices"], "price")
            if prices.shape != (dims.n_arms,):
                raise ValueError("prices must have one entry per arm")
        adversary = ObliviousAdversary(schedule)
    elif kind == "stochastic":
        values = real_array(spec["v"], "v entry")
        if values.shape != (dims.n_arms,):
            raise ValueError(f"v must have one entry per arm ({dims.n_arms})")
        adversary = StochasticAdversary(values)
    else:
        raise ValueError(f"unknown adversary kind {kind!r}")
    columns = adversary.arm_columns
    channel = (BernoulliChannel(link, subsets, columns) if prices is None
               else ChoiceChannel(prices, subsets, columns))
    if kind == "stochastic":
        # the class values never change: a link that leaves [0, 1] on them
        # stops the run here, before any replication
        channel.class_values(adversary.column_block(1, np.empty((1, 1, 0))))
    return adversary, channel


def build_learner(spec: dict, dims: ProblemDims, horizon, link: LinkFunction,
                  replications: int = 1):
    """Instantiate the learner with the state of ``replications`` rows;
    ``horizon`` is an int or one horizon per row."""
    name = spec.get("name")
    params = spec.get("params", {})
    if name not in ALGORITHM_PARAMS:
        raise ValueError(f"unknown algorithm {name!r}")
    accepted = ALGORITHM_PARAMS[name]
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise ValueError(f"{name} does not take params {unknown}; "
                         f"accepted: {list(accepted)}")
    if name in ("exp3", "tsallis_inf"):
        return SubsetMab(dims.n_arms, dims.subset_size, algorithm=name,
                         mixing=real_number(params.get("mixing", 0.0), "mixing"),
                         replications=replications)
    if name == "exp2":
        if dims.degree is None:
            raise ValueError("exp2 needs dims.d (the tensor order)")
        if not isinstance(link, PolynomialLink) or link.degree > dims.degree:
            raise ValueError("exp2 requires a polynomial link of degree <= dims.d")
        eta, gamma_mix = (None if params.get(key) is None else real_number(params[key], key)
                          for key in ("eta", "gamma_mix"))
        return Exp2(dims.n_arms, dims.subset_size, dims.degree, horizon,
                    eta=eta, gamma_mix=gamma_mix, replications=replications)
    subset = [whole_number(arm, "subset entry") for arm in params["subset"]]
    if len(subset) != dims.subset_size:
        raise ValueError(f"constant subset {subset} must hold K = {dims.subset_size} arms")
    return ConstantPolicy(SubsetAction.from_indices(subset, dims.n_arms),
                          replications=replications)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def simulate(adversary: Adversary, learner, horizon: int, rng, learner_rng,
             link: LinkFunction | None = None, prices=None
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interaction loop of one replication, one round at a time: adversary
    draws, learner selects, feedback, update.

    Exactly one of ``link`` (Bernoulli channel) or ``prices`` (choice channel)
    selects the feedback model.  ``rng`` drives the environment (adversary and
    feedback) and ``learner_rng`` the learner, so the environment stream never
    depends on the learner and paired runs of different algorithms face
    identical hidden-value sequences.  Each round draws the kernel's fixed
    layout, so with the streams of ``kernel.replication_seeds`` this is the
    reference for ``run_batch``.  Returns the run's columns: the hidden values
    (T, N), the played subsets' arms (T, K) and the realized rewards (T,).
    """
    check_feedback_model(link, prices)
    hidden, played, rewards = [], [], []
    for t in range(1, horizon + 1):
        values = adversary.reward_vector(t, rng)
        subset = learner.select(learner_rng)
        if link is not None:
            reward = float(bernoulli_feedback(expected_reward(subset, values, link), rng))
        else:
            outcome = mnl_sample_choice(subset, values, rng)
            reward = float(prices[outcome]) if outcome >= 0 else 0.0
        learner.update(subset, reward)
        hidden.append(values)
        played.append(subset.indices)
        rewards.append(reward)
    return np.array(hidden), np.array(played, dtype=np.int64), np.array(rewards)


@dataclass
class RunResult:
    """One replication: checkpointed trace plus the final cumulative regret.

    ``seed`` is the config's base seed; with ``run_id`` it names the
    replication's streams (:func:`kernel.replication_seeds`).  ``wall_time_s``
    is the replication's share of its batch's simulation time.  A replication
    that died carries the error message in ``error``, an empty trace, and a
    NaN final regret; other replications are unaffected.
    """

    run_id: int
    seed: int
    checkpoints: list[tuple[int, int, float, float, float]] = field(repr=False)
    final_regret: float = 0.0
    wall_time_s: float = 0.0
    error: str | None = None


def _checkpoint_rounds(horizon: int, full_trace: bool) -> np.ndarray:
    if full_trace or horizon <= 128:
        return np.arange(1, horizon + 1)
    pts = np.round(np.logspace(0, np.log10(horizon), 128)).astype(int)
    return np.unique(np.append(np.clip(pts, 1, horizon), horizon))


def _environments(config: ExperimentConfig, horizons: list[int]) -> tuple:
    """The (horizons, link, adversary, channel) of the increasing ``horizons``,
    built once per config and shared by every algorithm, batch and re-run;
    with one learner of each algorithm, so a configuration problem stops the
    run before its first replication.  A wrong JSON type raises ValueError,
    as in ``from_dict``."""
    try:
        link = build_link(config.link_spec)
        adversary, channel = build_adversary(config.adversary_spec, config.dims, link,
                                             horizons)
        for spec in config.algorithm_specs:
            build_learner(spec, config.dims, horizons[0], link)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    return horizons, link, adversary, channel


def _run_cell(config: ExperimentConfig, environment, algo_spec: dict,
              rows: list[tuple[int, int]]) -> list[RunResult]:
    """The (horizon, replication) ``rows`` of one algorithm as one batch in
    ``environment``; results in row order.  The rows must come by
    non-decreasing horizon, the order ``run_batch`` takes (it raises
    otherwise).  Any error aborts the batch."""
    built_for, link, adversary, channel = environment
    horizons = np.array([horizon for horizon, _ in rows])
    learner = build_learner(algo_spec, config.dims, horizons, link, len(rows))
    start = time.perf_counter()
    traces = run_batch(adversary.for_rows(np.searchsorted(built_for, horizons)), learner,
                       channel, horizons,
                       [replication_seeds(config.base_seed, r) for _, r in rows],
                       {h: _checkpoint_rounds(h, config.full_trace)
                        for h in np.unique(horizons).tolist()})
    share = (time.perf_counter() - start) / len(rows)
    results = []
    for horizon, trace in traces.items():
        results += _run_results(config, trace, [r for h, r in rows if h == horizon], share)
    return results


def _run_results(config: ExperimentConfig, trace: BatchTrace, run_ids: list[int],
                 wall_time_s: float) -> list[RunResult]:
    """One :class:`RunResult` per row of ``trace``, for replications ``run_ids``."""
    rounds = trace.rounds.tolist()
    return [
        RunResult(run_id=run_id, seed=config.base_seed,
                  checkpoints=list(zip(rounds, trace.ranks[row].tolist(),
                                       trace.rewards[row].tolist(),
                                       trace.inst_regret[row].tolist(),
                                       trace.cum_regret[row].tolist())),
                  final_regret=float(trace.final_regret[row]), wall_time_s=wall_time_s)
        for row, run_id in enumerate(run_ids)
    ]


def _safe_cell(config: ExperimentConfig, environment, algo_spec: dict,
               rows: list[tuple[int, int]]) -> list[RunResult]:
    """:func:`_run_cell` with failure isolation: a batch that raises is re-run
    as its two halves, each isolated the same way, so a row that raises alone
    becomes a recorded failure instead of aborting its siblings, and one bad
    row among R costs at most 2 ceil(log2 R) + 1 batches."""
    try:
        return _run_cell(config, environment, algo_spec, rows)
    except Exception as exc:  # recorded, never propagated past this row
        if len(rows) > 1:
            half = len(rows) // 2
            return (_safe_cell(config, environment, algo_spec, rows[:half])
                    + _safe_cell(config, environment, algo_spec, rows[half:]))
        return [RunResult(run_id=rows[0][1], seed=config.base_seed, checkpoints=[],
                          final_regret=float("nan"), wall_time_s=0.0,
                          error=f"{type(exc).__name__}: {exc}")]


def run_replication(config: ExperimentConfig, run_id: int) -> RunResult:
    """Re-run replication ``run_id`` of ``config`` alone (the first algorithm
    at the config horizon), with the same bits it has inside its batch."""
    if run_id < 0:
        raise ValueError("run_id must be >= 0")
    horizon = config.dims.horizon
    environment = _environments(config, [horizon])
    return _safe_cell(config, environment, config.algorithm_specs[0],
                      [(horizon, run_id)])[0]


def reference_replication(config: ExperimentConfig, algo_spec: dict, horizon: int,
                          run_id: int) -> RunResult:
    """Replication ``run_id`` on the per-round reference path: :func:`simulate`
    and ``regret_of_run`` on the kernel's streams and environment, sliced at
    the kernel's checkpoints into a one-row ``BatchTrace``."""
    _, link, adversary, channel = _environments(config, [horizon])
    learner = build_learner(algo_spec, config.dims, horizon, link)
    env_seed, learner_seed = replication_seeds(config.base_seed, run_id)
    start = time.perf_counter()
    hidden, played, rewards = simulate(
        adversary.for_rows(0), learner, horizon, np.random.default_rng(env_seed),
        np.random.default_rng(learner_seed), link=channel.link, prices=channel.prices)
    _, inst_regret = regret_of_run(hidden, played, link=channel.link, prices=channel.prices)
    elapsed = time.perf_counter() - start
    rows = _checkpoint_rounds(horizon, config.full_trace) - 1
    trace = BatchTrace(rounds=rows + 1,
                       ranks=colex_ranks(played[None, rows], config.dims.n_arms),
                       rewards=rewards[None, rows], inst_regret=inst_regret[None, rows],
                       cum_regret=np.cumsum(inst_regret)[None, rows])
    return _run_results(config, trace, [run_id], elapsed)[0]


def run_experiment(config: ExperimentConfig) -> list[RunResult]:
    """Run-mode execution: a single algorithm at the configured horizon."""
    if len(config.algorithm_specs) != 1:
        raise ValueError("run mode takes exactly one algorithm; use sweep for several")
    horizon = config.dims.horizon
    environment = _environments(config, [horizon])
    return _safe_cell(config, environment, config.algorithm_specs[0],
                      [(horizon, r) for r in range(config.replications)])


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or cannot ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_map(func, items: list, names: list[str]) -> list:
    """``[func(item) for item in items]``, one contiguous chunk of items per
    usable CPU: this process runs the first chunk, and a forked child each
    other one, sending its results back pickled through a pipe, so they come
    in item order.  A failed child raises RuntimeError naming its item
    (``names``), and a failed pipe or fork one naming its chunk's items.
    On any exception the children are killed; every child is reaped before
    this returns.  Forked, not spawned, so nothing is pickled going in
    (numpy's OpenBLAS restarts its threads in a child).  Tested on CPython
    3.11 only; from 3.12, ``os.fork`` in a process that holds other threads
    (OpenBLAS's pool is one) emits a DeprecationWarning."""
    workers = max(1, min(len(items), _usable_cpus()))
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    chunks = [range(start, end) for start, end in zip(bounds, bounds[1:])]
    # a child inherits unflushed output and would print it a second time
    sys.stdout.flush()
    sys.stderr.flush()
    pids, pipes = [], []
    try:
        for chunk in chunks[1:]:
            try:
                read_fd, write_fd = os.pipe()
                pipes.append(open(read_fd, "rb"))
                with open(write_fd, "wb") as sink:
                    pid = os.fork()
                    if pid == 0:
                        _fork_child(func, [items[i] for i in chunk], sink)
            except OSError as exc:
                raise RuntimeError(f"could not start the sweep worker for "
                                   f"{', '.join(names[i] for i in chunk)}: {exc}") from exc
            pids.append(pid)
        results = [func(items[i]) for i in chunks[0]]
        for pipe, chunk in zip(pipes, chunks[1:]):
            try:
                done, error = pickle.loads(pipe.read())
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"the sweep worker for "
                                   f"{', '.join(names[i] for i in chunk)} "
                                   f"exited without a result") from None
            if error is not None:
                raise RuntimeError(f"{names[chunk[len(done)]]} failed in its "
                                   f"sweep worker: {error}")
            results.extend(done)
        return results
    except BaseException:
        import signal  # here, so that importing the package loads no new module
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # an unreaped child cannot vanish
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _fork_child(func, items: list, sink):
    """Forked worker of :func:`_fork_map`: writes the pickled ``(results,
    error)`` of ``func`` on ``items`` to ``sink`` (the results before the
    first item that raised, and its message) and leaves only through
    ``os._exit``, so it never returns into the caller's stack."""
    status = 1
    try:
        done, error = [], None
        try:
            for item in items:
                done.append(func(item))
        except Exception as exc:  # the parent raises it with the item's name
            error = f"{type(exc).__name__}: {exc}"
        sink.write(pickle.dumps((done, error)))
        sink.flush()
        status = 0
    finally:
        os._exit(status)


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Sweep-mode execution: every algorithm at every horizon in the grid.

    Each algorithm runs every (horizon, replication) pair of the grid as one
    batch, and a row retires at its horizon.  Emits one summary row per
    (algorithm, horizon), in grid order, with the mean final regret and its
    standard error across the successful replications (``reps`` counts those;
    failed replications are dropped from the aggregates).  Every horizon
    reuses the same replication seeds.  The algorithms run in forked workers.
    """
    grid = config.t_grid if config.t_grid is not None else [config.dims.horizon]
    distinct = sorted(set(grid))
    environment = _environments(config, distinct)
    pairs = [(horizon, r) for horizon in distinct for r in range(config.replications)]
    algos = config.algorithm_specs
    rows = []
    for algo, results in zip(algos, _fork_map(
            lambda algo: _safe_cell(config, environment, algo, pairs), algos,
            [algo["name"] for algo in algos])):
        for horizon in grid:
            finals = np.array([res.final_regret for (h, _), res in zip(pairs, results)
                               if h == horizon and res.error is None])
            if finals.size == 0:
                mean, stderr = float("nan"), float("nan")
            else:
                mean = float(finals.mean())
                stderr = (float(finals.std(ddof=1) / math.sqrt(finals.size))
                          if finals.size > 1 else 0.0)
            rows.append({
                "algo": algo["name"],
                "N": config.dims.n_arms,
                "K": config.dims.subset_size,
                "T": int(horizon),
                "reps": int(finals.size),
                "mean_regret": mean,
                "stderr": stderr,
            })
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_run_csv(results: list[RunResult], path):
    """Per-round checkpoint rows; a failed replication leaves one sentinel row
    with t=0, rank -1, and NaN values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RUN_CSV_HEADER + "\n")
        for res in results:
            if res.error is not None:
                fh.write(f"{res.run_id},{res.seed},0,-1,nan,nan,nan\n")
                continue
            for t, rank, reward, inst, cum in res.checkpoints:
                fh.write(f"{res.run_id},{res.seed},{t},{rank},"
                         f"{float(reward)!r},{float(inst)!r},{float(cum)!r}\n")


def write_sweep_csv(rows: list[dict], path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(f"{row['algo']},{row['N']},{row['K']},{row['T']},{row['reps']},"
                     f"{float(row['mean_regret'])!r},{float(row['stderr'])!r}\n")
