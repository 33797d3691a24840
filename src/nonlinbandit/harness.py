"""Experiment configuration, replication-batched execution, CSV output.

Runs are reproducible byte-for-byte.  Replication r of a config draws from
an environment and a learner stream seeded by the two children of
``SeedSequence(base_seed, spawn_key=(r,))``, so no two (base seed,
replication) pairs share a stream, and every horizon of a sweep reuses the
same replication seeds (common random numbers).  The R replications of one
(algorithm, horizon) cell advance in lockstep in ``kernel.run_batch``.  A
replication gives the same bits alone or in a batch, so a batch that raises
is re-run one replication at a time and only the replications that fail
alone are recorded as failed; :func:`run_replication` re-runs one
replication by its index.  Results are ordered by run id.

:func:`simulate` with ``analysis.regret_of_run`` is the per-round reference
path (:func:`reference_replication`) that the kernel is tested against.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import regret_of_run
from .core import (
    LinkFunction,
    MnlLink,
    PolynomialLink,
    ProblemDims,
    SubsetAction,
    TabulatedLink,
    expected_reward,
    subsets_by_rank,
)
from .environments import (
    Adversary,
    EnvRecord,
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
from .kernel import BernoulliChannel, ChoiceChannel, replication_seeds, run_batch
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

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        dims = data["dims"]
        return cls(
            dims=ProblemDims(
                n_arms=int(dims["N"]),
                subset_size=int(dims["K"]),
                horizon=int(dims["T"]),
                degree=None if dims.get("d") is None else int(dims["d"]),
            ),
            link_spec=dict(data["link"]),
            adversary_spec=dict(data["adversary"]),
            algorithm_specs=[dict(a) for a in data["algorithms"]],
            replications=int(data.get("replications", 1)),
            base_seed=int(data.get("base_seed", 0)),
            t_grid=None if data.get("t_grid") is None else [int(t) for t in data["t_grid"]],
            output=data.get("output"),
            full_trace=bool(data.get("full_trace", False)),
        )

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
        return PolynomialLink(spec["coefficients"])
    if kind == "tabulated":
        return TabulatedLink(spec["xs"], spec["ys"])
    raise ValueError(f"unknown link kind {kind!r}")


def _load_instance(spec: dict) -> HardInstance:
    if "instance" in spec:
        return HardInstance.from_json_dict(spec["instance"])
    if "instance_path" in spec:
        return HardInstance.load(spec["instance_path"])
    raise ValueError("hard adversary needs 'instance' or 'instance_path'")


def _resolve_delta(spec, instance, link, dims, horizon) -> float:
    delta = spec.get("delta", "auto")
    if delta == "auto":
        coeff = kl_coefficient(instance, link)
        if spec["kind"] == "hard_poly":
            return delta_schedule(dims.n_arms, dims.subset_size, horizon, coeff,
                                  mode="poly", degree=instance.m)
        return delta_schedule(dims.n_arms, dims.subset_size, horizon, coeff)
    return float(delta)


def build_adversary(spec: dict, dims: ProblemDims, link: LinkFunction,
                    horizon: int) -> tuple[Adversary, np.ndarray | None]:
    """Instantiate the adversary; returns (adversary, prices) where prices is
    None for binary-feedback channels and the price vector for choice feedback."""
    kind = spec.get("kind")
    if kind in HARD_KINDS:
        instance = _load_instance(spec)
        delta = _resolve_delta(spec, instance, link, dims, horizon)
        if kind == "hard_nonpoly" and instance.m != dims.subset_size:
            raise ValueError("general hard adversary needs a planted set of size K")
        if kind == "hard_poly":
            if dims.degree is None or instance.m != dims.degree:
                raise ValueError("polynomial hard adversary needs dims.d == instance.m")
            if instance.m >= dims.subset_size:
                raise ValueError("polynomial hard adversary needs m < K")
        if kind == "mnl_hard":
            if not isinstance(link, MnlLink):
                raise ValueError("mnl_hard requires the MNL link")
            if instance.m != dims.subset_size:
                raise ValueError("mnl_hard needs a planted set of size K")
        adversary = HardMixtureAdversary(
            instance, link, spec["s_star"], delta,
            n_arms=dims.n_arms, subset_size=dims.subset_size,
        )
        prices = np.ones(dims.n_arms) if kind == "mnl_hard" else None
        return adversary, prices
    if kind in ("mnl_general", "oblivious"):
        schedule = (np.asarray(spec["schedule"], dtype=float) if "schedule" in spec
                    else load_utility_schedule(spec["schedule_csv"], dims.n_arms))
        if schedule.ndim != 2 or schedule.shape[1] != dims.n_arms:
            raise ValueError(f"schedule rows must have one entry per arm ({dims.n_arms})")
        if schedule.shape[0] < horizon:
            raise ValueError(f"schedule covers {schedule.shape[0]} rounds, "
                             f"horizon needs {horizon}")
        if kind == "oblivious":
            return ObliviousAdversary(schedule), None
        prices = np.asarray(spec["prices"], dtype=float)
        if prices.shape != (dims.n_arms,):
            raise ValueError("prices must have one entry per arm")
        return ObliviousAdversary(schedule), prices
    if kind == "stochastic":
        values = np.asarray(spec["v"], dtype=float)
        if values.shape != (dims.n_arms,):
            raise ValueError(f"v must have one entry per arm ({dims.n_arms})")
        return StochasticAdversary(values), None
    raise ValueError(f"unknown adversary kind {kind!r}")


def build_learner(spec: dict, dims: ProblemDims, horizon: int, link: LinkFunction,
                  replications: int = 1):
    """Instantiate the learner with the state of ``replications`` rows."""
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
                         mixing=float(params.get("mixing", 0.0)),
                         replications=replications)
    if name == "exp2":
        if dims.degree is None:
            raise ValueError("exp2 needs dims.d (the tensor order)")
        if not isinstance(link, PolynomialLink) or link.degree > dims.degree:
            raise ValueError("exp2 requires a polynomial link of degree <= dims.d")
        return Exp2(dims.n_arms, dims.subset_size, dims.degree, horizon,
                    eta=params.get("eta"), gamma_mix=params.get("gamma_mix"),
                    replications=replications)
    return ConstantPolicy(SubsetAction.from_indices(params["subset"], dims.n_arms),
                          replications=replications)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def simulate(adversary: Adversary, learner, horizon: int, rng,
             link: LinkFunction | None = None, prices=None,
             learner_rng=None) -> list[EnvRecord]:
    """Interaction loop of one replication, one round at a time: adversary
    draws, learner selects, feedback, update.

    Exactly one of ``link`` (Bernoulli channel) or ``prices`` (choice channel)
    selects the feedback model.  ``rng`` drives the environment (adversary and
    feedback); the learner samples from ``learner_rng`` when given, which lets
    paired runs of different algorithms face identical hidden-value sequences.
    Each round draws the kernel's fixed layout, so with the streams of
    ``kernel.replication_seeds`` this is the reference for ``run_batch``.
    """
    if (link is None) == (prices is None):
        raise ValueError("provide exactly one of link or prices")
    if learner_rng is None:
        learner_rng = rng
    records: list[EnvRecord] = []
    for t in range(1, horizon + 1):
        hidden = adversary.reward_vector(t, rng)
        subset = learner.select(learner_rng)
        if link is not None:
            mean = expected_reward(subset, hidden, link)
            outcome = bernoulli_feedback(mean, rng)
            reward = float(outcome)
        else:
            outcome = mnl_sample_choice(subset, hidden, rng)
            reward = float(prices[outcome]) if outcome >= 0 else 0.0
        learner.update(subset, reward)
        records.append(EnvRecord(t=t, hidden_values=hidden, subset=subset,
                                 feedback=outcome, reward=reward))
    return records


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
    config_hash: str
    checkpoints: list[tuple[int, int, float, float, float]] = field(repr=False)
    final_regret: float = 0.0
    wall_time_s: float = 0.0
    error: str | None = None


def _checkpoint_rounds(horizon: int, full_trace: bool) -> np.ndarray:
    if full_trace or horizon <= 128:
        return np.arange(1, horizon + 1)
    pts = np.round(np.logspace(0, np.log10(horizon), 128)).astype(int)
    return np.unique(np.append(np.clip(pts, 1, horizon), horizon))


def _cell_parts(config: ExperimentConfig, algo_spec: dict, horizon: int,
                replications: int):
    link = build_link(config.link_spec)
    adversary, prices = build_adversary(config.adversary_spec, config.dims, link, horizon)
    learner = build_learner(algo_spec, config.dims, horizon, link, replications)
    return link, adversary, prices, learner


def _run_cell(config: ExperimentConfig, algo_spec: dict, horizon: int,
              run_ids: list[int]) -> list[RunResult]:
    """Replications ``run_ids`` of one (algorithm, horizon) cell as one batch;
    any error aborts the batch."""
    link, adversary, prices, learner = _cell_parts(config, algo_spec, horizon,
                                                   len(run_ids))
    subsets = subsets_by_rank(config.dims.n_arms, config.dims.subset_size)
    channel = (BernoulliChannel(link, subsets) if prices is None
               else ChoiceChannel(prices, subsets))
    start = time.perf_counter()
    trace = run_batch(adversary, learner, channel, horizon,
                      [replication_seeds(config.base_seed, r) for r in run_ids],
                      _checkpoint_rounds(horizon, config.full_trace))
    share = (time.perf_counter() - start) / len(run_ids)
    config_hash = config.config_hash()
    rounds = trace.rounds.tolist()
    return [
        RunResult(run_id=run_id, seed=config.base_seed, config_hash=config_hash,
                  checkpoints=list(zip(rounds, trace.ranks[row].tolist(),
                                       trace.rewards[row].tolist(),
                                       trace.inst_regret[row].tolist(),
                                       trace.cum_regret[row].tolist())),
                  final_regret=float(trace.final_regret[row]), wall_time_s=share)
        for row, run_id in enumerate(run_ids)
    ]


def _safe_cell(config: ExperimentConfig, algo_spec: dict, horizon: int,
               run_ids: list[int]) -> list[RunResult]:
    """:func:`_run_cell` with failure isolation: a batch that raises is re-run
    one replication at a time, and a replication that raises alone becomes a
    recorded failure instead of aborting its siblings."""
    try:
        return _run_cell(config, algo_spec, horizon, run_ids)
    except Exception as exc:  # recorded, never propagated past this replication
        if len(run_ids) > 1:
            return [res for run_id in run_ids
                    for res in _safe_cell(config, algo_spec, horizon, [run_id])]
        return [RunResult(run_id=run_ids[0], seed=config.base_seed,
                          config_hash=config.config_hash(), checkpoints=[],
                          final_regret=float("nan"), wall_time_s=0.0,
                          error=f"{type(exc).__name__}: {exc}")]


def run_replication(config: ExperimentConfig, run_id: int, algo_spec: dict | None = None,
                    horizon: int | None = None) -> RunResult:
    """Re-run replication ``run_id`` of ``config`` alone, with the same bits it
    has inside its batch.  Defaults: the first algorithm, the config horizon."""
    if run_id < 0:
        raise ValueError("run_id must be >= 0")
    return _safe_cell(config,
                      config.algorithm_specs[0] if algo_spec is None else algo_spec,
                      config.dims.horizon if horizon is None else horizon, [run_id])[0]


def reference_replication(config: ExperimentConfig, algo_spec: dict, horizon: int,
                          run_id: int) -> RunResult:
    """Replication ``run_id`` on the per-round reference path:
    :func:`simulate` and ``regret_of_run`` on the same streams as the kernel."""
    link, adversary, prices, learner = _cell_parts(config, algo_spec, horizon, 1)
    env_seed, learner_seed = replication_seeds(config.base_seed, run_id)
    feedback = {"link": link} if prices is None else {"prices": prices}
    start = time.perf_counter()
    records = simulate(adversary, learner, horizon, np.random.default_rng(env_seed),
                       learner_rng=np.random.default_rng(learner_seed), **feedback)
    trace = regret_of_run(records, **feedback)
    elapsed = time.perf_counter() - start
    rows = [(int(t), records[t - 1].subset.rank, records[t - 1].reward,
             float(trace.inst_regret[t - 1]), float(trace.cum_regret[t - 1]))
            for t in _checkpoint_rounds(horizon, config.full_trace)]
    return RunResult(run_id=run_id, seed=config.base_seed,
                     config_hash=config.config_hash(), checkpoints=rows,
                     final_regret=trace.final_regret, wall_time_s=elapsed)


def _validate_builds(config: ExperimentConfig, horizon: int):
    """Fail fast before any replication starts: on configuration problems,
    and on a subset enumeration past the cap, which every cell runs."""
    link = build_link(config.link_spec)
    build_adversary(config.adversary_spec, config.dims, link, horizon)
    for spec in config.algorithm_specs:
        build_learner(spec, config.dims, horizon, link)
    subsets_by_rank(config.dims.n_arms, config.dims.subset_size)


def run_experiment(config: ExperimentConfig) -> list[RunResult]:
    """Run-mode execution: a single algorithm at the configured horizon."""
    if len(config.algorithm_specs) != 1:
        raise ValueError("run mode takes exactly one algorithm; use sweep for several")
    horizon = config.dims.horizon
    _validate_builds(config, horizon)
    return _safe_cell(config, config.algorithm_specs[0], horizon,
                      list(range(config.replications)))


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Sweep-mode execution: every algorithm at every horizon in the grid.

    Emits one summary row per (algorithm, horizon) with the mean final regret
    and its standard error across the successful replications (``reps`` counts
    those; failed replications are dropped from the aggregates).  Every
    horizon reuses the same replication seeds.
    """
    grid = config.t_grid if config.t_grid is not None else [config.dims.horizon]
    for horizon in grid:
        _validate_builds(config, horizon)
    rows = []
    for algo in config.algorithm_specs:
        for horizon in grid:
            results = _safe_cell(config, algo, horizon, list(range(config.replications)))
            finals = np.array([r.final_regret for r in results if r.error is None])
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

def _fmt(x) -> str:
    return repr(float(x))


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
                         f"{_fmt(reward)},{_fmt(inst)},{_fmt(cum)}\n")


def write_sweep_csv(rows: list[dict], path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(f"{row['algo']},{row['N']},{row['K']},{row['T']},{row['reps']},"
                     f"{_fmt(row['mean_regret'])},{_fmt(row['stderr'])}\n")
