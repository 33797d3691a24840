import copy
import hashlib
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nonlinbandit import (
    ExperimentConfig,
    MnlLink,
    PolynomialLink,
    ProblemDims,
    reference_replication,
    regret_of_run,
    run_experiment,
    run_replication,
    run_sweep,
    write_run_csv,
    write_sweep_csv,
)
from nonlinbandit.cli import main, parse_link_arg
from nonlinbandit.harness import ALGORITHM_PARAMS, build_learner


def _hard_run_config(instance, algo, *, n_arms=5, subset_size=2, horizon=400,
                     delta=0.3, reps=2, seed=7, s_star=(0, 1), output=None,
                     t_grid=None):
    return ExperimentConfig.from_dict({
        "dims": {"N": n_arms, "K": subset_size, "T": horizon, "d": None},
        "link": {"kind": "mnl"},
        "adversary": {
            "kind": "hard_nonpoly",
            "instance": instance.to_json_dict(),
            "s_star": list(s_star),
            "delta": delta,
        },
        "algorithms": [algo],
        "replications": reps,
        "base_seed": seed,
        "t_grid": t_grid,
        "output": output,
        "full_trace": False,
    })


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_config_roundtrip_idempotent(mnl_hard_m2, tmp_path):
    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}})
    first = config.to_dict()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(first))
    second = ExperimentConfig.from_json_file(path).to_dict()
    assert first == second
    assert ExperimentConfig.from_dict(second).config_hash() == config.config_hash()


def test_config_validation(mnl_hard_m2):
    with pytest.raises(ValueError):
        _hard_run_config(mnl_hard_m2, {"name": "nope"})
    cfg = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}).to_dict()
    cfg["adversary"]["kind"] = "mystery"
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(cfg)
    cfg = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}).to_dict()
    cfg["replications"] = 0
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(cfg)


# ---------------------------------------------------------------------------
# Determinism and replication independence
# ---------------------------------------------------------------------------

def test_runs_are_byte_identical(mnl_hard_m2, tmp_path):
    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}})
    paths = []
    for tag in ("a", "b"):
        results = run_experiment(config)
        path = tmp_path / f"run_{tag}.csv"
        write_run_csv(results, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_replications_independent_of_order(mnl_hard_m2):
    config = _hard_run_config(mnl_hard_m2, {"name": "tsallis_inf", "params": {}},
                              reps=3)
    together = run_experiment(config)
    for rep in (2, 0, 1):
        solo = run_replication(config, rep)
        assert solo.final_regret == together[rep].final_regret
        assert solo.checkpoints == together[rep].checkpoints
        assert (solo.run_id, solo.seed) == (together[rep].run_id, together[rep].seed)


def test_replication_seeds_do_not_alias_across_base_seeds(mnl_hard_m2):
    # base 7 / replication 1 and base 8 / replication 0 are different streams
    first = run_experiment(_hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}},
                                            reps=2, seed=7))[1]
    second = run_experiment(_hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}},
                                             reps=1, seed=8))[0]
    assert first.checkpoints != second.checkpoints


def _channel_configs(mnl_hard_m2, quadratic_hard_m2, horizon):
    """(label, config) pairs covering exp3, tsallis_inf, exp2 and constant on the
    Bernoulli and on the choice channel, full traces, three replications."""
    link, quad = quadratic_hard_m2
    schedule = np.random.default_rng(5).uniform(0, 1, size=(horizon, 4)).tolist()
    common = {"replications": 3, "base_seed": 11, "full_trace": True}
    bernoulli = {"dims": {"N": 5, "K": 2, "T": horizon, "d": None},
                 "link": {"kind": "mnl"},
                 "adversary": {"kind": "hard_nonpoly", "instance": mnl_hard_m2.to_json_dict(),
                               "s_star": [0, 1], "delta": 0.3}}
    choice = {"dims": {"N": 4, "K": 2, "T": horizon, "d": None},
              "link": {"kind": "mnl"},
              "adversary": {"kind": "mnl_hard", "instance": mnl_hard_m2.to_json_dict(),
                            "s_star": [0, 2], "delta": 0.4}}
    exp2_bernoulli = {"dims": {"N": 5, "K": 3, "T": horizon, "d": 2},
                      "link": {"kind": "polynomial", "coefficients": list(link.coefficients)},
                      "adversary": {"kind": "hard_poly", "instance": quad.to_json_dict(),
                                    "s_star": [1, 3], "delta": 0.5}}
    exp2_choice = {"dims": {"N": 4, "K": 2, "T": horizon, "d": 1},
                   "link": {"kind": "polynomial", "coefficients": [0.0, 0.5]},
                   "adversary": {"kind": "mnl_general", "prices": [1.0, 0.7, 0.4, 0.9],
                                 "schedule": schedule}}
    exp2 = {"name": "exp2", "params": {"gamma_mix": 0.05, "eta": 0.05}}
    out = []
    for channel, base, subset in (("bernoulli", bernoulli, [2, 3]),
                                  ("choice", choice, [0, 2])):
        for algo in ({"name": "exp3", "params": {}}, {"name": "tsallis_inf", "params": {}},
                     {"name": "constant", "params": {"subset": subset}}):
            out.append((f"{algo['name']}/{channel}",
                        ExperimentConfig.from_dict({**base, **common, "algorithms": [algo]})))
    for channel, base in (("bernoulli", exp2_bernoulli), ("choice", exp2_choice)):
        out.append((f"exp2/{channel}",
                    ExperimentConfig.from_dict({**base, **common, "algorithms": [exp2]})))
    return out


def test_batched_replications_match_solo(mnl_hard_m2, quadratic_hard_m2):
    # every replication carries the same bits alone (R = 1) and in its batch
    for label, config in _channel_configs(mnl_hard_m2, quadratic_hard_m2, 300):
        batch = run_experiment(config)
        assert [r.run_id for r in batch] == [0, 1, 2], label
        for rep in range(3):
            solo = run_replication(config, rep)
            assert batch[rep].error is None and solo.error is None, label
            assert solo.checkpoints == batch[rep].checkpoints, label
            assert solo.final_regret == batch[rep].final_regret, label


def _assert_regret_close(kernel, reference, label):
    scale = max(1.0, abs(reference))
    assert abs(kernel - reference) <= 1e-9 * scale, (label, kernel, reference)


@pytest.mark.parametrize("horizon", [300, 2000])
def test_kernel_matches_per_round_reference(mnl_hard_m2, quadratic_hard_m2, horizon):
    # the batched kernel against simulate + regret_of_run on the same streams:
    # identical played ranks and rewards, regret equal to 1e-9 relative; at
    # T = 2000 the trace is checkpointed (log-spaced rounds)
    for label, config in _channel_configs(mnl_hard_m2, quadratic_hard_m2, horizon):
        config.full_trace = horizon <= 300
        batch = run_experiment(config)
        for rep in range(3):
            ref = reference_replication(config, config.algorithm_specs[0], horizon, rep)
            got = batch[rep].checkpoints
            assert [row[:3] for row in got] == [row[:3] for row in ref.checkpoints], label
            for mine, theirs in zip(got, ref.checkpoints):
                _assert_regret_close(mine[3], theirs[3], label)
                _assert_regret_close(mine[4], theirs[4], label)
            _assert_regret_close(batch[rep].final_regret, ref.final_regret, label)
            assert got[-1][0] == horizon


@pytest.mark.parametrize("horizon", [300, 2000])
@pytest.mark.parametrize("kind", ["stochastic", "oblivious"])
def test_kernel_matches_reference_where_every_subset_is_a_class(kind, horizon):
    # the Bernoulli stochastic and oblivious adversaries (S = A = 20 classes,
    # one shared table row per horizon) against simulate + regret_of_run:
    # a full trace at T = 300, log-spaced checkpoints at T = 2000
    rng = np.random.default_rng(8)
    adversary = ({"kind": "stochastic", "v": rng.uniform(0, 1, 6).tolist()}
                 if kind == "stochastic" else
                 {"kind": "oblivious", "schedule": rng.uniform(0, 1, (horizon, 6)).tolist()})
    for algo in ("exp3", "tsallis_inf"):
        config = ExperimentConfig.from_dict({
            "dims": {"N": 6, "K": 3, "T": horizon, "d": None}, "link": {"kind": "mnl"},
            "adversary": adversary, "algorithms": [{"name": algo, "params": {}}],
            "replications": 3, "base_seed": 13, "full_trace": horizon <= 300})
        batch = run_experiment(config)
        for rep in range(3):
            ref = reference_replication(config, config.algorithm_specs[0], horizon, rep)
            got = batch[rep].checkpoints
            assert len(got) == len(ref.checkpoints)
            assert (len(got) == horizon) == (horizon <= 300)
            assert [row[:3] for row in got] == [row[:3] for row in ref.checkpoints], algo
            for mine, theirs in zip(got, ref.checkpoints):
                _assert_regret_close(mine[3], theirs[3], algo)
                _assert_regret_close(mine[4], theirs[4], algo)
            _assert_regret_close(batch[rep].final_regret, ref.final_regret, algo)


def test_both_regret_paths_break_a_tie_to_the_smallest_rank():
    # arms 0 and 1 each total exactly 1.0 over the two rounds, so the
    # benchmark is rank 0 (arm 0) and the constant play of arm 1 reads
    # [1, -1]; a tie broken to rank 1 would read [0, 0]
    schedule = [[1.0, 0.0], [0.0, 1.0]]
    config = ExperimentConfig.from_dict({
        "dims": {"N": 2, "K": 1, "T": 2, "d": None},
        "link": {"kind": "polynomial", "coefficients": [0.0, 1.0]},
        "adversary": {"kind": "oblivious", "schedule": schedule},
        "algorithms": [{"name": "constant", "params": {"subset": [1]}}],
        "replications": 1, "base_seed": 0, "full_trace": True})
    [kernel] = run_experiment(config)
    reference = reference_replication(config, config.algorithm_specs[0], 2, 0)
    for result in (kernel, reference):
        assert [row[3] for row in result.checkpoints] == [1.0, -1.0]
    benchmark, inst_regret = regret_of_run(np.array(schedule), np.array([[1], [1]]),
                                           link=PolynomialLink([0.0, 1.0]))
    assert benchmark == 0
    assert inst_regret.tolist() == [1.0, -1.0]


# SHA-256 of the output files below, written by the kernel that computed every
# subset's values and rewards one subset at a time; the per-class kernel must
# reproduce them byte for byte.
OUTPUT_SHA256 = {
    "exp3/bernoulli": "0c83177b9c899272a9f799ed986f95a6d507d2f69014980e54b90cbb3d4842c0",
    "tsallis_inf/bernoulli": "aafc00631a63ebeeb6fc6dc2db33951c79fdddd55e8be942108c5d8d3bbf974e",
    "constant/bernoulli": "b0d310cdd7d0959ea681b2fd57b70f37623c58177557b8a6db3522ba92774ffc",
    "exp3/choice": "34e9036a5cf8aaca4432337fc80c247aed17e497c2fddb9d2c72721addc77e6c",
    "tsallis_inf/choice": "219678f4ef716b6694a3ccfddb403e8da0850a92aae4c000689fe41d2815f61c",
    "constant/choice": "5fb4d3d3ae5c3663babf43ea11d989c2f700412291d0cb3db37ab1cd697f784e",
    "exp2/bernoulli": "24ae30a9ae03c4b8f8878320faa3455521d3e161ecb693248d25810167c9c286",
    "exp2/choice": "dbab1a0ccb54f5e879888d6c446bb85feefedcda89bf85e2219ccae19899a75e",
    "sweep/criterion5": "c4c76b7811100773796ae9bb581a23076ef1f4b31e0f479a2eb4aee5613abad0",
    "run/mnl_hard_N12_K3": "d8b15199e39a5c299c2db369a0d8693a91e324db4f4bddaab00f043ec123b283",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_outputs_are_byte_identical_to_pinned_hashes(mnl_hard_m2, mnl_hard_m3,
                                                     quadratic_hard_m2, tmp_path):
    got = {}
    for label, config in _channel_configs(mnl_hard_m2, quadratic_hard_m2, 300):
        path = tmp_path / (label.replace("/", "_") + ".csv")
        write_run_csv(run_experiment(config), path)
        got[label] = _sha256(path)
    sweep = ExperimentConfig.from_dict({
        "dims": {"N": 5, "K": 2, "T": 1000, "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "hard_nonpoly", "instance": mnl_hard_m2.to_json_dict(),
                      "s_star": [0, 1], "delta": "auto"},
        "algorithms": [{"name": "exp3", "params": {}},
                       {"name": "tsallis_inf", "params": {}}],
        "replications": 3, "base_seed": 0, "t_grid": [100, 316, 1000]})
    write_sweep_csv(run_sweep(sweep), tmp_path / "sweep.csv")
    got["sweep/criterion5"] = _sha256(tmp_path / "sweep.csv")
    assortment = ExperimentConfig.from_dict({
        "dims": {"N": 12, "K": 3, "T": 500, "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "mnl_hard", "instance": mnl_hard_m3.to_json_dict(),
                      "s_star": [0, 1, 2], "delta": "auto"},
        "algorithms": [{"name": "tsallis_inf", "params": {}}],
        "replications": 2, "base_seed": 3, "full_trace": True})
    write_run_csv(run_experiment(assortment), tmp_path / "assortment.csv")
    got["run/mnl_hard_N12_K3"] = _sha256(tmp_path / "assortment.csv")
    assert got == OUTPUT_SHA256


# ---------------------------------------------------------------------------
# Policy sanity through the harness
# ---------------------------------------------------------------------------

def test_constant_benchmark_policy_zero_regret(mnl_hard_m2):
    config = _hard_run_config(
        mnl_hard_m2, {"name": "constant", "params": {"subset": [0, 1]}},
        horizon=2000, reps=1)
    result = run_experiment(config)[0]
    assert result.final_regret == pytest.approx(0.0, abs=1e-10)


def test_constant_off_policy_regret_matches_clt(mnl_hard_m2, mnl_link):
    delta, horizon = 0.3, 10_000
    config = _hard_run_config(
        mnl_hard_m2, {"name": "constant", "params": {"subset": [2, 3]}},
        horizon=horizon, delta=delta, reps=1, seed=11)
    result = run_experiment(config)[0]
    gamma = mnl_hard_m2.gamma
    base = mnl_hard_m2.baseline(mnl_link)
    # per-round regret is dev_i = g(atom sum) - base on atom rounds, else 0
    devs = np.array([mnl_link(float(atom.sum())) - base
                     for atom in mnl_hard_m2.support])
    second_moment = float(mnl_hard_m2.weights @ devs ** 2)
    var = delta * second_moment - (delta * gamma) ** 2
    sigma = math.sqrt(horizon * var)
    assert abs(result.final_regret - delta * gamma * horizon) < 3 * sigma


def test_constant_policy_on_oblivious_schedule_matches_expectation():
    # realized Bernoulli reward total agrees with the summed expected rewards
    rng_sched = np.random.default_rng(2)
    horizon = 4000
    schedule = rng_sched.uniform(0, 1, size=(horizon, 4))
    config = ExperimentConfig.from_dict({
        "dims": {"N": 4, "K": 2, "T": horizon, "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "oblivious", "schedule": schedule.tolist()},
        "algorithms": [{"name": "constant", "params": {"subset": [0, 3]}}],
        "replications": 1,
        "base_seed": 5,
        "full_trace": True,
    })
    result = run_experiment(config)[0]
    realized = sum(row[2] for row in result.checkpoints)
    from nonlinbandit import MnlLink
    g = MnlLink()
    expected = float(np.sum(g(schedule[:, [0, 3]].sum(axis=1))))
    sigma = math.sqrt(horizon * 0.25)  # Bernoulli variance bound
    assert abs(realized - expected) < 3 * sigma


def test_sweep_emits_row_per_algo_and_horizon(mnl_hard_m2, tmp_path):
    out = tmp_path / "sweep.csv"
    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}},
                              reps=2, t_grid=[100, 200], output=str(out))
    config.algorithm_specs.append({"name": "tsallis_inf", "params": {}})
    rows = run_sweep(config)
    assert [(r["algo"], r["T"]) for r in rows] == [
        ("exp3", 100), ("exp3", 200), ("tsallis_inf", 100), ("tsallis_inf", 200)]
    for row in rows:
        assert row["reps"] == 2 and np.isfinite(row["stderr"])


def test_poly_adversary_through_harness(quadratic_hard_m2):
    link, inst = quadratic_hard_m2
    config = ExperimentConfig.from_dict({
        "dims": {"N": 5, "K": 3, "T": 300, "d": 2},
        "link": {"kind": "polynomial", "coefficients": list(link.coefficients)},
        "adversary": {"kind": "hard_poly", "instance": inst.to_json_dict(),
                       "s_star": [1, 3], "delta": "auto"},
        "algorithms": [{"name": "exp3", "params": {}}],
        "replications": 1,
        "base_seed": 0,
    })
    result = run_experiment(config)[0]
    assert np.isfinite(result.final_regret)


def test_mnl_hard_through_harness(mnl_hard_m2):
    config = ExperimentConfig.from_dict({
        "dims": {"N": 4, "K": 2, "T": 300, "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "mnl_hard", "instance": mnl_hard_m2.to_json_dict(),
                       "s_star": [0, 2], "delta": 0.4},
        "algorithms": [{"name": "exp3", "params": {}}],
        "replications": 1,
        "base_seed": 3,
    })
    result = run_experiment(config)[0]
    assert np.isfinite(result.final_regret)


def test_failed_replication_recorded_others_proceed(mnl_hard_m2, monkeypatch, tmp_path):
    import nonlinbandit.harness as harness_mod

    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, reps=3)
    clean = run_experiment(config)
    original = harness_mod._run_cell

    def flaky(config, environment, algo, rows):
        # any batch holding replication 1 raises, as a numeric failure would
        if any(run_id == 1 for _, run_id in rows):
            raise RuntimeError("boom")
        return original(config, environment, algo, rows)

    monkeypatch.setattr(harness_mod, "_run_cell", flaky)
    results = run_experiment(config)
    assert [r.run_id for r in results] == [0, 1, 2]
    assert results[1].error is not None and "boom" in results[1].error
    assert math.isnan(results[1].final_regret)
    for rep in (0, 2):  # re-run alone, the survivors keep their batch bits
        assert results[rep].error is None
        assert results[rep].checkpoints == clean[rep].checkpoints
    out = tmp_path / "flaky.csv"
    write_run_csv(results, out)
    lines = out.read_text().splitlines()
    assert any(line.startswith("1,7,0,-1,nan") for line in lines)


def test_mnl_general_through_harness(rng):
    horizon = 200
    schedule = rng.uniform(0, 1, size=(horizon, 4))
    config = ExperimentConfig.from_dict({
        "dims": {"N": 4, "K": 2, "T": horizon, "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "mnl_general", "prices": [1.0, 0.7, 0.4, 0.9],
                       "schedule": schedule.tolist()},
        "algorithms": [{"name": "tsallis_inf", "params": {}}],
        "replications": 1,
        "base_seed": 9,
    })
    result = run_experiment(config)[0]
    assert np.isfinite(result.final_regret)
    rewards = {row[2] for row in result.checkpoints}
    assert rewards <= {0.0, 0.4, 0.7, 0.9, 1.0}


def test_exp2_requires_polynomial_link(mnl_hard_m2):
    config = _hard_run_config(mnl_hard_m2, {"name": "exp2", "params": {}})
    config.dims = type(config.dims)(5, 2, 400, degree=1)
    with pytest.raises(ValueError, match="polynomial"):
        run_experiment(config)


_EXP2_CONFIG = {
    "dims": {"N": 5, "K": 2, "T": 50, "d": 2},
    "link": {"kind": "polynomial", "coefficients": [0.1, 0.2, 0.05]},
    "adversary": {"kind": "stochastic", "v": [0.1, 0.5, 0.9, 0.3, 0.2]},
    "algorithms": [{"name": "exp2", "params": {}}],
    "replications": 4,
    "base_seed": 0,
}


def _count_exp2_builds(monkeypatch):
    # EXP2 explores with the uniform design, so its one setup cost is the
    # learner build (the inclusion matrix): count those
    import nonlinbandit.harness as harness_mod

    builds = []
    original = harness_mod.Exp2

    def counting(*args, **kwargs):
        builds.append(kwargs.get("replications", 1))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "Exp2", counting)
    return builds


def test_exp2_design_built_once_per_cell(monkeypatch):
    builds = _count_exp2_builds(monkeypatch)
    config = ExperimentConfig.from_dict(_EXP2_CONFIG)
    assert all(r.error is None for r in run_experiment(config))
    # one validation build before any replication, then the cell's batch
    assert builds == [1, config.replications]


def test_exp2_design_built_once_per_sweep(monkeypatch):
    builds = _count_exp2_builds(monkeypatch)
    config = ExperimentConfig.from_dict({**_EXP2_CONFIG, "t_grid": [50, 100]})
    rows = run_sweep(config)
    assert [row["T"] for row in rows] == [50, 100]
    # one validation build, then one batch of every (horizon, replication) row
    assert builds == [1, len(config.t_grid) * config.replications]


@pytest.mark.parametrize("algo,key", [("exp2", "design_eps"), ("exp2", "gama_mix"),
                                      ("exp3", "eta"), ("tsallis_inf", "gamma_mix"),
                                      ("tsallis_inf", "mixing"), ("constant", "mixing")])
def test_unknown_learner_params_rejected(algo, key):
    params = {key: 0.05, **({"subset": [0, 1]} if algo == "constant" else {})}
    config = ExperimentConfig.from_dict({**_EXP2_CONFIG,
                                         "algorithms": [{"name": algo, "params": params}]})
    with pytest.raises(ValueError, match=rf"{key}.*accepted: \[") as err:
        run_experiment(config)
    for accepted in ALGORITHM_PARAMS[algo]:
        assert repr(accepted) in str(err.value)


# A non-default value of every accepted ``params`` key; the default run of
# ``constant`` plays the subset [0, 1].
_NON_DEFAULT_PARAMS = {("exp3", "mixing"): 0.5, ("exp2", "eta"): 0.5,
                       ("exp2", "gamma_mix"): 0.9, ("constant", "subset"): [2, 3]}


@pytest.mark.parametrize("algo,key", [(algo, key) for algo, keys in ALGORITHM_PARAMS.items()
                                      for key in keys])
def test_every_accepted_param_changes_a_run(algo, key):
    # an accepted key that a learner ignores would be a silent no-op
    default = {"subset": [0, 1]} if algo == "constant" else {}

    def checkpoints(params):
        config = ExperimentConfig.from_dict({**_EXP2_CONFIG, "replications": 1,
                                             "algorithms": [{"name": algo,
                                                             "params": params}]})
        (result,) = run_experiment(config)
        assert result.error is None
        return result.checkpoints

    changed = {**default, key: _NON_DEFAULT_PARAMS[(algo, key)]}
    assert checkpoints(changed) != checkpoints(default)


def test_negative_base_seed_rejected():
    # a negative seed is a configuration error, not a failed replication
    with pytest.raises(ValueError, match="base_seed"):
        ExperimentConfig.from_dict({**_EXP2_CONFIG, "base_seed": -1})


def test_stochastic_exp2_through_harness(tmp_path):
    out = tmp_path / "run.csv"
    config = ExperimentConfig.from_dict({
        "dims": {"N": 4, "K": 2, "T": 500, "d": 1},
        "link": {"kind": "polynomial", "coefficients": [0.0, 0.5]},
        "adversary": {"kind": "stochastic", "v": [0.1, 0.5, 0.9, 0.3]},
        "algorithms": [{"name": "exp2", "params": {"gamma_mix": 0.05, "eta": 0.02}}],
        "replications": 2,
        "base_seed": 0,
        "output": str(out),
    })
    results = run_experiment(config)
    write_run_csv(results, out)
    header = out.read_text().splitlines()[0]
    assert header == "run_id,seed,t,subset_rank,reward,inst_regret,cum_regret"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_find_hard_and_verify(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code = main(["find-hard", "--g", "mnl", "--m", "2", "--b", "2",
                 "--grid", "25", "--out", str(inst_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "gamma=" in out and inst_path.exists()
    code = main(["verify", "--inst", str(inst_path), "--g", "mnl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VALID" in out


def test_cli_find_hard_explicit_x0(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code = main(["find-hard", "--g", "mnl", "--m", "1", "--b", "2",
                 "--grid", "25", "--x0", "0.3", "--out", str(inst_path)])
    capsys.readouterr()
    assert code == 0
    from nonlinbandit import HardInstance
    assert HardInstance.load(inst_path).x0 == pytest.approx(0.3)


def test_cli_find_hard_empty_x0_exits_one(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code = main(["find-hard", "--g", "mnl", "--m", "2", "--b", "2",
                 "--x0", "--out", str(inst_path)])
    assert code == 1
    assert "error: need at least one x0 candidate" in capsys.readouterr().err
    assert not inst_path.exists()


@pytest.mark.parametrize("m, q", [(4, 200), (6, 50)])
def test_cli_find_hard_exits_two_past_the_enumeration_cap(tmp_path, monkeypatch, capsys,
                                                          m, q):
    from nonlinbandit import hardinstances

    def no_enumeration(*args):
        raise AssertionError("the sorted-tuple table was enumerated past the cap")

    monkeypatch.setattr(hardinstances, "_sorted_tuples", no_enumeration)
    inst_path = tmp_path / "inst.json"
    code = main(["find-hard", "--g", "mnl", "--m", str(m), "--b", str(m),
                 "--grid", str(q), "--out", str(inst_path)])
    assert code == 2
    assert "exceed cap" in capsys.readouterr().err
    assert not inst_path.exists()


def test_cli_verify_flags_invalid(tmp_path, capsys):
    inst_path = tmp_path / "point.json"
    inst_path.write_text(json.dumps({
        "x0": 0.4, "m": 2, "b": 2, "support": [[0.4, 0.4]],
        "weights": [1.0], "gamma": 0.0, "residuals": [0.0],
    }))
    code = main(["verify", "--inst", str(inst_path), "--g", "mnl"])
    out = capsys.readouterr().out
    assert code == 2
    assert "INVALID" in out


def test_cli_run_refuses_an_invalid_instance_on_one_line(tmp_path, capsys, mnl_hard_m2):
    # x0 moved off the instance's moment equations fails verification when the
    # adversary is built: one error line, exit 1
    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}).to_dict()
    config["adversary"]["instance"]["x0"] += 0.05
    cfg = tmp_path / "invalid.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: refusing INVALID instance: moment residual")
    assert captured.out == ""


def test_cli_identity_check(capsys):
    code = main(["identity-check", "--trials", "120", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_run_and_sweep(tmp_path, mnl_hard_m2, capsys):
    inst_path = tmp_path / "inst.json"
    mnl_hard_m2.save(inst_path)
    run_out = tmp_path / "run.csv"
    config = {
        "dims": {"N": 4, "K": 2, "T": 120, "d": None},
        "link": {"kind": "mnl"},
        "adversary": {"kind": "hard_nonpoly", "instance_path": str(inst_path),
                       "s_star": [0, 1], "delta": "auto"},
        "algorithms": [{"name": "exp3", "params": {}}],
        "replications": 2,
        "base_seed": 0,
        "output": str(run_out),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert run_out.read_text().startswith("run_id,seed,t,")

    sweep_out = tmp_path / "sweep.csv"
    config["output"] = str(sweep_out)
    config["t_grid"] = [60, 120]
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    capsys.readouterr()
    lines = sweep_out.read_text().splitlines()
    assert lines[0] == "algo,N,K,T,reps,mean_regret,stderr"
    assert len(lines) == 3


def test_cli_sweep_exits_two_when_replications_fail(tmp_path, mnl_hard_m2, monkeypatch,
                                                    capsys):
    import nonlinbandit.harness as harness_mod

    original = harness_mod._run_cell

    def flaky(config, environment, algo, rows):
        # the merged batch of every (horizon, replication) row raises, and
        # so does row (120, 1) alone
        if (120, 1) in rows:
            raise RuntimeError("boom")
        return original(config, environment, algo, rows)

    monkeypatch.setattr(harness_mod, "_run_cell", flaky)
    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, reps=3,
                              t_grid=[60, 120])
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    out = capsys.readouterr().out
    assert "exp3 T=120: 2 of 3 replications survived" in out
    assert "T=60: " in out and "T=60: 3 of" not in out


def test_cli_run_exits_two_and_writes_a_sentinel_row_when_a_replication_fails(
        tmp_path, mnl_hard_m2, monkeypatch, capsys):
    import nonlinbandit.harness as harness_mod

    original = harness_mod._run_cell

    def flaky(config, environment, algo, rows):
        # any batch holding replication 1 raises, as a numeric failure would
        if any(run_id == 1 for _, run_id in rows):
            raise RuntimeError("boom")
        return original(config, environment, algo, rows)

    monkeypatch.setattr(harness_mod, "_run_cell", flaky)
    out_csv = tmp_path / "run.csv"
    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, reps=3,
                              output=str(out_csv))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert main(["run", "--config", str(cfg_path)]) == 2
    out = capsys.readouterr().out
    assert "run 1: seed=7 FAILED (RuntimeError: boom)" in out
    assert out.count("FAILED") == 1 and "run 0: seed=7 final_regret=" in out
    lines = out_csv.read_text().splitlines()
    assert [line for line in lines[1:] if line.startswith("1,")] == ["1,7,0,-1,nan,nan,nan"]


def test_cli_unknown_flag_exits_one(capsys):
    assert main(["find-hard", "--nonsense"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_cli_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dims": {"N": 2, "K": 5, "T": 10},
                               "link": {"kind": "mnl"},
                               "adversary": {"kind": "stochastic", "v": [0.1, 0.2]},
                               "algorithms": [{"name": "exp3"}]}))
    assert main(["run", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("config", [
    {"dims": None},
    [_EXP2_CONFIG],
    {**_EXP2_CONFIG, "dims": {**_EXP2_CONFIG["dims"], "N": [5]}},
], ids=["null-dims", "top-level-list", "list-N"])
def test_config_of_wrong_json_shape_raises_value_error(tmp_path, capsys, config):
    with pytest.raises(ValueError, match="malformed config"):
        ExperimentConfig.from_dict(config)
    cfg = tmp_path / "shape.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed config")


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{dir}"],
    ["sweep", "--config", "{dir}"],
    ["find-hard", "--g", "mnl", "--m", "1", "--b", "1", "--grid", "4",
     "--x0", "0.5", "--out", "{dir}"],
    ["verify", "--g", "mnl", "--inst", "{dir}"],
], ids=["run", "sweep", "find-hard", "verify"])
def test_cli_directory_path_exits_one(tmp_path, capsys, argv):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err


def test_cli_unknown_learner_param_exits_one(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({**_EXP2_CONFIG,
                               "algorithms": [{"name": "exp2",
                                               "params": {"gama_mix": 0.05}}]}))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "gama_mix" in err and "gamma_mix" in err


@pytest.mark.parametrize("kind, width", [
    ("stochastic", 4), ("stochastic", 6), ("oblivious", 4), ("oblivious", 6),
    ("mnl_general", 4), ("mnl_general", 6),
])
def test_cli_adversary_width_mismatch_exits_one(tmp_path, capsys, kind, width):
    # N = 5: a wider vector must not run on its first N columns, and a
    # narrower one must not fail every replication with an IndexError
    values = [0.1 * (i + 1) for i in range(width)]
    adversary = ({"kind": "stochastic", "v": values} if kind == "stochastic"
                 else {"kind": kind, "schedule": [values] * 50})
    if kind == "mnl_general":
        adversary["prices"] = [1.0] * 5
    cfg = tmp_path / "width.json"
    cfg.write_text(json.dumps({**_EXP2_CONFIG, "adversary": adversary,
                               "algorithms": [{"name": "exp3", "params": {}}]}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "one entry per arm (5)" in capsys.readouterr().err


@pytest.mark.parametrize("algo", [{"name": "constant", "params": {"subset": [0, 1]}},
                                  {"name": "exp3", "params": {}}])
def test_cli_run_exits_two_past_the_enumeration_cap(tmp_path, monkeypatch, capsys, algo):
    # C(5, 2) = 10 subsets; the cap stops the run before any replication,
    # whether or not the learner enumerates the subsets itself
    from nonlinbandit import core

    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 9)
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({**_EXP2_CONFIG, "algorithms": [algo]}))
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "FAILED" not in captured.out and "run 0" not in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime failure:")
    assert "exceed cap 9" in lines[0]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_negative_base_seed_exits_one(tmp_path, capsys, command):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({**_EXP2_CONFIG, "base_seed": -3}))
    assert main([command, "--config", str(cfg)]) == 1
    assert "base_seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["find-hard", "--g", "tab:0", "--m", "2", "--b", "2"],
    ["find-hard", "--g", "mnl", "--grid", "0", "--m", "2", "--b", "2"],
    ["identity-check", "--trials", "0"],
    ["identity-check", "--trials", "-3"],
], ids=["tab-without-y", "grid-zero", "trials-zero", "trials-negative"])
def test_cli_malformed_input_exits_one(tmp_path, capsys, argv):
    inst_path = tmp_path / "inst.json"
    if argv[0] == "find-hard":
        argv = argv + ["--out", str(inst_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not inst_path.exists()


def _schedule_config(kind, adversary, output):
    if kind == "mnl_general":
        adversary = {**adversary, "prices": [1.0, 0.8, 0.6, 0.9, 0.7]}
    return {**_EXP2_CONFIG, "adversary": {"kind": kind, **adversary},
            "algorithms": [{"name": "exp3", "params": {}}],
            "output": str(output), "full_trace": True}


@pytest.mark.parametrize("kind", ["oblivious", "mnl_general"])
def test_schedule_csv_runs_like_the_inline_schedule(tmp_path, capsys, kind):
    schedule = np.random.default_rng(3).uniform(0, 0.5, size=(50, 5)).tolist()
    sched_path = tmp_path / "schedule.csv"
    sched_path.write_text("t,v_0,v_1,v_2,v_3,v_4\n" + "".join(
        f"{t},{','.join(repr(v) for v in row)}\n" for t, row in enumerate(schedule, 1)))
    outputs = []
    for name, adversary in [("inline", {"schedule": schedule}),
                            ("csv", {"schedule_csv": str(sched_path)})]:
        out = tmp_path / f"{name}.csv"
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(_schedule_config(kind, adversary, out)))
        assert main(["run", "--config", str(cfg)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 4 * 50


@pytest.mark.parametrize("kind", ["oblivious", "mnl_general"])
def test_schedule_csv_of_the_wrong_width_exits_one(tmp_path, capsys, kind):
    sched_path = tmp_path / "narrow.csv"
    sched_path.write_text("t,v_0,v_1,v_2,v_3\n" + "".join(
        f"{t},0.1,0.2,0.3,0.4\n" for t in range(1, 51)))
    out = tmp_path / "run.csv"
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps(_schedule_config(kind, {"schedule_csv": str(sched_path)},
                                               out)))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "schedule has 4 arms, expected 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["oblivious", "mnl_general"])
@pytest.mark.parametrize("bad_row, fields", [("", 0), ("3,0.1,0.2,0.3", 4)],
                         ids=["blank", "short"])
def test_schedule_csv_with_a_blank_or_short_row_exits_one(tmp_path, capsys, kind,
                                                          bad_row, fields):
    rows = [f"{t},0.1,0.2,0.3,0.4,0.5" for t in range(1, 51)]
    rows[2] = bad_row
    sched_path = tmp_path / "ragged.csv"
    sched_path.write_text("t,v_0,v_1,v_2,v_3,v_4\n" + "\n".join(rows) + "\n")
    out = tmp_path / "run.csv"
    cfg = tmp_path / "ragged.json"
    cfg.write_text(json.dumps(_schedule_config(kind, {"schedule_csv": str(sched_path)},
                                               out)))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: schedule round 3 has {fields} fields, expected 6"]
    assert not out.exists()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(example.group(1), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1", "2", "3"]
    assert all(math.isfinite(float(line.split()[1])) for line in lines)


def test_parse_link_arg():
    assert parse_link_arg("mnl")(1.0) == pytest.approx(0.5)
    poly = parse_link_arg("poly:0,0.5")
    assert poly(2.0) == pytest.approx(1.0)
    tab = parse_link_arg("tab:0:0,2:1")
    assert tab(1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        parse_link_arg("spline")


@pytest.mark.parametrize("subset", [[0, 1, 2], [3]], ids=["three-arms", "one-arm"])
def test_constant_subset_must_hold_k_arms(tmp_path, capsys, subset):
    # at N = 5, K = 2 these used to play rank 0 = {0, 1} and rank 3 = {0, 3}
    algo = {"name": "constant", "params": {"subset": subset}}
    with pytest.raises(ValueError, match="K = 2"):
        build_learner(algo, ProblemDims(n_arms=5, subset_size=2, horizon=50), 50, MnlLink())
    for command in ("run", "sweep"):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({**_EXP2_CONFIG, "algorithms": [algo]}))
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "K = 2" in captured.err
        assert "run 0" not in captured.out and "T=50" not in captured.out


@pytest.mark.parametrize("out", ["{dir}", "{dir}/missing/inst.json"],
                         ids=["directory", "missing-parent"])
def test_cli_find_hard_checks_out_before_the_search(tmp_path, monkeypatch, capsys, out):
    from nonlinbandit import cli

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran although --out cannot be written")

    # m = 4 on the 1/50 grid would search for seconds
    monkeypatch.setattr(cli, "find_hard_instance", no_search)
    code = main(["find-hard", "--g", "mnl", "--m", "4", "--b", "4", "--grid", "50",
                 "--out", out.format(dir=tmp_path)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert list(tmp_path.iterdir()) == []


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_horizon_builds_its_adversary_once(mnl_hard_m2, monkeypatch):
    # verifying the instance and scanning the KL coefficient happen once per
    # config, whatever the number of horizons, algorithms, batches and re-runs:
    # a horizon sets only delta
    import nonlinbandit.environments as environments_mod
    import nonlinbandit.harness as harness_mod

    # a forked worker's calls never reach these counters: one worker
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 1)
    verify = _count_calls(monkeypatch, environments_mod, "verify_hard_instance")
    kl = _count_calls(monkeypatch, harness_mod, "kl_coefficient")
    cfg = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, delta="auto",
                           reps=2, t_grid=[50, 100, 200]).to_dict()
    cfg["algorithms"].append({"name": "tsallis_inf", "params": {}})
    rows = run_sweep(ExperimentConfig.from_dict(cfg))
    assert [row["reps"] for row in rows] == [2] * 6
    assert (len(verify), len(kl)) == (1, 1)
    verify.clear()
    kl.clear()
    run = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, delta="auto")
    assert all(r.error is None for r in run_experiment(run))
    assert (len(verify), len(kl)) == (1, 1)


@pytest.mark.parametrize("algo", ["exp3", "tsallis_inf"])
def test_one_subset_is_played_with_zero_regret(mnl_hard_m2, algo):
    # K = N leaves a single subset, so every round plays the best one
    config = _hard_run_config(mnl_hard_m2, {"name": algo, "params": {}}, n_arms=2,
                              subset_size=2)
    results = run_experiment(config)
    assert [res.final_regret for res in results] == [0.0, 0.0]
    ref = reference_replication(config, config.algorithm_specs[0], config.dims.horizon, 1)
    assert results[1].checkpoints == ref.checkpoints
    assert results[1].final_regret == ref.final_regret


def test_sweep_records_log_spaced_checkpoints_under_full_trace(tmp_path, mnl_hard_m2,
                                                                monkeypatch):
    # a sweep reads only final regrets, so "full_trace" must not make the
    # kernel record every round of every row
    import nonlinbandit.harness as harness_mod

    # a forked worker's calls never reach the recorder: one worker
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 1)
    original, received = harness_mod.run_batch, []

    def recorded(*args):
        received.append(args[-1])
        return original(*args)

    monkeypatch.setattr(harness_mod, "run_batch", recorded)
    paths = []
    for full_trace in (True, False):
        cfg = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, reps=2,
                               t_grid=[300, 1000]).to_dict()
        config = ExperimentConfig.from_dict({**cfg, "full_trace": full_trace})
        paths.append(tmp_path / f"sweep-{full_trace}.csv")
        write_sweep_csv(run_sweep(config), paths[-1])
        assert config.full_trace is full_trace
    assert len(received) == 2
    for checkpoints in received:
        assert sorted(checkpoints) == [300, 1000]
        assert all(rounds.size <= 129 for rounds in checkpoints.values())
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("kind", ["oblivious", "mnl_general"])
def test_schedule_csv_sweep_parses_once_and_builds_one_channel(tmp_path, monkeypatch, kind):
    import nonlinbandit.harness as harness_mod

    sched_path = tmp_path / "schedule.csv"
    sched_path.write_text("t,v_0,v_1,v_2,v_3,v_4\n" + "".join(
        f"{t},0.1,0.4,0.2,0.3,0.25\n" for t in range(1, 51)))
    # a forked worker's calls never reach these counters: one worker
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 1)
    parses = _count_calls(monkeypatch, harness_mod, "load_utility_schedule")
    bernoulli = _count_calls(monkeypatch, harness_mod, "BernoulliChannel")
    choice = _count_calls(monkeypatch, harness_mod, "ChoiceChannel")
    cfg = {**_schedule_config(kind, {"schedule_csv": str(sched_path)}, None),
           "output": None, "replications": 2, "t_grid": [10, 20, 35, 50]}
    cfg["algorithms"].append({"name": "tsallis_inf", "params": {}})
    rows = run_sweep(ExperimentConfig.from_dict(cfg))
    assert [row["reps"] for row in rows] == [2] * 8
    assert (len(parses), len(bernoulli) + len(choice)) == (1, 1)


@pytest.mark.parametrize("source", ["inline", "csv"])
def test_schedule_shorter_than_the_sweep_exits_one(tmp_path, capsys, monkeypatch, source):
    # the length check runs once, against the longest horizon of the grid
    import nonlinbandit.harness as harness_mod

    schedule = [[0.1, 0.4, 0.2, 0.3, 0.25]] * 50
    sched_path = tmp_path / "schedule.csv"
    sched_path.write_text("t,v_0,v_1,v_2,v_3,v_4\n" + "".join(
        f"{t},{','.join(map(repr, row))}\n" for t, row in enumerate(schedule, 1)))
    adversary = ({"schedule": schedule} if source == "inline"
                 else {"schedule_csv": str(sched_path)})
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({**_schedule_config("oblivious", adversary, out),
                               "t_grid": [20, 80, 50]}))
    batches = _count_calls(monkeypatch, harness_mod, "run_batch")
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: schedule covers 50 rounds, horizon needs 80"]
    assert captured.out == ""
    assert not out.exists() and batches == []


# ---------------------------------------------------------------------------
# One batch per algorithm over the whole horizon grid
# ---------------------------------------------------------------------------

# unsorted, with a repeated entry; delta "auto" is below 1 at each horizon
MERGED_GRID = [800, 300, 800, 500]


def _merged_sweep_configs(instance):
    """Sweep configs over ``MERGED_GRID``: a hard mixture with delta "auto"
    (Bernoulli and choice feedback), a stochastic and an oblivious adversary;
    between them exp3, tsallis_inf, exp2 (default rates, which follow the
    horizon) and constant."""
    schedule = np.random.default_rng(3).uniform(0, 1, size=(800, 4)).tolist()
    common = {"replications": 3, "base_seed": 5, "t_grid": MERGED_GRID}
    exp3, tsallis = {"name": "exp3", "params": {}}, {"name": "tsallis_inf", "params": {}}
    exp2 = {"name": "exp2", "params": {}}
    hard = {"instance": instance.to_json_dict(), "delta": "auto"}
    return {
        "hard_nonpoly": {
            **common, "dims": {"N": 5, "K": 2, "T": 800, "d": None}, "link": {"kind": "mnl"},
            "adversary": {"kind": "hard_nonpoly", "s_star": [0, 1], **hard},
            "algorithms": [exp3, tsallis, {"name": "constant", "params": {"subset": [2, 3]}}]},
        "mnl_hard": {
            **common, "dims": {"N": 4, "K": 2, "T": 800, "d": None}, "link": {"kind": "mnl"},
            "adversary": {"kind": "mnl_hard", "s_star": [0, 2], **hard},
            "algorithms": [exp3, tsallis]},
        "stochastic": {
            **common, "dims": {"N": 5, "K": 2, "T": 800, "d": 1},
            "link": {"kind": "polynomial", "coefficients": [0.1, 0.4]},
            "adversary": {"kind": "stochastic", "v": [0.1, 0.5, 0.9, 0.3, 0.2]},
            "algorithms": [exp2, exp3]},
        "oblivious": {
            **common, "dims": {"N": 4, "K": 2, "T": 800, "d": 1},
            "link": {"kind": "polynomial", "coefficients": [0.0, 0.5]},
            "adversary": {"kind": "oblivious", "schedule": schedule},
            "algorithms": [exp2, {"name": "constant", "params": {"subset": [0, 1]}}]},
    }


@pytest.mark.parametrize("kind", ["hard_nonpoly", "mnl_hard", "stochastic", "oblivious"])
def test_merged_sweep_equals_its_separate_runs(mnl_hard_m2, kind):
    # every (algorithm, T) row of the one-batch sweep carries the bits of a
    # run at T = h: the same mean regret and standard error
    cfg = _merged_sweep_configs(mnl_hard_m2)[kind]
    rows = run_sweep(ExperimentConfig.from_dict(cfg))
    assert [(row["algo"], row["T"]) for row in rows] == [
        (algo["name"], horizon) for algo in cfg["algorithms"] for horizon in MERGED_GRID]
    for row, (algo, horizon) in zip(rows, ((a, h) for a in cfg["algorithms"]
                                           for h in MERGED_GRID)):
        solo = {**cfg, "dims": {**cfg["dims"], "T": horizon}, "t_grid": None,
                "algorithms": [algo]}
        results = run_experiment(ExperimentConfig.from_dict(solo))
        finals = np.array([res.final_regret for res in results])
        assert row["reps"] == 3, (kind, row)
        assert row["mean_regret"] == float(finals.mean()), (kind, row)
        assert row["stderr"] == float(finals.std(ddof=1) / math.sqrt(3)), (kind, row)


def test_no_row_steps_past_its_horizon(mnl_hard_m2, monkeypatch):
    # each row retires at its horizon: the learner steps sum(h) * R row-rounds
    # in max(h) rounds, where a batch that ran every row to the end would
    # step len(grid) * max(h) * R
    import nonlinbandit.learners as learners_mod

    stepped = []
    original = learners_mod._Batched.select_ranks

    def counting(self, uniforms):
        stepped.append(uniforms.size)
        return original(self, uniforms)

    monkeypatch.setattr(learners_mod._Batched, "select_ranks", counting)
    grid, reps = [30, 200, 90], 3
    config = _hard_run_config(mnl_hard_m2, {"name": "tsallis_inf", "params": {}},
                              delta="auto", reps=reps, t_grid=grid)
    assert [row["reps"] for row in run_sweep(config)] == [reps] * len(grid)
    assert sum(stepped) == sum(grid) * reps
    assert len(stepped) == max(grid)


def _sweep_with_a_row_that_fails_alone(tmp_path, instance, monkeypatch, capsys,
                                       workers):
    """The CLI sweep of exp3 and tsallis_inf (T = 300 and 600, R = 3, delta
    "auto") on ``workers`` usable CPUs, where a tsallis_inf batch that holds
    (T = 600, replication 1) raises; checks the exit code, the report and
    the CSV, and returns the (algo, rows) batches run in this process."""
    import nonlinbandit.harness as harness_mod

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: workers)
    cfg = _hard_run_config(instance, {"name": "exp3", "params": {}}, reps=3,
                           delta="auto", t_grid=[300, 600],
                           output=str(tmp_path / "sweep.csv")).to_dict()
    cfg["algorithms"].append({"name": "tsallis_inf", "params": {}})
    clean = run_sweep(ExperimentConfig.from_dict(cfg))
    solo = run_experiment(ExperimentConfig.from_dict(
        {**cfg, "dims": {**cfg["dims"], "T": 600}, "t_grid": None,
         "algorithms": [{"name": "tsallis_inf", "params": {}}]}))
    original = harness_mod._run_cell
    batches = []

    def flaky(config, environment, algo, rows):
        batches.append((algo["name"], len(rows)))
        if algo["name"] == "tsallis_inf" and (600, 1) in rows:
            raise RuntimeError("boom")
        return original(config, environment, algo, rows)

    monkeypatch.setattr(harness_mod, "_run_cell", flaky)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    out = capsys.readouterr().out
    assert "tsallis_inf T=600: 2 of 3 replications survived" in out
    assert out.count("replications survived") == 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    survivors = np.array([solo[0].final_regret, solo[2].final_regret])
    expected = clean[:3] + [{**clean[3], "reps": 2, "mean_regret": float(survivors.mean()),
                             "stderr": float(survivors.std(ddof=1) / math.sqrt(2))}]
    assert lines == [f"{row['algo']},5,2,{row['T']},{row['reps']},"
                     f"{float(row['mean_regret'])!r},{float(row['stderr'])!r}"
                     for row in expected]
    return batches


def test_merged_sweep_drops_only_the_row_that_fails_alone(tmp_path, mnl_hard_m2,
                                                          monkeypatch, capsys):
    # tsallis_inf's merged batch raises; it re-runs in halves, recursing into
    # the half that raises (each row at its own horizon's delta), and only
    # (T = 600, replication 1) fails alone, so only that (algo, T) row loses a
    # replication; the others keep their bits.  The T = 300 half, then
    # (600, 0), then (600, 1) and (600, 2) alone.  One worker, so every batch
    # runs, and is recorded, in this process.
    batches = _sweep_with_a_row_that_fails_alone(tmp_path, mnl_hard_m2, monkeypatch,
                                                 capsys, workers=1)
    assert batches == [("exp3", 6), ("tsallis_inf", 6), ("tsallis_inf", 3),
                       ("tsallis_inf", 3), ("tsallis_inf", 1), ("tsallis_inf", 2),
                       ("tsallis_inf", 1), ("tsallis_inf", 1)]


def test_one_failing_row_costs_logarithmically_many_batches(mnl_hard_m2, monkeypatch):
    # halving finds one bad row among 100 in at most 2 ceil(log2 100) + 1 = 15
    # batches, where re-running every row alone took 101
    import nonlinbandit.harness as harness_mod

    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, horizon=20,
                              reps=100)
    clean = run_experiment(config)
    original, calls = harness_mod._run_cell, []

    def flaky(config, environment, algo, rows):
        calls.append(len(rows))
        if (20, 37) in rows:
            raise RuntimeError("boom")
        return original(config, environment, algo, rows)

    monkeypatch.setattr(harness_mod, "_run_cell", flaky)
    results = run_experiment(config)
    assert len(calls) <= 2 * math.ceil(math.log2(100)) + 1
    assert [r.run_id for r in results] == list(range(100))
    assert [r.run_id for r in results if r.error is not None] == [37]
    assert all(res.checkpoints == ref.checkpoints
               for res, ref in zip(results, clean) if res.run_id != 37)


def test_forked_sweep_drops_only_the_row_that_fails_alone(tmp_path, mnl_hard_m2,
                                                          monkeypatch, capsys):
    # the same failure isolation inside a forked worker: tsallis_inf's batch
    # and its re-runs happen in the child, and the CSV is the same
    batches = _sweep_with_a_row_that_fails_alone(tmp_path, mnl_hard_m2, monkeypatch,
                                                 capsys, workers=2)
    assert batches == [("exp3", 6)]


# ---------------------------------------------------------------------------
# Forked sweep workers
# ---------------------------------------------------------------------------

def _three_algorithm_sweep(tmp_path=None) -> ExperimentConfig:
    """exp3, tsallis_inf and exp2 on a stochastic adversary, two horizons."""
    return ExperimentConfig.from_dict({
        "dims": {"N": 5, "K": 2, "T": 400, "d": 1},
        "link": {"kind": "polynomial", "coefficients": [0.1, 0.4]},
        "adversary": {"kind": "stochastic", "v": [0.1, 0.5, 0.9, 0.3, 0.2]},
        "algorithms": [{"name": name, "params": {}}
                       for name in ("exp3", "tsallis_inf", "exp2")],
        "replications": 2, "base_seed": 11, "t_grid": [150, 400],
        "output": None if tmp_path is None else str(tmp_path / "sweep.csv"),
    })


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_sweep_writes_the_serial_bytes(tmp_path, monkeypatch, workers):
    import nonlinbandit.harness as harness_mod

    config = _three_algorithm_sweep()
    written = {}
    for count in (1, workers):
        monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: count)
        rows = run_sweep(config)
        _assert_no_child_left()
        write_sweep_csv(rows, tmp_path / f"{count}.csv")
        written[count] = (tmp_path / f"{count}.csv").read_bytes()
    assert [line.split(b",")[0] for line in written[1].splitlines()[1:]] == [
        b"exp3", b"exp3", b"tsallis_inf", b"tsallis_inf", b"exp2", b"exp2"]
    assert written[workers] == written[1]


@pytest.mark.parametrize("failing", ["tsallis_inf", "exp2"])
@pytest.mark.parametrize("how", ["raises", "exits"])
def test_a_failed_worker_raises_naming_its_algorithm(monkeypatch, failing, how):
    # two workers: exp3 runs here, tsallis_inf then exp2 in the child; the
    # failure escapes _safe_cell, so no replication record can absorb it
    import nonlinbandit.harness as harness_mod

    parent, original = os.getpid(), harness_mod._safe_cell

    def failing_cell(config, environment, algo, rows):
        if algo["name"] == failing and os.getpid() != parent:
            if how == "exits":
                os._exit(3)
            raise ValueError("boom")
        return original(config, environment, algo, rows)

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "_safe_cell", failing_cell)
    message = (f"{failing} failed in its sweep worker: ValueError: boom" if how == "raises"
               else "the sweep worker for tsallis_inf, exp2 exited without a result")
    with pytest.raises(RuntimeError, match=re.escape(message)):
        run_sweep(_three_algorithm_sweep())
    _assert_no_child_left()


@pytest.mark.parametrize("call, code", [("fork", "EAGAIN"), ("pipe", "EMFILE")])
def test_cli_sweep_exits_two_when_a_worker_cannot_start(tmp_path, monkeypatch, capsys,
                                                        call, code):
    # a fork or a pipe refused for lack of resources is a runtime failure,
    # not a bad config (exit 1); no process is started
    import errno

    import nonlinbandit.harness as harness_mod

    def refused(*args):
        number = getattr(errno, code)
        raise OSError(number, os.strerror(number))

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod.os, call, refused)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(_three_algorithm_sweep().to_dict()))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: could not start the sweep worker for "
                          "tsallis_inf, exp2: ")
    assert len(err.splitlines()) == 1
    with pytest.raises(RuntimeError) as caught:
        run_sweep(_three_algorithm_sweep())
    assert isinstance(caught.value.__cause__, OSError)
    _assert_no_child_left()


def test_an_interrupted_sweep_kills_and_reaps_its_workers(monkeypatch):
    # the parent's own chunk raises while the child is still busy: the child
    # is killed, not waited for, and reaped before the interrupt propagates
    import nonlinbandit.harness as harness_mod

    parent = os.getpid()

    def stuck_cell(config, environment, algo, rows):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "_safe_cell", stuck_cell)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(_three_algorithm_sweep())
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_sweep_runs_inline_where_it_cannot_fork_or_count_cpus(monkeypatch, missing):
    import nonlinbandit.harness as harness_mod

    # a call of the missing function would raise AttributeError
    monkeypatch.delattr(harness_mod.os, missing)
    assert harness_mod._usable_cpus() == 1
    assert [row["reps"] for row in run_sweep(_three_algorithm_sweep())] == [2] * 6


def test_cli_sweep_prints_each_line_once(tmp_path, monkeypatch, capfd):
    # output pending before the fork is flushed, so a worker that prints does
    # not print it again, and a worker leaves through os._exit, so it flushes
    # nothing it inherited.  stdout is block-buffered, as when the CLI's output
    # goes to a file or a pipe (capfd's own stream writes through).
    import nonlinbandit.harness as harness_mod

    parent, original = os.getpid(), harness_mod._safe_cell

    def printing_cell(config, environment, algo, rows):
        if os.getpid() != parent:
            print(f"worker {algo['name']}", flush=True)
        return original(config, environment, algo, rows)

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "_safe_cell", printing_cell)
    config = _three_algorithm_sweep(tmp_path)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    captured = sys.stdout
    with open(os.dup(1), "w", encoding="utf-8") as buffered:
        sys.stdout = buffered
        try:
            print("pending", end="")
            code = main(["sweep", "--config", str(cfg_path)])
        finally:
            sys.stdout = captured
    assert code == 0
    out = capfd.readouterr().out
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert out.count("pending") == 1
    assert out.count("worker tsallis_inf") == out.count("worker exp2") == 1
    assert out.count(f"wrote {tmp_path / 'sweep.csv'}") == 1
    assert len(out.splitlines()) == 3 + len(rows)
    for row in rows:
        algo, _, _, horizon = row.split(",")[:4]
        assert out.count(f"{algo} T={horizon}: ") == 1
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# Mistyped JSON values and fractional integer fields
# ---------------------------------------------------------------------------

def _fuzz_configs(instance):
    """Three valid T = 5 configs: a hard adversary, EXP2 on a stochastic one,
    and a choice channel with a tabulated link."""
    schedule = [[0.2, 0.5, 0.9, 0.4] for _ in range(5)]
    return {
        "hard_nonpoly-exp3": {
            "dims": {"N": 4, "K": 2, "T": 5, "d": None},
            "link": {"kind": "mnl"},
            "adversary": {"kind": "hard_nonpoly", "instance": instance.to_json_dict(),
                          "s_star": [0, 1], "delta": 0.2},
            "algorithms": [{"name": "exp3", "params": {"mixing": 0.1}}],
            "replications": 2, "base_seed": 3, "t_grid": [3, 5],
        },
        "stochastic-exp2": {
            "dims": {"N": 4, "K": 2, "T": 5, "d": 2},
            "link": {"kind": "polynomial", "coefficients": [0.1, 0.2, 0.05]},
            "adversary": {"kind": "stochastic", "v": [0.1, 0.5, 0.9, 0.3]},
            "algorithms": [{"name": "exp2", "params": {"eta": 0.05, "gamma_mix": 0.1}}],
            "replications": 2, "base_seed": 0,
        },
        "mnl_general-constant": {
            "dims": {"N": 4, "K": 2, "T": 5, "d": None},
            "link": {"kind": "tabulated", "xs": [0.0, 1.0, 2.0], "ys": [0.0, 0.6, 0.9]},
            "adversary": {"kind": "mnl_general", "schedule": schedule,
                          "prices": [1.0, 0.5, 0.8, 1.0]},
            "algorithms": [{"name": "constant", "params": {"subset": [1, 3]}}],
            "replications": 2, "base_seed": 1, "full_trace": True,
        },
    }


def _leaf_paths(node, path=()):
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from _leaf_paths(child, path + (key,))


def _leaf(config, path):
    for key in path:
        config = config[key]
    return config


def _with_leaf(config, path, value):
    config = copy.deepcopy(config)
    _leaf(config, path[:-1])[path[-1]] = value
    return config


@pytest.mark.parametrize("value", [None, "x", [1], {"a": 1}, 2.5, -1, True],
                         ids=["null", "string", "list", "dict", "fraction", "negative",
                              "true"])
@pytest.mark.parametrize("name", ["hard_nonpoly-exp3", "stochastic-exp2",
                                  "mnl_general-constant"])
def test_cli_survives_every_mistyped_leaf(tmp_path, mnl_hard_m2, name, value):
    # every leaf of a valid config, replaced in turn: run and sweep end with
    # an exit code, never a traceback
    config = _fuzz_configs(mnl_hard_m2)[name]
    cfg = tmp_path / "fuzz.json"
    for path in _leaf_paths(config):
        cfg.write_text(json.dumps(_with_leaf(config, path, value)))
        for command in ("run", "sweep"):
            try:
                code = main([command, "--config", str(cfg)])
            except Exception as exc:
                pytest.fail(f"{command} with {path} = {value!r} raised {exc!r}")
            assert code in (0, 1, 2), (command, path)


def _assert_every_numeric_leaf_exits_one(tmp_path, capsys, config, replace):
    """Each int or float leaf of ``config``, replaced in turn by
    ``replace(leaf)``, makes run and sweep exit 1 with one ``error:`` line."""
    cfg = tmp_path / "replaced.json"
    paths = [path for path in _leaf_paths(config)
             if type(_leaf(config, path)) in (int, float)]
    assert paths
    for path in paths:
        value = replace(_leaf(config, path))
        cfg.write_text(json.dumps(_with_leaf(config, path, value)))
        for command in ("run", "sweep"):
            try:
                code = main([command, "--config", str(cfg)])
            except Exception as exc:
                pytest.fail(f"{command} with {path} = {value!r} raised {exc!r}")
            lines = capsys.readouterr().err.splitlines()
            assert code == 1, (command, path, lines)
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, path, lines)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("name", ["hard_nonpoly-exp3", "stochastic-exp2",
                                  "mnl_general-constant"])
def test_cli_rejects_every_non_finite_number(tmp_path, capsys, mnl_hard_m2, name, value):
    # JSON reads NaN and Infinity: each numeric leaf of a valid config,
    # replaced in turn, makes run and sweep exit 1, never 0 or a traceback
    _assert_every_numeric_leaf_exits_one(tmp_path, capsys, _fuzz_configs(mnl_hard_m2)[name],
                                         lambda _: value)


@pytest.mark.parametrize("kind", ["numeric-string", "true"])
@pytest.mark.parametrize("name", ["hard_nonpoly-exp3", "stochastic-exp2",
                                  "mnl_general-constant"])
def test_cli_rejects_every_number_of_the_wrong_json_type(tmp_path, capsys, mnl_hard_m2,
                                                          name, kind):
    # each numeric leaf of a valid config, replaced in turn by its string
    # ("4", "0.2") or by true: run and sweep exit 1 where int() or float()
    # used to parse the string and read true as 1
    _assert_every_numeric_leaf_exits_one(tmp_path, capsys, _fuzz_configs(mnl_hard_m2)[name],
                                         str if kind == "numeric-string" else lambda _: True)


@pytest.mark.parametrize("key, value", [
    ("output", True), ("output", 3), ("output", ["run.csv"]), ("output", {"path": "x"}),
    ("full_trace", "false"), ("full_trace", 1), ("full_trace", 0), ("full_trace", None),
], ids=["output-true", "output-int", "output-list", "output-dict", "full_trace-string",
        "full_trace-one", "full_trace-zero", "full_trace-null"])
def test_output_and_full_trace_must_have_their_json_type(tmp_path, capsys, mnl_hard_m2,
                                                         key, value):
    # an "output" of true used to write the CSV to stdout and close it, and
    # a "full_trace" of "false" turned the full trace on
    config = {**_fuzz_configs(mnl_hard_m2)["hard_nonpoly-exp3"], key: value}
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(config))
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be"), lines
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("path, value, name", [
    (("dims", "N"), 5.5, "N"),
    (("dims", "K"), 2.5, "K"),
    (("dims", "T"), 100.5, "T"),
    (("dims", "d"), 2.5, "d"),
    (("replications",), 1.5, "replications"),
    (("base_seed",), 3.5, "base_seed"),
    (("t_grid",), [10.5, 20], "t_grid entry"),
    (("adversary", "instance", "m"), 2.5, "instance m"),
    (("adversary", "instance", "b"), 2.5, "instance b"),
    (("adversary", "s_star"), [0.5, 1.7], "planted arm"),
    (("algorithms", 0, "params", "subset"), [1.5, 3], "subset entry"),
    (("dims", "K"), True, "K"),
    (("replications",), True, "replications"),
], ids=["N", "K", "T", "d", "replications", "base_seed", "t_grid", "instance-m",
        "instance-b", "s_star", "subset", "K-true", "replications-true"])
def test_fractional_integer_field_exits_one(tmp_path, capsys, mnl_hard_m2, path, value, name):
    # each of these used to be truncated by int() and run, a boolean as 0 or 1
    config = _fuzz_configs(mnl_hard_m2)[{"d": "stochastic-exp2",
                                         "subset entry": "mnl_general-constant"}
                                        .get(name, "hard_nonpoly-exp3")]
    cfg = tmp_path / "fraction.json"
    cfg.write_text(json.dumps(_with_leaf(config, path, value)))
    shown = value[0] if isinstance(value, list) else value
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {name} must be a whole number, got {shown!r}"]


@pytest.mark.parametrize("path, value", [
    (("adversary", "instance", "support", 0, 0), None),
    (("adversary", "instance", "weights", 0), math.inf),
    (("adversary", "instance", "gamma"), math.nan),
], ids=["support-null", "weights-inf", "gamma-nan"])
def test_non_finite_instance_exits_one(tmp_path, capsys, mnl_hard_m2, path, value):
    # a null inside support reads as NaN; the run used to start and exit 2,
    # or report final_regret=0.0 for a replication that never drew the atom
    config = _fuzz_configs(mnl_hard_m2)["hard_nonpoly-exp3"]
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(_with_leaf(config, path, value)))
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: x0, support, weights, gamma and residuals must be finite"]


def test_stochastic_link_out_of_range_exits_one(tmp_path, capsys):
    # the link leaves [0, 1] on the fixed values: stopped when the adversary
    # is built, where every replication used to fail and the run exit 2
    config = {
        "dims": {"N": 4, "K": 2, "T": 5, "d": 2},
        "link": {"kind": "polynomial", "coefficients": [0.1, 2.5, 0.05]},
        "adversary": {"kind": "stochastic", "v": [0.3, 0.4, 0.5, 0.6]},
        "algorithms": [{"name": "exp3", "params": {}}],
        "replications": 2, "base_seed": 0,
    }
    cfg = tmp_path / "range.json"
    cfg.write_text(json.dumps(config))
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: link value outside [0, 1]"]
        assert captured.out == ""
