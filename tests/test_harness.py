import json
import math

import numpy as np
import pytest

from nonlinbandit import (
    ExperimentConfig,
    reference_replication,
    run_experiment,
    run_replication,
    run_sweep,
    write_run_csv,
)
from nonlinbandit.cli import main, parse_link_arg
from nonlinbandit.harness import ALGORITHM_PARAMS


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

    def flaky(config, algo, horizon, run_ids):
        # any batch holding replication 1 raises, as a numeric failure would
        if 1 in run_ids:
            raise RuntimeError("boom")
        return original(config, algo, horizon, run_ids)

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


def _count_design_builds(monkeypatch):
    # EXP2 explores with the uniform design: count the Frank-Wolfe searches
    import nonlinbandit.learners as learners_mod

    calls = []
    original = learners_mod.kw_optimal_design

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(learners_mod, "kw_optimal_design", counting)
    return calls


def test_exp2_design_built_once_per_cell(monkeypatch):
    calls = _count_design_builds(monkeypatch)
    config = ExperimentConfig.from_dict(_EXP2_CONFIG)
    assert all(r.error is None for r in run_experiment(config))
    assert calls == []


def test_exp2_design_built_once_per_sweep(monkeypatch):
    calls = _count_design_builds(monkeypatch)
    config = ExperimentConfig.from_dict({**_EXP2_CONFIG, "t_grid": [50, 100]})
    rows = run_sweep(config)
    assert [row["T"] for row in rows] == [50, 100]
    assert calls == []


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

    def flaky(config, algo, horizon, run_ids):
        if 1 in run_ids and horizon == 120:
            raise RuntimeError("boom")
        return original(config, algo, horizon, run_ids)

    monkeypatch.setattr(harness_mod, "_run_cell", flaky)
    config = _hard_run_config(mnl_hard_m2, {"name": "exp3", "params": {}}, reps=3,
                              t_grid=[60, 120])
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    out = capsys.readouterr().out
    assert "exp3 T=120: 2 of 3 replications survived" in out
    assert "T=60: " in out and "T=60: 3 of" not in out


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


def test_parse_link_arg():
    assert parse_link_arg("mnl")(1.0) == pytest.approx(0.5)
    poly = parse_link_arg("poly:0,0.5")
    assert poly(2.0) == pytest.approx(1.0)
    tab = parse_link_arg("tab:0:0,2:1")
    assert tab(1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        parse_link_arg("spline")
