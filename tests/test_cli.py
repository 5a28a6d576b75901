import dataclasses
import gc
import inspect
import json
import math
import os

import numpy as np
import pytest

from fingabor import experiments
from fingabor.cli import ConfigError, main, validate_config
from fingabor.experiments import (check_decay_options, check_identity_names, random_signal,
                                  run_convrel, run_identities, run_locop, run_norms, run_young)
from fingabor.group import make_group
from fingabor.operators import localization_matrix
from fingabor.signal import PhaseFunction, Signal, convolve_phase
from fingabor.spectral import check_seed


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "experiment": "identities",
        "group": {"factors": [4], "subgroup_divisors": [2]},
        "seed": 0,
        "trials": 3,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# list-identities


def test_list_identities(capsys):
    assert main(["list-identities"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) >= 13          # header plus at least 12 identities
    assert "tolerance" in lines[0]
    assert any("stft-of-rihaczek" in ln for ln in lines)
    assert any("localization-as-quantization" in ln for ln in lines)
    assert any("coset-representative-independence" in ln and "exact" in ln for ln in lines)


@pytest.mark.parametrize("argv", [[], ["runn", "x.json"], ["run"], ["run", "a", "b"]],
                         ids=["no-command", "unknown-command", "no-config", "extra-argument"])
def test_usage_error_exits_1_with_argparse_usage(capsys, argv):
    assert main(argv) == 1           # 2 means "a check exceeded its tolerance"
    err = capsys.readouterr().err
    assert err.startswith("usage: fingabor")
    assert "error:" in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fingabor")


@pytest.mark.parametrize("command", ["list-identities", "run"])
def test_main_freezes_the_collector_on_return(tmp_path, capsys, command):
    argv = [command]
    if command == "run":
        argv.append(str(write_config(tmp_path, experiment="young", trials=2,
                                     group={"factors": [6, 2], "subgroup_divisors": [3, 2]})))
    enabled = gc.isenabled()
    gc.unfreeze()                    # what earlier in-process calls of main froze
    try:
        assert gc.get_freeze_count() == 0
        assert main(argv) == 0
        assert gc.get_freeze_count() > 0
        assert gc.isenabled() == enabled
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# validate_config


def test_validate_fills_defaults():
    norm = validate_config({
        "experiment": "frames",
        "group": {"factors": [6], "subgroup_divisors": [3]},
    })
    assert norm["seed"] == 0
    assert norm["trials"] == 100
    assert norm["output_dir"] == "."


@pytest.mark.parametrize("broken", [
    {"experiment": "nope"},
    {"experiment": 7},
    {"trials": 0},
    {"trials": True},
    {"seed": -1},
    {"group": {"factors": [4]}},
    {"group": {"factors": [4], "subgroup_divisors": [2], "mass": 1.0}},
    {"group": {"factors": [4, 2], "subgroup_divisors": [2]}},
    {"group": {"factors": [], "subgroup_divisors": []}},
    {"group": {"factors": [4.0], "subgroup_divisors": [2]}},
    {"surprise": 1},
    {"identities": ["no-such-identity"]},
    {"tolerances": {"no-such-identity": 1e-12}},
    {"tolerances": {"shift-commutation": -1.0}},
    {"output_dir": ""},
    {"seed": 2**64},
    {"seed": 1.5},
    {"seed": True},
    {"group": {"factors": 4, "subgroup_divisors": 2}},
    {"group": {"factors": None, "subgroup_divisors": [2]}},
    {"identities": []},
    {"identities": "stft-shift"},
    {"group": {"factors": [10**400], "subgroup_divisors": [1]}},
])
def test_validate_rejects_malformed(tmp_path, monkeypatch, broken):
    cfg = {
        "experiment": "identities",
        "group": {"factors": [4], "subgroup_divisors": [2]},
    }
    cfg.update(broken)
    with pytest.raises(ConfigError):
        validate_config(cfg)
    # the command line refuses it before any driver starts
    for experiment in _EXPERIMENT_NAMES:
        monkeypatch.setattr(f"fingabor.cli.run_{experiment}", _enter)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **cfg}))
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "out").exists()


_DECAY = {"experiment": "decay", "group": {"factors": [4], "subgroup_divisors": [2]}}


@pytest.mark.parametrize("refuse,cfg", [
    (lambda: make_group([4], [3]), {**_DECAY, "group": {"factors": [4], "subgroup_divisors": [3]}}),
    (lambda: check_seed(1.5), {**_DECAY, "seed": 1.5}),
    (lambda: check_seed(True), {**_DECAY, "control_seeds": [0, True]}),
    (lambda: check_identity_names(["no-such-identity"]),
     {**_DECAY, "experiment": "identities", "identities": ["no-such-identity"]}),
    (lambda: check_decay_options([0.5, 0.0], 3, []), {**_DECAY, "gammas": [0.5, 0.0]}),
    (lambda: check_decay_options([0.5], 0, []), {**_DECAY, "top_k": 0}),
], ids=["group", "seed", "control-seed", "identity", "gamma", "top-k"])
def test_validate_refusals_carry_the_library_message(refuse, cfg):
    # one owner per rule: the config error is the library's own refusal
    with pytest.raises(ValueError) as lib:
        refuse()
    with pytest.raises(ConfigError) as got:
        validate_config(cfg)
    assert str(got.value) == str(lib.value)


def test_validate_decay_extras():
    base = {
        "experiment": "decay",
        "group": {"factors": [8], "subgroup_divisors": [2]},
        "gammas": [0.5, 1, 2],
        "top_k": 2,
        "control_seeds": [0, 1],
    }
    norm = validate_config(base)
    assert norm["gammas"] == [0.5, 1.0, 2.0]
    assert norm["top_k"] == 2
    with pytest.raises(ConfigError):
        validate_config({**base, "gammas": [0.0]})
    with pytest.raises(ConfigError):
        validate_config({**base, "top_k": 0})
    with pytest.raises(ConfigError):
        validate_config({**base, "control_seeds": [-1]})
    with pytest.raises(ConfigError):
        validate_config({**base, "control_seeds": [0, 2**64]})
    # decay extras are rejected elsewhere
    with pytest.raises(ConfigError):
        validate_config({
            "experiment": "frames",
            "group": {"factors": [8], "subgroup_divisors": [2]},
            "top_k": 2,
        })


# ---------------------------------------------------------------------------
# run: success paths


def test_run_identities_ok(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    summary_path = tmp_path / "out" / "identities_summary.json"
    assert str(summary_path) in out
    data = json.loads(summary_path.read_text())
    assert data["group"]["factors"] == [4]
    assert data["failures"] == []
    assert all(entry["passed"] for entry in data["results"].values())


def test_run_identities_subset(tmp_path, capsys):
    cfg = write_config(tmp_path, identities=["shift-commutation", "fourier-parseval"])
    assert main(["run", str(cfg)]) == 0
    data = json.loads((tmp_path / "out" / "identities_summary.json").read_text())
    assert set(data["results"]) == {"shift-commutation", "fourier-parseval"}


@pytest.mark.parametrize("order,extra,skipped", [
    (64, {}, ["stft-of-rihaczek"]),
    (64, {"identities": ["stft-of-rihaczek", "fourier-parseval"]}, ["stft-of-rihaczek"]),
    (16, {}, []),
    (1, {}, []),
], ids=["z64", "z64-partly-capped-subset", "z16", "z1"])
def test_run_prints_each_skipped_identity(tmp_path, capsys, order, extra, skipped):
    # a check above its order cap is named next to the failure lines; on Z_1
    # the tile K x K_perp is all of phase space and every check still passes
    group = {"factors": [order], "subgroup_divisors": [order // 8 or 1]}
    cfg = write_config(tmp_path, group=group, trials=1, **extra)
    assert main(["run", str(cfg)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("skipped:")]
    assert lines == [f"skipped: {name}: group order {order} exceeds cap 16" for name in skipped]


def test_run_refuses_an_identity_subset_that_checks_nothing(tmp_path, capsys, monkeypatch):
    # every named check is above its order cap on Z_64: refused before any work
    monkeypatch.setattr("fingabor.cli.run_identities", _enter)
    cfg = write_config(tmp_path, group={"factors": [64], "subgroup_divisors": [8]},
                       identities=["stft-of-rihaczek"])
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "group order 64" in err and "stft-of-rihaczek (cap 16)" in err
    assert not (tmp_path / "out").exists()
    # the library driver still runs it and records the skip
    summary, _ = run_identities(make_group([64], [8]), 0, 1, names=["stft-of-rihaczek"])
    assert summary["results"]["stft-of-rihaczek"]["skipped"]
    monkeypatch.undo()
    # the same subset runs at the cap
    cfg = write_config(tmp_path, group={"factors": [16], "subgroup_divisors": [4]},
                       trials=1, identities=["stft-of-rihaczek"])
    assert main(["run", str(cfg)]) == 0
    data = json.loads((tmp_path / "out" / "identities_summary.json").read_text())
    assert data["results"]["stft-of-rihaczek"]["passed"]


def test_run_norms_writes_table(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="norms", trials=5)
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "norms_summary.json").exists()
    sweep = (tmp_path / "out" / "norm_sweep.csv").read_text().splitlines()
    assert sweep[0] == "p,q,weight,window,value"
    assert len(sweep) > 1


def test_run_young_writes_table(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="young", trials=5)
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "young_summary.json").exists()
    assert (tmp_path / "out" / "young_ratios.csv").exists()


def test_run_decay_smoke(tmp_path, capsys):
    cfg = write_config(
        tmp_path, experiment="decay", trials=10,
        top_k=1, control_seeds=[0], gammas=[0.5, 2.0],
    )
    assert main(["run", str(cfg)]) == 0
    data = json.loads((tmp_path / "out" / "decay_summary.json").read_text())
    assert len(data["controls"]) == 1
    assert data["localization"]["percentiles"]


def test_output_dir_env_override(tmp_path, capsys, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("FINGABOR_OUTPUT_DIR", str(override))
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    assert (override / "identities_summary.json").exists()
    assert not (tmp_path / "out").exists()


class _Entered(Exception):
    pass


def _enter(*args, **kwargs):
    raise _Entered


_EXPERIMENT_NAMES = ("identities", "frames", "norms", "young", "convrel", "locop", "decay")


@pytest.mark.parametrize("experiment", _EXPERIMENT_NAMES)
def test_run_calls_the_driver_bound_in_cli(tmp_path, monkeypatch, experiment):
    # a wrapper installed on fingabor.cli.run_<name> must see the call: the
    # benchmark's set-up probes stop there
    monkeypatch.setattr(f"fingabor.cli.run_{experiment}", _enter)
    cfg = write_config(tmp_path, experiment=experiment)
    with pytest.raises(_Entered):
        main(["run", str(cfg)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via_env", [False, True], ids=["output-dir", "env"])
def test_run_refuses_an_output_dir_under_a_file(tmp_path, capsys, monkeypatch, via_env):
    # found before the experiment runs, not when its artifacts are written
    monkeypatch.setattr("fingabor.cli.run_identities", _enter)
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "x")
    group = {"factors": [8], "subgroup_divisors": [2]}
    if via_env:
        monkeypatch.setenv("FINGABOR_OUTPUT_DIR", target)
        cfg = write_config(tmp_path, group=group, trials=1)
    else:
        cfg = write_config(tmp_path, group=group, trials=1, output_dir=target)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write artifacts: {blocker} is not a writable directory" in err
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_output_dir_it_cannot_write(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("fingabor.cli.run_identities", _enter)
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path)
                        and access(path, mode))
    assert main(["run", str(write_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write artifacts: {tmp_path} is not a writable directory" in err
    assert not (tmp_path / "out").exists()


def test_run_reports_a_failed_artifact_write(tmp_path, capsys, monkeypatch):
    # the directory passes the check, then a file takes its place during the run
    def driver(*args, **kwargs):
        (tmp_path / "out").write_text("")
        return run_identities(*args, **kwargs)

    monkeypatch.setattr("fingabor.cli.run_identities", driver)
    assert main(["run", str(write_config(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert "error: cannot write artifacts:" in captured.err
    assert "status:" not in captured.out


# ---------------------------------------------------------------------------
# run: failure paths


def test_nan_residual_fails_its_check(tmp_path, capsys, monkeypatch):
    # max(0.0, nan) is 0.0: the worst-over-trials fold must keep the NaN
    monkeypatch.setattr("fingabor.experiments.fourier",
                        lambda f: Signal(f.group, np.full(f.group.order, np.nan)))
    cfg = write_config(tmp_path, identities=["shift-commutation", "fourier-parseval"])
    assert main(["run", str(cfg)]) == 2
    assert "failure: fourier-parseval: residual nan exceeds tolerance" in capsys.readouterr().out
    results = json.loads((tmp_path / "out" / "identities_summary.json").read_text())["results"]
    assert results["fourier-parseval"]["passed"] is False
    assert results["fourier-parseval"]["residual"] is None
    assert results["shift-commutation"]["passed"] is True


def test_nan_modulation_norm_fails_the_norms_run(tmp_path, capsys, monkeypatch):
    # the covered/plain ratio is a check: a NaN must not drop out of its fold
    monkeypatch.setattr("fingabor.experiments.modulation_norms",
                        lambda spec, F, exps, m=None: np.full((len(F), len(exps)), math.nan))
    cfg = write_config(tmp_path, experiment="norms", trials=2)
    assert main(["run", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "failure: covered-equals-plain: residual nan exceeds tolerance 1.000e-12" in out
    summary = json.loads((tmp_path / "out" / "norms_summary.json").read_text())
    assert summary["covered_over_plain"]["2x2"] == [None, None]


def test_nan_signal_fails_covered_equals_plain(monkeypatch):
    # a NaN sample makes the covered and the plain norm both NaN: the trial
    # must fail the check, where a zero plain norm only has no ratio
    calls = []

    def nan_in_second_signal(spec, rng):
        f = random_signal(spec, rng)
        calls.append(None)
        if len(calls) == 2:
            f = Signal(spec, np.where(np.arange(spec.order) == 3, np.nan, f.values))
        return f

    monkeypatch.setattr("fingabor.experiments.random_signal", nan_in_second_signal)
    summary, _ = run_norms(make_group([16], [4]), seed=0, trials=4)
    assert "covered-equals-plain: residual nan exceeds tolerance 1.000e-12" in summary["failures"]
    assert summary["results"]["covered-equals-plain"]["passed"] is False
    assert all(math.isnan(lo) and math.isnan(hi)
               for lo, hi in summary["covered_over_plain"].values())


def test_nan_young_ratio_fails_and_is_written_as_null(tmp_path, capsys, monkeypatch):
    # one NaN-valued convolution: its ratios must reach max_ratio as a NaN
    calls = []

    def nan_on_third_call(F, H):
        calls.append(None)
        if len(calls) == 3:
            return PhaseFunction(F.group, np.full(F.group.order ** 2, math.nan))
        return convolve_phase(F, H)

    monkeypatch.setattr("fingabor.experiments.convolve_phase", nan_on_third_call)
    summary, _ = run_young(make_group([4], [2]), seed=0, trials=5)
    assert summary["failures"] == ["young-inequality: residual nan exceeds tolerance 1.000e-10"]
    assert not math.isfinite(summary["max_ratio"])
    calls.clear()
    cfg = write_config(tmp_path, experiment="young", trials=5)
    assert main(["run", str(cfg)]) == 2
    summary = json.loads((tmp_path / "out" / "young_summary.json").read_text())
    assert summary["max_ratio"] is None


def test_nan_localization_residual_fails(monkeypatch):
    monkeypatch.setattr("fingabor.experiments.kn_matrix",
                        lambda sigma: np.full((sigma.group.order,) * 2, math.nan))
    summary, _ = run_identities(make_group([4], [2]), seed=0, trials=2,
                                names=["localization-as-quantization"])
    assert summary["failures"] == [
        "localization-as-quantization: residual nan exceeds tolerance 1.000e-09"]
    assert math.isnan(summary["results"]["localization-as-quantization"]["residual"])


def test_locop_judges_only_its_own_checks(monkeypatch):
    # localization-as-quantization is a registry identity, judged by run_identities
    # alone; each trial builds the localization matrix of (a, psi1, psi2) once
    # and the Hermitian one of (|a|, psi1, psi1) once
    calls = []

    def counted(a, psi1, psi2):
        calls.append(psi1 is psi2)
        return localization_matrix(a, psi1, psi2)

    monkeypatch.setattr("fingabor.experiments.localization_matrix", counted)
    monkeypatch.setattr("fingabor.operators.localization_matrix", counted)
    summary, _ = run_locop(make_group([4], [2]), seed=0, trials=3)
    assert set(summary["results"]) == {"localization-apply", "localization-hermitian"}
    assert calls == [False, True] * 3


def test_degenerate_convolution_relation_trial_fails_once(tmp_path, capsys, monkeypatch):
    # a trial with non-finite sides makes its case's constant NaN: the spread
    # is NaN, and the one spread check fails with one line
    monkeypatch.setattr("fingabor.experiments.convolution_relation_probe",
                        lambda f, g, cases, **k: np.full((len(cases), 2), math.nan))
    summary, tables = run_convrel(make_group([6], [3]), seed=0, trials=3)
    failures = summary["failures"]
    assert failures == ["convolution-relation-spread: residual nan exceeds tolerance 1.000e+01"]
    assert all(math.isnan(s) for s in summary["spreads"].values())
    assert [row[-3:] for row in tables["convrel_constants"][1:]] == [("nan",) * 3] * 4
    cfg = write_config(tmp_path, experiment="convrel", trials=3,
                       group={"factors": [6], "subgroup_divisors": [3]})
    assert main(["run", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("failure:")] == [f"failure: {failures[0]}"]
    summary = json.loads((tmp_path / "out" / "convrel_summary.json").read_text())
    assert set(summary["spreads"].values()) == {None}
    assert summary["results"]["convolution-relation-spread"]["residual"] is None


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_run_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_run_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment="nonsense")
    assert main(["run", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_bad_group(tmp_path, capsys):
    cfg = write_config(tmp_path, group={"factors": [4], "subgroup_divisors": [3]})
    assert main(["run", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["frames", "identities"])
def test_run_above_table_limit_is_a_resource_limit(tmp_path, capsys, experiment):
    # a valid group of order 4100 needs a table above the cached-table limit;
    # the limit is checked before any table is allocated
    cfg = write_config(tmp_path, experiment=experiment, trials=1,
                       group={"factors": [4100], "subgroup_divisors": [4]})
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "resource limit" in err and "exceeds the cached-table limit" in err
    assert not (tmp_path / "out" / f"{experiment}_summary.json").exists()
    # the same config with a malformed group is still a config error
    cfg = write_config(tmp_path, experiment=experiment, trials=1,
                       group={"factors": [4100], "subgroup_divisors": [3]})
    assert main(["run", str(cfg)]) == 1


@pytest.mark.parametrize("overrides", [
    {"tolerances": {"fourier-parseval": float("inf")}},
    {"experiment": "decay", "gammas": [0.5, float("inf")]},
    {"experiment": "decay", "gammas": [10 ** 400]},
], ids=["tolerances-infinity", "gammas-infinity", "gammas-beyond-float"])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, overrides):
    # json.dumps writes float("inf") as the non-standard literal Infinity
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    {"seed": 2**64},
    {"experiment": "decay", "control_seeds": [1, 2**64]},
], ids=["seed", "control-seed"])
def test_run_refuses_seeds_past_64_bits(tmp_path, capsys, overrides):
    # 2^64 would alias seed 0's streams while the summary records 2^64
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == 1
    assert "2**64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_largest_seed_has_its_own_streams(tmp_path):
    group = {"factors": [6, 2], "subgroup_divisors": [3, 2]}
    ratios = {}
    for seed in (0, 2**64 - 1):
        out = tmp_path / str(seed)
        cfg = write_config(tmp_path, experiment="young", group=group, seed=seed, trials=5,
                           output_dir=str(out))
        assert main(["run", str(cfg)]) == 0
        assert json.loads((out / "young_summary.json").read_text())["seed"] == seed
        ratios[seed] = (out / "young_ratios.csv").read_text()
    assert ratios[0] != ratios[2**64 - 1]


def test_run_reports_tolerance_failures(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "IDENTITY_REGISTRY", tuple(
        dataclasses.replace(c, tolerance=1e-30) if c.name == "stft-shift" else c
        for c in experiments.IDENTITY_REGISTRY
    ))
    cfg = write_config(tmp_path, identities=["stft-shift"])
    assert main(["run", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "failure: " in out
    assert "status: fail (1 check(s) exceeded tolerance)" in out
    # artifacts are still written for inspection
    data = json.loads((tmp_path / "out" / "identities_summary.json").read_text())
    assert data["failures"]


def test_run_refuses_a_tolerance_override(tmp_path, capsys):
    # a tolerance is the one its check declares; no config can change it
    cfg = write_config(tmp_path, tolerances={"stft-shift": 1.0})
    assert main(["run", str(cfg)]) == 1
    assert "unknown config keys: tolerances" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_identity_verdict_reads_its_declared_tolerance():
    assert "tolerances" not in inspect.signature(run_identities).parameters
    summary, _ = run_identities(make_group([4], [2]), 0, 1)
    assert {name: entry["tolerance"] for name, entry in summary["results"].items()} == {
        c.name: c.tolerance for c in experiments.IDENTITY_REGISTRY}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("gamma", [5000, 0.001])
def test_run_decay_reports_non_finite_norms(tmp_path, capsys, gamma):
    # a power sum overflows at these exponents on Z_16
    cfg = write_config(
        tmp_path, experiment="decay", trials=20,
        group={"factors": [16], "subgroup_divisors": [4]},
        control_seeds=[0], gammas=[gamma],
    )
    with np.errstate(over="ignore"):
        assert main(["run", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert f"failure: decay gamma {float(gamma)!r}: non-finite norm or ratio" in out
    text = (tmp_path / "out" / "decay_summary.json").read_text()
    data = json.loads(text, parse_constant=_reject_constant)
    rows = [row for prof in data["localization"]["profiles"] for row in prof]
    assert any(row["norm"] is None for row in rows if row["gamma"] == gamma)
    assert all(row["norm"] is not None for row in rows if row["gamma"] == 0.5)
    assert data["failures"]


# ---------------------------------------------------------------------------
# determinism


def byte_map(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


@pytest.mark.parametrize("experiment,extra", [
    ("identities", {}),
    ("norms", {"trials": 5}),
    ("young", {"trials": 5}),
    ("frames", {"trials": 5}),
    ("convrel", {"trials": 5}),
    ("locop", {"trials": 3}),
    ("decay", {"trials": 10, "control_seeds": [0],
               "group": {"factors": [8], "subgroup_divisors": [2]}}),
])
def test_artifacts_are_byte_identical(tmp_path, capsys, experiment, extra):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg1 = write_config(tmp_path, name="c1.json", experiment=experiment,
                        output_dir=str(out1), **extra)
    cfg2 = write_config(tmp_path, name="c2.json", experiment=experiment,
                        output_dir=str(out2), **extra)
    assert main(["run", str(cfg1)]) == 0
    assert main(["run", str(cfg2)]) == 0
    m1, m2 = byte_map(out1), byte_map(out2)
    assert m1.keys() == m2.keys() and m1
    for name in m1:
        assert m1[name] == m2[name], f"{experiment}/{name} differs between runs"
    # every check's verdict follows from its residual, and failures lists the failed ones
    summary = json.loads(m1[f"{experiment}_summary.json"])
    judged = {k: e for k, e in summary.get("results", {}).items() if not e.get("skipped")}
    for name, entry in judged.items():
        residual = entry["residual"]
        assert entry["passed"] == (residual is not None and residual <= entry["tolerance"]), name
    # the JSON sorts results by name; failures keep the order checks ran in
    assert sorted(msg.split(":")[0] for msg in summary["failures"]) == [
        name for name, entry in sorted(judged.items()) if not entry["passed"]
    ]
