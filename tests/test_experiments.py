"""The driver contract: every run_* returns (summary, tables), and
run_identities is the one fold of the identity registry."""
import json
import math

import numpy as np
import pytest

from fingabor import experiments
from fingabor.cli import _jsonable, main
from fingabor.experiments import (
    IdentityCheck,
    check_decay_options,
    run_convrel,
    run_decay,
    run_frames,
    run_identities,
    run_locop,
    run_norms,
    run_young,
)
from fingabor.group import make_group

DRIVERS = {
    "identities": run_identities,
    "frames": run_frames,
    "norms": run_norms,
    "young": run_young,
    "convrel": run_convrel,
    "locop": run_locop,
    "decay": run_decay,
}


@pytest.mark.parametrize("experiment", list(DRIVERS))
def test_driver_returns_summary_and_the_tables_cli_writes(experiment, tmp_path, capsys):
    spec = make_group([6], [3])
    result = DRIVERS[experiment](spec, 0, 2)
    assert isinstance(result, tuple) and len(result) == 2
    summary, tables = result
    assert isinstance(summary, dict) and isinstance(tables, dict)
    assert isinstance(summary["failures"], list)
    # the same run through the command line writes this summary and one CSV per table
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"experiment": experiment, "seed": 0, "trials": 2,
                               "output_dir": str(out),
                               "group": {"factors": [6], "subgroup_divisors": [3]}}))
    assert main(["run", str(cfg)]) == (2 if summary["failures"] else 0)
    written = {p.name for p in out.iterdir()}
    assert written == {f"{experiment}_summary.json"} | {f"{name}.csv" for name in tables}
    on_disk = json.loads((out / f"{experiment}_summary.json").read_text())
    assert on_disk == json.loads(json.dumps(_jsonable(summary)))


@pytest.mark.parametrize("trials", [0, -3, True, 2.5])
@pytest.mark.parametrize("experiment", list(DRIVERS))
def test_a_run_of_no_trials_is_refused(experiment, trials):
    # no trial checks nothing, so no check may report a pass; True would run
    # one trial and write "trials": true, and 2.5 reached range()
    with pytest.raises(ValueError, match="at least one trial"):
        DRIVERS[experiment](make_group([6], [3]), 0, trials)


def test_run_identities_folds_one_trial_residuals(monkeypatch):
    residuals = iter([0.1, math.nan, 0.2])
    single_calls = []

    def single(spec, rng):
        single_calls.append(None)
        return 0.5

    monkeypatch.setattr(experiments, "IDENTITY_REGISTRY", (
        IdentityCheck("three-trials", "0.1, NaN, 0.2", 1.0, lambda spec, rng: next(residuals)),
        IdentityCheck("structural", "one call", 1.0, single, randomized=False),
    ))
    summary, tables = run_identities(make_group([4], [2]), 0, 3)
    assert tables == {}
    # max(0.1, nan, 0.2) would drop the NaN; the fold keeps it and fails
    folded = summary["results"]["three-trials"]
    assert math.isnan(folded["residual"]) and folded["passed"] is False
    assert folded["trials"] == 3
    assert summary["failures"] == ["three-trials: residual nan exceeds tolerance 1.000e+00"]
    assert len(single_calls) == 1
    assert summary["results"]["structural"]["trials"] == 1
    assert summary["results"]["structural"]["residual"] == 0.5


@pytest.mark.parametrize("names", [[], ["no-such-check"], ["stft-shift", "no-such-check"]],
                         ids=["empty", "unknown", "one-unknown"])
def test_an_empty_or_unknown_identity_subset_is_refused(monkeypatch, names):
    # a subset that names no check would report a vacuous pass
    def computed(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(experiments, "stream_rng", computed)
    with pytest.raises(ValueError):
        run_identities(make_group([4], [2]), 0, 1, names=names)


def test_the_inclusion_and_the_trial_fold_have_one_judge():
    import fingabor
    from fingabor import gabor, norms

    assert not hasattr(experiments, "_worst")
    assert not hasattr(norms, "inclusion_check") and not hasattr(norms, "INCLUSION_SLACK")
    assert not hasattr(fingabor, "inclusion_check")
    # the frames experiment is the one judge of a dual window
    assert not hasattr(gabor, "DualWindowMismatch") and not hasattr(gabor, "DUAL_SLACK")
    assert not hasattr(fingabor, "DualWindowMismatch")


# each is refused before any matrix or baseline is built: the options by
# check_decay_options, the run's seed by check_seed
DECAY_REFUSALS = {
    "top-k-fraction": {"top_k": 2.5},
    "top-k-bool": {"top_k": True},
    "no-gammas": {"gammas": []},
    "gamma-infinity": {"gammas": [math.inf]},
    "gamma-beyond-float": {"gammas": [10 ** 400]},
    "late-control-seed": {"control_seeds": (0, 1, 2, 3, 4, 5, 6, 7, 8, -1)},
    "run-seed": {"seed": 2**64},
}


@pytest.mark.parametrize("options", DECAY_REFUSALS.values(), ids=DECAY_REFUSALS.keys())
def test_decay_options_are_refused_before_any_work(monkeypatch, options):
    def built(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiments, "localization_matrix", built)
    monkeypatch.setattr(experiments, "haar_baseline", built)
    with pytest.raises(ValueError):
        run_decay(make_group([64], [8]), **{"seed": 0, "trials": 500, **options})


def test_decay_options_are_normalized():
    assert check_decay_options((0.5, np.float64(2), 1), np.int64(2), range(3)) == (
        [0.5, 2.0, 1.0], 2, [0, 1, 2])
