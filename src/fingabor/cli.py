"""Command line front end.

Two subcommands:

* ``fingabor run CONFIG.json`` runs one experiment described by a JSON
  config and writes deterministic JSON/CSV artifacts.
* ``fingabor list-identities`` prints the registry of verifiable
  identities with their tolerances, which no run can change.

Exit codes: 0 on success (``--help`` included), 1 on a usage error (an
unknown command, or a missing or extra argument) or a configuration problem,
2 when the experiment ran but at least one check exceeded its tolerance, 3
when a valid config needs a table above the cached-table limit (a resource
limit). An output directory that cannot be written is a configuration
problem, found before the experiment runs (or, failing that, when the
artifacts are written).
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .experiments import (
    IDENTITY_REGISTRY,
    check_decay_options,
    check_identity_names,
    check_trials,
    run_convrel,
    run_decay,
    run_frames,
    run_identities,
    run_locop,
    run_norms,
    run_young,
)
from .group import GroupSpec, TableLimit, make_group
from .spectral import check_seed

__all__ = ["ConfigError", "main", "validate_config"]


class ConfigError(ValueError):
    """Raised when the run configuration is malformed."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _ask(check: Callable, *args):
    """``check(*args)``, a library rule; its refusal becomes a ConfigError
    with the library's message."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _identity_extras(cfg: dict, spec: GroupSpec) -> dict:
    names = cfg.get("identities")
    return {} if names is None else {"identities": _ask(check_identity_names, names, spec)}


def _decay_extras(cfg: dict, spec: GroupSpec) -> dict:
    gammas = cfg.get("gammas", [0.5, 1.0, 2.0])
    controls = cfg.get("control_seeds", list(range(10)))
    _expect(isinstance(gammas, list), "'gammas' must be a list")
    _expect(isinstance(controls, list), "'control_seeds' must be a list")
    gammas, top_k, controls = _ask(check_decay_options, gammas, cfg.get("top_k", 3), controls)
    return {"gammas": gammas, "top_k": top_k, "control_seeds": controls}


class _Experiment(NamedTuple):
    """Default trials, optional config keys with their validator, driver call
    returning ``(summary, tables)``.

    ``run`` names its driver in a lambda body, so the ``run_*`` bound in this
    module is looked up at each call and a wrapper installed there sees it.
    """

    trials: int
    run: Callable[[GroupSpec, dict], tuple[dict, dict]]
    keys: frozenset = frozenset()
    extras: Callable[[dict, GroupSpec], dict] = lambda cfg, spec: {}


_EXPERIMENTS = {
    "identities": _Experiment(
        50,
        lambda spec, n: run_identities(spec, n["seed"], n["trials"],
                                       names=n.get("identities")),
        frozenset({"identities"}),
        _identity_extras,
    ),
    "frames": _Experiment(100, lambda spec, n: run_frames(spec, n["seed"], n["trials"])),
    "norms": _Experiment(100, lambda spec, n: run_norms(spec, n["seed"], n["trials"])),
    "young": _Experiment(200, lambda spec, n: run_young(spec, n["seed"], n["trials"])),
    "convrel": _Experiment(200, lambda spec, n: run_convrel(spec, n["seed"], n["trials"])),
    "locop": _Experiment(25, lambda spec, n: run_locop(spec, n["seed"], n["trials"])),
    "decay": _Experiment(
        500,
        lambda spec, n: run_decay(spec, n["seed"], n["trials"], gammas=n["gammas"],
                                  top_k=n["top_k"], control_seeds=n["control_seeds"]),
        frozenset({"gammas", "top_k", "control_seeds"}),
        _decay_extras,
    ),
}


def validate_config(cfg) -> dict:
    """Check shape, types, and key names; returns a normalized config.  The
    group, seed, trial-count, identity-name (with the order caps) and
    decay-option rules are the library's own checks."""
    _expect(isinstance(cfg, dict), "config must be a JSON object")
    _expect("experiment" in cfg, "missing required key 'experiment'")
    exp = cfg["experiment"]
    _expect(isinstance(exp, str) and exp in _EXPERIMENTS,
            f"'experiment' must be one of {', '.join(_EXPERIMENTS)}")
    entry = _EXPERIMENTS[exp]
    allowed = {"experiment", "group", "seed", "trials", "output_dir"} | entry.keys
    unknown = sorted(set(cfg) - allowed)
    _expect(not unknown, f"unknown config keys: {', '.join(unknown)}")

    _expect("group" in cfg, "missing required key 'group'")
    grp = cfg["group"]
    _expect(isinstance(grp, dict), "'group' must be an object")
    gunknown = sorted(set(grp) - {"factors", "subgroup_divisors"})
    _expect(not gunknown, f"unknown group keys: {', '.join(gunknown)}")
    _expect("factors" in grp and "subgroup_divisors" in grp,
            "'group' needs 'factors' and 'subgroup_divisors'")
    spec = _ask(make_group, grp["factors"], grp["subgroup_divisors"])
    seed = _ask(check_seed, cfg.get("seed", 0))
    trials = _ask(check_trials, cfg.get("trials", entry.trials))
    output_dir = cfg.get("output_dir", ".")
    _expect(isinstance(output_dir, str) and output_dir,
            "'output_dir' must be a non-empty string")

    return {
        "experiment": exp,
        "factors": list(spec.factors),
        "subgroup_divisors": list(spec.subgroup_divisors),
        "seed": seed,
        "trials": trials,
        "output_dir": output_dir,
        **entry.extras(cfg, spec),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        # strict JSON has no Infinity or NaN
        return float(obj) if math.isfinite(obj) else None
    return obj


def _write_artifacts(outdir: str, name: str, summary: dict, tables: dict) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    written = []
    path = os.path.join(outdir, f"{name}_summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(path)
    for tname, rows in tables.items():
        tpath = os.path.join(outdir, f"{tname}.csv")
        with open(tpath, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                writer.writerow([str(c) for c in row])
        written.append(tpath)
    return written


def _check_writable(outdir: str) -> None:
    """Refuse an output directory whose nearest existing ancestor (itself, if
    it exists) is not a directory with write and search permission."""
    path = os.path.abspath(outdir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write artifacts: {path} is not a writable directory")


def _dispatch(norm: dict) -> tuple[dict, dict]:
    """The driver's ``(summary, tables)`` for a normalized config."""
    spec = make_group(norm["factors"], norm["subgroup_divisors"])
    return _EXPERIMENTS[norm["experiment"]].run(spec, norm)


def _cmd_list_identities() -> int:
    width = max(len(c.name) for c in IDENTITY_REGISTRY)
    print(f"{'name':<{width}}  {'tolerance':>9}  summary")
    for c in IDENTITY_REGISTRY:
        tol = "exact" if c.tolerance == 0.0 else f"{c.tolerance:.0e}"
        print(f"{c.name:<{width}}  {tol:>9}  {c.summary}")
    return 0


def _cmd_run(config_path: str) -> int:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        norm = validate_config(cfg)
        outdir = os.environ.get("FINGABOR_OUTPUT_DIR") or norm["output_dir"]
        _check_writable(outdir)
        summary, tables = _dispatch(norm)
    except TableLimit as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        written = _write_artifacts(outdir, norm["experiment"], summary, tables)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    for name, result in summary.get("results", {}).items():
        if result.get("skipped"):
            print(f"skipped: {name}: {result['reason']}")
    failures = summary["failures"]
    if failures:
        for msg in failures:
            print(f"failure: {msg}")
        print(f"status: fail ({len(failures)} check(s) exceeded tolerance)")
        return 2
    print("status: ok")
    return 0


def main(argv=None) -> int:
    """Run the command line on ``argv`` (``sys.argv[1:]`` when None) and
    return the exit code.  A usage error prints argparse's usage message to
    stderr and returns 1; ``--help`` returns 0.

    Before returning, ``main`` calls ``gc.freeze()``: every object alive at
    that point moves to the collector's permanent generation, so the
    interpreter's shutdown collections skip them (about 20 ms of a
    ``fingabor run`` process).  Reference counting still frees them, and
    atexit handlers and stream flushes run as before.  A caller that runs
    ``main`` in-process and lives on can call ``gc.unfreeze()`` to give
    those objects back to the collector.
    """
    parser = argparse.ArgumentParser(
        prog="fingabor",
        description="Time-frequency experiments on finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config", help="path to the JSON config file")
    sub.add_parser("list-identities", help="print the identity registry")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the help, or usage and the error
        code = 1 if exc.code else 0
    else:
        code = (_cmd_list_identities() if args.command == "list-identities"
                else _cmd_run(args.config))
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
