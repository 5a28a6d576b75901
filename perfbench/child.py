"""One fingabor process, started by ``run.py``; not meant to be run by hand.

    python3 perfbench/child.py MODE CONFIG OUTDIR

Modes:

* ``run``: ``fingabor run CONFIG``, recording the monotonic time at which
  the experiment driver (``run_<experiment>``) is entered;
* ``probe``: the same, but exits with 0 as soon as the driver is entered,
  so the process is pure set-up;
* ``trace``: ``run`` with the span tracer installed; spans go to OUTDIR;
* ``checks``: an identities config, run one registry entry at a time
  through ``run_identities(spec, seed, trials, names=[name])``, timing each;
* ``env``: the numeric environment (CONFIG is ignored).

The package is imported from ``src/`` of the checkout this file sits in.
Timings and records are written as JSON files in OUTDIR.
"""
from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class _Entered(Exception):
    """Raised by a probe when the experiment driver is entered."""


def _write(outdir: str, name: str, obj) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _hook_entry(cli, stop: bool) -> dict:
    """Wrap the ``run_*`` drivers bound in ``cli`` to record entry time."""
    seen: dict = {}
    for attr, func in list(vars(cli).items()):
        if not attr.startswith("run_") or not callable(func):
            continue

        def entered(*args, _func=func, **kwargs):
            seen.setdefault("entry", time.monotonic())
            if stop:
                raise _Entered
            return _func(*args, **kwargs)

        setattr(cli, attr, entered)
    return seen


def _run(mode: str, config: str, outdir: str) -> int:
    tracer = None
    if mode == "trace":
        from tracer import Tracer  # untraced processes load nothing of the tracer

        tracer = Tracer()
        tracer.install()
    from fingabor import cli

    seen = _hook_entry(cli, stop=mode == "probe")
    try:
        rc = cli.main(["run", config])
    except _Entered:
        rc = 0
    if tracer is not None:
        tracer.dump(outdir)
    _write(outdir, "timing.json", {"entry": seen.get("entry")})
    return rc


def _checks(config: str, outdir: str) -> int:
    from fingabor import cli, make_group
    from fingabor.experiments import identity_names, run_identities

    with open(config, encoding="utf-8") as fh:
        norm = cli.validate_config(json.load(fh))
    spec = make_group(norm["factors"], norm["subgroup_divisors"])
    out = {}
    for name in identity_names():
        t0 = time.perf_counter()
        summary, _ = run_identities(spec, norm["seed"], norm["trials"], names=[name])
        out[name] = {"s": time.perf_counter() - t0,
                     "residual": summary["results"][name].get("residual")}
    _write(outdir, "checks.json", out)
    return 0


def _env(outdir: str) -> int:
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    _write(outdir, "env.json", {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    })
    return 0


def main(argv: list[str]) -> int:
    mode, config, outdir = argv
    if mode in ("run", "probe", "trace"):
        return _run(mode, config, outdir)
    if mode == "checks":
        return _checks(config, outdir)
    if mode == "env":
        return _env(outdir)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
