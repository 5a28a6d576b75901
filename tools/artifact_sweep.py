"""Run every experiment on a fixed set of groups and hash the artifacts.

Usage::

    PYTHONPATH=src python tools/artifact_sweep.py OUTDIR

Runs the seven experiments (identities, frames, norms, young, convrel,
locop, decay) on six groups, Z_64/8, Z_6 x Z_2 with divisors [3, 2],
Z_16/4, Z_4 x Z_8 with divisors [2, 4], Z_8 with K = G and Z_8 with the
trivial K, with seeds 0 and 1 and each experiment's default trial count,
through ``fingabor.cli.main``.  Each run writes its JSON/CSV artifacts to
``OUTDIR/<factors>_<divisors>/seed<s>/<experiment>/``, and
``OUTDIR/manifest.txt`` gets one ``sha256  path`` line per artifact, sorted
by path, with paths relative to OUTDIR.  Two trees whose manifests are
identical wrote byte-identical artifacts.  A run whose checks failed (exit
code 2) still writes its artifacts; it is printed as one ``check failed:
<run dir>`` line, and the last line gives the count of such runs.  Uses only
the standard library and fingabor.
"""
import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import tempfile

from fingabor.cli import main

EXPERIMENTS = ("identities", "frames", "norms", "young", "convrel", "locop", "decay")
GROUPS = (
    ([64], [8]),
    ([6, 2], [3, 2]),
    ([16], [4]),
    ([4, 8], [2, 4]),
    ([8], [1]),      # K = G
    ([8], [8]),      # trivial K
)
SEEDS = (0, 1)


def _label(values) -> str:
    return "x".join(str(v) for v in values)


def run_sweep(outdir: str) -> tuple[list[str], list[str]]:
    """Run every (group, seed, experiment); returns the manifest lines and
    the run directories of the runs that failed a check."""
    failed = []
    # the config's output_dir is where each run must write
    os.environ.pop("FINGABOR_OUTPUT_DIR", None)
    with tempfile.TemporaryDirectory() as configs:
        for factors, divisors in GROUPS:
            for seed in SEEDS:
                for experiment in EXPERIMENTS:
                    run_dir = os.path.join(outdir, f"{_label(factors)}_{_label(divisors)}",
                                           f"seed{seed}", experiment)
                    config = os.path.join(configs, "config.json")
                    with open(config, "w", encoding="utf-8") as fh:
                        json.dump({"experiment": experiment, "seed": seed, "output_dir": run_dir,
                                   "group": {"factors": factors,
                                             "subgroup_divisors": divisors}}, fh)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(["run", config])
                    gc.unfreeze()                   # main froze what was alive at its return
                    if code == 2:                   # a check exceeded its tolerance
                        failed.append(run_dir)
                    elif code != 0:
                        raise SystemExit(f"{run_dir}: fingabor run exited with {code}")
    lines = []
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, outdir)
            if rel == "manifest.txt":
                continue
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1]), failed


def _main(argv) -> int:
    if len(argv) != 1:
        print("usage: artifact_sweep.py OUTDIR", file=sys.stderr)
        return 1
    outdir = argv[0]
    lines, failed = run_sweep(outdir)
    with open(os.path.join(outdir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    for run_dir in failed:
        print(f"check failed: {run_dir}")
    print(f"{len(lines)} artifacts, {len(failed)} runs failed a check, "
          f"manifest {os.path.join(outdir, 'manifest.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
