"""Benchmark of ``fingabor run``: end-to-end and per-layer figures.

    python3 perfbench/run.py --workload identities-z64 [--seed 0] [--seconds 20] [--trace 0]
    python3 perfbench/run.py --workload all

Each workload is one seeded ``fingabor run`` config. With ``--trace 0``
every measured run is a fresh process with tracing off, and the figures
are medians over the repeats made in ``--seconds``. With ``--trace 1`` a
fixed set of processes gives the per-layer figures: one untraced run, one
traced run (spans recorded in-process), one single-threaded run and, for
identities, one process that runs each registry check on its own.
``--workload all`` does both for every workload and prints them all.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every attempted run passed its checks, 1 when one failed, and 2
when there is no fingabor source to run. This script uses only the
standard library: a child's max RSS can start from its parent's, so the
parent stays small.
See README.md in this directory for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

_Z64 = {"factors": [64], "subgroup_divisors": [8]}
_Z16 = {"factors": [16], "subgroup_divisors": [4]}

# name -> (config, overrides for the discarded warm-up run). Keys left out
# of a config take their CLI defaults: 50 identity trials, 500 decay trials
# with control seeds 0..9 and gammas 0.5/1/2, 200 young trials.
WORKLOADS = {
    # phase-space (order 4096) convolution, operator matrices, cached tables
    "identities-z64": ({"experiment": "identities", "group": _Z64},
                       {"group": _Z16, "trials": 2}),
    # Jacobi eigensolves and the serial Haar baseline
    "decay-z64": ({"experiment": "decay", "group": _Z64},
                  {"group": _Z16, "trials": 20, "control_seeds": [0]}),
    # many tiny convolutions and mixed norms on a 4-factor phase space
    "young-z6x2": ({"experiment": "young",
                    "group": {"factors": [6, 2], "subgroup_divisors": [3, 2]}},
                   {"trials": 2}),
}

# The identity registry, by name: BENCHMARK.json lists one metric per entry.
IDENTITY_CHECKS = (
    "shift-commutation", "stft-shift", "rihaczek-covariance", "window-transform-support",
    "stft-of-rihaczek", "quantization-weak-form", "quantization-kernel",
    "channel-matrix-closed-form", "localization-as-quantization", "transform-energy",
    "fourier-parseval", "fourier-inversion", "convolution-diagonalization",
    "coset-representative-independence", "pointwise-covering-maximum",
)
FUNCTIONS = (
    "signal.convolve", "signal.fourier", "operators.localization_matrix",
    "operators.gabor_matrix_closed_form", "operators.kn_kernel", "tfa.stft", "tfa.rihaczek",
    "spectral.hermitian_eigen", "spectral.decay_profile", "norms.maximal_function",
    "norms.mixed_quasi_norm",
)
PROBES = 5          # set-up-only processes per run, for setup_s
MIN_REPEATS = 3     # full runs per measurement, whatever --seconds says: a median of 3
                    # shrugs off the one slow process that a shared host often adds
DEADLINE_S = 170    # every child is killed this long after the start
DECAY_MAX_PERCENTILE = 5.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class Bench:
    """Starts fingabor processes for one workload and seed, and gates them."""

    def __init__(self, workload: str, seed: int, work: str, deadline: float) -> None:
        config, warm = WORKLOADS[workload]
        self.experiment = config["experiment"]
        self.work = work
        self.deadline = deadline
        self.config = self._write_config("config.json", dict(config, seed=seed))
        self.warm_config = self._write_config("warm.json", dict(config, seed=seed, **warm))
        self.reference: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed: set[str] = set()
        self._count = 0

    def _write_config(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(cfg, output_dir=os.path.join(self.work, "out")), fh)
        return path

    def spawn(self, mode: str, config: str | None = None, extra_env: dict | None = None) -> dict:
        """Run one child to completion; wall time, rusage and its outputs."""
        self._count += 1
        outdir = os.path.join(self.work, f"p{self._count}")
        os.makedirs(outdir)
        env = dict(os.environ, FINGABOR_OUTPUT_DIR=os.path.join(outdir, "artifacts"),
                   **(extra_env or {}))
        log = os.path.join(outdir, "stdout.txt")
        with open(log, "wb") as out, open(os.path.join(outdir, "stderr.txt"), "wb") as err:
            signal.alarm(max(1, math.ceil(self.deadline - time.monotonic())))
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, mode, config or self.config, outdir],
                stdout=out, stderr=err, env=env, cwd=ROOT)
            _Watchdog.child = proc
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                _Watchdog.child = None
            t1 = time.monotonic()
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        rec = {"rc": proc.returncode, "wall": t1 - t0, "cpu": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024, "stdout": stdout, "dir": outdir}
        timing = _read_json(os.path.join(outdir, "timing.json")) or {}
        if timing.get("entry") is not None:
            rec["setup"] = timing["entry"] - t0
        rec["artifacts"] = _read_tree(os.path.join(outdir, "artifacts"))
        return rec

    def fail(self, what: str, reason: str) -> None:
        """Record why the attempt ``what`` failed; one attempt may fail several ways."""
        self.failures.append(f"{what}: {reason}")
        self.failed.add(what)

    def probe(self) -> dict:
        self.attempted += 1
        rec = self.spawn("probe")
        if rec["rc"] != 0 or "setup" not in rec:
            self.fail(f"probe {self._count}", f"exit code {rec['rc']}, experiment entered: {'setup' in rec}")
        return rec

    def full_run(self, mode: str = "run", extra_env: dict | None = None,
                 compare: bool = True) -> dict:
        """One ``fingabor run`` of the workload, gated.

        A run fails on a non-zero exit code, a ``failure:`` line, a decay
        localization percentile above the limit, or (with ``compare``)
        artifacts that differ from those of the first compared run.
        """
        self.attempted += 1
        rec = self.spawn(mode, extra_env=extra_env)
        what = f"{mode} {self._count}"
        if rec["rc"] != 0:
            self.fail(what, f"exit code {rec['rc']}")
        for line in rec["stdout"].splitlines():
            if line.startswith("failure:"):
                self.fail(what, line)
        summaries = [v for k, v in rec["artifacts"].items() if k.endswith("_summary.json")]
        rec["summary"] = json.loads(summaries[0]) if len(summaries) == 1 else None
        if rec["rc"] == 0 and rec["summary"] is None:
            self.fail(what, "no summary artifact")
        if self.experiment == "decay" and rec["summary"] is not None:
            top = rec["summary"]["localization"]["percentiles"][0]
            if top > DECAY_MAX_PERCENTILE:
                self.fail(what, f"top localization percentile {top} > {DECAY_MAX_PERCENTILE}")
        if compare:
            if self.reference is None:
                self.reference = rec["artifacts"]
            elif rec["artifacts"] != self.reference:
                self.fail(what, "artifacts differ from the first repeat")
        return rec

    def warm_up(self) -> None:
        """One discarded run on a smaller config: imports, page cache, code paths."""
        self.spawn("run", config=self.warm_config)


class _Watchdog:
    """Kills the running child when the run's deadline passes."""

    child: subprocess.Popen | None = None

    @classmethod
    def on_alarm(cls, signum, frame) -> None:
        if cls.child is not None:
            cls.child.kill()


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _read_tree(directory: str) -> dict:
    out = {}
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Median end-to-end metrics over untraced repeats, and their samples."""
    bench.warm_up()
    probes = [bench.probe() for _ in range(PROBES)]
    runs = []
    t0 = time.monotonic()
    while len(runs) < MIN_REPEATS or time.monotonic() - t0 < seconds:
        runs.append(bench.full_run())
    samples = {
        "run_s": [r["wall"] for r in runs],
        "setup_s": [r["setup"] for r in probes + runs if "setup" in r],
        "cpu_s": [r["cpu"] for r in runs],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
    }
    # A failed set-up leaves no setup_s sample; the run is then incorrect anyway.
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    return metrics, samples


def _min_headroom(summary: dict | None) -> float:
    """min log10(tolerance / residual) over the identity checks with a residual."""
    if not summary or summary.get("experiment") != "identities":
        return 0.0
    heads = [math.log10(e["tolerance"] / e["residual"]) for e in summary["results"].values()
             if e.get("residual") and e["tolerance"] > 0]
    return min(heads) if heads else 0.0


def measure_layers(bench: Bench) -> dict:
    """Per-layer metrics from one traced run, beside untraced runs."""
    bench.warm_up()
    base = bench.full_run()
    single = bench.full_run(extra_env=SINGLE_THREAD, compare=False)
    traced = bench.full_run(mode="trace")
    layers = summarize(traced["dir"]) if traced["rc"] == 0 else {}
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(f"{layer}.self_s", 0.0)
        metrics[f"{layer}.calls"] = layers.get(f"{layer}.calls", 0)
    for fn in FUNCTIONS:
        metrics[f"{fn}.s"] = layers.get(f"{fn}.s", 0.0)
        metrics[f"{fn}.calls"] = layers.get(f"{fn}.calls", 0)
    metrics["group.table_builds"] = layers.get("group.table_builds", 0)
    metrics["group.table_mb"] = layers.get("group.table_mb", 0.0)

    checks = {}
    if bench.experiment == "identities":
        bench.attempted += 1
        rec = bench.spawn("checks")
        checks = _read_json(os.path.join(rec["dir"], "checks.json")) or {}
        if rec["rc"] != 0 or not checks:
            bench.fail("checks", f"exit code {rec['rc']}")
        full = (base["summary"] or {}).get("results", {})
        for name, entry in checks.items():
            if entry["residual"] != full.get(name, {}).get("residual"):
                bench.fail("checks", f"{name}: residual {entry['residual']} alone, "
                                      f"{full.get(name, {}).get('residual')} in the full run")
    for name in IDENTITY_CHECKS:
        metrics[f"experiments.check.{name}.s"] = checks.get(name, {}).get("s", 0.0)
    metrics["experiments.min_headroom_dec"] = _min_headroom(base["summary"])
    metrics["trace.overhead_s"] = traced["wall"] - base["wall"]
    metrics["default.run_s"] = base["wall"]
    metrics["default.cpu_s"] = base["cpu"]
    metrics["threads1.run_s"] = single["wall"]
    metrics["threads1.cpu_s"] = single["cpu"]
    return metrics


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_dec"):
        return "decades"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = os.path.join(WORK, f"{os.getpid()}-{workload}-{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(workload, seed, work, deadline)
        env_rec = bench.spawn("env")
        print("env:", json.dumps(_read_json(os.path.join(env_rec["dir"], "env.json")),
                                 sort_keys=True))
        if trace:
            metrics, samples = measure_layers(bench), {}
        else:
            metrics, samples = measure_end_to_end(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {k: _unit(k) for k in metrics}
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{bench.attempted} attempted, {len(bench.failed)} failed, "
          f"fail_frac {len(bench.failed) / bench.attempted:.3f}")
    for msg in bench.failures:
        print("  failure:", msg)
    for name, value in metrics.items():
        line = f"  {name:<48} {value:>14.6g} {units[name]}"
        if name in samples:
            line += f"  median of {len(samples[name])}: " + " ".join(
                f"{v:.4g}" for v in samples[name])
        print(line)
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fingabor", "cli.py")):
        print(f"error: no fingabor source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _Watchdog.on_alarm)
    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            for trace in (False, True):
                deadline = time.monotonic() + DEADLINE_S
                results[f"{name}/trace{int(trace)}"] = run_one(
                    name, args.seed, args.seconds, trace, deadline)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                     time.monotonic() + DEADLINE_S)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
