"""The package's BLAS thread policy, and artifacts that do not depend on it.

Each case starts a fresh interpreter: the policy acts only before numpy
loads, and this process has loaded it long ago. The child environment is
this one without the thread variables, which the policy has set here.
"""
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def thread_vars_after(code, env):
    """The thread variables of a fresh interpreter after it runs ``code``."""
    report = f"import json, os; print(json.dumps({{k: os.environ.get(k) for k in {THREAD_VARS!r}}}))"
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env,
                         capture_output=True, text=True, check=True).stdout
    return {k: v for k, v in json.loads(out).items() if v is not None}


def test_import_sets_one_thread():
    assert thread_vars_after("import fingabor", child_env()) == {"OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("user", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"},
                                  {"GOTO_NUM_THREADS": "2"}])
def test_user_thread_variable_wins(user):
    assert thread_vars_after("import fingabor", child_env(**user)) == user


def test_numpy_loaded_first_sets_nothing():
    assert thread_vars_after("import numpy\nimport fingabor", child_env()) == {}


# At order 64 the products are large enough for OpenBLAS to split across
# threads; smaller ones stay under its threshold and run one thread anyway.
@pytest.mark.parametrize("experiment, extra", [
    ("identities", {"trials": 2}),
    ("decay", {"trials": 20, "control_seeds": [0]}),
])
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, experiment, extra):
    outputs = []
    for run, user in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        cfg = dict({"experiment": experiment, "seed": 0, "output_dir": str(tmp_path / run),
                    "group": {"factors": [64], "subgroup_divisors": [8]}}, **extra)
        path = tmp_path / f"{run}.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "fingabor.cli", "run", str(path)],
                              env=child_env(**user), capture_output=True, text=True)
        assert proc.returncode in (0, 2), proc.stderr
        root = tmp_path / run
        outputs.append({name: (root / name).read_bytes() for name in sorted(os.listdir(root))})
    assert outputs[0].keys() == outputs[1].keys() and outputs[0]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} moves with the BLAS thread count"
