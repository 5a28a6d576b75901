"""End-to-end acceptance gate.

One test per numerical contract, at the pinned tolerance; run with -v to
get a pass/fail line for each.  The Haar-control ranking test documents a
contract the implementation does not meet; see the assertion message.
"""
import json
import math
import os
import time

import numpy as np
import pytest

from fingabor.cli import main
from fingabor.experiments import (
    IDENTITY_REGISTRY,
    _expansion_residuals,
    _representative_independence_residual,
    _rnorm_subadditivity_residual,
    run_convrel,
    run_decay,
    run_identities,
    run_young,
)
from fingabor.gabor import (
    NotAFrame,
    dual_window,
    gabor_system,
    lattice_from_points,
    quasi_lattice,
)
from fingabor.group import (
    annihilator_indices,
    make_group,
    subgroup_indices,
)
from fingabor.norms import (
    Exponents,
    inclusion_bound,
    inclusion_ratio,
    modulation_norm,
)
from fingabor.signal import PhaseFunction, Signal, subgroup_indicator
from fingabor.tfa import stft
from oracles import mixed_quasi_norm

GROUPS = [([4], [2]), ([6], [3]), ([8], [2]), ([64], [8]), ([6, 2], [3, 2])]

PINNED_TOLERANCES = {
    "shift-commutation": 1e-14,
    "stft-shift": 1e-12,
    "rihaczek-covariance": 1e-12,
    "window-transform-support": 1e-12,
    "stft-of-rihaczek": 1e-10,
    "quantization-weak-form": 1e-11,
    "quantization-kernel": 1e-11,
    "channel-matrix-closed-form": 1e-10,
    "localization-as-quantization": 1e-9,
}


def rand_signal(spec, rng):
    return Signal(spec, rng.standard_normal(spec.order) + 1j * rng.standard_normal(spec.order))


@pytest.fixture(scope="module")
def decay_report():
    start = time.monotonic()
    summary, _ = run_decay(make_group([64], [8]), seed=0, trials=500,
                           control_seeds=range(10))
    elapsed = time.monotonic() - start
    assert not summary["failures"]
    return summary, elapsed


def test_identity_suite_on_reference_groups():
    # pinned tolerances cannot drift with the registry
    registered = {c.name: c.tolerance for c in IDENTITY_REGISTRY
                  if c.name in PINNED_TOLERANCES}
    assert registered == PINNED_TOLERANCES

    names = list(PINNED_TOLERANCES)
    start = time.monotonic()
    for factors, divisors in GROUPS:
        spec = make_group(factors, divisors)
        summary, _ = run_identities(spec, seed=0, trials=50, names=names)
        failures = summary["failures"]
        assert not failures, f"{factors}/{divisors}: {failures}"
        skipped = {n for n, row in summary["results"].items() if row.get("skipped")}
        if spec.order > 16:
            # the spectrogram factorization check is sextic in the order and
            # is capped to keep the suite inside its time budget
            assert skipped == {"stft-of-rihaczek"}
            print(f"note: stft-of-rihaczek skipped on {factors} (order cap)")
        else:
            assert not skipped

        # the window transform hits its constant exactly on the tile
        phi = subgroup_indicator(spec)
        V = stft(phi, phi).mat
        kk = subgroup_indices(spec)
        aa = annihilator_indices(spec)
        c = spec.subgroup_order * spec.mass
        tile = V[np.ix_(kk, aa)]
        assert np.array_equal(tile, np.full(tile.shape, complex(c)))
        off_rows = np.setdiff1d(np.arange(spec.order), kk)
        if off_rows.size:
            assert not V[off_rows, :].any()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"
    print(f"identity suite: 5 groups x 50 trials in {elapsed:.1f}s")


def test_trivial_subgroup_collapses_the_wiener_norm():
    spec = make_group([8], [8])
    phi = subgroup_indicator(spec)
    rng = np.random.default_rng(0)
    grid = [0.5, 1.0, 2.0, math.inf]
    worst = 0.0
    for _ in range(100):
        f = rand_signal(spec, rng)
        V = stft(f, phi)
        for p in grid:
            for q in grid:
                w = modulation_norm(f, (p, q))
                plain = mixed_quasi_norm(V, (p, q))
                worst = float(np.maximum(worst, abs(w - plain)))   # keeps a NaN
    assert worst <= 1e-13, f"worst |modulation - plain| = {worst:.3e}"
    print(f"trivial subgroup: worst residual {worst:.3e} over 100 signals x 16 exponent pairs")


@pytest.mark.parametrize("factors,divisors", [([4], [2]), ([6], [3])])
def test_subgroup_indicator_gabor_frames(factors, divisors):
    spec = make_group(factors, divisors)
    phi = subgroup_indicator(spec)
    lat = quasi_lattice(spec)
    system = gabor_system(phi, lat)
    A, B = system.bounds
    assert B / A - 1.0 <= 1e-10, f"frame bounds A={A} B={B}"

    h = dual_window(system)
    rng = np.random.default_rng(0)
    worst = 0.0
    signals = [rand_signal(spec, rng) for _ in range(100)]
    for r1, r2 in _expansion_residuals(signals, phi, h, lat):
        worst = max(worst, r1, r2)
    assert worst <= 1e-10, f"worst expansion residual {worst:.3e}"

    kept = lat.x != lat.x[0]
    deficient = lattice_from_points(spec, lat.x[kept], lat.xi[kept])
    deficient_system = gabor_system(phi, deficient)
    dA, dB = deficient_system.bounds
    assert dA <= 1e-10 * dB, f"deficient lattice bounds A={dA} B={dB}"
    with pytest.raises(NotAFrame):
        dual_window(deficient_system)
    print(f"{factors}/{divisors}: tight (A={A:.12f}), reconstruction {worst:.3e}, "
          "deficient lattice rejected")


def test_inequalities_hold_across_seeded_trials():
    # convolution inequality across the admissible grid
    summary, _ = run_young(make_group([6], [3]), seed=0, trials=200)
    assert not summary["failures"] and summary["results"]["young-inequality"]["passed"]

    # r-norm subadditivity
    spec = make_group([8], [2])
    rng = np.random.default_rng(1)
    n2 = spec.order ** 2
    sub_worst = 0.0
    for _ in range(200):
        F = PhaseFunction(spec, rng.standard_normal(n2) + 1j * rng.standard_normal(n2))
        H = PhaseFunction(spec, rng.standard_normal(n2) + 1j * rng.standard_normal(n2))
        for p in (0.5, 1.0, 2.0):
            for q in (0.5, 1.0, 2.0):
                e = Exponents(p, q)
                scale = mixed_quasi_norm(F, e) ** e.r + mixed_quasi_norm(H, e) ** e.r
                res = _rnorm_subadditivity_residual(F, H, [e])[0, 0]
                sub_worst = max(sub_worst, res / (1.0 + scale))
                assert res <= 1e-10 * (1.0 + scale), f"(p, q) = ({p}, {q}): excess {res:.3e}"

    # norm inclusion with the mass-normalized constant
    spec6 = make_group([6], [2])
    rng = np.random.default_rng(2)
    pairs = [((0.5, 0.5), (1.0, 1.0)), ((1.0, 1.0), (2.0, 2.0)),
             ((0.5, 2.0), (2.0, 2.0)), ((1.0, 2.0), (math.inf, math.inf))]
    for _ in range(200):
        f = rand_signal(spec6, rng)
        for e1, e2 in pairs:
            bound = inclusion_bound(spec6, e1, e2)
            ratio = inclusion_ratio(modulation_norm(f, e1), modulation_norm(f, e2))
            assert ratio <= bound * (1.0 + 1e-10), \
                f"{e1} -> {e2}: ratio {ratio:.6f} above bound {bound:.6f}"

    # convolution relation constants stay finite and stable
    summary, _ = run_convrel(make_group([6], [3]), seed=0, trials=200)
    assert not summary["failures"]
    spreads = summary["spreads"]
    assert all(np.isfinite(v) and v <= 10.0 for v in spreads.values()), spreads
    print(f"inequalities: young 0 violations, subadditivity excess {sub_worst:.2e}, "
          f"inclusion 0 violations, constant spreads {max(spreads.values()):.2f}")


def test_localized_state_outranks_haar_baseline(decay_report):
    summary, elapsed = decay_report
    assert elapsed < 300.0, f"decay experiment took {elapsed:.0f}s"
    report = summary["localization"]
    top_percentile = report["percentiles"][0]
    assert top_percentile <= 5.0, (
        f"top eigenfunction ranked at percentile {top_percentile} of the Haar baseline"
    )
    print(f"localization: top eigenvalue {report['eigenvalues'][0]:.6f}, "
          f"percentile {top_percentile}, elapsed {elapsed:.0f}s")


def test_haar_control_percentiles_are_central(decay_report):
    summary, _ = decay_report
    controls = summary["controls"]
    inside = [c for c in controls if 20.0 <= c["percentile"] <= 80.0]
    detail = {c["seed"]: c["percentile"] for c in controls}
    # The top eigenvector of a Haar-invariant random Hermitian matrix is
    # itself Haar-distributed, exactly like the baseline draws, so its
    # percentile is uniform on [0, 100] and each seed lands in [20, 80]
    # with probability 0.6.  Demanding 8 of 10 therefore fails for most
    # seed sets; this run is one of them, and the requirement is recorded
    # here as stated rather than weakened.
    assert len(inside) >= 8, (
        f"only {len(inside)}/10 control seeds ranked inside [20, 80]: {detail}"
    )


def test_representative_choice_never_matters():
    # the coset-representative-independence trial, six per subgroup
    spec_variants = [make_group([8], [d]) for d in (1, 2, 4, 8)]
    rng = np.random.default_rng(3)
    for spec in spec_variants:
        for _ in range(6):
            assert _representative_independence_residual(spec, rng) == 0.0
    print("representative independence: exact zero for 4 subgroups x 6 signals")


@pytest.mark.parametrize("experiment,extra", [
    ("identities", {"trials": 5}),
    ("norms", {"trials": 10}),
    ("young", {"trials": 10}),
    ("frames", {"trials": 10}),
    ("decay", {"trials": 25, "group": {"factors": [8], "subgroup_divisors": [2]},
               "top_k": 1, "control_seeds": [0, 1]}),
    ("convrel", {"trials": 10}),
    ("locop", {"trials": 5}),
])
def test_artifacts_are_reproducible(tmp_path, capsys, experiment, extra):
    outputs = []
    for run in ("a", "b"):
        cfg = {
            "experiment": experiment,
            "group": {"factors": [6], "subgroup_divisors": [3]},
            "seed": 7,
            "output_dir": str(tmp_path / run),
        }
        cfg.update(extra)
        path = tmp_path / f"{experiment}_{run}.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path)])
        assert code in (0, 2)
        files = {}
        root = tmp_path / run
        for name in sorted(os.listdir(root)):
            files[name] = (root / name).read_bytes()
        outputs.append(files)
    assert outputs[0].keys() == outputs[1].keys() and outputs[0]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between identical runs"
