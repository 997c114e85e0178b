"""Tests of the benchmark itself: its metric names, its output checks
and its seeded inputs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (check_close_to_twin, check_fit,  # noqa: E402
                    check_nearest, check_twin)
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, blobs, make_inputs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    """The benchmark's own entry point, on short stream sessions."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import workloads; workloads.SESSION_PAIRS = 8; import run; "
            "run.SETUP_PROBES = 2; "
            "sys.exit(run.main(['--workload', 'stream_mixed', '--seed', '3', "
            f"'--seconds', '0.3', '--trace', '{trace}']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=170, cwd=HERE.parent)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _run(trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_per_layer_table_matches_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _nearest_case():
    rng = np.random.default_rng(0)
    centres = rng.uniform(-5, 5, size=(8, 16)).astype(np.float32)
    x = (centres[rng.integers(0, 8, 4000)]
         + rng.normal(0, 1.0, size=(4000, 16))).astype(np.float32)
    d = ((x[:, None, :].astype(np.float64) - centres[None]) ** 2).sum(-1)
    return x, centres, d.argmin(1), float(d.min(1).sum())


def test_correct_output_passes_the_check():
    x, centres, labels, inertia = _nearest_case()
    assert check_nearest(x, centres, labels, inertia) is None


def test_perturbed_labels_fail_the_check():
    x, centres, labels, inertia = _nearest_case()
    wrong = labels.copy()
    wrong[:5] = (wrong[:5] + 1) % centres.shape[0]
    assert check_nearest(x, centres, wrong, inertia) is not None


def test_perturbed_inertia_fails_the_check():
    x, centres, labels, inertia = _nearest_case()
    assert check_nearest(x, centres, labels, inertia * 1.01) is not None


def _fit_case():
    """A converged Lloyd fit in float64: its labels, the centres of its
    last update and the inertia of its last assignment pass."""
    x, centres, labels, _ = _nearest_case()
    x64 = x.astype(np.float64)
    while True:
        new = np.stack([x64[labels == j].mean(axis=0) for j in range(8)])
        d = ((x64[:, None, :] - new[None]) ** 2).sum(-1)
        inertia = float(d[np.arange(labels.size), labels].sum())
        if np.array_equal(d.argmin(1), labels):
            return x, new, labels, inertia
        labels = d.argmin(1)


def test_converged_fit_passes_the_check():
    x, centres, labels, inertia = _fit_case()
    assert check_fit(x, centres, labels, inertia) is None


def test_perturbed_fit_fails_the_check():
    x, centres, labels, inertia = _fit_case()
    wrong = labels.copy()
    wrong[:5] = (wrong[:5] + 1) % centres.shape[0]
    assert check_fit(x, centres, wrong, inertia) is not None
    moved = centres.copy()
    moved[3] += 0.01
    assert check_fit(x, moved, labels, inertia) is not None
    assert check_fit(x, centres, labels, inertia * 0.99) is not None
    assert check_fit(x, centres, labels, inertia * 1.05) is not None


def test_perturbed_twin_output_fails_the_check():
    rng = np.random.default_rng(0)
    twin = SimpleNamespace(labels_=rng.integers(0, 8, 100),
                           cluster_centers_=rng.normal(size=(8, 4)),
                           inertia_=1.5)
    same = SimpleNamespace(labels_=twin.labels_.copy(),
                           cluster_centers_=twin.cluster_centers_.copy(),
                           inertia_=1.5)
    assert check_twin(same, twin) is None
    for attr, value in (("labels_", 8), ("cluster_centers_", 0.25)):
        other = SimpleNamespace(**vars(same))
        setattr(other, attr, getattr(same, attr).copy())
        getattr(other, attr)[7] = value
        assert check_twin(other, twin) is not None
    other = SimpleNamespace(**vars(same))
    other.inertia_ = 1.5000000000000002
    assert check_twin(other, twin) is not None


def test_injected_fit_far_from_its_clean_twin_fails_the_check():
    twin = np.arange(10_000, dtype=np.int64) % 64
    escaped = twin.copy()
    escaped[:5] += 1          # a few rows moved by escaped flips: accepted
    assert check_close_to_twin(escaped, 100.00001, twin, 100.0) is None
    wrong = twin.copy()
    wrong[:100] += 1          # 1% of the labels
    assert check_close_to_twin(wrong, 100.0, twin, 100.0) is not None
    assert check_close_to_twin(twin, 101.0, twin, 100.0) is not None


def test_seed_changes_the_data():
    assert np.array_equal(blobs(5000, 1), blobs(5000, 1))
    assert not np.array_equal(blobs(5000, 1), blobs(5000, 2))
    a = make_inputs(WORKLOADS["ft_inject"], 1)
    b = make_inputs(WORKLOADS["ft_inject"], 2)
    assert not np.array_equal(a.init, b.init)
    assert not np.array_equal(a.batches[0], b.batches[0])
