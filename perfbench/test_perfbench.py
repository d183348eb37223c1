"""Self-test of the benchmark: tiny runs of every workload, the metric names
and units against BENCHMARK.json, the correctness gate, and the refusal to
run without the sources.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads as bench_workloads  # noqa: E402
import sqtkit  # noqa: E402

TINY = dict(seed=5, seconds=0.2, scale=0.02)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {w["name"]: w["why"] for w in spec["workloads"]})


def test_declared_metrics_match_the_runner():
    e2e, layers, workloads = declared()
    assert e2e == bench.END_TO_END
    assert layers == bench.PER_LAYER
    assert list(workloads) == ["sweep3", "wide", "cli"]
    assert workloads == bench_workloads.WHY


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep3", "wide", "cli"])
def test_tiny_run_emits_every_metric(workload, trace):
    meta, detail, result = bench.run(workload, trace=trace, **TINY)
    assert result["correct"], meta["unexpected_failures"]
    assert result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    # the known defects are counted, not filtered out
    assert result["failed"] == sum(meta["known_defect_failures"].values()) > 0
    assert meta["inputs"]["why"]
    json.dumps([meta, detail, result])


def _off_by(fn, delta):
    def wrong(*args, **kwargs):
        return fn(*args, **kwargs) + delta
    return wrong


def _table_off(fn):
    def wrong(info, form):
        rows = fn(info, form)
        first = rows[0]
        return [type(first)(r.outcome, r.prob, r.bob_state, r.correction, r.fidelity + 1e-6)
                for r in rows]
    return wrong


@pytest.mark.parametrize("attr, make, fragment", [
    ("concurrence_via_density", lambda f: _off_by(f, 1e-6), "concurrence routes differ"),
    ("outcome_table", _table_off, "run_teleport vs outcome_table"),
])
def test_gate_counts_an_injected_wrong_result(monkeypatch, attr, make, fragment):
    monkeypatch.setattr(sqtkit, attr, make(getattr(sqtkit, attr)))
    meta, _, result = bench.run("sweep3", trace=0, **TINY)
    known = sum(meta["known_defect_failures"].values())
    assert not result["correct"]
    assert result["failed"] > known
    assert any(fragment in msg for msg in meta["unexpected_failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep3", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
