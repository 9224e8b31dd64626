"""Smoke test of the benchmark itself, at tiny sizes.

Runs ``perfbench/run.py --tiny`` on a copy of the sources for every workload
in ``BENCHMARK.json``, untraced and traced, and checks that

- the last output line is the JSON result, with every metric the benchmark
  declares, each with its declared unit and a finite value;
- the output checks pass;
- every span's self time is non-negative, and the self times of the spans on
  the calling thread add up to the traced repetition's wall time within
  1 microsecond plus 1e-6 of it;
- without the library sources the command fails and prints no result.

Run with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_SUM_TOL_S = 1e-6
SELF_SUM_TOL_REL = 1e-6


def _copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, dest / rel, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _run(checkout: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _copy_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(checkout, workload, trace):
    proc = _run(checkout, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
        assert f"{workload} {m['name']} " in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_span_self_times_add_up(checkout, workload):
    sys.path.insert(0, str(HERE))
    from spans import Span, self_times

    proc = _run(checkout, workload, 1)
    assert proc.returncode == 0, proc.stderr
    by_rep = defaultdict(list)
    with open(checkout / "perfbench" / "out" / workload / "seed3-trace1" / "spans.jsonl") as fh:
        for line in fh:
            d = json.loads(line)
            span = Span(d["id"], d["name"], d["layer"], d["label"], d["thread"], d["start"],
                        d["end"], d["parent"], d["attrs"])
            by_rep[d["rep"]].append(span)
    assert by_rep
    for spans in by_rep.values():
        (root,) = [s for s in spans if s.name == "bench.rep"]
        selfs = self_times(spans)
        assert min(selfs.values()) >= -1e-9
        on_root = sum(selfs[s.sid] for s in spans if s.thread == root.thread)
        assert abs(on_root - root.duration) <= SELF_SUM_TOL_S + SELF_SUM_TOL_REL * root.duration


def test_fails_without_sources(tmp_path):
    bare = _copy_checkout(tmp_path, with_sources=False)
    proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
