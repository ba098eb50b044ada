"""Self-tests of the benchmark: span arithmetic, its manifest, exact counts.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The exact-count tests run each workload's traced mode twice (about two
minutes in all on a 2-core host).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metrics import END_TO_END, EXACT, PER_LAYER, WORKLOADS
from spans import SpanTable, SpanTracer

ROOT = Path(__file__).resolve().parents[2]
RUN = ["perfbench/run.py"]


def _table(rows, names):
    """A SpanTable from ``(id, parent, name, t0, t1)`` rows."""
    ids = {n: i for i, n in enumerate(names)}
    data = np.array([(sid, parent, ids[name], t0, t1, 0.0)
                     for sid, parent, name, t0, t1 in rows], dtype=float)
    return SpanTable(data, {i: n for n, i in ids.items()}, {})


def test_self_time_subtracts_nested_children():
    table = _table([
        (0, -1, "solvers.solve", 0.0, 10.0),
        (1, 0, "kernels.apply_dot", 1.0, 4.0),
        (2, 1, "kernels.stencil_apply", 1.5, 3.5),
        (3, 0, "comm.allreduce", 5.0, 6.0),
    ], ["solvers.solve", "kernels.apply_dot", "kernels.stencil_apply",
        "comm.allreduce"])
    assert table.self_s("solvers.") == pytest.approx(6.0)
    assert table.self_s("kernels.apply_dot") == pytest.approx(1.0)
    assert table.self_s("kernels.stencil_apply") == pytest.approx(2.0)
    assert table.self_s("kernels.") == pytest.approx(3.0)
    # busy-time summing would have counted the nested stencil twice
    assert table.duration_s("kernels.") == pytest.approx(5.0)


def test_launch_covers_overlapping_rank_bodies_once():
    table = _table([
        (0, -1, "comm.launch", 0.0, 10.0),
        (1, 0, "other.rank", 1.0, 8.0),
        (2, 0, "other.rank", 2.0, 9.0),
    ], ["comm.launch", "other.rank"])
    assert table.self_s("comm.launch") == pytest.approx(2.0)


def test_rank_thread_spans_are_parented_to_the_launch_and_share_its_key():
    import threading
    tracer = SpanTracer()
    with tracer.span("service.request", key="req-7"):
        with tracer.span("comm.launch") as launch:
            def body():
                with tracer.span("other.rank", parent=launch):
                    with tracer.span("kernels.dot"):
                        pass
            threads = [threading.Thread(target=body) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    table = tracer.table()
    ranks = table.ids_of("other.rank")
    assert len(ranks) == 2
    assert set(table.parent[ranks]) == set(table.ids_of("comm.launch"))
    assert set(table.trace_keys()) == {"req-7"}


def test_manifest_matches_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in manifest["workloads"]] == \
        [name for name, _ in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(PER_LAYER)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_counts_repeat_exactly(workload):
    """Every count repeats across two same-seed runs, and between the
    untraced and traced units inside each run (printed as findings)."""
    results = []
    for _ in range(2):
        proc = _run(workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        findings = [line for line in lines if line.startswith("finding")]
        assert not findings, findings
        result = json.loads(lines[-1])
        assert result["correct"], lines
        counts = {k: v["value"] for k, v in result["metrics"].items()
                  if k in EXACT}
        counts["statuses"] = [line for line in lines
                              if line.startswith("statuses")]
        results.append(counts)
    assert results[0] == results[1]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("pipe_2rank", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
