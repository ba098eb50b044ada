"""The perf ledger's determinism contract (``repro.harness.bench``).

Two same-config runs must agree byte for byte on every non-timing field;
wall-clock measurements are machine noise and are only checked for shape,
type and positivity.  Ledger naming, schema and the CLI wiring ride along.
"""

import json

import pytest

from repro.harness import bench
from repro.harness.ledger import next_ledger_path, write_ledger
from repro.kernels import available_backends

#: Tiny configuration: every backend, one small grid, pinned short solves.
TINY = dict(repeats=2, warmup=0, grids=[12], dtypes=["float64"],
            solver_n=24, solver_repeats=1)


@pytest.fixture(scope="module")
def ledgers():
    return [bench.run_bench(**TINY) for _ in range(2)]


class TestDeterminism:
    def test_static_view_byte_identical_across_runs(self, ledgers):
        views = [bench.to_json(bench.static_view(lg)) for lg in ledgers]
        assert views[0] == views[1]

    def test_static_view_strips_every_timing_dict(self, ledgers):
        assert "timing" not in bench.to_json(bench.static_view(ledgers[0]))

    def test_ledger_shape(self, ledgers):
        lg = ledgers[0]
        assert lg["schema"] == "repro.bench/v1"
        assert lg["config"]["backends"] == list(available_backends())
        assert set(lg["backend_status"]) >= set(lg["config"]["backends"])
        kinds = {c["kind"] for c in lg["cases"]}
        assert kinds == {"kernel", "solver"}
        kernels = {c["kernel"] for c in lg["cases"] if c["kind"] == "kernel"}
        assert {"stencil_apply", "apply_dot", "apply_axpy_dot",
                "dot", "axpy", "pack_halo"} == kernels
        solvers = {c["solver"] for c in lg["cases"] if c["kind"] == "solver"}
        assert solvers == {name for name, _ in bench.SOLVER_CASES}

    def test_timing_fields_are_sane(self, ledgers):
        for case in ledgers[0]["cases"]:
            t = case["timing"]
            assert isinstance(t["wall_s_min"], float) and t["wall_s_min"] > 0
            assert isinstance(t["wall_s_all"], list)
            assert all(isinstance(s, float) and s > 0
                       for s in t["wall_s_all"])
            assert t["wall_s_min"] == min(t["wall_s_all"])
            assert t["cells_per_s"] > 0

    def test_kernel_cases_model_bytes_moved(self, ledgers):
        for case in ledgers[0]["cases"]:
            if case["kind"] != "kernel":
                continue
            itemsize = 8 if case["dtype"] == "float64" else 4
            assert case["bytes_moved"] == \
                case["streams"] * case["cells"] * itemsize

    def test_solver_iterations_pinned(self, ledgers):
        # eps is unreachable, so every backend runs the full budget and
        # the iteration counts (non-timing fields) are deterministic.
        budgets = dict(bench.SOLVER_CASES)
        for case in ledgers[0]["cases"]:
            if case["kind"] != "solver":
                continue
            assert not case["converged"]
            assert case["iterations"] == budgets[case["solver"]]

    def test_json_is_sorted_and_parseable(self, ledgers):
        text = bench.to_json(ledgers[0])
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True)


class TestLedgerFiles:
    def test_next_ledger_path_scans_free_slot(self, tmp_path):
        assert next_ledger_path(tmp_path, "BENCH").name == "BENCH_0.json"
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        assert next_ledger_path(tmp_path, "BENCH").name == "BENCH_8.json"

    def test_write_ledger_pins_explicit_index(self, tmp_path, ledgers):
        path = write_ledger(tmp_path, "BENCH", bench.to_json(ledgers[0]),
                            index=8)
        assert path.name == "BENCH_8.json"
        assert json.loads(path.read_text())["schema"] == "repro.bench/v1"

    def test_committed_ledger_meets_acceptance(self):
        """The repo's BENCH_8.json shows fused beating numpy on the
        stencil+axpy+dot chain at the cache-exceeding grid."""
        from pathlib import Path
        ledger = json.loads(Path("BENCH_8.json").read_text())
        assert ledger["schema"] == "repro.bench/v1"
        speedups = bench.fused_speedups(ledger, kernel="apply_axpy_dot")
        big = max(n for _, n in
                  [(d, c["n"]) for c in ledger["cases"]
                   for d in [c["dtype"]] if c["kind"] == "kernel"])
        at_big = {k: v for k, v in speedups.items() if k.endswith(str(big))}
        assert at_big and all(v > 1.0 for v in at_big.values()), speedups


class TestRenderAndCli:
    def test_render_lists_every_case(self, ledgers):
        out = bench.render(ledgers[0])
        assert "schema=repro.bench/v1" in out
        assert len(out.splitlines()) == 2 + len(ledgers[0]["cases"])

    def test_fused_speedups_reads_ledger(self, ledgers):
        speedups = bench.fused_speedups(ledgers[0])
        if "fused" in available_backends():
            assert set(speedups) == {"float64/n=12"}
            assert all(v > 0 for v in speedups.values())

    def test_cli_writes_ledger(self, tmp_path, capsys):
        rc = bench.main(["--out", str(tmp_path), "--pr", "3",
                         "--repeats", "1", "--warmup", "0",
                         "--quick", "--backends", "numpy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ledger written to" in out
        data = json.loads((tmp_path / "BENCH_3.json").read_text())
        assert data["config"]["backends"] == ["numpy"]
        assert data["config"]["quick"] is True


class TestCompareLedgers:
    def _scale(self, ledger, factor, keys=()):
        """Copy with selected cases' wall_s_min scaled by factor."""
        import copy
        out = copy.deepcopy(ledger)
        for c in out["cases"]:
            if not keys or bench.case_key(c) in keys:
                c["timing"]["wall_s_min"] *= factor
        return out

    def test_identical_ledgers_pass(self, ledgers):
        report = bench.compare_ledgers(ledgers[0], ledgers[0],
                                       threshold=1.25)
        assert report["passed"] and report["compared"] > 0
        assert not report["only_old"] and not report["only_new"]
        assert all(r["ratio"] == pytest.approx(1.0) for r in report["rows"])

    def test_regression_detected_and_named(self, ledgers):
        slow_key = bench.case_key(ledgers[0]["cases"][0])
        slowed = self._scale(ledgers[0], 2.0, keys={slow_key})
        report = bench.compare_ledgers(ledgers[0], slowed, threshold=1.25)
        assert not report["passed"]
        assert [tuple(r["key"]) for r in report["regressions"]] == [slow_key]
        assert "REGRESSED" in bench.render_comparison(report)

    def test_speedup_is_not_a_regression(self, ledgers):
        faster = self._scale(ledgers[0], 0.5)
        report = bench.compare_ledgers(ledgers[0], faster, threshold=1.25)
        assert report["passed"]

    def test_threshold_tolerates_noise(self, ledgers):
        noisy = self._scale(ledgers[0], 1.2)
        assert bench.compare_ledgers(ledgers[0], noisy,
                                     threshold=1.25)["passed"]
        assert not bench.compare_ledgers(ledgers[0], noisy,
                                         threshold=1.1)["passed"]

    def test_disjoint_case_lists_report_but_pass(self, ledgers):
        import copy
        other = copy.deepcopy(ledgers[0])
        for c in other["cases"]:
            c["n"] += 1000
        report = bench.compare_ledgers(ledgers[0], other)
        assert report["compared"] == 0 and report["passed"]
        assert report["only_old"] and report["only_new"]

    def test_threshold_validation(self, ledgers):
        with pytest.raises(ValueError):
            bench.compare_ledgers(ledgers[0], ledgers[0], threshold=1.0)

    def test_cli_compare_exit_codes(self, tmp_path, ledgers, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(bench.to_json(ledgers[0]))
        new.write_text(bench.to_json(self._scale(ledgers[0], 3.0)))
        assert bench.main(["--compare", str(old), str(old)]) == 0
        assert bench.main(["--compare", str(old), str(new),
                           "--threshold", "1.5"]) == 1
        assert "FAIL" in capsys.readouterr().out
