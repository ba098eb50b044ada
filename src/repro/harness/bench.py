"""Pinned kernel + whole-solver microbenchmark suite (the perf ledger).

Every "faster" claim in this repository is measured here, not asserted.
The suite times

- each :mod:`repro.kernels` kernel per **backend x dtype x grid size**
  (cells/s and the modelled bytes moved), and
- whole solver configurations per backend at a pinned mesh size and
  iteration count,

and writes a ``BENCH_<n>.json`` ledger (schema ``repro.bench/v1``,
``sort_keys`` JSON).  Invoked as ``repro bench`` / ``make bench``; the CI
``bench`` job uploads the ledger artifact.

Determinism contract (held by ``tests/test_bench.py``): every non-timing
field — schema, configuration, case list and ordering, cell counts,
modelled bytes, solver iteration counts — is byte-identical across two
same-config runs.  Wall-clock measurements are machine noise by nature,
so they are isolated under each case's ``"timing"`` sub-dict, which
:func:`static_view` strips.

Timing methodology: ``time.perf_counter`` (monotonic, independent of the
resilience stack's virtual clocks), ``warmup`` untimed calls to settle
caches/allocator, then ``repeats`` timed calls with the **minimum**
reported (the standard best-case estimator for cache-resident
microbenchmarks; all samples are kept in the ledger).  Solver cases pin
their iteration count by running with an unreachable tolerance, so every
backend executes the identical iteration sequence.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.harness.ledger import write_ledger
from repro.kernels import (
    KERNEL_STREAMS,
    available_backends,
    backend_status,
    get_backend,
)

SCHEMA = "repro.bench/v1"

#: Kernel-suite grid sizes (cells = n*n).  The large grid exceeds L2 by a
#: wide margin so cache blocking has something to win.
GRIDS = (256, 512)
QUICK_GRIDS = (96,)

DTYPES = ("float32", "float64")

#: Whole-solver cases: (solver name, pinned outer iterations).
SOLVER_CASES = (
    ("cg", 30),
    ("cg_fused", 30),
    ("jacobi", 60),
    ("ppcg", 8),
)
SOLVER_N = 96
#: Unreachably small tolerance: the solve always runs its full iteration
#: budget, so the executed sequence is identical for every backend.
EPS_NEVER = 1e-30


def _time_calls(fn, warmup: int, repeats: int) -> list[float]:
    """Wall times of ``repeats`` calls after ``warmup`` untimed ones."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def _timing(samples: list[float], cells: int, nbytes: int) -> dict:
    best = min(samples)
    return {
        "wall_s_min": best,
        "wall_s_all": samples,
        "cells_per_s": cells / best if best > 0 else 0.0,
        "gb_per_s": nbytes / best / 1e9 if best > 0 else 0.0,
    }


def _kernel_system(n: int, dtype: str, halo: int = 1):
    """Deterministic padded arrays for the kernel-level cases."""
    rng = np.random.default_rng(20170905)
    dt = np.dtype(dtype)
    kx = np.zeros((n + 2 * halo, n + 2 * halo + 1), dtype=dt)
    ky = np.zeros((n + 2 * halo + 1, n + 2 * halo), dtype=dt)
    kx[halo:halo + n, halo + 1:halo + n] = rng.uniform(
        0.1, 2.0, size=(n, n - 1))
    ky[halo + 1:halo + n, halo:halo + n] = rng.uniform(
        0.1, 2.0, size=(n - 1, n))
    p = rng.standard_normal((n + 2 * halo, n + 2 * halo)).astype(dt)
    y = rng.standard_normal((n + 2 * halo, n + 2 * halo)).astype(dt)
    bounds = (halo, halo + n, halo, halo + n)
    return kx, ky, p, y, bounds


def _bench_kernels(backends, grids, dtypes, warmup, repeats) -> list[dict]:
    cases = []
    for n in grids:
        for dtype in dtypes:
            kx, ky, p, y, (r0, r1, c0, c1) = _kernel_system(n, dtype)
            cells = n * n
            itemsize = np.dtype(dtype).itemsize
            for name in backends:
                k = get_backend(name)
                out = np.zeros_like(p)
                ywork = y.copy()
                a_int = p[r0:r1, c0:c1]
                b_int = y[r0:r1, c0:c1]

                def reset_y():
                    ywork[...] = y

                kernel_calls = {
                    "stencil_apply": lambda: k.stencil_apply(
                        kx, ky, p, out, r0, r1, c0, c1),
                    "apply_dot": lambda: k.apply_dot(
                        kx, ky, p, out, r0, r1, c0, c1),
                    # stencil + axpy + dot chain: the Kronbichler-style
                    # fusion target.  y is reset outside the timed region
                    # would skew; instead alpha=0 keeps y bounded while
                    # streaming the identical traffic.
                    "apply_axpy_dot": lambda: k.apply_axpy_dot(
                        kx, ky, p, out, ywork, 0.0, r0, r1, c0, c1),
                    "dot": lambda: k.dot(a_int, b_int),
                    "axpy": lambda: k.axpy(ywork[r0:r1, c0:c1], 0.0, a_int),
                    "pack_halo": lambda: k.pack_halo(
                        p, slice(r0, r1), slice(c0, c0 + 1)),
                }
                for kernel, fn in kernel_calls.items():
                    reset_y()
                    kcells = (r1 - r0) if kernel == "pack_halo" else cells
                    nbytes = KERNEL_STREAMS[kernel] * kcells * itemsize
                    samples = _time_calls(fn, warmup, repeats)
                    cases.append({
                        "kind": "kernel",
                        "kernel": kernel,
                        "backend": name,
                        "dtype": dtype,
                        "n": n,
                        "cells": kcells,
                        "streams": KERNEL_STREAMS[kernel],
                        "bytes_moved": nbytes,
                        "timing": _timing(samples, kcells, nbytes),
                    })
    return cases


def _bench_solvers(backends, n, warmup, repeats) -> list[dict]:
    from repro.solvers import SolverOptions, solve_linear
    from repro.testing import crooked_pipe_system, serial_operator

    cases = []
    grid, kxg, kyg, bg = crooked_pipe_system(n)
    for solver, iters in SOLVER_CASES:
        for name in backends:
            opt = SolverOptions(solver=solver, eps=EPS_NEVER, max_iters=iters,
                                kernel_backend=name)
            op = serial_operator(grid, kxg, kyg,
                                 halo=opt.required_field_halo)
            from repro.mesh import Field
            b = Field.from_global(op.tile, opt.required_field_halo, bg)

            def run():
                return solve_linear(op, b, options=opt)

            result = run()  # deterministic fields come from this run
            samples = _time_calls(run, warmup, repeats)
            best = min(samples)
            total_cells = n * n * max(1, result.iterations)
            cases.append({
                "kind": "solver",
                "solver": solver,
                "backend": name,
                "dtype": "float64",
                "n": n,
                "iterations": result.iterations,
                "inner_iterations": result.inner_iterations,
                "converged": result.converged,
                "timing": {
                    "wall_s_min": best,
                    "wall_s_all": samples,
                    "iters_per_s": (max(1, result.iterations) / best
                                    if best > 0 else 0.0),
                    "cells_per_s": total_cells / best if best > 0 else 0.0,
                },
            })
    return cases


def run_bench(*, repeats: int = 5, warmup: int = 2, quick: bool = False,
              backends=None, grids=None, dtypes=None,
              solver_n: int = SOLVER_N, solver_repeats: int | None = None,
              ) -> dict:
    """Run the pinned suite and return the ledger dict."""
    if backends is None:
        backends = list(available_backends())
    grids = list(grids if grids is not None
                 else (QUICK_GRIDS if quick else GRIDS))
    dtypes = list(dtypes if dtypes is not None else DTYPES)
    if solver_repeats is None:
        solver_repeats = min(3, repeats)
    kernel_cases = _bench_kernels(backends, grids, dtypes, warmup, repeats)
    solver_cases = _bench_solvers(backends, solver_n, 1, solver_repeats)
    return {
        "schema": SCHEMA,
        "config": {
            "repeats": repeats,
            "warmup": warmup,
            "quick": quick,
            "grids": grids,
            "dtypes": dtypes,
            "backends": list(backends),
            "solver_n": solver_n,
            "solver_repeats": solver_repeats,
            "solver_cases": [list(c) for c in SOLVER_CASES],
            "eps": EPS_NEVER,
        },
        "backend_status": backend_status(),
        "cases": kernel_cases + solver_cases,
    }


def static_view(ledger: dict) -> dict:
    """The ledger with every ``"timing"`` sub-dict removed.

    What remains is the deterministic skeleton two same-config runs must
    agree on byte for byte.
    """
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "timing"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    return strip(ledger)


def to_json(ledger: dict) -> str:
    return json.dumps(ledger, indent=2, sort_keys=True)


def render(ledger: dict) -> str:
    """Human-readable ledger table (kernel section groups by grid)."""
    lines = [f"== bench: schema={ledger['schema']} "
             f"backends={','.join(ledger['config']['backends'])} =="]
    lines.append(f"  {'case':<34} {'dtype':<8} {'n':>5} "
                 f"{'wall_ms':>9} {'Mcells/s':>9} {'GB/s':>6}")
    for c in ledger["cases"]:
        label = (f"{c['kernel']}[{c['backend']}]" if c["kind"] == "kernel"
                 else f"solve:{c['solver']}[{c['backend']}]")
        t = c["timing"]
        gbs = t.get("gb_per_s", 0.0)
        lines.append(
            f"  {label:<34} {c['dtype']:<8} {c['n']:>5} "
            f"{t['wall_s_min'] * 1e3:>9.3f} "
            f"{t['cells_per_s'] / 1e6:>9.2f} {gbs:>6.2f}")
    return "\n".join(lines)


def fused_speedups(ledger: dict, kernel: str = "apply_axpy_dot") -> dict:
    """Measured fused-over-numpy cells/s ratios per (dtype, n)."""
    rates: dict = {}
    for c in ledger["cases"]:
        if c["kind"] == "kernel" and c["kernel"] == kernel:
            rates.setdefault((c["dtype"], c["n"]), {})[c["backend"]] = \
                c["timing"]["cells_per_s"]
    return {f"{dtype}/n={n}": r["fused"] / r["numpy"]
            for (dtype, n), r in sorted(rates.items())
            if "fused" in r and "numpy" in r and r["numpy"] > 0}


def case_key(case: dict) -> tuple:
    """Identity of a case across ledgers (timing-independent fields)."""
    return (case["kind"], case.get("kernel") or case.get("solver"),
            case["backend"], case["dtype"], case["n"])


def compare_ledgers(old: dict, new: dict,
                    threshold: float = 1.25) -> dict:
    """Diff two ledgers' best wall times; flag regressions over threshold.

    A case regresses when ``new_wall_s_min > old_wall_s_min * threshold``
    (the default tolerates 25% machine noise — raise it on shared CI
    runners).  Cases present in only one ledger are reported but do not
    fail the comparison; a changed case *list* is a suite change, not a
    perf regression.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    old_cases = {case_key(c): c for c in old["cases"]}
    new_cases = {case_key(c): c for c in new["cases"]}
    rows = []
    regressions = []
    for key in sorted(old_cases.keys() & new_cases.keys()):
        t_old = old_cases[key]["timing"]["wall_s_min"]
        t_new = new_cases[key]["timing"]["wall_s_min"]
        ratio = (t_new / t_old) if t_old > 0 else float("inf")
        row = {"key": list(key), "old_wall_s": t_old, "new_wall_s": t_new,
               "ratio": ratio, "regressed": ratio > threshold}
        rows.append(row)
        if row["regressed"]:
            regressions.append(row)
    return {
        "threshold": threshold,
        "compared": len(rows),
        "only_old": sorted(map(list, old_cases.keys() - new_cases.keys())),
        "only_new": sorted(map(list, new_cases.keys() - old_cases.keys())),
        "rows": rows,
        "regressions": regressions,
        "passed": not regressions,
    }


def render_comparison(report: dict) -> str:
    """Human-readable regression table."""
    lines = [f"== bench compare: {report['compared']} cases, "
             f"threshold {report['threshold']:.2f}x =="]
    lines.append(f"  {'case':<44} {'old_ms':>9} {'new_ms':>9} {'ratio':>7}")
    for row in report["rows"]:
        kind, name, backend, dtype, n = row["key"]
        label = f"{name}[{backend}] {dtype} n={n}"
        mark = "  REGRESSED" if row["regressed"] else ""
        lines.append(
            f"  {label:<44} {row['old_wall_s'] * 1e3:>9.3f} "
            f"{row['new_wall_s'] * 1e3:>9.3f} {row['ratio']:>6.2f}x{mark}")
    for key in report["only_old"]:
        lines.append(f"  only in old ledger: {key}")
    for key in report["only_new"]:
        lines.append(f"  only in new ledger: {key}")
    lines.append(f"  {'PASS' if report['passed'] else 'FAIL'}: "
                 f"{len(report['regressions'])} regression(s)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="pinned kernel + solver microbenchmarks -> BENCH_<n>.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two existing ledgers instead of "
                             "running the suite; exits 1 on regression")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="wall-time ratio above which a compared case "
                             "counts as a regression (default 1.25)")
    parser.add_argument("--out", default="results/bench")
    parser.add_argument("--pr", type=int, default=None,
                        help="ledger index (default: next free slot)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--quick", action="store_true",
                        help="smallest grid only (CI smoke)")
    parser.add_argument("--backends", default="",
                        help="comma-separated subset (default: all available)")
    args = parser.parse_args(argv)

    if args.compare:
        old_path, new_path = args.compare
        old = json.loads(Path(old_path).read_text(encoding="utf-8"))
        new = json.loads(Path(new_path).read_text(encoding="utf-8"))
        report = compare_ledgers(old, new, threshold=args.threshold)
        print(render_comparison(report))
        return 0 if report["passed"] else 1

    backends = ([s for s in args.backends.split(",") if s]
                if args.backends else None)
    ledger = run_bench(repeats=args.repeats, warmup=args.warmup,
                       quick=args.quick, backends=backends)
    path = write_ledger(args.out, "BENCH", to_json(ledger), index=args.pr)
    print(render(ledger))
    for label, ratio in fused_speedups(ledger).items():
        print(f"  fused/numpy apply_axpy_dot {label}: {ratio:.2f}x")
    print(f"ledger written to {path}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
