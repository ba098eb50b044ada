"""Chaos campaign driver: run, render and persist the recovery-SLO ledger.

Thin harness over :func:`repro.resilience.chaos.run_campaign`: runs a
pinned-seed campaign, renders the per-fault-class SLO table, and writes
the ledger as ``CHAOS_<n>.json`` into a results directory (``<n>`` is the
next free index, so successive campaigns never clobber each other's
ledgers).  Minimized fixtures for any oracle failure land next to the
ledger under ``fixtures/``.

Everything in the ledger derives from seeded draws and virtual clocks —
two runs at the same seed write byte-identical JSON (the CI ``chaos``
job and ``tests/test_chaos.py`` both hold that invariant).
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.ledger import write_ledger
from repro.resilience.chaos import (
    ChaosCampaignResult,
    run_campaign,
)


def render(result: ChaosCampaignResult) -> str:
    """Human-readable SLO ledger table."""
    lines = [f"== chaos campaign: seed={result.seed} n={result.n} "
             f"trials={len(result.results)} "
             f"solvers={','.join(result.solvers)} =="]
    lines.append(f"  {'class':<11} {'trials':>6} {'conv':>5} {'fail':>5} "
                 f"{'abort':>5} {'rate':>6} {'extra':>7} {'retries':>7} "
                 f"{'vtime_s':>8}")
    for cls, s in sorted(result.class_stats().items()):
        lines.append(
            f"  {cls:<11} {s['trials']:>6} {s['converged']:>5} "
            f"{s['failed']:>5} {s['aborted']:>5} "
            f"{s['recovery_rate']:>6.3f} {s['mean_extra_iterations']:>7.1f} "
            f"{s['retries']:>7} {s['virtual_time_s']:>8.3f}")
    for i, v in result.oracle_violations:
        lines.append(f"  ORACLE trial {i}: {v}")
    for v in result.budget_violations():
        lines.append(f"  BUDGET {v}")
    lines.append("  PASS" if result.passed else "  FAIL")
    return "\n".join(lines)


def run_chaos(seed: int = 20170905,
              trials: int = 200,
              *,
              n: int = 12,
              out_dir: Path | str = "results/chaos") -> tuple[
                  ChaosCampaignResult, Path]:
    """Run one campaign and persist its ledger + fixtures under ``out_dir``."""
    out = Path(out_dir)
    result = run_campaign(seed, trials, n=n, fixtures_dir=out / "fixtures")
    return result, write_ledger(out, "CHAOS", result.to_json())


def main(argv: list[str] | None = None) -> int:
    """Run a campaign; exit 1 on any oracle or budget violation."""
    import argparse

    parser = argparse.ArgumentParser(
        description="chaos campaign: randomized fault storms vs the "
                    "composed resilient stack")
    parser.add_argument("--seed", type=int, default=20170905)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--n", type=int, default=12, help="mesh size")
    parser.add_argument("--out", default="results/chaos",
                        help="directory for CHAOS_<n>.json + fixtures/")
    args = parser.parse_args(argv)
    result, path = run_chaos(args.seed, args.trials, n=args.n,
                             out_dir=args.out)
    print(render(result))
    print(f"ledger written to {path}")
    return result.exit_code


if __name__ == "__main__":
    import sys
    sys.exit(main())
