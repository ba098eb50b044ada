"""Integration tests: the command-line interface."""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.cli.main import build_parser, main
from repro.physics.deck import (CROOKED_PIPE_DECK, deck_solver_options,
                                parse_deck_text)
from repro.solvers import SolverOptions


@pytest.fixture
def deck_file(tmp_path):
    p = tmp_path / "tea.in"
    p.write_text(CROOKED_PIPE_DECK.format(n=24))
    return p


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "fig5"])
        assert args.name == "fig5"
        args = parser.parse_args(["tealeaf", "--deck", "x.in", "--ranks", "2"])
        assert args.ranks == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTealeafCommand:
    def test_runs_deck(self, deck_file, capsys):
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "24x24 mesh" in out
        assert "step    2" in out

    def test_show_and_out(self, deck_file, tmp_path, capsys):
        out_npy = tmp_path / "T.npy"
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "1",
                   "--show", "--width", "24", "--out", str(out_npy)])
        assert rc == 0
        field = np.load(out_npy)
        assert field.shape == (24, 24)

    def test_multirank(self, deck_file, capsys):
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "1",
                   "--ranks", "2"])
        assert rc == 0
        assert "2 rank(s)" in capsys.readouterr().out


class TestFigureCommand:
    def test_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Titan" in out and "Spruce" in out

    def test_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "PPCG - 16" in out
        assert "8192" in out


class TestSolveCommand:
    def test_solve_deck(self, deck_file, capsys):
        rc = main(["solve", "--deck", str(deck_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "reductions=" in out

    def test_solver_override(self, deck_file, capsys):
        rc = main(["solve", "--deck", str(deck_file), "--solver", "cg",
                   "--ranks", "2"])
        assert rc == 0
        assert "cg: converged" in capsys.readouterr().out

    def test_halo_depth_override(self, deck_file, capsys):
        rc = main(["solve", "--deck", str(deck_file), "--solver", "ppcg",
                   "--halo-depth", "4"])
        assert rc == 0

    def test_vtk_output(self, deck_file, tmp_path, capsys):
        out_vtk = tmp_path / "state.vtk"
        rc = main(["tealeaf", "--deck", str(deck_file), "--steps", "1",
                   "--vtk", str(out_vtk)])
        assert rc == 0
        from repro.io.vtk import read_vtk
        shape, fields = read_vtk(out_vtk)
        assert shape == (24, 24)
        assert "density" in fields


#: A CG deck setting keys that a hand-written options mapping can drop.
OPTIONS_DECK = (CROOKED_PIPE_DECK.format(n=12)
                .replace("use_ppcg", "use_cg")
                .replace("*endtea", "tl_eigen_warmup_iters=7\n"
                         "tl_abft_interval=5\ntl_replace_interval=9\n*endtea"))


@pytest.mark.parametrize("command, target, flags, given", [
    ("tealeaf", "repro.physics.simulation.run_simulation", [], {}),
    ("tealeaf", "repro.physics.simulation.run_simulation",
     ["--comm-timeout", "2.5"], {"comm_timeout": 2.5}),
    ("solve", "repro.solvers.solve_linear", [], {}),
    ("solve", "repro.solvers.solve_linear",
     ["--dtype", "float32", "--halo-depth", "2"],
     {"dtype": "float32", "halo_depth": 2}),
    ("trace", "repro.observe.traced_solve", [], {}),
    ("trace", "repro.observe.traced_solve", ["--halo-depth", "2"],
     {"halo_depth": 2}),
], ids=["tealeaf", "tealeaf-flag", "solve", "solve-flags", "trace",
        "trace-flag"])
def test_commands_solve_with_the_decks_options(command, target, flags, given,
                                               tmp_path, monkeypatch):
    """Every deck-driven command hands the solver the deck's own options,
    with only the flags the user gave on top."""
    deck = tmp_path / "tea.in"
    deck.write_text(OPTIONS_DECK)
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    seen = []

    def spy(*args, **kwargs):
        seen.extend(a for a in (*args, *kwargs.values())
                    if isinstance(a, SolverOptions))
        return real(*args, **kwargs)

    monkeypatch.setattr(target, spy)
    argv = [command, "--deck", str(deck), *flags]
    if command == "tealeaf":
        argv += ["--steps", "1"]
    if command == "trace":
        argv += ["--out", str(tmp_path / "trace")]
    main(argv)
    expected = dataclasses.replace(
        deck_solver_options(parse_deck_text(OPTIONS_DECK)), **given)
    assert seen and all(o == expected for o in seen)


class TestReportCommand:
    def test_writes_files(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "res")]) == 0
        out = capsys.readouterr().out
        assert "fig7.csv" in out
        assert (tmp_path / "res" / "fig5.csv").exists()
