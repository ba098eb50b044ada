"""Unit tests: input-deck parsing."""

import numpy as np
import pytest

from repro.physics import Conductivity, deck_system, parse_deck, parse_deck_text
from repro.physics.deck import CROOKED_PIPE_DECK, crooked_pipe_deck, deck_to_problem
from repro.testing import crooked_pipe_system
from repro.utils import ConfigurationError

MINIMAL = """
*tea
state 1 density=1.0 energy=2.0
x_cells=32
y_cells=16
use_cg
*endtea
"""


class TestParseDeck:
    def test_minimal(self):
        deck = parse_deck_text(MINIMAL)
        assert deck.x_cells == 32 and deck.y_cells == 16
        assert deck.solver == "cg"
        assert len(deck.states) == 1
        assert deck.states[0].density == 1.0

    def test_defaults(self):
        deck = parse_deck_text("*tea\nstate 1 density=1 energy=1\n*endtea")
        assert deck.solver == "cg"
        assert deck.tl_eps == 1e-10
        assert deck.initial_timestep == 0.04
        assert deck.tl_coefficient is Conductivity.RECIP_DENSITY

    def test_crooked_pipe_template(self):
        deck = crooked_pipe_deck(128)
        assert deck.x_cells == 128
        assert deck.solver == "ppcg"
        assert len(deck.states) == 5
        problem = deck_to_problem(deck)
        assert problem.regions[1].geometry == "rectangle"
        assert problem.regions[1].energy == 25.0

    @pytest.mark.parametrize("n", [4, 12, 24, 96])
    def test_crooked_pipe_deck_builds_the_testing_system(self, n):
        # Library callers build the pipe from the deck text, tests from
        # the crooked_pipe() ProblemSpec; pinned ledgers need both equal.
        grid, kxg, kyg, bg = deck_system(crooked_pipe_deck(n))
        ref_grid, ref_kxg, ref_kyg, ref_bg = crooked_pipe_system(n)
        assert grid == ref_grid
        np.testing.assert_array_equal(kxg, ref_kxg)
        np.testing.assert_array_equal(kyg, ref_kyg)
        np.testing.assert_array_equal(bg, ref_bg)

    def test_grid_and_steps_properties(self):
        deck = crooked_pipe_deck(64)
        assert deck.grid.nx == 64
        assert deck.n_steps == 375  # 15.0 / 0.04

    def test_comments_and_blank_lines(self):
        deck = parse_deck_text(
            "*tea\n! a comment\n# another\n\nstate 1 density=1 energy=1\n"
            "x_cells=8 ! trailing\n*endtea")
        assert deck.x_cells == 8

    def test_without_tea_wrapper(self):
        deck = parse_deck_text("state 1 density=1 energy=1\nx_cells=9")
        assert deck.x_cells == 9

    def test_content_outside_block_ignored(self):
        deck = parse_deck_text(
            "x_cells=99\n*tea\nstate 1 density=1 energy=1\nx_cells=7\n*endtea")
        assert deck.x_cells == 7

    @pytest.mark.parametrize("flag,solver", [
        ("use_jacobi", "jacobi"), ("tl_use_cg", "cg"),
        ("use_chebyshev", "chebyshev"), ("tl_use_ppcg", "ppcg"),
    ])
    def test_solver_flags(self, flag, solver):
        deck = parse_deck_text(f"*tea\nstate 1 density=1 energy=1\n{flag}\n*endtea")
        assert deck.solver == solver

    def test_preconditioner_names(self):
        deck = parse_deck_text(
            "*tea\nstate 1 density=1 energy=1\n"
            "tl_preconditioner_type=jac_block\n*endtea")
        assert deck.tl_preconditioner_type == "block_jacobi"

    def test_geometries(self):
        deck = parse_deck_text(
            "*tea\nstate 1 density=1 energy=1\n"
            "state 2 density=2 energy=2 geometry=circle xcentre=5 ycentre=5 radius=1\n"
            "state 3 density=3 energy=3 geometry=point xcentre=2 ycentre=2\n"
            "*endtea")
        assert deck.states[1].geometry == "circle"
        assert deck.states[2].geometry == "point"

    def test_parse_deck_file(self, tmp_path):
        p = tmp_path / "tea.in"
        p.write_text(CROOKED_PIPE_DECK.format(n=16))
        deck = parse_deck(p)
        assert deck.x_cells == 16


class TestParseErrors:
    def test_unknown_setting(self):
        with pytest.raises(ConfigurationError, match="unknown setting"):
            parse_deck_text("*tea\nnot_a_setting=1\n*endtea")

    def test_unknown_flag(self):
        with pytest.raises(ConfigurationError, match="unrecognised"):
            parse_deck_text("*tea\nuse_warp_drive\n*endtea")

    def test_bad_value(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_deck_text("*tea\nx_cells=lots\n*endtea")

    def test_state_missing_density(self):
        with pytest.raises(ConfigurationError, match="missing"):
            parse_deck_text("*tea\nstate 1 energy=1\n*endtea")

    def test_state_missing_geometry(self):
        with pytest.raises(ConfigurationError, match="geometry"):
            parse_deck_text(
                "*tea\nstate 1 density=1 energy=1\n"
                "state 2 density=1 energy=1\n*endtea")

    def test_state_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown state keys"):
            parse_deck_text("*tea\nstate 1 density=1 energy=1 colour=red\n*endtea")

    def test_noncontiguous_state_indices(self):
        with pytest.raises(ConfigurationError, match="1..N"):
            parse_deck_text(
                "*tea\nstate 1 density=1 energy=1\n"
                "state 3 density=1 energy=1 geometry=rectangle "
                "xmin=0 xmax=1 ymin=0 ymax=1\n*endtea")

    def test_bad_preconditioner(self):
        with pytest.raises(ConfigurationError, match="preconditioner"):
            parse_deck_text("*tea\ntl_preconditioner_type=ilu\n*endtea")

    def test_bad_coefficient(self):
        with pytest.raises(ConfigurationError, match="tl_coefficient"):
            parse_deck_text("*tea\ntl_coefficient=quantum\n*endtea")

    def test_malformed_state_line(self):
        with pytest.raises(ConfigurationError, match="malformed state"):
            parse_deck_text("*tea\nstate one density=1 energy=1\n*endtea")

    def test_deck_without_states_cannot_build_problem(self):
        deck = parse_deck_text("*tea\nx_cells=8\n*endtea")
        with pytest.raises(ConfigurationError, match="no states"):
            deck_to_problem(deck)


class TestDeckFuzz:
    """Seeded deck fuzzing: every mutation either parses or raises a
    structured :class:`ConfigurationError` naming the offending line —
    never a raw ``ValueError``/``KeyError``/``TypeError``."""

    MUTATIONS = (
        "tl_made_up_knob=1",                # unknown tl_ key
        "tl_eps=warm",                      # wrong type
        "tl_max_iters=12.5",                # int key, float value
        "use_cg",                           # duplicate solver flag
        "tl_eps=1e-8",                      # duplicate setting
        "x_cells",                          # no '=' and not a flag
        "state 1 density=1 density=2 energy=1",   # duplicate state key
        "tl_checkpoint_interval=-3",        # negative interval
        "= = =",                            # token soup
        "tl_eps=",                          # empty value
    )

    def test_seeded_mutations_fail_structurally(self):
        import random

        base = CROOKED_PIPE_DECK.format(n=8).replace("use_ppcg", "use_cg")
        for seed in range(40):
            rng = random.Random(seed)
            lines = base.splitlines()
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(1, len(lines) - 1)  # keep *tea/*endtea
                mutation = rng.choice(self.MUTATIONS)
                if rng.random() < 0.5:
                    lines.insert(pos, mutation)
                else:
                    lines[pos] = mutation
            text = "\n".join(lines) + "\n"
            try:
                parse_deck_text(text)
            except ConfigurationError as exc:
                assert "line " in str(exc), (seed, exc)
            # any non-ConfigurationError escapes to pytest as a failure

    def test_duplicate_setting_names_both_lines(self):
        with pytest.raises(ConfigurationError,
                           match=r"line 3: duplicate setting 'tl_eps'"):
            parse_deck_text("*tea\ntl_eps=1e-8\ntl_eps=1e-9\n*endtea")

    def test_unknown_tl_key_names_key_and_line(self):
        with pytest.raises(ConfigurationError,
                           match=r"line 2: unknown setting 'tl_flux'"):
            parse_deck_text("*tea\ntl_flux=3\n*endtea")

    def test_wrong_type_names_key_and_line(self):
        with pytest.raises(ConfigurationError,
                           match=r"line 2: bad value for tl_max_iters"):
            parse_deck_text("*tea\ntl_max_iters=several\n*endtea")
