"""Unit tests: the (preconditioned) CG solver."""

import numpy as np
import pytest

from repro.mesh import Field, Grid2D
from repro.numerics.breakdown import BreakdownError
from repro.observe import Tracer
from repro.resilience import SolverGuard
from repro.solvers import (
    DiagonalPreconditioner,
    StencilOperator2D,
    cg_solve,
)
from repro.solvers.preconditioners import Preconditioner
from repro.utils import ConvergenceError

from tests.helpers import (
    crooked_pipe_system,
    random_spd_faces,
    reference_solution,
    serial_operator,
)


class TestConvergence:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_direct_solve(self, n):
        g, kx, ky, bg = crooked_pipe_system(n)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-12)
        assert result.converged
        assert np.allclose(result.x.interior, x_ref,
                           atol=1e-9 * np.abs(x_ref).max())

    def test_random_spd_system(self, rng):
        n = 20
        kx, ky = random_spd_faces(rng, n, n, scale=5.0)
        bg = rng.standard_normal((n, n))
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(Grid2D(n, n), kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-12)
        assert np.allclose(result.x.interior, x_ref, atol=1e-8)

    def test_exact_after_n_iterations(self, rng):
        """Finite termination: CG is exact in <= n_cells iterations."""
        kx, ky = random_spd_faces(rng, 4, 4)
        bg = rng.standard_normal((4, 4))
        op = serial_operator(Grid2D(4, 4), kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-13, max_iters=16)
        assert result.converged

    def test_zero_rhs_converges_immediately(self, rng):
        kx, ky = random_spd_faces(rng, 6, 6)
        op = serial_operator(Grid2D(6, 6), kx, ky)
        b = op.new_field()
        result = cg_solve(op, b)
        assert result.converged and result.iterations == 0

    def test_initial_guess_exact(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        x_ref = reference_solution(kx, ky, bg)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        x0 = Field.from_global(op.tile, 1, x_ref)
        # The tolerance is relative to the initial residual of *this call*;
        # anchor it to ||b|| so an exact guess terminates immediately.
        bnorm = float(np.linalg.norm(bg))
        result = cg_solve(op, b, x0, eps=1e-8, reference_norm=bnorm)
        assert result.iterations == 0
        assert result.converged

    def test_warm_start_does_not_mutate_x0(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        x0 = op.new_field()
        x0.interior[...] = 3.0
        cg_solve(op, b, x0, eps=1e-8)
        assert np.all(x0.interior == 3.0)


class TestDiagnostics:
    def test_history_monotone_overall(self):
        g, kx, ky, bg = crooked_pipe_system(24)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        assert len(result.history) == result.iterations + 1
        assert result.history[-1] < result.history[0] * 1e-9

    def test_coefficients_recorded(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        assert len(result.alphas) == result.iterations
        assert len(result.betas) == result.iterations
        assert all(a > 0 for a in result.alphas)
        assert all(bb >= 0 for bb in result.betas)

    def test_relative_residual_and_summary(self):
        g, kx, ky, bg = crooked_pipe_system(12)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        assert result.relative_residual <= 1e-10
        assert "cg" in result.summary()
        assert "converged" in result.summary()

    def test_unconverged_result(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-12, max_iters=3)
        assert not result.converged
        assert result.iterations == 3

    def test_raise_on_stall(self):
        g, kx, ky, bg = crooked_pipe_system(32)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        with pytest.raises(ConvergenceError, match="did not converge"):
            cg_solve(op, b, eps=1e-12, max_iters=3, raise_on_stall=True)

    def test_reference_norm_override(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        loose = cg_solve(op, b, eps=1e-4)
        # Same eps but a 1e6x larger reference makes it trivially converged.
        op2 = serial_operator(g, kx, ky)
        b2 = Field.from_global(op2.tile, 1, bg)
        easy = cg_solve(op2, b2, eps=1e-4,
                        reference_norm=loose.initial_residual_norm * 1e6)
        assert easy.iterations < loose.iterations


class TestCommunicationPattern:
    def test_allreduce_count_two_per_iteration(self):
        """CG must fuse its dots: 2 allreduces per iteration (+1 setup)."""
        from repro.comm import InstrumentedComm, SerialComm
        from repro.utils import EventLog

        g, kx, ky, bg = crooked_pipe_system(16)
        from repro.mesh import decompose
        log = EventLog()
        comm = InstrumentedComm(SerialComm(), log)
        tile = decompose(g, 1)[0]
        op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
        b = Field.from_global(tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        n_allreduce = log.count_kind("allreduce")
        assert n_allreduce == 2 * result.iterations + 1

    def test_preconditioned_same_allreduce_count(self):
        from repro.comm import InstrumentedComm, SerialComm
        from repro.mesh import decompose
        from repro.utils import EventLog

        g, kx, ky, bg = crooked_pipe_system(16)
        log = EventLog()
        comm = InstrumentedComm(SerialComm(), log)
        tile = decompose(g, 1)[0]
        op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
        b = Field.from_global(tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10,
                          preconditioner=DiagonalPreconditioner(op))
        assert log.count_kind("allreduce") == 2 * result.iterations + 1

    def test_halo_exchanges_one_per_iteration(self):
        g, kx, ky, bg = crooked_pipe_system(16)
        op = serial_operator(g, kx, ky)
        b = Field.from_global(op.tile, 1, bg)
        result = cg_solve(op, b, eps=1e-10)
        # serial: exchange events still recorded (no-ops on the wire)
        assert op.events.count("halo_exchange", 1) == result.iterations + 1


class Sabotage(Preconditioner):
    """``z = r``, except that application number ``at`` breaks one thing.

    ``"zero_z"`` zeroes ``z`` (beta becomes 0, so the next direction is 0
    and ``<p, Ap> = 0``), ``"nan_z"`` poisons ``<r, z>`` and so ``beta``,
    and ``"nan_r"`` poisons the live residual and so its norm.  It fires
    once: a replay after a rollback runs clean.
    """

    def __init__(self, action="", at=-1):
        self.action, self.at, self.applications = action, at, 0

    def apply(self, r, z):
        z.interior[...] = r.interior
        if self.applications == self.at:
            if self.action == "zero_z":
                z.interior[...] = 0.0
            elif self.action == "nan_z":
                z.interior[...] = np.nan
            elif self.action == "nan_r":
                r.interior[...] = np.nan
        self.applications += 1


class ScaleBOnce:
    """Cancel-token stand-in that scales ``b`` by 1.5 at the first
    ``check(at)`` and restores it at the next check.  The CG recurrence
    never reads ``b``, so only the ABFT replay (the true residual
    ``b - A x``) sees it."""

    def __init__(self, b, at):
        self.b, self.at, self.saved = b, at, None

    def check(self, iteration):
        if self.saved is not None:
            self.b.data[...] = self.saved
            self.saved = None
        elif iteration == self.at:
            self.saved, self.at = self.b.data.copy(), None
            self.b.data *= 1.5


def _abft_system():
    g, kx, ky, bg = crooked_pipe_system(24)
    op = serial_operator(g, kx, ky)
    return op, Field.from_global(op.tile, 1, bg)


#: trigger -> (preconditioner action or "abft", guard.log reason prefix,
#: the error the unguarded solve raises, its quantity / message)
TRIGGERS = {
    "pAp": ("zero_z", "<p, Ap> = ", BreakdownError, "pAp"),
    "residual": ("nan_r", "residual norm ", BreakdownError, "residual_norm"),
    "abft": ("abft", "ABFT replay: ", ConvergenceError,
             "silent corruption detected"),
    "beta": ("nan_z", "beta = ", BreakdownError, "beta"),
}


class TestRollbackTriggers:
    """Every guard rollback in ``cg_solve`` takes the one rollback path."""

    @staticmethod
    def _solve(action, guard, **kw):
        op, b = _abft_system()
        tracer = Tracer()
        op.tracer = tracer
        if action == "abft":
            kw.update(abft_interval=10, cancel=ScaleBOnce(b, 9))
        else:
            kw.update(preconditioner=Sabotage(action, at=12))
        result = cg_solve(op, b, eps=1e-10, guard=guard, **kw)
        return result, tracer

    @pytest.mark.parametrize("trigger", sorted(TRIGGERS))
    def test_guarded_rollback(self, trigger):
        action, prefix, _, _ = TRIGGERS[trigger]
        clean, _ = self._solve("", SolverGuard(checkpoint_interval=5),
                               abft_interval=10 if action == "abft" else 0)
        guard = SolverGuard(checkpoint_interval=5)
        result, tracer = self._solve(action, guard)
        rollbacks = [e for e in guard.log if e.action == "rollback"]
        assert len(rollbacks) == 1
        assert rollbacks[0].detail.split(" — ", 1)[1].startswith(prefix)
        spans = {s.span_id: s for s in tracer.finished()}
        recovers = [s for s in spans.values()
                    if s.name == "recover" and s.key == "cg"]
        assert len(recovers) == 1
        assert spans[recovers[0].parent_id].name == "iteration"
        # The replay from the checkpoint is clean, so the rewound history
        # is exactly the unperturbed solve's.
        assert result.converged
        assert result.history == clean.history
        assert len(result.history) == result.iterations + 1

    @pytest.mark.parametrize("trigger", sorted(TRIGGERS))
    def test_unguarded_error(self, trigger):
        action, _, error, detail = TRIGGERS[trigger]
        with pytest.raises(error) as info:
            self._solve(action, None)
        if error is BreakdownError:
            assert info.value.quantity == detail
        else:
            assert detail in str(info.value)

    def test_abft_rollback_clears_stagnation_window(self):
        """Regression: the ABFT rollback used to keep the stagnation
        window, so the replayed norm was compared with its own stale copy
        from before the rollback and raised a false stagnation."""
        unwindowed, _ = self._solve("abft", SolverGuard(checkpoint_interval=5))
        guard = SolverGuard(checkpoint_interval=5)
        result, _ = self._solve("abft", guard, stagnation_window=5)
        assert result.converged
        assert result.iterations == unwindowed.iterations
        assert guard.rollbacks == 1
