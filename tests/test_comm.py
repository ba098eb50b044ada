"""Unit tests: communicators (serial, threaded, instrumented, spmd)."""

import threading
import time

import numpy as np
import pytest

from repro.comm import (
    InstrumentedComm,
    SerialComm,
    ThreadWorld,
    launch_spmd,
)
from repro.utils import CommunicationError, EventLog


class TestSerialComm:
    def test_identity_collectives(self):
        c = SerialComm()
        assert c.rank == 0 and c.size == 1
        assert c.allreduce(5.0) == 5.0
        assert c.allreduce(3.0, op="max") == 3.0
        assert c.bcast("x") == "x"
        assert c.gather(7) == [7]
        assert c.allgather(7) == [7]
        c.barrier()

    def test_allgather_isolates(self):
        c = SerialComm()
        a = np.ones(3)
        out = c.allgather(a)[0]
        out[0] = 99
        assert a[0] == 1.0

    def test_p2p_raises(self):
        c = SerialComm()
        with pytest.raises(CommunicationError):
            c.send(1, dest=0)
        with pytest.raises(CommunicationError):
            c.recv(source=0)

    def test_bad_root(self):
        with pytest.raises(CommunicationError):
            SerialComm().bcast("x", root=1)

    def test_unknown_reduce_op(self):
        with pytest.raises(CommunicationError):
            SerialComm().allreduce(1.0, op="median")


class TestThreadComm:
    def test_send_recv_pairs(self):
        def rank_main(comm):
            peer = 1 - comm.rank
            comm.send(f"from-{comm.rank}", dest=peer, tag=5)
            return comm.recv(source=peer, tag=5)

        out = launch_spmd(rank_main, 2)
        assert out == ["from-1", "from-0"]

    def test_messages_fifo_per_tag(self):
        def rank_main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=9)
                return None
            return [comm.recv(source=0, tag=9) for _ in range(5)]

        out = launch_spmd(rank_main, 2)
        assert out[1] == [0, 1, 2, 3, 4]

    def test_tags_do_not_cross(self):
        def rank_main(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        assert launch_spmd(rank_main, 2)[1] == ("a", "b")

    def test_send_copies_arrays(self):
        def rank_main(comm):
            if comm.rank == 0:
                a = np.ones(4)
                comm.send(a, dest=1)
                a[...] = -1  # mutate after send
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        out = launch_spmd(rank_main, 2)
        assert np.all(out[1] == 1.0)

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_allreduce_sum_deterministic(self, size):
        def rank_main(comm):
            return comm.allreduce(float(comm.rank + 1))

        out = launch_spmd(rank_main, size)
        expect = sum(range(1, size + 1))
        assert all(v == expect for v in out)

    def test_allreduce_ops(self):
        def rank_main(comm):
            v = float(comm.rank + 1)
            return (comm.allreduce(v, "max"), comm.allreduce(v, "min"),
                    comm.allreduce(v, "prod"))

        out = launch_spmd(rank_main, 3)
        assert all(o == (3.0, 1.0, 6.0) for o in out)

    def test_allreduce_arrays(self):
        def rank_main(comm):
            return comm.allreduce(np.array([comm.rank, 1.0]))

        out = launch_spmd(rank_main, 4)
        for v in out:
            assert np.array_equal(v, [6.0, 4.0])

    def test_bcast(self):
        def rank_main(comm):
            data = {"k": [1, 2]} if comm.rank == 1 else None
            got = comm.bcast(data, root=1)
            got["k"].append(comm.rank)  # isolation: no cross-rank bleed
            return got["k"][:2]

        out = launch_spmd(rank_main, 3)
        assert all(v == [1, 2] for v in out)

    def test_gather(self):
        def rank_main(comm):
            return comm.gather(comm.rank * 10, root=2)

        out = launch_spmd(rank_main, 4)
        assert out[2] == [0, 10, 20, 30]
        assert out[0] is None and out[3] is None

    def test_allgather(self):
        def rank_main(comm):
            return comm.allgather(comm.rank)

        out = launch_spmd(rank_main, 3)
        assert all(v == [0, 1, 2] for v in out)

    def test_repeated_collectives_no_slot_clobber(self):
        def rank_main(comm):
            vals = [comm.allreduce(float(i * (comm.rank + 1)))
                    for i in range(20)]
            return vals

        out = launch_spmd(rank_main, 3)
        expect = [float(i * 6) for i in range(20)]
        assert all(v == expect for v in out)

    def test_self_send_rejected(self):
        def rank_main(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicationError):
                    comm.send(1, dest=0)
            comm.barrier()
            return True

        assert all(launch_spmd(rank_main, 2))

    def test_bad_peer_rejected(self):
        def rank_main(comm):
            with pytest.raises(CommunicationError):
                comm.recv(source=5)
            comm.barrier()
            return True

        assert all(launch_spmd(rank_main, 2))

    def test_world_invalid_size(self):
        with pytest.raises(CommunicationError):
            ThreadWorld(0)

    def test_world_invalid_rank(self):
        with pytest.raises(CommunicationError):
            ThreadWorld(2).comm(2)

    def test_recv_timeout_is_wall_clock_under_unrelated_traffic(self):
        """Rank 0 waits 1 s for a message that never comes while ranks 1
        and 2 ping-pong 300 messages.  Every deposit wakes rank 0; the
        timeout must still fire after the full second, not after a number
        of wakeups."""
        world = ThreadWorld(3)

        def ping_pong(rank):
            comm, peer = world.comm(rank), 3 - rank
            for i in range(150):
                if rank == 1:
                    comm.send(i, dest=peer, tag=1)
                    comm.recv(peer, tag=1)
                else:
                    comm.send(comm.recv(peer, tag=1), dest=peer, tag=1)

        threads = [threading.Thread(target=ping_pong, args=(r,))
                   for r in (1, 2)]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        with pytest.raises(CommunicationError,
                           match="receive timeout after 1.0s"):
            world.comm(0).recv(1, tag=0, timeout=1.0)
        elapsed = time.monotonic() - t0
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert elapsed >= 1.0


class TestFailurePropagation:
    def test_exception_aborts_world(self):
        def rank_main(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            # rank 0 would block forever without the abort
            return comm.recv(source=1, tag=0)

        with pytest.raises(ValueError, match=r"\[rank 1\] rank 1 exploded"):
            launch_spmd(rank_main, 2)

    def test_exception_during_collective(self):
        def rank_main(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            # Deliberate RPR009 divergence: this test proves the world
            # aborts blocked collectives instead of deadlocking.
            return comm.allreduce(1.0)  # repro: ignore[RPR009]

        with pytest.raises(RuntimeError, match="boom"):
            launch_spmd(rank_main, 3)

    def test_rank_args(self):
        def rank_main(comm, base, mult):
            return base + mult * comm.rank

        out = launch_spmd(rank_main, 3, rank_args=[(10, 2)] * 3)
        assert out == [10, 12, 14]

    def test_rank_args_length_mismatch(self):
        with pytest.raises(CommunicationError):
            launch_spmd(lambda c: None, 2, rank_args=[()])

    def test_size_one_runs_inline_serial(self):
        out = launch_spmd(lambda c: type(c).__name__, 1)
        assert out == ["SerialComm"]


class TestInstrumentedComm:
    def test_counts_p2p(self):
        def rank_main(comm):
            log = EventLog()
            ic = InstrumentedComm(comm, log)
            peer = 1 - ic.rank
            ic.send(np.zeros(10), dest=peer, tag=3)
            ic.recv(source=peer, tag=3)
            return log

        logs = launch_spmd(rank_main, 2)
        for log in logs:
            assert log.count("p2p_send", 3) == 1
            assert log.count("p2p_recv", 3) == 1
            assert log.total("p2p_send", "bytes", key=3) == 80

    def test_counts_collectives(self):
        def rank_main(comm):
            ic = InstrumentedComm(comm)
            ic.allreduce(1.0)
            ic.allreduce(np.zeros(2), op="max")
            ic.bcast("x", root=0)
            ic.gather(1)
            ic.allgather(1)
            ic.barrier()
            return ic.events

        logs = launch_spmd(rank_main, 2)
        for log in logs:
            assert log.count("allreduce", "sum") == 1
            assert log.count("allreduce", "max") == 1
            assert log.count("bcast") == 1
            assert log.count("gather") == 1
            assert log.count("allgather") == 1
            assert log.count("barrier") == 1

    def test_transparent_results(self):
        def rank_main(comm):
            ic = InstrumentedComm(comm)
            return ic.allreduce(float(ic.rank))

        assert launch_spmd(rank_main, 3) == [3.0, 3.0, 3.0]

    def test_serial_wrapping(self):
        ic = InstrumentedComm(SerialComm())
        assert ic.allreduce(2.0) == 2.0
        assert ic.rank == 0 and ic.size == 1
        assert ic.events.count("allreduce", "sum") == 1
