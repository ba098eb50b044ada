"""The communicator wrappers share one forwarding base, CommLayer.

- **structure** — only the transports (``SerialComm``, ``ThreadComm``)
  and ``CommLayer`` subclass ``Communicator`` directly, so there is one
  way to intercept a communicator call;
- **transparency** — every ``CommLayer`` subclass, in its neutral
  configuration, returns exactly what the bare world returns for every
  operation, ``rank``/``size`` included;
- **honest timeouts** — a receive timeout of *t* seconds reaches the
  transport through every layer of the resilient stack and fires after
  *t* seconds.
"""

import ast
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.comm import InstrumentedComm, SanitizerComm, SanitizerState
from repro.comm.base import CommLayer, Communicator
from repro.comm.serial import SerialComm
from repro.comm.spmd import launch_spmd
from repro.comm.threaded import ThreadComm, ThreadWorld
from repro.resilience import (ChecksumComm, FaultPlan, FaultyComm,
                              RetryingComm, build_resilient_comm)
from repro.utils import CommunicationError

SRC = Path(repro.__file__).parent


# -- structure -----------------------------------------------------------------


def _direct_communicator_subclasses() -> set[str]:
    """Names of classes under src/repro whose bases name Communicator."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(b, "id", getattr(b, "attr", None))
                    == "Communicator" for b in node.bases):
                found.add(node.name)
    return found


def test_only_transports_and_commlayer_subclass_communicator():
    assert _direct_communicator_subclasses() == \
        {"SerialComm", "ThreadComm", "CommLayer"}
    assert {c for c in Communicator.__subclasses__()
            if c.__module__.startswith("repro.")} == \
        {SerialComm, ThreadComm, CommLayer}


def test_wrappers_do_not_redeclare_rank_or_size():
    for cls in _layer_classes():
        assert "rank" not in vars(cls) and "size" not in vars(cls), cls


# -- transparency --------------------------------------------------------------

#: Each CommLayer subclass in its neutral configuration.  ``state`` is the
#: world-shared SanitizerState (fresh per world).
NEUTRAL_LAYERS = {
    CommLayer: lambda c, state: CommLayer(c),
    InstrumentedComm: lambda c, state: InstrumentedComm(c),
    FaultyComm: lambda c, state: FaultyComm(c, FaultPlan.disabled()),
    RetryingComm: lambda c, state: RetryingComm(c),
    ChecksumComm: lambda c, state: ChecksumComm(c),
    SanitizerComm: lambda c, state: SanitizerComm(c, state=state),
}


def _layer_classes() -> set[type]:
    out, todo = set(), [CommLayer]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("repro."):
            out.add(cls)
        todo.extend(cls.__subclasses__())
    return out


def test_neutral_layers_cover_every_commlayer_subclass():
    assert _layer_classes() == set(NEUTRAL_LAYERS)


def _script(comm):
    """Exercise every operation once; return everything observed."""
    peer = 1 - comm.rank
    out = {"rank": comm.rank, "size": comm.size}
    comm.send(np.arange(4.0) + comm.rank, dest=peer, tag=5)
    out["recv"] = comm.recv(peer, tag=5, timeout=10.0)
    comm.send({"from": comm.rank, "items": [1, 2.5]}, dest=peer, tag=6)
    out["recv_obj"] = comm.recv(peer, 6)
    req = comm.isend(np.full(3, 7.0 * comm.rank), dest=peer, tag=7)
    out["irecv"] = comm.irecv(peer, 7).wait()
    out["isend"] = req.wait()
    out["sendrecv"] = comm.sendrecv(10 + comm.rank, dest=peer, source=peer,
                                    tag=8)
    out["allreduce"] = comm.allreduce(1.5 * (comm.rank + 1))
    out["allreduce_max"] = comm.allreduce(np.array([comm.rank, -comm.rank],
                                                   dtype=float), op="max")
    out["allreduce_int"] = comm.allreduce(comm.rank + 3)
    out["bcast"] = comm.bcast(np.eye(2) * 3 if comm.rank == 1 else None,
                              root=1)
    out["gather"] = comm.gather(("g", comm.rank), root=0)
    out["allgather"] = comm.allgather(np.array([comm.rank]))
    out["barrier"] = comm.barrier()
    return out


@pytest.mark.parametrize("layer", list(NEUTRAL_LAYERS),
                         ids=lambda cls: cls.__name__)
def test_neutral_layer_is_transparent(layer):
    bare = launch_spmd(_script, 2)
    state = SanitizerState(2)
    wrapped = launch_spmd(
        lambda c: _script(NEUTRAL_LAYERS[layer](c, state)), 2)
    np.testing.assert_equal(wrapped, bare)
    state.check_quiescent()


# -- honest timeouts -----------------------------------------------------------


@pytest.mark.parametrize("integrity", [False, True])
def test_timeout_reaches_the_transport_through_the_resilient_stack(
        integrity):
    world = ThreadWorld(2)
    stack = build_resilient_comm(world.comm(0), FaultPlan.disabled(),
                                 max_attempts=1, integrity=integrity)
    t0 = time.monotonic()
    with pytest.raises(CommunicationError, match="receive timeout after 0.2s"):
        stack.comm.recv(1, tag=3, timeout=0.2)
    assert time.monotonic() - t0 >= 0.2
