"""The unit-of-work collector scope (``repro.engine.collector``).

The scope raises generation 0's threshold and freezes the heap for one
front-end unit of work; these tests pin down that it nests, overlaps
across threads, restores what it found, leaves a caller's freeze and
enabled flag alone, and that the session and the daemon's job body run
under it.
"""

import gc
import sys
import threading

import pytest

from repro.designs import pipeline3
from repro.engine.collector import GC_GEN0_THRESHOLD, collector_scope
from repro.flow.incremental import IncrementalSession, NetlistEdit
from repro.liberty import core9_hs

LIB = core9_hs()


def _state():
    return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()


def _active():
    return (
        gc.get_threshold()[0] == GC_GEN0_THRESHOLD
        and gc.get_freeze_count() > 0
    )


def test_the_threshold_is_the_clis_old_policy():
    assert GC_GEN0_THRESHOLD == 200_000


def test_nested_scopes_restore_on_the_outermost_exit():
    before = _state()
    assert not _active()
    with collector_scope():
        assert _active()
        with collector_scope():
            assert _active()
        assert _active(), "an inner exit ended the policy"
    assert _state() == before


class _Holder(threading.Thread):
    """A thread that enters the scope and stays until released."""

    def __init__(self):
        super().__init__(daemon=True)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.exited = threading.Event()

    def run(self):
        with collector_scope():
            self.entered.set()
            self.release.wait(30)
        self.exited.set()


def test_overlapping_scopes_on_two_threads_restore_at_the_last_exit():
    """enter-A, enter-B, exit-A, exit-B: plain save/restore would end
    the policy at exit-A and leave B's saved 200 000 behind at exit-B."""
    before = _state()
    first, second = _Holder(), _Holder()
    first.start()
    assert first.entered.wait(30)
    second.start()
    assert second.entered.wait(30)
    first.release.set()
    assert first.exited.wait(30)
    assert _active(), "the first exit ended the policy under the second"
    second.release.set()
    assert second.exited.wait(30)
    first.join(30)
    second.join(30)
    assert _state() == before


def test_many_threads_keep_the_depth_count():
    """More threads than cores, switching every microsecond: a lost
    update to the depth count would end the policy under a thread still
    inside, or leave it on after the last exit."""
    before = _state()
    lapses = []
    start = threading.Barrier(8)

    def enter_and_leave():
        start.wait(30)
        for _ in range(5000):
            with collector_scope():
                with collector_scope():
                    pass
                if gc.get_threshold()[0] != GC_GEN0_THRESHOLD:
                    lapses.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert lapses == []
    assert _state() == before


def test_an_exception_inside_restores_the_state():
    before = _state()
    with pytest.raises(RuntimeError):
        with collector_scope():
            with collector_scope():
                raise RuntimeError("flow error")
    assert _state() == before
    with collector_scope():
        assert _active()
    assert _state() == before


def test_a_callers_freeze_survives_the_scope():
    thresholds = gc.get_threshold()
    gc.freeze()
    try:
        with collector_scope():
            assert gc.get_threshold()[0] == GC_GEN0_THRESHOLD
        assert gc.get_freeze_count() > 0, "the scope unfroze the caller's heap"
        assert gc.get_threshold() == thresholds
    finally:
        gc.unfreeze()


def test_a_disabled_collector_stays_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        with collector_scope():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# who enters the scope


def _spy(monkeypatch, owner, name, seen):
    """Replace ``owner.name`` by a wrapper recording whether the policy
    is active at each call."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(_active())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_incremental_session_calls_run_under_the_policy(monkeypatch):
    """``start``, ``apply`` (its verification included) and ``oracle``
    each run their stage functions with the policy on, and leave the
    collector as they found it."""
    from repro.desync import tool
    from repro.flow import incremental

    before = _state()
    delays, verify, oracle = [], [], []
    _spy(monkeypatch, incremental, "region_delays", delays)
    _spy(monkeypatch, incremental, "_scoped_handshake_run", verify)
    _spy(monkeypatch, tool, "desynchronize", oracle)

    session = IncrementalSession(LIB)
    session.start(pipeline3(LIB))
    assert delays == [True]
    assert _state() == before

    target = sorted(
        name
        for name, inst in session.result.module.instances.items()
        if inst.cell == "XOR2X1"
    )[0]
    outcome = session.apply(
        NetlistEdit("swap_cell", instance=target, cell="XOR2X2"),
        verify="full",
    )
    assert outcome.path == "splice"
    assert delays == [True, True]
    assert verify == [True]
    assert _state() == before

    session.oracle()
    assert oracle == [True]
    assert _state() == before


def test_a_service_job_runs_under_the_policy(monkeypatch):
    from repro.desync import tool
    from repro.engine import FlowEngine
    from repro.service import execute_job
    from repro.service.jobs import JobSpec

    before = _state()
    seen = []
    _spy(monkeypatch, tool, "write_module", seen)
    payload = execute_job(
        JobSpec(design="counter", params={"width": 4}), LIB, FlowEngine()
    )
    assert payload["verilog"]
    assert seen == [True]
    assert _state() == before
