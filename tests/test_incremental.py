"""End-to-end incremental re-flow (``repro.flow.incremental``).

Every incremental path is held against the from-scratch pipeline as a
bit-identical parity oracle: ``session.apply`` (mode="incremental")
must produce exactly the Verilog, SDC, region membership, delay-element
lengths/taps and handshake topology that ``session.oracle``
(mode="full") derives by re-running the whole flow on the edited
input.  The hypothesis properties drive random single-cell swaps and
wire re-annotations through both modes on the pipeline and DLX
designs.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.desync import DesyncOptions, desynchronize
from repro.flow.incremental import (
    EditError,
    IncrementalSession,
    NetlistEdit,
    apply_edit,
    load_edits,
)
from repro.designs import dlx_core, pipeline3
from repro.liberty import core9_hs
from repro.liberty.gatefile import build_gatefile
from repro.netlist import Module, PortDirection
from repro.netlist.index import ConnectivityIndex, connectivity_index
from repro.netlist.verilog import write_module

LIB = core9_hs()


def _fingerprint(result):
    """Everything the parity contract covers, as comparable values."""
    return {
        "verilog": write_module(result.module),
        "sdc": result.export_sdc(),
        "elements": {
            region: (element.length, tuple(element.taps))
            for region, element in sorted(
                result.network.delay_elements.items()
            )
        },
        "region_delays": {
            region: round(delay, 9)
            for region, delay in sorted(result.network.region_delays.items())
        },
        "membership": {
            name: result.region_map.region_of(name)
            for name in sorted(result.module.instances)
        },
        "handshake": result.network.handshake_nets(),
    }


def _assert_parity(session, outcome, edits_note=""):
    want = _fingerprint(session.oracle())
    got = _fingerprint(outcome.result)
    assert got == want, f"incremental != full {edits_note}"


# ----------------------------------------------------------------------
# dirty log (netlist.core) and selective index invalidation
# ----------------------------------------------------------------------


def _tiny_module():
    module = Module("tiny")
    module.add_port("a", PortDirection.INPUT)
    module.add_port("y", PortDirection.OUTPUT)
    module.ensure_net("a")
    module.ensure_net("n1")
    module.ensure_net("y")
    module.add_instance("u1", "BUFX1", {"A": "a", "Z": "n1"})
    module.add_instance("u2", "BUFX1", {"A": "n1", "Z": "y"})
    return module


def test_dirty_log_reports_exact_sets():
    module = _tiny_module()
    token = module.dirty_token
    module.note_cell_change("u1")
    module.note_wire_annotation(["n1"])
    dirty = module.dirty_since(token)
    assert dirty is not None
    assert dirty.cells == {"u1"}
    assert dirty.nets == {"a", "n1"}  # u1's pins
    assert dirty.wires == {"n1"}
    # a token at the current head sees an empty (falsy) delta
    fresh = module.dirty_since(module.dirty_token)
    assert fresh is not None and not fresh


def test_dirty_log_whole_module_events_answer_none():
    module = _tiny_module()
    token = module.dirty_token
    module.invalidate_indexes()
    assert module.dirty_since(token) is None


def test_dirty_log_overflow_degrades_to_none():
    module = _tiny_module()
    token = module.dirty_token
    for _ in range(5000):  # > _DIRTY_LOG_LIMIT events
        module.note_wire_annotation(["n1"])
    assert module.dirty_since(token) is None
    # recent tokens are still answerable
    recent = module.dirty_token
    module.note_wire_annotation(["y"])
    assert module.dirty_since(recent).wires == {"y"}


def test_connectivity_index_evicts_only_annotated_nets():
    module = _tiny_module()
    index = ConnectivityIndex(module, build_gatefile(LIB))
    for net in ("a", "n1", "y"):
        index.connections_of(net)
    misses = index.misses
    module.note_wire_annotation(["n1"])
    # the untouched nets stay cached; only n1 reclassifies
    index.connections_of("a")
    index.connections_of("y")
    assert index.misses == misses
    index.connections_of("n1")
    assert index.misses == misses + 1


# ----------------------------------------------------------------------
# edit vocabulary
# ----------------------------------------------------------------------


def test_edit_round_trips_through_dict():
    edit = NetlistEdit(
        "annotate_wires", wire_caps={"n2": 0.02, "n1": 0.01}
    )
    # dict-valued fields normalise to sorted tuples on construction
    assert edit.wire_caps == (("n1", 0.01), ("n2", 0.02))
    again = NetlistEdit.from_dict(edit.to_dict())
    assert again == edit
    swap = NetlistEdit.from_dict({"op": "swap_cell", "instance": "u1",
                                  "cell": "AND2X4"})
    assert swap.to_dict() == {"op": "swap_cell", "instance": "u1",
                              "cell": "AND2X4"}


def test_edit_rejects_unknown_kind():
    with pytest.raises(EditError):
        NetlistEdit("retime_everything")
    with pytest.raises(EditError):
        NetlistEdit.from_dict({"instance": "u1"})


def test_load_edits_accepts_list_wrapper_and_single(tmp_path):
    record = {"op": "swap_cell", "instance": "u1", "cell": "AND2X2"}
    for payload in ([record], {"edits": [record]}, record):
        path = tmp_path / "edits.json"
        path.write_text(json.dumps(payload))
        edits = load_edits(str(path))
        assert [e.to_dict() for e in edits] == [record]


def test_apply_edit_missing_instance_raises():
    module = _tiny_module()
    with pytest.raises(EditError):
        apply_edit(module, LIB, NetlistEdit("swap_cell", instance="nope",
                                            cell="BUFX2"))


# ----------------------------------------------------------------------
# session paths on the 3-stage pipeline design
# ----------------------------------------------------------------------


@pytest.fixture()
def pipe_session():
    session = IncrementalSession(LIB)
    session.start(pipeline3(LIB))
    return session


def _pick(session, cell):
    names = sorted(
        name
        for name, inst in session._snap_imported.instances.items()
        if inst.cell == cell and name in session.result.module.instances
    )
    assert names, f"no {cell} instance visible in all snapshots"
    return names[0]


def test_drive_swap_splices_and_matches_oracle(pipe_session):
    target = _pick(pipe_session, "XOR2X1")
    outcome = pipe_session.apply(
        NetlistEdit("swap_cell", instance=target, cell="XOR2X2")
    )
    assert outcome.mode == "incremental"
    assert outcome.path == "splice"
    assert outcome.reused["network"] and outcome.reused["ffsub"]
    assert not outcome.reused["constraints"]  # SDC always re-emitted
    assert set(outcome.region_status.values()) == {"reused"}
    _assert_parity(pipe_session, outcome, f"(swap {target})")


def test_wire_annotation_on_design_net_matches_oracle(pipe_session):
    # a post-import net that survives to the final module
    nets = sorted(
        net
        for net in pipe_session._snap_imported.nets
        if net in pipe_session.result.module.nets
        and not pipe_session._snap_imported.nets[net].is_constant
    )
    edit = NetlistEdit("annotate_wires", wire_caps={nets[0]: 0.004})
    outcome = pipe_session.apply(edit)
    assert outcome.path in ("splice", "network")
    _assert_parity(pipe_session, outcome, f"(annotate {nets[0]})")


def test_ffsub_created_net_annotation_falls_back_to_deep(pipe_session):
    # gm_*/gs_* enable nets are created by the FF substitution stage
    # and feed the ack-element sizing -- never spliceable
    enable = sorted(
        net for net in pipe_session.result.module.nets
        if net.startswith("gm_")
    )[0]
    outcome = pipe_session.apply(
        NetlistEdit("annotate_wires", wire_caps={enable: 0.05})
    )
    assert outcome.path == "deep"
    _assert_parity(pipe_session, outcome, f"(annotate {enable})")


def test_buffer_swap_under_clean_falls_back_to_deep(pipe_session):
    # the cleanup pass collapses buffers, so a buffer swap can change
    # region grouping -- the fast-path guard must refuse it
    target = _pick(pipe_session, "BUFX1")
    outcome = pipe_session.apply(
        NetlistEdit("swap_cell", instance=target, cell="BUFX2")
    )
    assert outcome.path == "deep"
    assert not outcome.reused["group"]
    _assert_parity(pipe_session, outcome, f"(buffer swap {target})")


def test_set_constant_falls_back_to_deep(pipe_session):
    net = sorted(
        net
        for net, obj in pipe_session._snap_imported.nets.items()
        if not obj.is_constant
        and net not in pipe_session._snap_imported.ports
    )[0]
    outcome = pipe_session.apply(
        NetlistEdit("set_constant", net=net, value=0)
    )
    assert outcome.path == "deep"
    _assert_parity(pipe_session, outcome, f"(const {net})")


def test_repeat_resize_reclassifies_only_the_swapped_nets(pipe_session):
    target = _pick(pipe_session, "XOR2X1")
    snapshot = pipe_session._snap_ffsub
    index = connectivity_index(snapshot, pipe_session.tool.gatefile)
    for cell in ("XOR2X2", "XOR2X1"):
        outcome = pipe_session.apply(
            NetlistEdit("swap_cell", instance=target, cell=cell)
        )
        assert outcome.path == "splice"
    misses = index.misses
    pipe_session.apply(NetlistEdit("swap_cell", instance=target,
                                   cell="XOR2X2"))
    assert connectivity_index(snapshot, pipe_session.tool.gatefile) is index
    swapped = set(snapshot.instances[target].pins.values())
    assert 0 < index.misses - misses <= len(swapped)


def test_edits_chain_across_applies(pipe_session):
    first = _pick(pipe_session, "XOR2X1")
    pipe_session.apply(NetlistEdit("swap_cell", instance=first,
                                   cell="XOR2X2"))
    # swap back -- the oracle replays BOTH edits, so parity here proves
    # the session carries accumulated state correctly
    outcome = pipe_session.apply(
        NetlistEdit("swap_cell", instance=first, cell="XOR2X1")
    )
    _assert_parity(pipe_session, outcome, "(chained swaps)")


def test_scoped_verification_reports_affected_regions(pipe_session):
    target = _pick(pipe_session, "XOR2X1")
    outcome = pipe_session.apply(
        NetlistEdit("swap_cell", instance=target, cell="XOR2X2"),
        verify="affected",
    )
    assert outcome.report is not None
    assert outcome.report.get("error") is None
    assert outcome.report["regions_verified"] == outcome.verified_regions
    regions = set(outcome.result.network.handshake_nets())
    assert set(outcome.verified_regions) <= regions
    full = pipe_session.apply(
        NetlistEdit("swap_cell", instance=target, cell="XOR2X1"),
        verify="full",
    )
    assert full.report is not None and full.report.get("error") is None
    assert set(full.verified_regions) == set(
        full.result.network.handshake_nets()
    )


@pytest.mark.parametrize(
    "make_bad, message",
    [
        (lambda xor: NetlistEdit("swap_cell", instance="no_such_instance",
                                 cell="XOR2X2"),
         "edit 1 (swap_cell): no instance 'no_such_instance'"),
        (lambda xor: NetlistEdit("swap_cell", instance=xor, cell="NOPE"),
         "edit 1 (swap_cell): no cell 'NOPE' in the library"),
        (lambda xor: NetlistEdit("set_constant", net="no_such_net",
                                 value=1),
         "edit 1 (set_constant): no net 'no_such_net'"),
        (lambda xor: NetlistEdit("annotate_wires",
                                 wire_caps={"no_such_net": 0.01}),
         "edit 1 (annotate_wires): no net 'no_such_net'"),
    ],
    ids=["missing-instance", "unknown-cell", "missing-constant-net",
         "missing-annotated-net"],
)
def test_rejected_batch_leaves_session_intact(
    pipe_session, make_bad, message
):
    # the batch is checked before any snapshot changes: the good first
    # edit must not leak into the session when the second is rejected
    xor = _pick(pipe_session, "XOR2X1")
    good = NetlistEdit("swap_cell", instance=xor, cell="XOR2X2")
    with pytest.raises(EditError) as info:
        pipe_session.apply([good, make_bad(xor)])
    assert str(info.value) == message
    assert pipe_session._snap_imported.instances[xor].cell == "XOR2X1"
    outcome = pipe_session.apply(
        NetlistEdit("swap_cell", instance=_pick(pipe_session, "BUFX1"),
                    cell="BUFX2")
    )
    assert outcome.path == "deep"
    _assert_parity(pipe_session, outcome, "(after a rejected batch)")


def test_batch_check_follows_earlier_edits_in_the_batch(pipe_session):
    xor = _pick(pipe_session, "XOR2X1")
    pins = dict(pipe_session._snap_imported.instances[xor].pins)
    with pytest.raises(EditError, match="edit 1 .* no instance"):
        pipe_session.apply([
            NetlistEdit("remove_instance", instance=xor),
            NetlistEdit("swap_cell", instance=xor, cell="XOR2X2"),
        ])
    with pytest.raises(EditError, match="edit 0 .* already exists"):
        pipe_session.apply(NetlistEdit(
            "add_instance", instance=xor, cell="XOR2X1", pins=pins,
        ))
    with pytest.raises(EditError, match="edit 0 .* has no pin 'Q'"):
        pipe_session.apply(NetlistEdit(
            "add_instance", instance="eco_x", cell="XOR2X1",
            pins={"Q": "eco_n"},
        ))
    # an instance added earlier in the batch may be swapped later in it
    outcome = pipe_session.apply([
        NetlistEdit("add_instance", instance="eco_x", cell="XOR2X1",
                    pins={**pins, "Z": "eco_n"}),
        NetlistEdit("swap_cell", instance="eco_x", cell="XOR2X2"),
        NetlistEdit("annotate_wires", wire_caps={"eco_n": 0.01}),
    ])
    assert outcome.path == "deep"
    _assert_parity(pipe_session, outcome, "(add then swap)")


def test_session_times_each_snapshot_once():
    from repro.obs.context import Context, use
    from repro.obs.metrics import MetricsRegistry

    # an earlier start characterises (and memoises) the delay ladder
    IncrementalSession(LIB).start(pipeline3(LIB))
    registry = MetricsRegistry()
    with use(Context(registry=registry)):
        session = IncrementalSession(LIB)
        session.start(dlx_core(LIB, registers=8, multiplier=False, width=16))
        builds = registry.counter("sta.compiled.builds")
        # one graph for the import snapshot, one for the ffsub snapshot
        assert builds.value == 2
        outcome = session.apply(NetlistEdit(
            "swap_cell", instance=_pick(session, "BUFX1"), cell="BUFX2"
        ))
        assert outcome.path == "deep"
        # the import snapshot re-times warm; only the new ffsub
        # snapshot builds a graph
        assert builds.value == 3


# ----------------------------------------------------------------------
# hypothesis: random edit batches == from-scratch flow (satellite c)
# ----------------------------------------------------------------------

_PIPE_PROBE = pipeline3(LIB)
_PIPE_SWAPPABLE = sorted(
    name
    for name, inst in _PIPE_PROBE.instances.items()
    if inst.cell in ("XOR2X1", "XOR2X2")
)
_PIPE_NETS = sorted(
    net for net, obj in _PIPE_PROBE.nets.items() if not obj.is_constant
)

_pipe_edit = st.one_of(
    st.builds(
        lambda name, cell: NetlistEdit("swap_cell", instance=name,
                                       cell=cell),
        st.sampled_from(_PIPE_SWAPPABLE),
        st.sampled_from(["XOR2X1", "XOR2X2"]),
    ),
    st.builds(
        lambda net, cap: NetlistEdit("annotate_wires",
                                     wire_caps={net: cap}),
        st.sampled_from(_PIPE_NETS),
        st.floats(0.001, 0.05),
    ),
)


@given(st.lists(_pipe_edit, min_size=1, max_size=4))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_edits_match_full_flow_on_pipeline(edits):
    session = IncrementalSession(LIB)
    session.start(pipeline3(LIB))
    outcome = session.apply(edits)
    assert outcome.mode == "incremental"
    _assert_parity(session, outcome, f"({[e.to_dict() for e in edits]})")


@pytest.fixture(scope="module")
def dlx_session():
    session = IncrementalSession(LIB)
    session.start(dlx_core(LIB))
    return session


@given(data=st.data())
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_random_edits_match_full_flow_on_dlx(dlx_session, data):
    # one module-scoped session accumulates edits across examples; the
    # oracle replays the whole accumulated sequence each time, so every
    # example is a fresh end-to-end parity check
    session = dlx_session
    swappable = sorted(
        name
        for name, inst in session._snap_imported.instances.items()
        if inst.cell in ("AND2X1", "AND2X2", "AND2X4")
        and name in session.result.module.instances
    )
    nets = sorted(
        net
        for net in session._snap_imported.nets
        if net in session.result.module.nets
        and not session._snap_imported.nets[net].is_constant
    )
    if data.draw(st.booleans(), label="swap?"):
        edit = NetlistEdit(
            "swap_cell",
            instance=data.draw(st.sampled_from(swappable), label="inst"),
            cell=data.draw(
                st.sampled_from(["AND2X1", "AND2X2", "AND2X4"]),
                label="cell",
            ),
        )
    else:
        edit = NetlistEdit(
            "annotate_wires",
            wire_caps={
                data.draw(st.sampled_from(nets), label="net"): data.draw(
                    st.floats(0.001, 0.02), label="cap"
                )
            },
        )
    outcome = session.apply(edit)
    _assert_parity(session, outcome, f"({edit.to_dict()})")


# ----------------------------------------------------------------------
# service: eco job type referencing a parent job's artifacts
# ----------------------------------------------------------------------


def _swap_edit_for(module):
    name = sorted(
        n for n, inst in module.instances.items() if inst.cell == "XOR2X1"
    )[0]
    return {"op": "swap_cell", "instance": name, "cell": "XOR2X2"}


def test_service_eco_job_end_to_end(tmp_path):
    from repro.service import JobState, ServiceDaemon
    from repro.service.jobs import JobSpec

    edit = _swap_edit_for(pipeline3(LIB))
    with ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=1) as svc:
        parent, _ = svc.submit(JobSpec(design="pipeline3"))
        svc.queue.wait(parent.id, timeout=120.0)
        assert parent.state is JobState.DONE

        eco, deduped = svc.submit(JobSpec(parent=parent.id, edits=[edit]))
        assert deduped is False
        svc.queue.wait(eco.id, timeout=120.0)
        assert eco.state is JobState.DONE
        payload = svc.job_result(eco.id, include_verilog=True)
        assert payload["mode"] == "incremental"
        assert payload["eco"]["parent"] == parent.id
        assert payload["eco"]["path"] == "splice"
        assert payload["eco"]["reused"]["network"] is True

        # eco-of-eco: the session chain replays the parent's edits
        second, _ = svc.submit(JobSpec(parent=eco.id, edits=[edit | {
            "cell": "XOR2X1"}]))
        svc.queue.wait(second.id, timeout=120.0)
        assert second.state is JobState.DONE
        chained = svc.job_result(second.id)
        assert chained["eco"]["parent"] == eco.id

        # parity oracle: the service's eco verilog equals a from-scratch
        # flow over the edited input
        module = pipeline3(LIB)
        apply_edit(module, LIB, NetlistEdit.from_dict(edit))
        full = desynchronize(module, LIB, DesyncOptions())
        assert payload["verilog"] == write_module(full.module)


def test_service_eco_job_writes_its_journal(tmp_path):
    """An eco job's journal holds one ``eco_apply`` line, stamped with
    the job's trace ID like a plain job's lines."""
    from repro.engine import read_journal
    from repro.service import JobState, ServiceDaemon
    from repro.service.jobs import JobSpec

    edit = _swap_edit_for(pipeline3(LIB))
    with ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=1) as svc:
        parent, _ = svc.submit(JobSpec(design="pipeline3"))
        svc.queue.wait(parent.id, timeout=120.0)
        eco, _ = svc.submit(JobSpec(parent=parent.id, edits=[edit]))
        svc.queue.wait(eco.id, timeout=120.0)
        assert eco.state is JobState.DONE
        trace_id = svc.job_status(eco.id)["trace_id"]
        events = read_journal(svc.job_journal_path(eco.id))
    assert [event["event"] for event in events] == ["eco_apply"]
    (line,) = events
    assert line["trace_id"] == trace_id
    assert line["parent"] == parent.id
    assert line["path"] == "splice"
    assert line["edits"] == 1
    assert "network" in line["reused"] and "constraints" not in line["reused"]
    assert line["duration"] > 0


def test_service_eco_validation(tmp_path):
    from repro.service import JobError, ServiceDaemon
    from repro.service.jobs import JobSpec

    with pytest.raises(JobError):
        JobSpec(design="pipeline3",
                edits=[{"op": "swap_cell"}]).validate()
    with pytest.raises(JobError):
        JobSpec(parent="j1").validate()  # eco without edits
    with pytest.raises(JobError):
        JobSpec(parent="j1", design="dlx",
                edits=[{"op": "swap_cell"}]).validate()
    with ServiceDaemon(run_dir=str(tmp_path / "svc"), workers=1) as svc:
        with pytest.raises(JobError):
            svc.submit(JobSpec(parent="no-such-job",
                               edits=[{"op": "swap_cell",
                                       "instance": "u1",
                                       "cell": "XOR2X2"}]))


def test_cli_eco_round_trip(tmp_path):
    from repro.cli import main as cli_main
    from repro.netlist.verilog import parse_verilog

    module = pipeline3(LIB)
    src = tmp_path / "pipe.v"
    src.write_text(write_module(module))
    edits = tmp_path / "edits.json"
    edits.write_text(json.dumps([_swap_edit_for(module)]))
    out_v = tmp_path / "out.v"
    out_sdc = tmp_path / "out.sdc"
    code = cli_main([
        str(src), "--eco", str(edits), "--eco-verify", "affected",
        "-o", str(out_v), "--sdc", str(out_sdc),
        "--cache-dir", str(tmp_path / "cache"), "--quiet",
    ])
    assert code == 0
    # parity against the from-scratch flow over the same parsed input
    reparsed = parse_verilog(src.read_text()).top
    apply_edit(reparsed, LIB, load_edits(str(edits))[0])
    full = desynchronize(reparsed, LIB, DesyncOptions())
    assert out_v.read_text() == write_module(full.module)
    assert out_sdc.read_text() == full.export_sdc()
