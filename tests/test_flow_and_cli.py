"""Implementation-flow and CLI tests."""

import gc
import re
import weakref
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.designs import arm9_core, figure22_circuit, pipeline3
from repro.flow import (
    compare_implementations,
    implement_desynchronized,
    implement_synchronous,
)
from repro.liberty import core9_hs, core9_ll
from repro.netlist import save_verilog, parse_verilog, Netlist


@pytest.fixture(scope="module")
def lib():
    return core9_hs()


def test_sync_flow_produces_reports(lib):
    mod = figure22_circuit(lib)
    result = implement_synchronous(mod, lib)
    assert result.post_synthesis.cells > 0
    assert result.post_layout is not None
    assert result.post_layout.cells >= result.post_synthesis.cells
    assert result.min_period > 0


def test_desync_flow_produces_reports(lib):
    mod = figure22_circuit(lib)
    result = implement_desynchronized(mod, lib)
    assert result.desync is not None
    assert result.post_layout.core_size > 0


@pytest.mark.parametrize(
    "flow", [implement_synchronous, implement_desynchronized]
)
def test_flow_without_engine_keeps_no_netlist_alive(lib, flow):
    """A flow called without ``engine=`` leaves nothing behind that
    pins its netlists once the caller drops them."""
    module = pipeline3(lib)
    ref = weakref.ref(module)
    result = flow(module, lib)
    assert result.post_synthesis.cells > 0
    del module, result
    gc.collect()
    assert ref() is None


def test_comparison_table_shape(lib):
    sync_mod = pipeline3(lib)
    desync_mod = sync_mod.clone()
    sync = implement_synchronous(sync_mod, lib, target_utilization=0.95)
    desync = implement_desynchronized(
        desync_mod, lib, target_utilization=0.91
    )
    table = compare_implementations("pipeline3", sync, desync)
    assert set(table.phases) == {"Post Synthesis", "Post Layout"}
    layout = table.phases["Post Layout"]
    assert layout["# cells"]["overhead_pct"] > 0
    assert layout["sequential logic (um2)"]["overhead_pct"] > 5
    text = table.to_text()
    assert "synchronous vs desynchronized" in text
    assert "core size" in text


def test_table_5_2_shape_small_arm(lib):
    """ARM-style: scan design, single region, sequential-heavy overhead."""
    library = core9_ll()
    sync_mod = arm9_core(library, target_cells=1500)
    desync_mod = sync_mod.clone()
    from repro.desync import DesyncOptions

    sync = implement_synchronous(sync_mod, library, target_utilization=0.80)
    desync = implement_desynchronized(
        desync_mod,
        library,
        options=DesyncOptions(grouping="single"),
        target_utilization=0.88,
    )
    table = compare_implementations("ARM", sync, desync)
    synth = table.phases["Post Synthesis"]
    # scan substitution drives the sequential overhead well above the
    # plain-FF case (paper: 40.7% vs 17.7%)
    assert synth["sequential logic (um2)"]["overhead_pct"] > 20


def test_cli_end_to_end(lib, tmp_path):
    mod = figure22_circuit(lib)
    netlist = Netlist()
    netlist.add_module(mod)
    src = tmp_path / "design.v"
    save_verilog(netlist, str(src))
    out_v = tmp_path / "out.v"
    out_sdc = tmp_path / "out.sdc"
    out_blif = tmp_path / "out.blif"
    out_gf = tmp_path / "out.gatefile"
    code = cli_main([
        str(src),
        "-o", str(out_v),
        "--sdc", str(out_sdc),
        "--blif", str(out_blif),
        "--gatefile", str(out_gf),
        "--cache-dir", str(tmp_path / "cache"),
        "--quiet",
    ])
    assert code == 0
    text = out_v.read_text()
    assert "module" in text and "CBRX1" in text
    again = parse_verilog(text)
    assert len(again.top.instances) > len(mod.ports)
    assert "create_clock" in out_sdc.read_text()
    assert ".model" in out_blif.read_text()
    assert "cell DFFX1" in out_gf.read_text()


def test_cli_single_region_and_margin(lib, tmp_path):
    mod = pipeline3(lib)
    netlist = Netlist()
    netlist.add_module(mod)
    src = tmp_path / "p3.v"
    save_verilog(netlist, str(src))
    out_v = tmp_path / "out.v"
    code = cli_main([
        str(src), "-o", str(out_v), "--group", "single",
        "--margin", "0.3", "--cache-dir", str(tmp_path / "cache"), "--quiet",
    ])
    assert code == 0
    assert out_v.exists()


def _write_design(lib, tmp_path, name="design.v"):
    mod = figure22_circuit(lib)
    netlist = Netlist()
    netlist.add_module(mod)
    src = tmp_path / name
    save_verilog(netlist, str(src))
    return src


def test_cli_version_exits_zero(capsys):
    assert cli_main(["--version"]) == 0
    from repro import __version__

    assert __version__ in capsys.readouterr().out


def test_package_version_matches_pyproject():
    # a regex, not tomllib: the suite also runs on Python 3.9
    from repro import __version__

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
    )
    assert match is not None, "no version line in pyproject.toml"
    assert __version__ == match.group(1)


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    # no positional input
    assert cli_main([]) == 1
    # bad choice for --group
    assert cli_main(["x.v", "--group", "bogus"]) == 1
    # the engine runs stages on the calling thread: no pool to size
    assert cli_main(["x.v", "--jobs", "2"]) == 1
    # "bench" is no verb: it parses as an input with a stray argument
    assert cli_main(["bench", "report"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_cli_flow_error_exits_two(tmp_path, capsys):
    code = cli_main([str(tmp_path / "missing.v"), "--no-cache", "--quiet"])
    assert code == 2
    assert "flow error" in capsys.readouterr().err


def test_cli_cache_journal_jobs_round_trip(lib, tmp_path):
    from repro.engine import read_journal

    src = _write_design(lib, tmp_path)
    cache_dir = tmp_path / "cache"
    journal = tmp_path / "run.jsonl"
    argv = [
        str(src),
        "-o", str(tmp_path / "out.v"),
        "--cache-dir", str(cache_dir),
        "--journal", str(journal),
        "--quiet",
    ]
    assert cli_main(argv) == 0
    cold = read_journal(str(journal))
    assert {e["event"] for e in cold} >= {"run_start", "stage_end", "run_end"}
    assert all(
        e["cache"] == "miss"
        for e in cold
        if e["event"] == "stage_end"
    )

    # warm re-run against the same cache: every stage is a hit
    assert cli_main(argv) == 0
    warm = read_journal(str(journal))
    hits = [e for e in warm if e.get("cache") == "hit"]
    assert {e["stage"] for e in hits} == {
        "import", "group", "ffsub", "ddg", "delays", "network", "constraints",
        "export",
    }


@pytest.mark.parametrize("damage", ["schema-bump", "truncated-sidecar"])
def test_cli_damaged_cache_matches_no_cache_run(lib, tmp_path, monkeypatch,
                                                damage):
    """Entries written under another cache schema, or with torn
    sidecars, are recomputed: exit 0 and the same bytes as a
    ``--no-cache`` run."""
    from repro.engine import cache as cache_mod, read_journal

    # every artifact in a sidecar of its own, so each can be torn
    monkeypatch.setattr(cache_mod, "INLINE_LIMIT", 0)
    src = _write_design(lib, tmp_path)

    def convert(tag, *flags):
        out_v, out_sdc = tmp_path / f"{tag}.v", tmp_path / f"{tag}.sdc"
        argv = [str(src), "-o", str(out_v), "--sdc", str(out_sdc), *flags]
        assert cli_main(argv + ["--quiet"]) == 0
        return out_v.read_bytes(), out_sdc.read_bytes()

    reference = convert("reference", "--no-cache")
    cache_dir = tmp_path / "cache"
    journal = tmp_path / "warm.jsonl"
    assert convert("cold", "--cache-dir", str(cache_dir)) == reference
    files = sorted(cache_dir.rglob("*.pkl"))
    manifests = [path for path in files if "." not in path.stem]
    sidecars = [path for path in files if "." in path.stem]
    assert manifests and sidecars
    if damage == "schema-bump":
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", "bumped")
    else:
        for path in sidecars:
            path.write_bytes(path.read_bytes()[:40])

    warm = convert(
        "warm", "--cache-dir", str(cache_dir), "--journal", str(journal)
    )
    assert warm == reference
    events = read_journal(str(journal))
    if damage == "schema-bump":
        stages = [e for e in events if e["event"] == "stage_end"]
        assert len(stages) == 8 and all(e["cache"] == "miss" for e in stages)
        assert events[-1]["cache_stats"]["rejected"] == 0
    else:
        assert [e for e in events if e["event"] == "cache_evict"]


# ---------------------------------------------------------------------------
# the cached re-run: keyed on the input bytes, answered from ``export``


def _cli_outputs(tmp_path, src, tag, *flags):
    """Run the CLI; returns ({suffix: bytes} of its outputs, the stage
    cache states of its run journal)."""
    from repro.engine import read_journal

    outputs = {
        suffix: tmp_path / f"{tag}.{suffix}"
        for suffix in ("v", "sdc", "blif", "gatefile")
    }
    argv = [str(src), "-o", str(outputs["v"]), "--sdc", str(outputs["sdc"])]
    for option in ("blif", "gatefile"):
        if f"--{option}" in flags:
            argv += [f"--{option}", str(outputs[option])]
    journal = tmp_path / f"{tag}.jsonl"
    argv += [flag for flag in flags if flag not in ("--blif", "--gatefile")]
    assert cli_main(argv + ["--journal", str(journal), "--quiet"]) == 0
    states = {
        event["stage"]: event["cache"]
        for event in read_journal(str(journal))
        if event["event"] == "stage_end"
    }
    written = {
        suffix: path.read_bytes()
        for suffix, path in outputs.items()
        if path.exists()
    }
    return written, states


def test_cli_rerun_reads_neither_netlist_nor_module(lib, tmp_path,
                                                    monkeypatch):
    """On a filled cache the CLI neither parses the input nor unpickles a
    ``Module``, and writes the bytes of a ``--no-cache`` run."""
    import repro.cli
    from repro.engine import cache as cache_mod
    from repro.engine.cache import LazyArtifact
    from repro.netlist.core import Module

    # every artifact in a sidecar of its own, so each load is seen
    monkeypatch.setattr(cache_mod, "INLINE_LIMIT", 0)
    src = _write_design(lib, tmp_path)
    cache = ("--cache-dir", str(tmp_path / "cache"))
    reference, _ = _cli_outputs(tmp_path, src, "reference", "--no-cache")
    cold, states = _cli_outputs(tmp_path, src, "cold", *cache)
    assert cold == reference and set(states.values()) == {"miss"}

    parses, modules = [], []

    def no_parse(path):
        parses.append(path)
        raise AssertionError("the input was parsed")

    load = LazyArtifact.load

    def spy_load(self):
        value = load(self)
        if isinstance(value, Module):
            modules.append(self.path)
        return value

    monkeypatch.setattr(repro.cli, "read_verilog", no_parse)
    monkeypatch.setattr(LazyArtifact, "load", spy_load)
    warm, states = _cli_outputs(tmp_path, src, "warm", *cache)
    assert warm == reference
    assert len(states) == 8 and set(states.values()) == {"hit"}
    assert parses == [] and modules == []


def test_cli_input_bytes_and_top_key_the_import(lib, tmp_path):
    """Any change to the input's bytes, or another ``--top``, misses
    ``import``: the run is keyed on the file, not on its netlist."""
    src = _write_design(lib, tmp_path)
    cache = ("--cache-dir", str(tmp_path / "cache"))
    reference, _ = _cli_outputs(tmp_path, src, "reference", "--no-cache")
    _cli_outputs(tmp_path, src, "cold", *cache)

    src.write_bytes(src.read_bytes() + b"\n")  # same netlist, new bytes
    edited, states = _cli_outputs(tmp_path, src, "edited", *cache)
    assert states["import"] == "miss" and states["delays"] == "hit"
    assert edited == reference

    top = parse_verilog(src.read_text()).top.name
    named, states = _cli_outputs(tmp_path, src, "named", *cache, "--top", top)
    assert states["import"] == "miss"
    assert named == reference
    _, states = _cli_outputs(tmp_path, src, "again", *cache, "--top", top)
    assert set(states.values()) == {"hit"}


def test_cli_new_margin_misses_only_downstream_stages(lib, tmp_path):
    src = _write_design(lib, tmp_path)
    cache = ("--cache-dir", str(tmp_path / "cache"))
    _cli_outputs(tmp_path, src, "cold", *cache)
    margin = ("--margin", "0.3")
    reference, _ = _cli_outputs(
        tmp_path, src, "reference", "--no-cache", *margin
    )
    warm, states = _cli_outputs(tmp_path, src, "warm", *cache, *margin)
    assert warm == reference
    assert {stage for stage, state in states.items() if state == "miss"} == {
        "network", "constraints", "export"
    }


def test_cli_blif_and_gatefile_on_a_filled_cache(lib, tmp_path):
    """``--blif`` re-runs only ``export``; both extra outputs match an
    uncached run."""
    src = _write_design(lib, tmp_path)
    cache = ("--cache-dir", str(tmp_path / "cache"))
    _cli_outputs(tmp_path, src, "cold", *cache)
    extra = ("--blif", "--gatefile")
    reference, _ = _cli_outputs(
        tmp_path, src, "reference", "--no-cache", *extra
    )
    assert set(reference) == {"v", "sdc", "blif", "gatefile"}
    warm, states = _cli_outputs(tmp_path, src, "warm", *cache, *extra)
    assert warm == reference
    assert {stage for stage, state in states.items() if state == "miss"} == {
        "export"
    }


def test_cli_import_loads_only_the_conversion(lib, tmp_path):
    """``import repro.cli`` plus a run on a filled cache loads no graph
    library, no process-pool machinery (``multiprocessing``,
    ``concurrent.futures``) and none of the packages a conversion does
    not run."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = _write_design(lib, tmp_path)
    argv = [str(src), "-o", str(tmp_path / "out.v"), "--cache-dir",
            str(tmp_path / "cache"), "--quiet"]
    assert cli_main(argv) == 0
    script = (
        "import json, sys\n"
        "import repro.cli\n"
        f"code = repro.cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    unwanted = (
        "networkx", "multiprocessing", "concurrent", "repro.sim",
        "repro.service", "repro.physical", "repro.dft", "repro.flow",
        "repro.power", "repro.variability", "repro.designs",
        "repro.obs.bench",
    )
    loaded = [
        name for name in modules
        if any(name == root or name.startswith(root + ".")
               for root in unwanted)
    ]
    assert loaded == []


# ---------------------------------------------------------------------------
# what one conversion process does to its interpreter and its cache dir


def test_cli_gc_policy_is_scoped_to_the_run(lib, tmp_path, monkeypatch):
    """``main`` raises the collector's threshold and freezes the
    start-up heap for one conversion, then leaves the thresholds, the
    enabled flag and the freeze count as it found them: after a success
    and after a flow error alike."""
    from repro.desync.tool import Drdesync
    from repro.engine.collector import GC_GEN0_THRESHOLD

    src = _write_design(lib, tmp_path)
    during = []
    convert = Drdesync.convert

    def spy(*args, **kwargs):
        during.append((gc.get_threshold()[0], gc.get_freeze_count() > 0))
        return convert(*args, **kwargs)

    monkeypatch.setattr(Drdesync, "convert", spy)
    before = (gc.get_threshold(), gc.isenabled(), gc.get_freeze_count())
    assert cli_main([str(src), "--no-cache", "--quiet"]) == 0
    assert (gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()) == before
    assert during == [(GC_GEN0_THRESHOLD, True)]
    # a flow error raised inside the policy
    assert cli_main([str(tmp_path / "missing.v"), "--no-cache",
                     "--quiet"]) == 2
    assert (gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()) == before


def test_cli_cache_evicts_oldest_entries_past_its_bound(lib, tmp_path,
                                                       monkeypatch):
    """A convert into a cache filled past the CLI's bound evicts the
    oldest entries and keeps the ones it has just written."""
    import os

    import repro.cli
    from repro.engine import ArtifactCache

    src = _write_design(lib, tmp_path)
    sized = tmp_path / "sized"
    _cli_outputs(tmp_path, src, "sized", "--cache-dir", str(sized))
    run_bytes = ArtifactCache(str(sized)).size_bytes()

    cache_dir = tmp_path / "cache"
    stale = ArtifactCache(str(cache_dir))
    old_keys = [f"{n:02d}" + "0" * 62 for n in range(4)]
    for age, key in enumerate(old_keys):
        assert stale.put(key, {"blob": b"x" * run_bytes})
        os.utime(stale._path(key), (1000.0 + age, 1000.0 + age))
    monkeypatch.setattr(repro.cli, "CACHE_MAX_BYTES", 2 * run_bytes)
    _outputs, states = _cli_outputs(
        tmp_path, src, "cold", "--cache-dir", str(cache_dir)
    )
    assert set(states.values()) == {"miss"}
    assert ArtifactCache(str(cache_dir)).size_bytes() <= 2 * run_bytes
    kept = [key for key in old_keys if os.path.exists(stale._path(key))]
    assert kept == old_keys[len(old_keys) - len(kept):]  # oldest go first
    assert len(kept) < len(old_keys)
    _outputs, states = _cli_outputs(
        tmp_path, src, "warm", "--cache-dir", str(cache_dir)
    )
    assert set(states.values()) == {"hit"}
