"""Implementation-flow and CLI tests."""

import re
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
        "--jobs", "2",
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
        "import", "group", "ffsub", "ddg", "delays", "network", "constraints"
    }


@pytest.mark.parametrize("damage", ["foreign-stamp", "truncated-sidecar"])
def test_cli_damaged_cache_matches_no_cache_run(lib, tmp_path, monkeypatch,
                                                damage):
    """Entries from another class layout, or with torn sidecars, are
    recomputed: exit 0 and the same bytes as a ``--no-cache`` run."""
    import pickle

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
    if damage == "foreign-stamp":
        for path in manifests:
            manifest = pickle.loads(path.read_bytes())
            manifest["layout"] = "0" * 16
            path.write_bytes(pickle.dumps(manifest))
    else:
        for path in sidecars:
            path.write_bytes(path.read_bytes()[:40])

    warm = convert(
        "warm", "--cache-dir", str(cache_dir), "--journal", str(journal)
    )
    assert warm == reference
    events = read_journal(str(journal))
    if damage == "foreign-stamp":
        stages = [e for e in events if e["event"] == "stage_end"]
        assert stages and all(e["cache"] == "miss" for e in stages)
        assert events[-1]["cache_stats"]["rejected"] == len(stages)
    else:
        assert [e for e in events if e["event"] == "cache_evict"]
