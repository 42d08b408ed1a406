"""Harness self-test: every workload, untraced and traced, on the
small designs of ``--tiny``, in seconds rather than minutes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from spans import self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    BENCHMARK = json.load(_spec)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(root, workload, trace, seed=3):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {spec["name"]: spec["unit"] for spec in specs}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(name + " ") and line.endswith(" " + unit)
            for line in lines[:-1]
        ), f"{name} not printed with its unit"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_output_counts_every_op_as_failed(tmp_path):
    """A digest mismatch fails the op instead of counting its time."""
    shutil.copytree(HERE, tmp_path / "perfbench")
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    digests_path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text())
    digests["dlx-tiny"]["sdc"] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    proc = run_bench(str(tmp_path), "dlx_convert", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(str(tmp_path), "dlx_convert", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, "op"],
        ["inner", 1.0, 4.0, 0, "op"],
        ["inner", 3.0, 5.0, 0, "op"],  # overlaps its sibling
        ["leaf", 1.5, 2.0, 1, "op"],
    ]
    times = self_times(spans)
    assert times[("op", "outer")] == pytest.approx(6.0)
    assert times[("op", "inner")] == pytest.approx(4.5)
    assert times[("op", "leaf")] == pytest.approx(0.5)


def test_op_time_is_scaled_slice_by_slice_by_the_probes_around_it():
    """Probes inside an op are taken out; each slice of the op is scaled
    by the probes on its two sides."""
    sampler = hostspeed.Sampler.__new__(hostspeed.Sampler)
    sampler.starts = [0.0, 2.0, 5.0]
    sampler.probes = [0.1, 0.2, 0.1]
    ref = hostspeed.REFERENCE_S
    assert sampler.measure(1.0, 1.5) == pytest.approx(
        (0.5, 0.5 * ref / 0.15)
    )
    assert sampler.measure(1.0, 3.0) == pytest.approx(
        (1.8, 1.0 * ref / 0.15 + 0.8 * ref / 0.15)
    )
    with pytest.raises(ValueError):
        sampler.measure(5.5, 6.0)  # no probe after the op


def test_a_host_twice_as_slow_reads_the_same():
    fast = hostspeed.Sampler.__new__(hostspeed.Sampler)
    fast.starts, fast.probes = [0.0, 1.1], [0.05, 0.05]
    slow = hostspeed.Sampler.__new__(hostspeed.Sampler)
    slow.starts, slow.probes = [0.0, 2.2], [0.1, 0.1]
    assert fast.measure(0.05, 1.05)[1] == pytest.approx(
        slow.measure(0.1, 2.1)[1]
    )
