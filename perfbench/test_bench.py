"""Self-test of the benchmark, at a tiny size.

    python3 -m pytest -q perfbench/test_bench.py

Checks that every declared metric is printed with its unit, that an item
made to fail its check is counted as failed rather than dropped, that
BENCHMARK.json agrees with the catalogue in layers.py, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from run import tail  # noqa: E402

WORKLOADS = list(layers.WORKLOADS)
TINY_SECONDS = "0.3"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expected_metrics(trace: int) -> dict[str, str]:
    if trace == 0:
        return {name: unit for name, (unit, _, _) in
                layers.END_TO_END.items()}
    from divalg import verify
    return {name: unit for name, (unit, _) in
            layers.per_layer(verify.check_names()).items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0",
                 "--seconds", TINY_SECONDS, "--trace", str(trace))
    record, res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected_metrics(trace)
    assert all(isinstance(m["value"], float)
               for m in res["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())
        assert record["failed_ratio"] == 0.0
        printed = {line.split()[0]: line.split()[-1]
                   for line in proc.stdout.splitlines()[:-2]}
        has_tail = record["item_tail"]["percentile"] is not None
        assert printed == {name: unit for name, (unit, *_) in
                           {**layers.END_TO_END, **layers.REPORTED}.items()
                           if name != "item_tail_ms" or has_tail}
    else:
        assert record["overhead_base"]["untraced_items"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_failed_item_is_counted_not_dropped(workload):
    proc = bench("--workload", workload, "--seed", "0",
                 "--seconds", TINY_SECONDS, "--trace", "0",
                 "--corrupt-item", "0")
    record, res = result(proc)
    assert res["correct"] is False
    assert res["failed"] >= 1
    assert record["failures_shown"][0].startswith("item 0:")
    assert record["failed_ratio"] == res["failed"] / res["attempted"]


def test_benchmark_json_matches_the_catalogue():
    from divalg import verify
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        layers.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == \
        layers.per_layer(verify.check_names())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "classify", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(v) for v in range(19)]) == (None, None)
