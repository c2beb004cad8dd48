"""Smoke test of the benchmark itself, on tiny instances (the 2x2 pencil,
the m 2 2 2 2 four-vertex quiver and small tensor verbs).

    python -m pytest bench/test_bench.py
"""

import dataclasses
import json
import subprocess
import sys

import pytest

import run
from workloads import (QUIVER4, QUIVER4_SMALL, WORKLOADS, natural_generator_count,
                       pencil, write_quiver_files)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(trace):
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "smoke",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_digest_drives_error_rate_to_one():
    invocations = [dataclasses.replace(inv, digest="0" * 64)
                   for inv in WORKLOADS["smoke"].invocations if "{quiver}" not in inv.argv]
    run.WORK.mkdir(exist_ok=True)
    p = run.run_pass(invocations, [inv.argv for inv in invocations], run.child_env())
    assert p.failed / len(invocations) == 1.0


def test_generator_counts_match_known_instances():
    # counts quoted in the README, ROADMAP and acceptance criterion 02
    assert natural_generator_count(pencil(3, 3, 2, 2, 2)) == 72
    assert natural_generator_count(pencil(3, 3, 3, 2, 2)) == 189
    assert natural_generator_count(pencil(4, 4, 2, 3, 3)) == 416
    assert natural_generator_count(QUIVER4) == 190
    assert natural_generator_count(QUIVER4_SMALL) == 108


def test_seeded_orders_are_valid_and_differ():
    sys.path.insert(0, str(run.SRC))
    directory = run.WORK / "test-orders"
    orders = set()
    for seed in range(5):
        write_quiver_files(QUIVER4, seed, directory)  # raises on an invalid order
        orders.add((directory / "order.txt").read_text())
    assert len(orders) == 5
