#!/usr/bin/env python3
"""Self-tests of the benchmark's checks, plus a tiny smoke of every workload.

    python3 e2ebench/selftest.py

Each check is fed a deliberately broken output and must fail: one served
answer altered, an error sample above the accuracy bound, one columnar
lane's update count changed, one tick/event update-count mismatch.  The
unbroken outputs must pass.  The smoke runs ``run.py --size tiny`` for
every workload (untraced and traced) and checks the result line's shape.
Exits non-zero when any test fails.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_checks as checks  # noqa: E402
from bench_layers import Hook, LayerTracer  # noqa: E402
from bench_serve import check_replay  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


def _warm(name, seed=5):
    workload = WORKLOADS[name]("tiny", seed)
    workload.setup()
    return workload, workload.run_round()


def test_served_answer_altered():
    workload, warm = _warm("serve_live")
    assert workload.check(warm) == [], workload.check(warm)
    records = warm.serve.report.query_records
    index = next(i for i, (_c, _s, answer) in enumerate(records) if answer)
    call_index, at_seq, answer = records[index]
    altered = list(answer)
    altered[0] = (altered[0][0], altered[0][1] + 1e-9) if isinstance(altered[0], tuple) \
        else altered[0] + "x"
    records[index] = (call_index, at_seq, altered)
    problems = check_replay(workload.serve_plan, warm.serve, sample_seed=0,
                            sample_size=len(records))
    assert any("reference replay" in p for p in problems), problems
    assert any("NumPy" in p for p in problems), problems


def test_error_above_bound():
    workload, warm = _warm("paper_sweep")
    rows = workload.sweep_rows(warm)
    assert checks.check_sweep_points(rows) == []
    broken = copy.deepcopy(rows)
    broken[0]["max_error"] = broken[0]["us"] + broken[0]["noise"] + 0.001
    problems = checks.check_sweep_points(broken)
    assert len(problems) == 1 and "exceeds" in problems[0], problems
    broken = copy.deepcopy(rows)
    broken[1]["updates_per_hour"] *= 1.0 + 1e-9
    assert len(checks.check_sweep_points(broken)) == 1


def test_columnar_lane_count_changed():
    workload, warm = _warm("megafleet_columnar")
    assert workload.check(warm) == [], workload.check(warm)
    results = warm.outputs.results
    lane = workload.lanes[0].object_id
    results[lane].updates += 1
    problems = workload.check(warm)
    assert any(lane in p and "oracle" in p for p in problems), problems


def test_bitwise_lane_mismatch():
    import numpy as np

    row = {"updates": 3}
    ok = {"a": (row, np.zeros(4))}
    assert checks.check_bitwise_lanes(ok, {"a": (dict(row), np.zeros(4))}) == []
    assert checks.check_bitwise_lanes(ok, {"a": ({"updates": 4}, np.zeros(4))})
    assert checks.check_bitwise_lanes(ok, {"a": (dict(row), np.full(4, 1e-12))})


def test_tick_event_mismatch():
    assert checks.check_kernel_parity([("city/map/us=100", 12, 12)]) == []
    problems = checks.check_kernel_parity([("city/map/us=100", 12, 12), ("walking/linear", 7, 8)])
    assert len(problems) == 1 and "walking/linear" in problems[0], problems


def test_absent_hook_reported():
    tracer = LayerTracer()
    tracer.install([Hook("gone.layer", "repro.no_such_module", "f"),
                    Hook("gone.method", "repro.sim.fleet", "FleetSimulation.no_such_method")])
    tracer.uninstall()
    assert tracer.absent == ["gone.layer", "gone.method"], tracer.absent


def _smoke(name, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(want), sorted(result["metrics"])
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"], metric


def test_smoke_all_workloads():
    for name in WORKLOADS:
        _smoke(name, trace=0)
        _smoke(name, trace=1)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:  # noqa: BLE001 — report every failing test
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
