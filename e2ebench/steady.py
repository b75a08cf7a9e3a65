#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: repeat every workload, compare sets.

    python3 e2ebench/steady.py --runs 10 --sets 2 --seconds 20

Runs ``e2ebench/run.py`` ``--runs`` times per workload (one process per
run, seed ``--first-seed + i`` for run ``i``, workload order alternating
between runs), and prints for every end-to-end metric its median, first
and third quartile (``statistics.quantiles(n=4)``) and the quartile spread
as a share of the median, next to the metric's bound in ``BENCHMARK.json``.
With ``--sets 2`` the schedule runs again on the next ``--runs`` seeds and
the second set's median is compared with the first's in the metric's worse
direction (other seeds, so the seed-to-seed variation of the deterministic
``updates_per_object_hour`` is part of the comparison).  Raw results
go to ``e2ebench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - started
    return result


def run_set(workloads, runs, first_seed, seconds, log) -> dict:
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, first_seed + i, seconds)
            results[w].append(r)
            log(f"  {w:<20} seed {first_seed + i:<4} {r['run_wall_s']:6.1f} s  "
                f"correct={r['correct']} failed={r['failed']}/{r['attempted']}")
    return results


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(bench, sets) -> bool:
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        print(f"\n{name}")
        print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>6} {'<b/3':>5}" + (f" {'median 2':>12} {'worse':>7} {'ok':>3}"
                                             if len(sets) > 1 else ""))
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in sets[0][name]]
            med, q1, q3, sp = spread(values)
            third = sp <= m["bound"] / 3
            line = (f"  {m['name']:<26} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>7.3f} "
                    f"{m['bound']:>6.2f} {'yes' if third else 'NO':>5}")
            ok &= sp <= m["bound"]
            if len(sets) > 1:
                med2 = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in sets[1][name])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                good = worse <= m["bound"]
                ok &= good
                line += f" {med2:>12.6g} {worse:>7.3f} {'yes' if good else 'NO':>3}"
            print(line)
        shares = [{r["failed"] / r["attempted"] for r in s[name]} for s in sets]
        print(f"  failed share per run: {shares}")
        ok &= all(len(s) == 1 for s in shares) and len({min(s) for s in shares}) == 1
        ok &= all(r["correct"] for s in sets for r in s[name])
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bench["workloads"] = [w for w in bench["workloads"] if w["name"] in names]
    sets = []
    for k in range(args.sets):
        first_seed = args.first_seed + k * args.runs
        print(f"set {k + 1}: {args.runs} runs x {names}, seeds {first_seed}.."
              f"{first_seed + args.runs - 1}, {seconds} s each", flush=True)
        sets.append(run_set(names, args.runs, first_seed, seconds,
                            lambda line: print(line, flush=True)))
    ok = report(bench, sets)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "runs": args.runs, "sets": sets}, fh)
    print(f"\n{'all spreads and medians within bounds' if ok else 'OUT OF BOUNDS'}; raw: "
          f"{os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
