#!/usr/bin/env python3
"""End-to-end benchmark of the dead-reckoning simulator and location service.

Run one workload from the repository root::

    python3 e2ebench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` makes
the separate traced run that times each layer's public functions from
outside the program, prints the per-layer table and writes a Chrome trace
to ``e2ebench/out/``.  ``--workload all`` runs every workload, each in its
own process.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The run sets itself up several times (median ``setup_s``), makes one
warm-up round whose outputs are checked for correctness, then repeats
rounds of identical work for ``--seconds`` seconds (at least three).  Each
sweep point, fleet run and served request counts with its best time over
those rounds, scaled by a calibration kernel timed beside it.  See
``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("paper_sweep", "megafleet_columnar", "serve_live")
SETUP_REPEATS = 3
#: A p90 is reported only from pools with at least ten samples beyond it.
MIN_P90_SAMPLES = 100

_perf = time.perf_counter

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "updates_per_object_hour": "1/h",
    "ingest_updates_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_p90_ms": "ms",
    "query_cold_p50_ms": "ms",
    "query_cold_p90_ms": "ms",
    "query_warm_p50_ms": "ms",
    "query_warm_p90_ms": "ms",
}


def _pin_environment() -> None:
    """Re-execute under a fixed hash seed, one BLAS thread and no git walk-up."""
    want = {
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT),
    }
    if any(os.environ.get(k) != v for k, v in want.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, **want))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is the self-test smoke")
    return parser.parse_args(argv)


def _percentile_ms(values, q):
    from bench_serve import percentile

    return percentile(values, q) * 1e3


def _best(per_round):
    """Element-wise best (minimum) over rounds of aligned timing lists."""
    return [min(v for v in column if v is not None) for column in zip(*per_round)
            if any(v is not None for v in column)]


def end_to_end(workload, setup_s, peak_rss_mb, rounds, calibrated=True,
               min_p90_samples=MIN_P90_SAMPLES):
    """The end-to-end metrics of an untraced run.

    Every timed unit (sweep point, fleet run) and every served operation
    repeats identically in each round; each counts with its best time over
    the rounds, which filters out the machine's short contention bursts.
    With ``calibrated`` every time is first scaled by its round's
    calibration (see ``bench_calibrate``), which removes the slow drift of
    the machine's speed; ``setup_s`` holds ``(raw, scale)`` pairs.
    """
    sp = workload.serve_plan

    def scaled(times, cal):
        k = cal.scale if calibrated else 1.0
        return [None if t is None else t * k for t in times]

    best_ops = _best([scaled(r.serve.op_s, r.cal_serve) for r in rounds])
    ingest = [t for t, (kind, _i, _c) in zip(best_ops, sp.schedule) if kind == "ingest"]
    pools = {
        "ingest": ingest,
        "query_cold": [t for t, (kind, _i, cold) in zip(best_ops, sp.schedule)
                       if kind == "query" and cold],
        "query_warm": [t for t, (kind, _i, cold) in zip(best_ops, sp.schedule)
                       if kind == "query" and not cold],
    }
    if rounds[0].unit_s:
        samples_per_s = sum(rounds[0].unit_samples) / sum(
            _best([scaled(r.unit_s, r.cal_sim) for r in rounds]))
    else:  # serving only: sightings of the replayed fleet per second
        samples_per_s = sp.sightings / sum(best_ops)
    values = {
        "setup_s": statistics.median(t * (k if calibrated else 1.0) for t, k in setup_s),
        "peak_rss_mb": peak_rss_mb,
        "samples_per_s": samples_per_s,
        "updates_per_object_hour": rounds[0].updates / rounds[0].object_hours,
        "ingest_updates_per_s": sp.plan.total_updates / sum(ingest),
    }
    for pool, samples in pools.items():
        if len(samples) < min_p90_samples:
            raise RuntimeError(f"{pool}: {len(samples)} samples, a p90 needs {min_p90_samples}")
        values[f"{pool}_p50_ms"] = _percentile_ms(samples, 50)
        values[f"{pool}_p90_ms"] = _percentile_ms(samples, 90)
    counts = {pool: len(samples) for pool, samples in pools.items()}
    return {k: values[k] for k in E2E_UNITS}, counts


def _manifest(args, workload, timings):
    from repro.obs.manifest import build_manifest

    config = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "setup_repeats": SETUP_REPEATS,
              "inputs": workload.cfg}
    return build_manifest(seed=args.seed, config=config, timings=timings, cwd=ROOT)


def _rounds(workload, reference, seconds, min_rounds, traced_tracer=None):
    """Untraced rounds (or untraced/traced pairs) for at least ``seconds``.

    Untraced runs calibrate every round; the trace run compares traced and
    untraced rounds of equal shape, so it calibrates neither.  Each round's
    outputs are compared with the warm-up round's digest and then dropped.
    Peak memory is read after the first ``min_rounds`` rounds, so it covers
    the same work whatever the machine's speed.
    """
    from bench_layers import install_program_hooks

    plain, traced, differing, peak_rss_mb = [], [], 0, None
    deadline = _perf() + seconds
    while len(plain) < min_rounds or _perf() < deadline:
        rounds = [(plain, None)]
        if traced_tracer is not None:
            rounds.append((traced, traced_tracer))
        for bucket, tracer in rounds:
            if tracer is not None:
                install_program_hooks(tracer)
            try:
                rnd = workload.run_round(tracer, calibrate=traced_tracer is None)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            differing += workload.digest(rnd) != reference
            rnd.outputs = None
            rnd.serve.report = None
            bucket.append(rnd)
        if len(plain) == min_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return plain, traced, differing, peak_rss_mb


def run_workload(args):
    from bench_workloads import MIN_ROUNDS, WORKLOADS

    make = WORKLOADS[args.workload]
    setup_s = []
    setup_tracer = round_tracer = spans = None
    if args.trace:
        from bench_layers import LayerTracer, install_program_hooks
        from repro.obs.trace import SpanTracer

        spans = SpanTracer()
        setup_tracer, round_tracer = LayerTracer(spans), LayerTracer(spans)
        workload = make(args.size, args.seed)
        install_program_hooks(setup_tracer)
        try:
            started = _perf()
            workload.setup()
            setup_s.append((_perf() - started, 1.0))
        finally:
            setup_tracer.uninstall()
    else:
        from bench_calibrate import Calibrator

        for _ in range(SETUP_REPEATS):
            # A fresh object each time: the previous inputs are freed first.
            workload = None
            gc.collect()
            workload = make(args.size, args.seed)
            cal = Calibrator()
            cal.slice(5)
            started = _perf()
            workload.setup()
            elapsed = _perf() - started
            cal.slice(5)
            setup_s.append((elapsed, cal.scale))

    gc.collect()
    if workload.freeze_setup:
        # The set-up's objects go to the permanent generation, so collections
        # in the rounds traverse only what the rounds allocate (see README).
        gc.freeze()
    warm = workload.run_round()
    reference = workload.digest(warm)
    # Per-layer figures have no bound: the trace run makes one untraced /
    # traced pair at least, which keeps a 10k-object serving run short.
    plain, traced, differing, peak_rss_mb = _rounds(
        workload, reference, args.seconds, 1 if args.trace else MIN_ROUNDS, round_tracer)
    problems = workload.check(warm)
    if differing:
        problems.append(f"{differing} repeated rounds produced outputs unlike the first")
    every = [warm] + plain + traced
    attempted = sum(r.operations for r in every)
    failed = sum(r.failed for r in every)

    timings = {"setup_median_s": statistics.median(t for t, _k in setup_s),
               "rounds": len(plain), "traced_rounds": len(traced)}
    print(json.dumps({"manifest": _manifest(args, workload, timings)}, sort_keys=True))
    if args.trace:
        metrics = _layer_report(args, workload, setup_tracer, round_tracer, spans, plain, traced)
    else:
        # The tiny smoke has too few operations for a p90 with ten beyond it.
        min_p90 = MIN_P90_SAMPLES if args.size == "full" else 1
        values, counts = end_to_end(workload, setup_s, peak_rss_mb, plain, True, min_p90)
        raw, _counts = end_to_end(workload, setup_s, peak_rss_mb, plain, False, min_p90)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        scales = [r.cal_serve.scale for r in plain]
        print(f"{args.workload}: {len(plain)} timed rounds (best of them per unit and "
              f"operation), operations per latency pool {counts}, serve calibration scale "
              f"{min(scales):.3f}..{max(scales):.3f}")
        print(f"  {'metric':<26} {'calibrated':>14} {'raw':>14}")
        for name, m in metrics.items():
            print(f"  {name:<26} {m['value']:>14.6g} {raw[name]:>14.6g} {m['unit']}")
    by_kind = {kind: {"attempted": sum(r.attempted[kind] for r in every),
                      "failed": sum(r.failures[kind] for r in every)} for kind in warm.attempted}
    print(json.dumps({"operations": {"rounds": len(every), "attempted": attempted,
                                     "failed": failed, "by_kind": by_kind},
                      "problems": problems}))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_report(args, workload, setup_tracer, round_tracer, spans, plain, traced):
    from bench_layers import PER_LAYER, layer_values, unit_of

    untraced_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    computed = {
        "trace.coverage": sum(r.covered_s for r in traced) / sum(r.wall_s for r in traced),
        "trace.overhead_s": traced_wall - untraced_wall,
        "service.facade.handoffs": statistics.mean(r.serve.handoffs for r in traced),
    }
    if hasattr(workload, "array_bytes"):
        computed["sim.columnar.array_bytes"] = workload.array_bytes()
    values = layer_values(setup_tracer, round_tracer, len(traced), computed)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    trace_path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(spans.to_chrome(), fh)

    n = len(traced)
    print(f"{args.workload}: {n} traced rounds, {len(plain)} untraced; per traced round:")
    print(f"  {'layer span':<34} {'calls':>10} {'busy_s':>10} {'self_s':>10}")
    stats = sorted(round_tracer.stats.items(), key=lambda kv: -kv[1].self_s)
    for name, st in stats:
        print(f"  {name:<34} {st.calls / n:>10.1f} {st.busy_s / n:>10.4f} {st.self_s / n:>10.4f}")
    for name, st in setup_tracer.stats.items():
        print(f"  setup:{name:<28} {st.calls:>10d} {st.busy_s:>10.4f} {st.self_s:>10.4f}")
    absent = sorted(set(setup_tracer.absent) | set(round_tracer.absent))
    print(f"  absent (wrapped function not found): {absent or 'none'}")
    print(f"  coverage {computed['trace.coverage']:.3f} of traced wall; overhead "
          f"{computed['trace.overhead_s']:.4f} s per round "
          f"({traced_wall:.4f} s traced vs {untraced_wall:.4f} s untraced)")
    print(f"  chrome trace: {os.path.relpath(trace_path, ROOT)}")
    return {name: {"value": values[name], "unit": unit_of(name)} for name, _s, _f in PER_LAYER}


def run_all(args) -> int:
    """Every workload in its own process; one summary line per workload."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    _pin_environment()
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"e2ebench: the program's source is missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
