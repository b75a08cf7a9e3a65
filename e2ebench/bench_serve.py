"""The serving phase shared by all workloads.

A fleet's update stream (:func:`repro.service.loadgen.build_replay_plan`)
is replayed in simulated-time order against a
:class:`~repro.service.live.server.LiveLocationServer` over a sharded
:class:`~repro.service.facade.LocationService`, through one lockstep
:class:`~repro.service.live.client.LiveClient` connection in the same
process (closed loop).  Between batches come query waves: a seeded Poisson
stream of instants with several range / nearest / geofence queries each.
The first query of a wave is cold (it pays ``prepare``), the rest are warm.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.protocols.prediction import LinearPrediction
from repro.service.live.client import LiveClient, LiveRequestError
from repro.service.live.server import LiveLocationServer
from repro.service import loadgen
from repro.service.loadgen import LoadTestReport, ReplayPlan, mismatched_answers, service_for_plan
from repro.sim.workload import QUERY_KINDS, QueryCall, QueryWorkload

from bench_checks import check_served, linear_answer

_perf = time.perf_counter


@dataclass
class ServeSpec:
    waves: int  # query instants per replay
    per_wave: int  # queries per instant (1 cold + per_wave - 1 warm)
    shards: int
    seed: int


@dataclass
class ServePlan:
    plan: ReplayPlan
    spec: ServeSpec
    #: ``(kind, index, cold)`` in lockstep order; ``kind`` is ``"ingest"``
    #: (index into the batches) or ``"query"`` (index into the calls).
    schedule: list
    #: Sighting samples (object x instant at which it reports) of the fleet.
    sightings: int


@dataclass
class ServeRound:
    wall_s: float
    #: Client-observed latency of each schedule entry (``None``: it failed).
    op_s: List[Optional[float]] = field(default_factory=list)
    updates: int = 0
    failures: Dict[str, int] = field(
        default_factory=lambda: {"ingest_batches": 0, "queries": 0})
    handoffs: int = 0
    report: Optional[LoadTestReport] = None


def query_waves(area, start: float, end: float, spec: ServeSpec,
                workload: QueryWorkload) -> List[QueryCall]:
    """``spec.waves`` Poisson instants over ``(start, end)``, ``per_wave`` calls each."""
    rng = random.Random(spec.seed)
    weights = [float(workload.mix.get(kind, 0.0)) for kind in QUERY_KINDS]
    rate = spec.waves / max(end - start, 1e-9)
    calls: List[QueryCall] = []
    t = start + rng.expovariate(rate)
    instants = []
    while len(instants) < spec.waves:
        if t >= end:  # wrap around so every replay has exactly spec.waves waves
            t = start + (t - start) % (end - start)
        instants.append(t)
        t += rng.expovariate(rate)
    for t in sorted(instants):
        for _ in range(spec.per_wave):
            kind = rng.choices(QUERY_KINDS, weights=weights)[0]
            calls.append(QueryCall(time=t, kind=kind,
                                   cx=rng.uniform(area.min_x, area.max_x),
                                   cy=rng.uniform(area.min_y, area.max_y)))
    return calls


def build_serve_plan(lanes, spec: ServeSpec) -> ServePlan:
    """Extract the fleet's update stream and lay out the lockstep schedule.

    Each simulated instant's batch is one ingest request, as the tick
    kernel and ``loadgen``'s own replay send it.
    """
    workload = QueryWorkload(arrival_rate_per_s=1.0, seed=spec.seed)
    # Called through the module so the traced set-up can wrap it.
    plan = loadgen.build_replay_plan(lanes, workload, max_queries=0)
    calls = query_waves(plan.area, plan.start, plan.end, spec, workload)
    plan = dataclasses.replace(plan, calls=calls)
    merged = [(t, 0, "ingest", i) for i, (t, _b) in enumerate(plan.batches)]
    merged += [(c.time, 1, "query", i) for i, c in enumerate(calls)]
    merged.sort(key=lambda e: (e[0], e[1], e[3]))
    schedule = []
    last_time = None
    for _t, _prio, kind, index in merged:
        if kind == "query":
            cold = calls[index].time != last_time
            last_time = calls[index].time
            schedule.append((kind, index, cold))
        else:
            last_time = None
            schedule.append((kind, index, False))
    return ServePlan(plan=plan, spec=spec, schedule=schedule,
                     sightings=sum(len(lane.sensor_trace) for lane in lanes))


async def _replay(sp: ServePlan, tracer=None, cal=None) -> ServeRound:
    plan = sp.plan
    service = service_for_plan(plan, n_shards=sp.spec.shards)
    server = LiveLocationServer(service)
    host, port = await server.start()
    report = LoadTestReport(mode="lockstep", clients=1)
    report.batch_seqs = [None] * len(plan.batches)
    out = ServeRound(wall_s=0.0, report=report)
    try:
        async with await LiveClient.connect(host, port) as client:
            last_seq = 0
            gc.collect()
            started = _perf()
            for kind, index, _cold in sp.schedule:
                if cal is not None:
                    cal.maybe()
                if kind == "ingest":
                    t, batch = plan.batches[index]
                    t0 = _perf()
                    if tracer is None:
                        response = await client.ingest(t, batch, check=False)
                    else:
                        with tracer.span("service.live.ingest"):
                            response = await client.ingest(t, batch, check=False)
                    latency = _perf() - t0
                    if response.get("ok", False):
                        last_seq = int(response["seq"])
                        report.batch_seqs[index] = last_seq
                        out.updates += len(batch)
                        out.op_s.append(latency)
                    else:
                        out.failures["ingest_batches"] += 1
                        out.op_s.append(None)
                    continue
                call = plan.calls[index]
                t0 = _perf()
                try:
                    if tracer is None:
                        answer, at_seq = await client.query_call(
                            plan.workload, call, min_seq=last_seq
                        )
                    else:
                        with tracer.span("service.live.query"):
                            answer, at_seq = await client.query_call(
                                plan.workload, call, min_seq=last_seq
                            )
                except LiveRequestError:
                    out.failures["queries"] += 1
                    out.op_s.append(None)
                    continue
                out.op_s.append(_perf() - t0)
                report.query_records.append((index, at_seq, answer))
            out.wall_s = _perf() - started
    finally:
        await server.stop()
    out.handoffs = int(service.service_stats().get("handoffs", 0))
    return out


def replay(sp: ServePlan, tracer=None, cal=None) -> ServeRound:
    """One closed-loop replay of the plan against a fresh server.

    With a :class:`~bench_calibrate.Calibrator`, calibration slices run
    between requests (never inside a timed one).
    """
    return asyncio.run(_replay(sp, tracer, cal))


def check_replay(sp: ServePlan, first: ServeRound, sample_seed: int,
                 sample_size: int = 40) -> List[str]:
    """Served answers vs the reference replay and a NumPy recomputation."""
    plan, report = sp.plan, first.report
    mismatches = mismatched_answers(plan, report, n_shards=sp.spec.shards)
    numpy_bad: List[int] = []
    if all(isinstance(pred, LinearPrediction) for _id, pred, _acc in plan.registrations):
        numpy_bad = numpy_sample_mismatches(plan, report, sample_seed, sample_size)
    return check_served(
        len(plan.batches), report.accepted_batches, len(plan.calls),
        len(report.query_records), mismatches, numpy_bad,
    )


def numpy_sample_mismatches(plan: ReplayPlan, report: LoadTestReport,
                            sample_seed: int, sample_size: int) -> List[int]:
    """Recompute a seeded sample of answers from the update log with NumPy."""
    records = report.query_records
    picked = set(random.Random(sample_seed).sample(range(len(records)),
                                                   min(sample_size, len(records))))
    applied = sorted((seq, i) for i, seq in enumerate(report.batch_seqs) if seq is not None)
    states = {}
    cursor = 0
    bad = []
    for r in sorted(picked, key=lambda r: records[r][1]):
        call_index, at_seq, live = records[r]
        while cursor < len(applied) and applied[cursor][0] <= at_seq:
            for object_id, message in plan.batches[applied[cursor][1]][1]:
                s = message.state
                states[object_id] = (float(s.time), float(s.position[0]), float(s.position[1]),
                                     float(s.velocity[0]), float(s.velocity[1]))
            cursor += 1
        call = plan.calls[call_index]
        if linear_answer(call.kind, states, call, plan.workload) != live:
            bad.append(call_index)
    return bad


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
