"""The three workloads: inputs, timed rounds, correctness checks, metrics.

Each workload object builds its inputs from the seed in :meth:`setup`,
runs one round of identical work in :meth:`run_round` (a simulation phase
and/or a serving phase, each timed on its own), and checks a round's
outputs against computations made apart from the program's fast paths in
:meth:`check`.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.protocols.linear import LinearPredictionProtocol
from repro.service.live.server import LiveLocationServer
from repro.service.loadgen import service_for_plan
from repro.sim.columnar import ColumnarFleetEngine
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.sim.runner import ScenarioSpec, SweepRunner, clear_scenario_cache
from repro.traces.trace import Trace

import bench_checks as checks
from bench_calibrate import Calibrator
from bench_serve import ServeRound, ServeSpec, build_serve_plan, check_replay, replay

_perf = time.perf_counter

SCENARIOS = ("freeway", "interurban", "city", "walking")
PROTOCOLS = ("linear", "map")

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` is the
#: seconds-long smoke used by the self-tests.
SIZES = {
    "paper_sweep": {
        "full": dict(scale=0.25, routes=3, us_car=(50.0, 100.0, 200.0),
                     us_walk=(20.0, 50.0, 100.0), probe_us=100.0, waves=120, per_wave=4,
                     shards=2, parity_points=8),
        "tiny": dict(scale=0.05, routes=1, us_car=(100.0,), us_walk=(50.0,),
                     probe_us=100.0, waves=12, per_wave=3, shards=2, parity_points=2),
    },
    "megafleet_columnar": {
        "full": dict(objects=10_000, samples=240, us=50.0, oracle_lanes=10_000,
                     scalar_lanes=48, probe_objects=250, probe_samples=120,
                     waves=120, per_wave=4, shards=2),
        "tiny": dict(objects=300, samples=40, us=50.0, oracle_lanes=300,
                     scalar_lanes=8, probe_objects=30, probe_samples=20,
                     waves=12, per_wave=3, shards=2),
    },
    "serve_live": {
        "full": dict(objects=10_000, seconds=104, period=4, us=50.0, waves=100, per_wave=6,
                     shards=4, answer_sample=40),
        "tiny": dict(objects=300, seconds=24, period=4, us=50.0, waves=12, per_wave=3,
                     shards=4, answer_sample=10),
    },
}

#: Timed rounds each run makes at least (after the warm-up round): every
#: timed unit and served operation is reported as its best of these.
MIN_ROUNDS = 3

CITY_EXTENT_M = 12_000.0


def random_walk_fleet(n_objects: int, n_samples: int, seed: int):
    """A homogeneous city fleet on one 1 Hz grid: ``(times, positions)``.

    Each object starts uniformly in a 12 km square and drives a velocity
    random walk (Gaussian acceleration around an 11-60 km/h cruise).
    """
    rng = np.random.default_rng(seed)
    times = np.arange(n_samples, dtype=float)
    starts = rng.uniform(0.0, CITY_EXTENT_M, size=(n_objects, 1, 2))
    headings = rng.uniform(0.0, 2.0 * np.pi, size=n_objects)
    speeds = rng.uniform(3.0, 17.0, size=n_objects)
    v0 = np.stack([speeds * np.cos(headings), speeds * np.sin(headings)], axis=1)
    accel = rng.normal(0.0, 0.6, size=(n_objects, n_samples, 2))
    velocity = v0[:, None, :] + np.cumsum(accel, axis=1)
    steps = np.zeros((n_objects, n_samples, 2))
    steps[:, 1:, :] = velocity[:, :-1, :]
    return times, starts + np.cumsum(steps, axis=1)


def linear_lanes(times, positions, accuracy: float, prefix: str = "mf"):
    return [
        FleetLane(object_id=f"{prefix}/{k:06d}",
                  protocol=LinearPredictionProtocol(accuracy),
                  sensor_trace=Trace(times, positions[k]))
        for k in range(positions.shape[0])
    ]


def staggered_lanes(times, positions, period: int, accuracy: float):
    """Linear lanes that report every ``period`` samples, object ``k`` at phase ``k % period``.

    The fleet's devices are not synchronised, so its update stream has one
    instant (one ingest batch) per second while each lane has only
    ``1 / period`` of the samples.
    """
    return [
        FleetLane(object_id=f"sl/{k:06d}",
                  protocol=LinearPredictionProtocol(accuracy),
                  sensor_trace=Trace(times[k % period :: period],
                                     positions[k, k % period :: period]))
        for k in range(positions.shape[0])
    ]


def _start_stop_server(service) -> None:
    async def cycle():
        server = LiveLocationServer(service)
        await server.start()
        await server.stop()
    asyncio.run(cycle())


@dataclass
class Round:
    """What one round did and how long its timed phases took."""

    #: Wall time of each timed simulation unit (a sweep point, a fleet run)
    #: and the sighting samples it simulated; the same units every round.
    unit_s: List[float] = field(default_factory=list)
    unit_samples: List[int] = field(default_factory=list)
    updates: int = 0
    object_hours: float = 0.0
    #: Operations attempted and failed, by kind (sweep points, lane runs,
    #: ingest batches, queries).
    attempted: Dict[str, int] = field(default_factory=dict)
    failures: Dict[str, int] = field(default_factory=dict)
    covered_s: float = 0.0
    serve: Optional[ServeRound] = None
    outputs: object = None
    #: Untraced runs time calibration slices beside each phase's work; each
    #: phase's timings are scaled by its own calibrator.
    calibrate: bool = False

    def __post_init__(self):
        self.cal_sim = Calibrator() if self.calibrate else None
        self.cal_serve = Calibrator() if self.calibrate else None

    def calibrate_sim(self) -> None:
        """Calibration slices at the start and the end of the simulation phase."""
        if self.cal_sim is not None:
            self.cal_sim.slice(3)

    @property
    def operations(self) -> int:
        return sum(self.attempted.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def wall_s(self) -> float:
        return sum(self.unit_s) + (self.serve.wall_s if self.serve else 0.0)

    def timed(self, fn, tracer, samples: int):
        """Run one timed simulation unit; coverage counts spans inside it."""
        top = tracer.top_s if tracer is not None else 0.0
        if self.cal_sim is not None:
            self.cal_sim.maybe()
        started = _perf()
        out = fn()
        self.unit_s.append(_perf() - started)
        self.unit_samples.append(samples)
        if tracer is not None:
            self.covered_s += tracer.top_s - top
        return out


def _serve(rnd: Round, serve_plan, tracer) -> None:
    top = tracer.top_s if tracer is not None else 0.0
    if rnd.cal_serve is not None:
        rnd.cal_serve.slice(3)
    rnd.serve = replay(serve_plan, tracer, rnd.cal_serve)
    if rnd.cal_serve is not None:
        rnd.cal_serve.slice(3)
    if tracer is not None:
        # Only spans inside the replay's timed window count as coverage.
        rnd.covered_s += tracer.top_s - top
    rnd.attempted["ingest_batches"] = len(serve_plan.plan.batches)
    rnd.attempted["queries"] = len(serve_plan.plan.calls)
    rnd.failures.update(rnd.serve.failures)


def _digest(sim_bytes: bytes, serve: ServeRound) -> str:
    """A fingerprint of a round's outputs: results and every served answer."""
    answers = [(index, answer) for index, _seq, answer in serve.report.query_records]
    return hashlib.sha256(sim_bytes + repr(answers).encode()).hexdigest()


class PaperSweep:
    """Accuracy sweeps of the paper's four scenarios, linear and map-based."""

    name = "paper_sweep"
    #: Scenarios, road networks and lanes are the program's own working set,
    #: which its collector traverses in any run: they stay unfrozen.
    freeze_setup = False

    def __init__(self, size: str, seed: int):
        self.cfg = SIZES[self.name][size]
        self.seed = seed

    def setup(self) -> None:
        cfg = self.cfg
        clear_scenario_cache()
        self.specs = [ScenarioSpec(name=name, scale=cfg["scale"],
                                   seed=self.seed * 100 + 10 * route + i)
                      for route in range(cfg["routes"]) for i, name in enumerate(SCENARIOS)]
        self.scenarios = [spec.build() for spec in self.specs]
        lanes = []
        for spec, sc in zip(self.specs, self.scenarios):
            for proto in PROTOCOLS:
                config = SimulationConfig(protocol_id=proto, accuracy=cfg["probe_us"])
                lanes.append(FleetLane(object_id=f"{spec.name}/{spec.seed}/{proto}",
                                       protocol=config.build_protocol(sc),
                                       sensor_trace=sc.sensor_trace,
                                       truth_trace=sc.true_trace))
        self.serve_plan = build_serve_plan(
            lanes, ServeSpec(cfg["waves"], cfg["per_wave"], cfg["shards"], self.seed))
        _start_stop_server(service_for_plan(self.serve_plan.plan, cfg["shards"]))

    def _accuracies(self, spec):
        return self.cfg["us_walk"] if spec.name == "walking" else self.cfg["us_car"]

    def run_round(self, tracer=None, calibrate=False) -> Round:
        rnd = Round(outputs=[], calibrate=calibrate)
        runner = SweepRunner(jobs=1)
        gc.collect()
        rnd.calibrate_sim()
        for spec, sc in zip(self.specs, self.scenarios):
            for proto in PROTOCOLS:
                for us in self._accuracies(spec):
                    point = rnd.timed(
                        lambda: runner.run_config_sweep(spec, proto, accuracies=[us])[0],
                        tracer, len(sc.sensor_trace))
                    rnd.outputs.append((spec, sc, proto, point))
        rnd.calibrate_sim()
        rnd.attempted["sweep_points"] = len(rnd.outputs)
        rnd.failures["sweep_points"] = 0
        for spec, sc, _proto, point in rnd.outputs:
            rnd.updates += point.result.updates
            rnd.object_hours += checks.trace_hours(sc.sensor_trace.times)
        _serve(rnd, self.serve_plan, tracer)
        return rnd

    def sweep_rows(self, first: Round) -> List[dict]:
        """Per point: program outputs beside trace facts the benchmark computed."""
        rows = []
        noise = {}
        for spec, sc, proto, point in first.outputs:
            if spec not in noise:
                noise[spec] = checks.sensor_noise_bound(sc.sensor_trace.positions,
                                                        sc.true_trace.positions)
            rows.append({
                "label": f"{spec.name}/{proto}/us={point.accuracy:g}",
                "us": point.accuracy,
                "noise": noise[spec],
                "hours": checks.trace_hours(sc.sensor_trace.times),
                "updates": point.result.updates,
                "updates_per_hour": point.result.updates_per_hour,
                "max_error": point.result.metrics.max_error,
            })
        return rows

    def check(self, first: Round) -> List[str]:
        problems = checks.check_sweep_points(self.sweep_rows(first))
        rng = random.Random(self.seed)
        runner = SweepRunner(jobs=1)
        pairs = []
        sample = rng.sample(first.outputs, min(self.cfg["parity_points"], len(first.outputs)))
        for spec, _sc, proto, point in sample:
            event = runner.run_config_sweep(spec, proto, accuracies=[point.accuracy],
                                            kernel="event")[0]
            pairs.append((f"{spec.name}/{proto}/us={point.accuracy:g}",
                          point.result.updates, event.result.updates))
        problems += checks.check_kernel_parity(pairs)
        problems += check_replay(self.serve_plan, first.serve, self.seed)
        return problems

    def digest(self, rnd: Round) -> str:
        rows = [(spec.name, proto, p.result.as_dict()) for spec, _sc, proto, p in rnd.outputs]
        return _digest(repr(rows).encode(), rnd.serve)


class MegafleetColumnar:
    """A 10k-object linear dead-reckoning city fleet on the columnar engine."""

    name = "megafleet_columnar"
    #: Scenarios, road networks and lanes are the program's own working set,
    #: which its collector traverses in any run: they stay unfrozen.
    freeze_setup = False

    def __init__(self, size: str, seed: int):
        self.cfg = SIZES[self.name][size]
        self.seed = seed

    def setup(self) -> None:
        cfg = self.cfg
        self.times, self.positions = random_walk_fleet(cfg["objects"], cfg["samples"], self.seed)
        self.lanes = linear_lanes(self.times, self.positions, cfg["us"])
        self.engine = ColumnarFleetEngine.from_lanes(self.lanes)
        probe = linear_lanes(self.times[: cfg["probe_samples"]],
                             self.positions[: cfg["probe_objects"], : cfg["probe_samples"]],
                             cfg["us"], prefix="probe")
        self.serve_plan = build_serve_plan(
            probe, ServeSpec(cfg["waves"], cfg["per_wave"], cfg["shards"], self.seed))
        _start_stop_server(service_for_plan(self.serve_plan.plan, cfg["shards"]))

    def run_round(self, tracer=None, calibrate=False) -> Round:
        n, t_count = self.positions.shape[:2]
        rnd = Round(attempted={"lane_runs": n}, failures={"lane_runs": 0}, calibrate=calibrate)
        gc.collect()
        rnd.calibrate_sim()
        rnd.outputs = result = rnd.timed(self.engine.run, tracer, n * t_count)
        rnd.calibrate_sim()
        rnd.updates = result.total_updates
        rnd.object_hours = n * checks.trace_hours(self.times)
        _serve(rnd, self.serve_plan, tracer)
        return rnd

    def check(self, first: Round) -> List[str]:
        cfg = self.cfg
        results = first.outputs.results
        ids = [lane.object_id for lane in self.lanes][: cfg["oracle_lanes"]]
        oracle_updates, oracle_errors = checks.linear_dr_oracle(
            self.times, self.positions[: len(ids)], cfg["us"])
        problems = checks.check_columnar_against_oracle(
            ids,
            {oid: results[oid].updates for oid in ids},
            {oid: results[oid].metrics.errors for oid in ids},
            oracle_updates, oracle_errors, cfg["us"])
        picked = sorted(random.Random(self.seed).sample(range(len(self.lanes)),
                                                        cfg["scalar_lanes"]))
        sub = [self.lanes[k] for k in picked]
        scalar = FleetSimulation(
            [FleetLane(object_id=lane.object_id, protocol=LinearPredictionProtocol(cfg["us"]),
                       sensor_trace=lane.sensor_trace) for lane in sub],
            kernel="event").run().results
        scalar_rows = {oid: (res.as_dict(), res.metrics.errors) for oid, res in scalar.items()}
        columnar_rows = {lane.object_id: (results[lane.object_id].as_dict(),
                                          results[lane.object_id].metrics.errors)
                         for lane in sub}
        problems += checks.check_bitwise_lanes(columnar_rows, scalar_rows)
        problems += check_replay(self.serve_plan, first.serve, self.seed)
        return problems

    def digest(self, rnd: Round) -> str:
        results = rnd.outputs.results
        ids = sorted(results)
        counts = np.array([results[oid].updates for oid in ids], dtype=np.int64)
        errors = np.concatenate([results[oid].metrics.errors for oid in ids])
        return _digest(repr(ids).encode() + counts.tobytes() + errors.tobytes(), rnd.serve)

    def array_bytes(self) -> int:
        """Bytes of the engine's arrays plus the run's per-sample arrays."""
        seen, total = set(), 0
        for obj in (self.engine, self.engine.store):
            names = list(getattr(obj, "__dict__", {})) + list(getattr(type(obj), "__slots__", ()))
            for attr in names:
                value = getattr(obj, attr, None)
                if isinstance(value, np.ndarray) and id(value) not in seen:
                    seen.add(id(value))
                    total += value.nbytes
        n, t_count = self.positions.shape[:2]
        return total + n * t_count * 8 * 3  # velocity estimates (x, y) + errors


class ServeLive:
    """A 10k-object fleet's update stream and query waves over live TCP."""

    name = "serve_live"
    #: The replay plan (about 220k objects) is the client's request stream,
    #: which a server would not hold; frozen, the collector skips it.
    freeze_setup = True

    def __init__(self, size: str, seed: int):
        self.cfg = SIZES[self.name][size]
        self.seed = seed

    def setup(self) -> None:
        cfg = self.cfg
        times, positions = random_walk_fleet(cfg["objects"], cfg["seconds"], self.seed)
        lanes = staggered_lanes(times, positions, cfg["period"], cfg["us"])
        self.object_hours = sum(checks.trace_hours(lane.sensor_trace.times) for lane in lanes)
        self.serve_plan = build_serve_plan(
            lanes, ServeSpec(cfg["waves"], cfg["per_wave"], cfg["shards"], self.seed))
        _start_stop_server(service_for_plan(self.serve_plan.plan, cfg["shards"]))

    def run_round(self, tracer=None, calibrate=False) -> Round:
        sp = self.serve_plan
        rnd = Round(calibrate=calibrate, updates=sp.plan.total_updates,
                    object_hours=self.object_hours)
        _serve(rnd, sp, tracer)
        return rnd

    def check(self, first: Round) -> List[str]:
        return check_replay(self.serve_plan, first.serve, self.seed,
                            sample_size=self.cfg["answer_sample"])

    def digest(self, rnd: Round) -> str:
        return _digest(b"", rnd.serve)


WORKLOADS = {w.name: w for w in (PaperSweep, MegafleetColumnar, ServeLive)}
