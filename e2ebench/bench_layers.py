"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer with a timing shim,
keeps per-name call counts, busy time (outermost call of a name only) and
self time (busy minus the time spent in nested wrapped calls), and records
the first spans of every name into :class:`repro.obs.trace.SpanTracer` for
a Chrome trace.  Nothing inside ``src/`` is edited: the shim replaces the
attribute on the owning module or class (and every ``repro.*`` module that
imported the function by name) and puts the original back afterwards.

A wrapped function that no longer exists is reported as absent, so a later
change that deletes or renames code keeps a working benchmark.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Spans per name kept for the Chrome trace; the statistics count all calls.
SPANS_PER_NAME = 200


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


class LayerTracer:
    """Nested wall-time spans aggregated per layer name."""

    def __init__(self, span_tracer=None):
        self.stats: Dict[str, LayerStat] = {}
        self.absent: List[str] = []
        self._stack: List[float] = []  # child time of each open span
        self._hook_depth = 0  # open spans of program hooks
        #: Wall covered by outermost program-hook spans; the benchmark's own
        #: spans (``span()``) never count, so coverage is what the hooks see.
        self.top_s = 0.0
        self._spans = span_tracer
        self._installed: List[Tuple[object, str, object]] = []

    def stat(self, name: str) -> LayerStat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStat()
        return st

    def _enter(self, name: str, hook: bool = True):
        st = self.stat(name)
        st.active += 1
        self._stack.append(0.0)
        self._hook_depth += hook
        span = None
        if self._spans is not None and st.calls < SPANS_PER_NAME:
            span = self._spans.span(name, cat=name.split(".", 1)[0])
        return st, span, _perf(), hook

    def _exit(self, st: LayerStat, span, started: float, hook: bool) -> None:
        duration = _perf() - started
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        if hook:
            self._hook_depth -= 1
            if self._hook_depth == 0:
                self.top_s += duration
        st.active -= 1
        st.calls += 1
        st.self_s += duration - child
        if st.active == 0:
            st.busy_s += duration
        if span is not None:
            span.close()

    def span(self, name: str) -> "_SpanContext":
        """A span opened by the benchmark itself (``with tracer.span(...)``).

        Its self time is the time no program hook inside it covered; it
        adds nothing to ``top_s``.
        """
        return _SpanContext(self, name)

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(*state)
            st = state[0]
            if observe is not None:
                observe(st, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------------ #
    # installing wrappers on the program
    # ------------------------------------------------------------------ #
    def install(self, specs: List["Hook"]) -> None:
        for hook in specs:
            targets = hook.resolve()
            if not targets:
                if hook.name not in self.absent:
                    self.absent.append(hook.name)
                continue
            for owner, attr, original in targets:
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(
                        self.wrap(original.__func__, hook.name, hook.observe)
                    )
                else:
                    wrapped = self.wrap(original, hook.name, hook.observe)
                self._replace(owner, attr, original, wrapped)
                if not isinstance(owner, type):
                    # Rebind the function in every module that imported it
                    # by name (``from x import f``).
                    for module in list(sys.modules.values()):
                        mname = getattr(module, "__name__", "") or ""
                        if module is owner or not mname.startswith("repro"):
                            continue
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._replace(module, key, original, wrapped)

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


class _SpanContext:
    __slots__ = ("tracer", "name", "state")

    def __init__(self, tracer: LayerTracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.state = self.tracer._enter(self.name, hook=False)
        return self.state[0]

    def __exit__(self, *exc) -> None:
        self.tracer._exit(*self.state)


@dataclass
class Hook:
    """One public function (``"func"``) or method (``"Class.meth"``) to wrap.

    With ``subclasses`` every class below ``Class`` that defines its own
    ``meth`` is wrapped too (prediction functions override ``predict``).
    """

    name: str
    module: str
    qualname: str
    subclasses: bool = False
    observe: Optional[Callable] = None

    def resolve(self) -> List[Tuple[object, str, object]]:
        try:
            module = importlib.import_module(self.module)
        except ImportError:
            return []
        if "." not in self.qualname:
            fn = getattr(module, self.qualname, None)
            return [(module, self.qualname, fn)] if callable(fn) else []
        cls_name, attr = self.qualname.split(".", 1)
        cls = getattr(module, cls_name, None)
        if not isinstance(cls, type):
            return []
        classes = [cls]
        if self.subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                classes.append(sub)
                pending.extend(sub.__subclasses__())
        targets = []
        for owner in classes:
            fn = owner.__dict__.get(attr)
            func = fn.__func__ if isinstance(fn, (classmethod, staticmethod)) else fn
            if callable(func) and not getattr(func, "__isabstractmethod__", False):
                targets.append((owner, attr, fn))
        return targets


# --------------------------------------------------------------------------- #
# the layers of this program
# --------------------------------------------------------------------------- #
def _count_matched(st: LayerStat, _args, result) -> None:
    if getattr(result, "is_matched", False):
        st.add("matched", 1)


def _count_sync(st: LayerStat, args, result) -> None:
    st.add("objects", len(args[1]))
    st.add("changed", float(result or 0))


def _count_candidates(st: LayerStat, args, result) -> None:
    st.add("candidates", len(args[0]))
    st.add("results", len(result))


def _count_ingest_frame(st: LayerStat, args, result) -> None:
    payload = args[0] if args else None
    # Ingest requests only: the server's acknowledgements carry "op" too.
    if isinstance(payload, dict) and payload.get("op") == "ingest" and "updates" in payload:
        st.add("ingest_frame_bytes", len(result) + 4)  # + length prefix
        st.add("ingest_frame_updates", len(payload["updates"]))


_LIVE = "repro.service.live.protocol"
_QE = "repro.service.query_engine"

HOOKS = [
    Hook("sim.runner.scenario_build", "repro.sim.runner", "ScenarioSpec.build"),
    Hook("sim.fleet.loop", "repro.sim.fleet", "FleetSimulation.run"),
    Hook("traces.estimate", "repro.traces.estimation", "estimate_trace"),
    Hook("protocols.observe", "repro.protocols.base", "UpdateProtocol.observe_precomputed",
         subclasses=True),
    Hook("mapmatching.match", "repro.mapmatching.matcher", "IncrementalMapMatcher.update",
         observe=_count_matched),
    Hook("roadmap.predict", "repro.protocols.prediction", "PredictionFunction.predict",
         subclasses=True),
    Hook("service.channel.deliver", "repro.service.channel", "MessageChannel.deliver_due"),
    Hook("service.server.receive", "repro.service.server", "LocationServer.receive_update"),
    Hook("sim.columnar.build", "repro.sim.columnar", "ColumnarFleetEngine.from_lanes"),
    Hook("sim.columnar.loop", "repro.sim.columnar", "ColumnarFleetEngine.run"),
    Hook("traces.estimate_traces", "repro.sim.columnar", "estimate_traces"),
    Hook("service.loadgen.plan", "repro.service.loadgen", "build_replay_plan"),
    Hook("service.live.protocol.encode", _LIVE, "encode_message"),
    Hook("service.live.protocol.encode", _LIVE, "encode_answer"),
    Hook("service.live.protocol.decode", _LIVE, "decode_message"),
    Hook("service.live.protocol.decode", _LIVE, "decode_answer"),
    Hook("service.facade.ingest", "repro.service.facade", "LocationService.ingest_batch"),
    Hook("service.facade.prepare", "repro.service.facade", "LocationService.prepare"),
    Hook("service.server.predict", "repro.service.server", "LocationServer.all_positions"),
    Hook("service.sharding.route", "repro.service.sharding", "GridHashPolicy.shard_for_point"),
    Hook("service.query_engine.sync", _QE, "QueryEngine.sync", observe=_count_sync),
    Hook("service.query_engine.evaluate", _QE, "QueryEngine.ids_in_box",
         observe=_count_candidates),
    Hook("service.query_engine.evaluate", _QE, "QueryEngine.k_nearest",
         observe=_count_candidates),
    Hook("service.query_engine.evaluate", _QE, "QueryEngine.within_radius",
         observe=_count_candidates),
]


def install_program_hooks(tracer: LayerTracer) -> None:
    """Wrap every layer function, plus the frame codec's JSON calls."""
    tracer.install(HOOKS)
    try:
        module = importlib.import_module(_LIVE)
    except ImportError:
        module = None
    real = getattr(module, "json", None)
    if real is None:
        for name in ("service.live.protocol.encode", "service.live.protocol.decode"):
            if name not in tracer.absent:
                tracer.absent.append(name)
        return
    # The frame writer and reader call json.dumps / json.loads; give the
    # protocol module its own json namespace with those two wrapped.
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(real))
    proxy.dumps = tracer.wrap(real.dumps, "service.live.protocol.encode", _count_ingest_frame)
    proxy.loads = tracer.wrap(real.loads, "service.live.protocol.decode")
    tracer._replace(module, "json", real, proxy)


#: Per-layer metrics, in BENCHMARK.json order, with the (stat, field) they
#: read; ``per_round`` ones are averaged over traced rounds, the rest come
#: from one traced set-up.
PER_LAYER = [
    ("traces.estimate.calls", "traces.estimate", "calls"),
    ("traces.estimate.busy_s", "traces.estimate", "busy_s"),
    ("protocols.observe.calls", "protocols.observe", "calls"),
    ("protocols.observe.busy_s", "protocols.observe", "busy_s"),
    ("mapmatching.match.busy_s", "mapmatching.match", "busy_s"),
    ("mapmatching.matched_ratio", "mapmatching.match", ("matched", None)),
    ("roadmap.predict.calls", "roadmap.predict", "calls"),
    ("roadmap.predict.busy_s", "roadmap.predict", "busy_s"),
    ("service.channel.deliver.busy_s", "service.channel.deliver", "busy_s"),
    ("service.server.receive.calls", "service.server.receive", "calls"),
    ("sim.fleet.loop.self_s", "sim.fleet.loop", "self_s"),
    ("sim.runner.scenario_build.busy_s", "setup:sim.runner.scenario_build", "busy_s"),
    ("traces.estimate_traces.busy_s", "traces.estimate_traces", "busy_s"),
    ("sim.columnar.loop.self_s", "sim.columnar.loop", "self_s"),
    ("sim.columnar.build.busy_s", "setup:sim.columnar.build", "busy_s"),
    ("sim.columnar.array_bytes", None, None),
    ("service.live.protocol.encode.busy_s", "service.live.protocol.encode", "busy_s"),
    ("service.live.protocol.decode.busy_s", "service.live.protocol.decode", "busy_s"),
    ("service.live.frame_bytes_per_update", "service.live.protocol.encode",
     ("ingest_frame_bytes", "ingest_frame_updates")),
    ("service.facade.ingest.calls", "service.facade.ingest", "calls"),
    ("service.facade.ingest.busy_s", "service.facade.ingest", "busy_s"),
    ("service.live.ingest.other_s", "service.live.ingest", "self_s"),
    ("service.live.query.other_s", "service.live.query", "self_s"),
    ("service.facade.prepare.calls", "service.facade.prepare", "calls"),
    ("service.facade.prepare.busy_s", "service.facade.prepare", "busy_s"),
    ("service.server.predict.busy_s", "service.server.predict", "busy_s"),
    ("service.sharding.route.calls", "service.sharding.route", "calls"),
    ("service.sharding.route.busy_s", "service.sharding.route", "busy_s"),
    ("service.facade.handoffs", None, None),
    ("service.query_engine.sync.busy_s", "service.query_engine.sync", "busy_s"),
    ("service.query_engine.sync.changed_ratio", "service.query_engine.sync",
     ("changed", "objects")),
    ("service.query_engine.evaluate.busy_s", "service.query_engine.evaluate", "busy_s"),
    ("service.query_engine.candidates_per_result", "service.query_engine.evaluate",
     ("candidates", "results")),
    ("service.loadgen.plan.busy_s", "setup:service.loadgen.plan", "busy_s"),
    ("trace.coverage", None, None),
    ("trace.overhead_s", None, None),
]

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".calls", ".handoffs")):
        return "count"
    if "bytes" in metric:
        return "bytes"
    return "ratio"


def layer_values(setup: LayerTracer, rounds: LayerTracer, n_traced: int,
                 computed: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; counters and times per traced round."""
    values: Dict[str, float] = {}
    for metric, stat_name, fld in PER_LAYER:
        if stat_name is None:
            values[metric] = float(computed.get(metric, 0.0))
            continue
        tracer, per = rounds, max(n_traced, 1)
        if stat_name.startswith("setup:"):
            tracer, per, stat_name = setup, 1, stat_name[len("setup:"):]
        st = tracer.stats.get(stat_name, LayerStat())
        if isinstance(fld, tuple):
            num, den = fld
            denominator = st.calls if den is None else st.extra.get(den, 0.0)
            values[metric] = st.extra.get(num, 0.0) / denominator if denominator else 0.0
        else:
            values[metric] = getattr(st, fld) / per
    return values
