"""Per-layer spans recorded from outside the program.

The benchmark wraps the public calls of each layer (:data:`LAYERS`) in
functions that live here, records one span per call - name, start,
end, parent span - in memory, and derives the per-layer metrics from
those spans after the traced repetitions end.  Nothing in ``src/`` is
edited: :meth:`Recorder.install` swaps class or module attributes and
:meth:`Recorder.uninstall` puts the originals back.

Self time is a span's duration minus the part its child spans cover
(calls are sequential on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: ``(module, class or None, attribute, span name)`` of every wrapped
#: public call.  A class of ``None`` wraps a module-level function;
#: callers inside ``repro`` look these up on their module at call time,
#: so the swap reaches them.
LAYERS = (
    ("repro.link.pipeline", "TxStage", "process", "link.tx"),
    ("repro.link.pipeline", "ChannelStage", "process", "link.channel"),
    ("repro.link.pipeline", "CombineStage", "process", "link.combine"),
    ("repro.link.pipeline", "AnalogFrontEndStage", "process", "link.afe"),
    ("repro.link.pipeline", "DecisionStage", "decide", "link.decision"),
    ("repro.link.pipeline", "SignalPipeline", "run_chunk", "link.chunk"),
    ("repro.link.pipeline", None, "run_ber_sweep", "link.sweep"),
    ("repro.link.backends", None, "calibrate", "link.calibrate"),
    ("repro.link.backends", None, "build_receiver", "uwb.receiver.build"),
    ("repro.uwb.receiver", "EnergyDetectionReceiver", "process",
     "uwb.receiver.process"),
    ("repro.uwb.channel.ieee802154a", "ChannelRealization", "apply",
     "uwb.channel.apply"),
    ("repro.uwb.channel.ieee802154a", "Cm1Channel", "realize",
     "uwb.channel.realize"),
    ("repro.spice.mna", "MnaSystem", "newton", "spice.newton"),
    ("repro.spice.mna", "MnaSystem", "stamp_nonlinear", "spice.stamp"),
    ("repro.spice.analysis.tran", "TransientStepper", "step",
     "spice.step"),
    ("repro.ams.engine.compiled", "CompiledEngine", "run", "ams.compiled"),
    ("repro.ams.engine.reference", "ReferenceEngine", "run",
     "ams.reference"),
    ("repro.link.ops", None, "run_testbench", "cosim.row"),
    ("repro.campaign.store", "ResultStore", "get", "campaign.store.get"),
    ("repro.campaign.store", "ResultStore", "put", "campaign.store.put"),
    ("repro.campaign.runner", "CampaignRunner", "run", "campaign.runner"),
    ("repro.core.scenario", "Scenario", "run", "campaign.scenario"),
)

#: Table-1 row label per integrator spec (``repro.experiments.
#: table1_cpu.MODEL_ROWS``).
ROW_LABELS = {"ideal": "IDEAL", "two_pole": "VHDL-AMS",
              "circuit": "ELDO"}

#: span names whose self time is harness glue rather than a layer;
#: ``trace.coverage`` is the share of traced wall outside them.
GLUE = ("repetition", "campaign.scenario")

#: per-layer counts that must repeat exactly across repetitions and
#: across runs of the same code with the same seed.
EXACT_COUNTS = ("link.chunks", "link.rows", "link.sweeps",
                "spice.newton.calls", "spice.newton.iters",
                "uwb.channel.macs")


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _note(span_name: str, args, kwargs, result, error) -> dict:
    """Counts a call contributes, read from its arguments and result."""
    if span_name == "link.chunk":
        sigmas = _arg(args, kwargs, 3, "sigmas")
        return {"link.rows": 1 if sigmas is None else len(sigmas)}
    if span_name == "link.afe":
        return {"afe.row_samples": args[1].noisy.size}
    if span_name == "uwb.channel.apply":
        return {"uwb.channel.macs": len(args[1]) * len(args[0].taps)}
    if span_name == "spice.newton" and error is not None:
        from repro.spice.errors import ConvergenceError

        if isinstance(error, ConvergenceError):
            return {"spice.retries": 1}
    return {}


def _rename(span_name: str, args, kwargs, result) -> str:
    """Span name once the call returned (store hits vs misses, Table-1
    rows by model)."""
    if span_name == "campaign.store.get":
        return ("campaign.store.get_miss" if result is None
                else "campaign.store.get_hit")
    if span_name == "cosim.row":
        spec = _arg(args, kwargs, 0, "spec")
        return "cosim.row." + ROW_LABELS.get(str(spec.integrator),
                                             str(spec.integrator))
    return span_name


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans and counts of the calls made while installed."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(index)
        return index

    def close(self, index: int, name: str | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if name is not None:
            span.name = name
        self._stack.pop()

    def wrap(self, fn: Callable, span_name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(span_name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.close(index, _rename(span_name, args, kwargs, result))
                for key, value in _note(span_name, args, kwargs, result,
                                        error).items():
                    self.counts[key] += value
        return traced

    def install(self) -> "Recorder":
        for owner, attr, span_name in resolve(LAYERS):
            self._swap(owner, attr, self.wrap(getattr(owner, attr),
                                              span_name))
        return self

    def _swap(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def resolve(layers=LAYERS):
    """``(owner, attribute, span name)`` per layer entry."""
    for module, cls, attr, span_name in layers:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        yield owner, attr, span_name


#: the sensitivity check's deliberate regression: every call of the
#: slowed layer costs this much more CPU time.
SLOW_FACTOR = 0.2


def slow_down(span_name: str) -> None:
    """Make every call of layer *span_name* cost ``1 + SLOW_FACTOR`` times
    its CPU time (a busy wait after the call, timed in process CPU time
    so that sharing the vCPU with the reference canary does not scale
    it) for the rest of the process.

    This is the sensitivity check's deliberate regression.
    """
    matches = [(o, a) for o, a, n in resolve() if n == span_name]
    if not matches:
        raise KeyError(f"no wrapped layer named {span_name!r}")
    owner, attr = matches[0]
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        start = time.process_time()
        try:
            return original(*args, **kwargs)
        finally:
            now = time.process_time()
            until = now + SLOW_FACTOR * (now - start)
            while time.process_time() < until:
                pass

    setattr(owner, attr, slowed)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    out: dict[str, float] = defaultdict(float)
    for span, covered in zip(spans, child):
        out[span.name] += span.duration - covered
    return out


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    *rec* holds exactly one ``repetition`` root span and everything it
    caused.
    """
    own = self_times(rec.spans)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    for span in rec.spans:
        calls[span.name] += 1
        inclusive[span.name] += span.duration
    fallbacks = sum(1 for s in rec.spans if s.name == "ams.reference"
                    and s.parent >= 0
                    and rec.spans[s.parent].name == "ams.compiled")
    wall = inclusive["repetition"]
    iters = calls["spice.stamp"]
    row_samples = rec.counts["afe.row_samples"]
    m = {
        "link.tx.s": own["link.tx"],
        "link.channel.s": own["link.channel"],
        "link.combine.s": own["link.combine"],
        "link.afe.s": own["link.afe"],
        "link.decision.s": own["link.decision"],
        "link.chunks": calls["link.chunk"],
        "link.rows": rec.counts["link.rows"],
        "link.afe.ns_per_row_sample": (own["link.afe"] / row_samples * 1e9
                                       if row_samples else 0.0),
        "link.sweeps": calls["link.sweep"],
        "link.calibrate.s": own["link.calibrate"],
        "spice.newton.calls": calls["spice.newton"],
        "spice.newton.iters": iters,
        "spice.iters_per_call": (iters / calls["spice.newton"]
                                 if calls["spice.newton"] else 0.0),
        "spice.retries": rec.counts["spice.retries"],
        "spice.newton.s": own["spice.newton"],
        "spice.stamp.s": own["spice.stamp"],
        "spice.step.s": own["spice.step"],
        "spice.iter_us": ((own["spice.newton"] + own["spice.stamp"])
                          / iters * 1e6 if iters else 0.0),
        "ams.compiled.s": own["ams.compiled"],
        "ams.reference.s": own["ams.reference"],
        "ams.fallbacks": fallbacks,
        "uwb.channel.apply.s": own["uwb.channel.apply"],
        "uwb.channel.macs": rec.counts["uwb.channel.macs"],
        "uwb.channel.realize.s": own["uwb.channel.realize"],
        "uwb.receiver.build.s": own["uwb.receiver.build"],
        "uwb.receiver.process.s": own["uwb.receiver.process"],
        "campaign.store.put.s": own["campaign.store.put"],
        "campaign.store.get_miss.s": own["campaign.store.get_miss"],
        "campaign.runner.overhead.s": own["campaign.runner"],
        "trace.coverage": (1.0 - sum(own[g] for g in GLUE) / wall
                           if wall else 0.0),
        "trace.wall_s": wall,
    }
    for label in ROW_LABELS.values():
        m[f"cosim.row.{label}_s"] = inclusive[f"cosim.row.{label}"]
    return m
