"""Spans around the library's public entry points, wrapped from outside.

Methods are wrapped on their class; functions are wrapped in every
module that looks them up (``qstate`` imports ``angle_probability`` by
name, so it gets the same wrapper as ``exactnum``). A span's self time
is its CPU time minus the CPU time of the spans it encloses. The CPU
time that the benchmark's speed samples take while a span is open is
left out of it. The run is single-threaded, so one stack of open spans
is enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import process_time

from exactqfa import analysis, contextuality, exactnum, qstate


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _escalated(args, kwargs) -> "dict[str, int]":
    return {"escalated_calls": int(_arg(args, kwargs, 1, "precision_bits", 64) > 64)}


def _squares(args, kwargs) -> "dict[str, int]":
    # One pass reads the input plus both end-markers.
    return {"squares": len(_arg(args, kwargs, 1, "input_str")) + 2}


def _trials(args, kwargs) -> "dict[str, int]":
    return {"trials": _arg(args, kwargs, 2, "trials")}


def _rounds(args, kwargs) -> "dict[str, int]":
    return {"rounds": _arg(args, kwargs, 1, "rounds")}


# (span name, objects holding the attribute, attribute, extra counts)
TARGETS = (
    ("exactnum.angle_probability", (exactnum, qstate), "angle_probability", _escalated),
    ("qstate.QMatrix.apply", (qstate.QMatrix,), "apply", None),
    ("qstate.ProjectiveMeasurement.measure", (qstate.ProjectiveMeasurement,), "measure", None),
    (
        "qstate.RotationRegister.outcome_probabilities",
        (qstate.RotationRegister,),
        "outcome_probabilities",
        None,
    ),
    ("analysis.run_exact_realtime", (analysis,), "run_exact_realtime", _squares),
    ("analysis.analyze_restarting", (analysis,), "analyze_restarting", None),
    ("analysis.analyze_sweeping", (analysis,), "analyze_sweeping", None),
    ("analysis.run_unary_length", (analysis,), "run_unary_length", None),
    ("analysis.run_monte_carlo", (analysis,), "run_monte_carlo", _trials),
    ("analysis.SplittableRng.child", (analysis.SplittableRng,), "child", None),
    ("contextuality.play_magic_square", (contextuality,), "play_magic_square", _rounds),
    ("contextuality.memory_game", (contextuality,), "memory_game", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: "dict[str, int]" = field(default_factory=dict)

    def per_call_us(self) -> float:
        return 1e6 * self.total_s / self.calls if self.calls else 0.0

    def per_count_us(self, count: str) -> float:
        n = self.counts.get(count, 0)
        return 1e6 * self.total_s / n if n else 0.0


class Tracer:
    """Installs the wrappers, collects SpanStats by span name, and puts
    the original attributes back on uninstall. ``clock`` is anything with
    a ``spent_s`` attribute that counts the CPU time its speed samples
    took, such as run.SpeedClock."""

    def __init__(self, clock=None):
        self.clock = clock
        self.stats: "dict[str, SpanStats]" = {name: SpanStats() for name, *_ in TARGETS}
        self._open: "list[float]" = []
        self._saved: list = []

    def _wrap(self, fn, stats: SpanStats, extra):
        open_spans = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            spent = clock.spent_s if clock is not None else 0.0
            start = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = process_time() - start
                if clock is not None:
                    elapsed -= clock.spent_s - spent
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if extra is not None:
                    for key, n in extra(args, kwargs).items():
                        stats.counts[key] = stats.counts.get(key, 0) + n

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owners, attr, extra in TARGETS:
            original = getattr(owners[0], attr)
            if any(getattr(owner, attr) is not original for owner in owners):
                raise RuntimeError(f"{attr} differs between the modules that hold it")
            wrapper = self._wrap(original, self.stats[name], extra)
            for owner in owners:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> "dict[str, float]":
        """Every per-layer value the spans give, by metric name."""
        out: "dict[str, float]" = {}
        for name, stats in self.stats.items():
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
            out[f"{name}.us_per_call"] = stats.per_call_us()
            for key, n in stats.counts.items():
                out[f"{name}.{key}"] = n
        realtime = self.stats["analysis.run_exact_realtime"]
        out["analysis.squares"] = realtime.counts.get("squares", 0)
        out["analysis.us_per_square"] = realtime.per_count_us("squares")
        out["analysis.run_monte_carlo.us_per_trial"] = self.stats[
            "analysis.run_monte_carlo"
        ].per_count_us("trials")
        out["contextuality.play_magic_square.us_per_round"] = self.stats[
            "contextuality.play_magic_square"
        ].per_count_us("rounds")
        out.setdefault("exactnum.angle_probability.escalated_calls", 0)
        return out
