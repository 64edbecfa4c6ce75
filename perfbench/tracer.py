"""In-memory span tracer that wraps the simulator's public layer functions.

The tracer lives entirely in the benchmark: ``install`` rebinds each
wrapped function or method wherever the program holds a reference to
it (every loaded ``repro`` module attribute bound to the same object),
so a call made through any import site is recorded.  Wrappers test one
flag and call straight through while the tracer is inactive.

A span records (id, name, layer, start, end, parent id, op id).  Self
time is the span's duration minus the time its child spans cover.  Two
per-cycle functions (``Pipe.eval`` / ``Pipe.tick``) are too hot for a
record per call; they are accumulated per layer instead, but still
count as children of the enclosing span, so self times stay exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

# Layers whose self times add up, with ``other.ms``, to the traced wall.
# Known compile passes get a layer each; a pass class added later lands
# in ``passes.other`` so the sum still closes.
PASS_CLASSES = (
    "ElaborateFactsPass",
    "ValueFactsPass",
    "ConstPropPass",
    "DeadLogicPass",
    "SensitivityPrunePass",
    "SanitizePlanPass",
    "CodegenPass",
)
SERVER_CLASSES = ("open", "instpipe", "run", "peek", "reload", "close")
SERVER_STATS = (
    "requests",
    "request_errors",
    "sessions_opened",
    "sessions_closed",
    "connections_accepted",
)

LOCAL = ("edit-mesh2", "sim-mesh4", "live-cgra")


def _layer_metric_names() -> List[Tuple[str, str]]:
    names = [
        ("hdl.lexer.ms", "ms"), ("hdl.lexer.calls", "count"),
        ("hdl.lexer.tokens", "count"),
        ("hdl.source_regions.ms", "ms"), ("hdl.source_regions.calls", "count"),
        ("hdl.parser.ms", "ms"), ("hdl.parser.bytes", "bytes"),
        ("live.parser_live.ms", "ms"),
        ("hdl.elaborate.ms", "ms"),
    ]
    for cls in PASS_CLASSES:
        names += [
            (f"passes.{cls}.ms", "ms"),
            (f"passes.{cls}.computed", "count"),
            (f"passes.{cls}.reused", "count"),
        ]
    names += [
        ("passes.other.ms", "ms"),
        ("codegen.recompiled", "count"), ("codegen.reused", "count"),
        ("codegen.generated_lines", "count"),
        ("analyze.ms", "ms"), ("analyze.analyzed", "count"),
        ("analyze.reused", "count"),
        ("live.hotreload.ms", "ms"), ("live.hotreload.swapped", "count"),
        ("live.checkpoint.take_ms", "ms"), ("live.checkpoint.taken", "count"),
        ("live.checkpoint.bytes", "bytes"),
        ("live.checkpoint.reload_ms", "ms"),
        ("live.replay.ms", "ms"), ("live.replay.cycles", "count"),
        ("sim.pipeline.ms", "ms"), ("sim.pipeline.eval_us", "us"),
        ("sim.pipeline.tick_us", "us"), ("sim.pipeline.cycles", "count"),
        ("sim.testbench.ms", "ms"),
        ("sanitize.sites", "count"), ("sanitize.elided", "count"),
        ("sanitize.hits", "count"),
        ("server.ms", "ms"),
    ]
    names += [(f"server.{cls}.p50_ms", "ms") for cls in SERVER_CLASSES]
    names += [(f"server.stats.{key}", "count") for key in SERVER_STATS]
    names += [
        ("erd.gap_p50_ms", "ms"),
        ("other.ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("trace.untraced_wall_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
    ]
    return names


LAYER_METRICS: List[Tuple[str, str]] = _layer_metric_names()

# Layers summed into the traced wall (``server.<class>`` spans all
# belong to the ``server`` layer).
TIMED_LAYERS = (
    ["hdl.lexer", "hdl.source_regions", "hdl.parser", "live.parser_live",
     "hdl.elaborate"]
    + [f"passes.{cls}" for cls in PASS_CLASSES]
    + ["passes.other", "analyze", "live.hotreload", "live.checkpoint.take",
       "live.checkpoint.reload", "live.replay", "sim.pipeline.eval",
       "sim.pipeline.tick", "sim.testbench", "server"]
)


class Tracer:
    """Span recorder with a pause switch and per-layer self times."""

    def __init__(self):
        self.active = False
        self.op: Optional[str] = None
        # A frame is a list whose slot 0 accumulates child time.  Span
        # frames carry the record after it; hot frames are [child].
        self._stack: List[list] = []
        self.spans: List[list] = []
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.wall = 0.0
        self._resumed: Optional[float] = None

    # -- window ------------------------------------------------------------

    def resume(self) -> None:
        self.active = True
        self._resumed = perf()

    def pause(self) -> None:
        if self._resumed is not None:
            self.wall += perf() - self._resumed
            self._resumed = None
        self.active = False

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: Optional[str]) -> list:
        parent = None
        for frame in reversed(self._stack):
            if len(frame) > 1:
                parent = frame[1]
                break
        # [child, id, name, layer, start, end, parent, op]
        frame = [0.0, len(self.spans), name, layer, perf(), 0.0, parent,
                 self.op]
        self.spans.append(frame)
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        frame[5] = end = perf()
        self._stack.pop()
        duration = end - frame[4]
        if self._stack:
            self._stack[-1][0] += duration
        layer = frame[3]
        if layer is not None:
            self.layer_self[layer] += duration - frame[0]
            self.calls[layer] += 1
        self.durations[frame[2]].append(duration)

    def hot(self, fn: Callable, layer: str) -> Callable:
        """Accumulating wrapper for per-cycle functions."""
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - started
                stack.pop()
                tracer.layer_self[layer] += duration - frame[0]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def spanned(self, fn: Callable, name: str, layer: str,
                after: Optional[Callable] = None) -> Callable:
        """Span-per-call wrapper; ``after(tracer, args, result)`` records
        counts once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.timed(name, layer, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def timed(self, name: str, layer: Optional[str], fn: Callable, *args,
              **kwargs):
        """Run one call inside a span (also used for a server command
        seen from the client); just the call while paused."""
        if not self.active:
            return fn(*args, **kwargs)
        frame = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    # -- output --------------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        records = [
            {"id": s[1], "name": s[2], "layer": s[3], "start": s[4],
             "end": s[5], "parent": s[6], "op": s[7],
             "self": (s[5] - s[4]) - s[0]}
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"meta": meta, "spans": records}, handle)


# ---------------------------------------------------------------------------
# Installing wrappers
# ---------------------------------------------------------------------------


def _rebind_function(original: Callable, replacement: Callable) -> int:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` at ``replacement``; returns how many were rebound."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


class Installation:
    """The wrappers one tracer put in place, and how to remove them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []
        # wrapped name -> (span name or hot layer, is hot, workloads
        # that must reach it)
        self.probes: Dict[str, Tuple[str, bool, Tuple[str, ...]]] = {}

    def _wrap(self, original: Callable, name: str, layer: str, after,
              hot: bool) -> Callable:
        if hot:
            return self.tracer.hot(original, layer)
        return self.tracer.spanned(original, name, layer, after)

    def function(self, module, attr: str, layer: str, after=None,
                 expect: Tuple[str, ...] = LOCAL) -> None:
        original = getattr(module, attr)
        replacement = self._wrap(original, attr, layer, after, False)
        if _rebind_function(original, replacement) == 0:
            raise RuntimeError(f"could not bind a wrapper for {attr}")
        self.probes[f"{module.__name__}.{attr}"] = (attr, False, expect)
        self._undo.append(lambda: _rebind_function(replacement, original))

    def method(self, cls, attr: str, layer: str, after=None,
               expect: Tuple[str, ...] = LOCAL, hot: bool = False) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        setattr(cls, attr, self._wrap(original, name, layer, after, hot))
        self.probes[f"{cls.__module__}.{name}"] = (
            layer if hot else name, hot, expect,
        )
        self._undo.append(lambda: setattr(cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def unreached(self, workload: str) -> List[str]:
        """Wrapped functions the workload should reach but did not: a
        wrapper bound where the program never looks reads as zero."""
        tracer = self.tracer
        missing = []
        for key, (probe, hot, expect) in self.probes.items():
            if workload not in expect:
                continue
            hits = tracer.calls[probe] if hot else len(tracer.durations[probe])
            if hits == 0:
                missing.append(key)
        return missing


def install(tracer: Tracer) -> Installation:
    """Wrap the public function of every simulator layer."""
    from repro.analyze import Analyzer
    from repro.live.checkpoint import CheckpointStore
    from repro.live.hotreload import HotReloader
    from repro.live.parser_live import LiveParser
    from repro.passes.base import Pass
    from repro.sim.pipeline import Pipe
    from repro.sim.testbench import Testbench

    # Submodules by name: a package may re-export a function under the
    # submodule's own name (``repro.hdl.elaborate``).
    lexer, parser, source_regions, elaborate_mod, replay = (
        importlib.import_module(name) for name in (
            "repro.hdl.lexer", "repro.hdl.parser", "repro.hdl.source_regions",
            "repro.hdl.elaborate", "repro.live.replay",
        )
    )
    inst = Installation(tracer)

    def count_tokens(tr, args, result):
        tr.counts["hdl.lexer.tokens"] += len(result)

    def count_bytes(tr, args, result):
        tr.counts["hdl.parser.bytes"] += len(args[0])

    def count_cycles(tr, args, result):
        tr.counts["live.replay.cycles"] += result

    inst.function(lexer, "tokenize", "hdl.lexer", count_tokens)
    inst.function(lexer, "behavioral_fingerprint", "hdl.lexer")
    inst.function(source_regions, "split_regions", "hdl.source_regions")
    inst.function(parser, "parse", "hdl.parser", count_bytes)
    inst.function(elaborate_mod, "elaborate", "hdl.elaborate")
    inst.function(replay, "replay_ops", "live.replay", count_cycles)
    inst.method(LiveParser, "analyze", "live.parser_live")
    inst.method(LiveParser, "commit", "live.parser_live")
    inst.method(Analyzer, "analyze_netlist", "analyze")
    inst.method(HotReloader, "swap_pipe", "live.hotreload")
    inst.method(CheckpointStore, "take", "live.checkpoint.take")
    inst.method(Pipe, "restore_transformed", "live.checkpoint.reload")
    inst.method(Testbench, "run", "sim.testbench")
    inst.method(Pipe, "eval", "sim.pipeline.eval", hot=True)
    inst.method(Pipe, "tick", "sim.pipeline.tick", hot=True)

    # Every concrete pass: known classes get their own layer.
    pending = list(Pass.__subclasses__())
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "run" not in cls.__dict__:
            continue
        known = cls.__name__ in PASS_CLASSES
        inst.method(
            cls, "run",
            f"passes.{cls.__name__}" if known else "passes.other",
            expect=LOCAL if known else (),
        )
    return inst
