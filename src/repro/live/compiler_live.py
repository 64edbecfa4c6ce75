"""LiveCompiler: incremental, cache-driven compilation.

Compilation is cached at specialization granularity.  A compiled module
is reusable when

* its own module source (token fingerprint) is unchanged,
* its parameter set is the same (part of the spec key), and
* every child's *interface* fingerprint is unchanged (the parent's
  generated code depends on child port order/widths, not child bodies).

So a body-only edit recompiles exactly one module; an interface edit
recompiles the module plus its ancestor chain — matching the paper's
description of how far a change propagates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..analyze.engine import AnalysisReport, Analyzer
from ..codegen.optplan import OPT_LEVELS
from ..codegen.pygen import CompiledModule
from ..hdl.elaborate import elaborate
from ..hdl.errors import HDLError
from ..hdl.parser import Parser, parse
from ..hdl.source_regions import MODULE_REGION
from ..ir.netlist import Netlist
from ..passes import AnalyzePass, PassData, build_compile_pipeline
from .parser_live import LiveParseResult, LiveParser

# (spec key, module fingerprint, child interface fps, mux style,
#  sanitize flag, opt level, value-facts/plan fp) — sanitized/clean,
# per-opt-level, and per-facts artifacts coexist in the cache and in
# the artifact store.  At opt=full the child-fp components carry a
# "+pure" tag when the child subtree is pure (and, under sanitize,
# instrumentation-free); the last component is the dataflow-facts
# digest plus a "+e" elision marker, empty at opt=none without
# sanitize (see repro.passes.codegen.CodegenPass).
CacheKey = Tuple[str, str, Tuple[str, ...], str, bool, str, str]


@dataclass
class CompileReport:
    """What one compile pass did and how long it took (Fig. 8 data)."""

    top: str
    recompiled_keys: List[str] = field(default_factory=list)
    reused_keys: List[str] = field(default_factory=list)
    parse_seconds: float = 0.0
    elaborate_seconds: float = 0.0
    # The whole pass pipeline except what ``analyze_seconds`` counts.
    codegen_seconds: float = 0.0
    sanitize: bool = False
    opt: str = "none"
    # Per-pass incrementality accounting (repro.passes): which spec
    # keys each optimization pass recomputed vs served from its cache,
    # and wall time per pass.
    pass_computed: Dict[str, List[str]] = field(default_factory=dict)
    pass_reused: Dict[str, List[str]] = field(default_factory=dict)
    pass_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def analyze_seconds(self) -> float:
        """The analyze pass, plus the dataflow pass when analysis is
        its only consumer (opt=none without sanitize): that facts work
        is done for analysis alone, so it is analysis time."""
        seconds = self.pass_seconds.get("analyze", 0.0)
        if self.opt == "none" and not self.sanitize:
            seconds += self.pass_seconds.get("dataflow", 0.0)
        return seconds

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.elaborate_seconds + self.codegen_seconds

    @property
    def was_incremental(self) -> bool:
        return bool(self.reused_keys)


@dataclass
class CompileResult:
    netlist: Netlist
    library: Dict[str, CompiledModule]
    report: CompileReport
    analysis: AnalysisReport


class LiveCompiler:
    """Owns the evolving design source and the compilation cache."""

    def __init__(
        self,
        source: str,
        mux_style: str = "branch",
        store=None,
        sanitize: bool = False,
        sanitize_runtime=None,
        san_elide: bool = True,
        opt: str = "none",
    ):
        """``store`` is an optional on-disk artifact store (duck-typed
        ``load(cache_key)`` / ``save(cache_key, module)``, see
        :class:`repro.server.store.ArtifactStore`).  The in-memory
        cache reads through it and writes behind it, so artifacts
        survive restarts and are shared across sessions.

        With ``sanitize=True``, compiles emit instrumented code bound
        to ``sanitize_runtime`` (a
        :class:`repro.sanitize.SanitizerRuntime`).  The flag is part of
        the cache key, so clean and sanitized artifacts coexist and
        toggling is a cache hit after the first compile.

        ``opt`` selects the optimization level (see
        :data:`repro.codegen.optplan.OPT_LEVELS`); it too joins the
        cache key, so per-level artifacts coexist.

        Static analysis is a pass of the compile pipeline, so every
        compile also returns the design's findings; ``analyzer`` is
        that pass's :class:`~repro.analyze.engine.Analyzer`."""
        if opt not in OPT_LEVELS:
            raise ValueError(f"unknown opt level {opt!r} (know {OPT_LEVELS})")
        self.parser = LiveParser(source)
        self._design = parse(source)
        self._mux_style = mux_style
        self._cache: Dict[CacheKey, CompiledModule] = {}
        self._store = store
        self._sanitize = sanitize
        self._sanitize_runtime = sanitize_runtime
        self._san_elide = san_elide
        self._opt = opt
        # One pipeline for the compiler's lifetime: the pass instances
        # hold the per-pass caches that make hot reload incremental.
        self._pipeline = build_compile_pipeline()
        self.analyzer: Analyzer = next(
            p.analyzer for p in self._pipeline.passes
            if isinstance(p, AnalyzePass)
        )
        self._last_parse_seconds = 0.0

    @property
    def sanitize(self) -> bool:
        return self._sanitize

    def set_sanitize(self, enabled: bool, runtime=None) -> None:
        """Switch instrumented codegen on/off for subsequent compiles."""
        self._sanitize = enabled
        if runtime is not None:
            self._sanitize_runtime = runtime

    @property
    def opt(self) -> str:
        return self._opt

    def set_opt(self, level: str) -> None:
        """Switch the optimization level for subsequent compiles."""
        if level not in OPT_LEVELS:
            raise ValueError(
                f"unknown opt level {level!r} (know {OPT_LEVELS})"
            )
        self._opt = level

    @property
    def pipeline(self):
        return self._pipeline

    @property
    def artifact_store(self):
        return self._store

    @property
    def source(self) -> str:
        return self.parser.source

    @property
    def design(self):
        return self._design

    def cache_size(self) -> int:
        return len(self._cache)

    # -- source evolution -------------------------------------------------------

    def update_source(self, new_source: str) -> LiveParseResult:
        """Analyze and commit an edit.

        Changed module regions are parsed individually, from the tokens
        LiveParser lexed for them, when it is safe to do so (no macro
        usage in the changed regions, no directive change and no removed
        module); otherwise the whole file is re-parsed.  Raises
        :class:`HDLError` on syntax errors, leaving the previous good
        source and design in place.
        """
        started = time.perf_counter()
        with obs.span("parse"):
            return self._update_source(new_source, started)

    def _update_source(
        self, new_source: str, started: float
    ) -> LiveParseResult:
        result = self.parser.analyze(new_source)
        if result.behavioral:
            edited = result.changed_modules | result.added_modules
            texts = {
                region.name: region.text
                for region in result.regions
                if region.kind == MODULE_REGION
            }
            # Any backtick (even in a comment) is preprocessor business.
            incremental_ok = (
                not result.directive_changed
                and not result.removed_modules
                and all(
                    name in result.tokens and "`" not in texts[name]
                    for name in edited
                )
            )
            if incremental_ok:
                # Parse every edited region before touching the design,
                # so a syntax error in one leaves all of it in place.
                parsed = {}
                for name in edited:
                    sub_design = Parser(result.tokens[name]).parse_design()
                    if name not in sub_design.modules:
                        raise HDLError(
                            f"edited region no longer defines module {name!r}"
                        )
                    parsed[name] = sub_design.modules[name]
                self._design.modules.update(parsed)
            else:
                self._design = parse(new_source)
            for name in result.removed_modules:
                self._design.modules.pop(name, None)
        # A comment/whitespace-only edit commits the text and keeps
        # everything else.
        self.parser.commit(new_source, result)
        self._last_parse_seconds = time.perf_counter() - started
        result.parse_seconds = self._last_parse_seconds
        return result

    # -- compilation ---------------------------------------------------------------

    def compile_top(
        self, top: str, params: Optional[Dict[str, int]] = None
    ) -> CompileResult:
        """Elaborate + compile ``top`` through the pass pipeline,
        reusing cached modules (and cached per-pass results)."""
        report = CompileReport(
            top=top, sanitize=self._sanitize, opt=self._opt
        )
        report.parse_seconds = self._last_parse_seconds
        self._last_parse_seconds = 0.0

        started = time.perf_counter()
        with obs.span("elaborate", top=top):
            netlist = elaborate(self._design, top, params)
        report.elaborate_seconds = time.perf_counter() - started

        started = time.perf_counter()
        data = self._pass_data(netlist, report)
        with obs.span("codegen", top=top, opt=self._opt):
            self._pipeline.run(data)
        library: Dict[str, CompiledModule] = data.facts["codegen.library"]
        report.codegen_seconds = (
            time.perf_counter() - started - report.analyze_seconds
        )
        obs.gauge("compile.cache_size", len(self._cache))
        return CompileResult(
            netlist=netlist, library=library, report=report,
            analysis=data.facts["analyze.report"],
        )

    def analyze(self, netlist: Netlist) -> AnalysisReport:
        """Static-analysis findings for ``netlist``: the pipeline run
        up to its analyze pass, with no codegen, from the same caches
        a compile uses."""
        data = self._pass_data(netlist)
        self._pipeline.run(data, until="analyze.report")
        return data.facts["analyze.report"]

    def _pass_data(
        self, netlist: Netlist, report: Optional[CompileReport] = None
    ) -> PassData:
        fps = {
            name: self.parser.fingerprint(name)
            for name in {netlist.modules[k].name for k in netlist.modules}
        }
        return PassData(
            netlist=netlist,
            fps=fps,
            mux_style=self._mux_style,
            sanitize=self._sanitize,
            sanitize_runtime=self._sanitize_runtime,
            san_elide=self._san_elide,
            opt=self._opt,
            compile_cache=self._cache,
            store=self._store,
            report=report,
        )

    # -- cache maintenance ---------------------------------------------------------

    def evict_stale(self, keep_generations: int = 4) -> int:
        """Drop cache entries beyond a bounded population.

        The cache only grows when fingerprints change, so a long edit
        session can accumulate dead versions; this trims to the most
        recently inserted ``keep_generations`` entries per spec key.
        Returns the number of evicted entries.
        """
        by_spec: Dict[str, List[CacheKey]] = {}
        for cache_key in self._cache:
            by_spec.setdefault(cache_key[0], []).append(cache_key)
        evicted = 0
        for spec, keys in by_spec.items():
            if len(keys) > keep_generations:
                for key in keys[: len(keys) - keep_generations]:
                    del self._cache[key]
                    evicted += 1
        if evicted:
            obs.incr("compile.cache_evicted", evicted)
            obs.gauge("compile.cache_size", len(self._cache))
        return evicted
