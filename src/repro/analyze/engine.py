"""The incremental analyzer: fingerprint-cached analysis runs.

Mirrors :class:`~repro.live.compiler_live.LiveCompiler`'s cache
discipline: results are cached per specialization under a key built
from the module's *behavioural fingerprint* plus a combinational
summary of each child.  A body-only edit therefore re-analyzes exactly
one module on the next hot reload; an untouched design re-analyzes
nothing and an :class:`AnalysisReport` says so explicitly
(``analyzed_keys`` / ``reused_keys`` — the acceptance counters).

The child component of the key is the child's *comb signature*
(interface fingerprint + per-output input dependencies), because the
parent-side loop/race analyses consume exactly that much of the child:
more than the compile cache's interface fingerprint, much less than
the child's body.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ir.netlist import ModuleIR, Netlist
from .checks import Check, CheckContext, default_checks
from .diagnostics import Diagnostic, count_by_severity, sort_diagnostics

# (spec key, module fingerprint, child comb signatures, check set,
#  value-facts digest) — the last component is what makes proof-backed
# findings cache-correct: cross-module fact flow means a parent edit
# can change this module's findings without touching its fingerprint.
AnalysisKey = Tuple[str, str, Tuple[str, ...], str, str]


@dataclass
class AnalysisReport:
    """What one analysis pass did: findings plus cache accounting."""

    top: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    analyzed_keys: List[str] = field(default_factory=list)
    reused_keys: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        return count_by_severity(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def findings(self, severity: Optional[str] = None) -> List[Diagnostic]:
        if severity is None:
            return list(self.diagnostics)
        return [d for d in self.diagnostics if d.severity == severity]


def comb_signature(ir: ModuleIR) -> str:
    """Hash of what a parent's analyses can observe of a child."""
    digest = hashlib.sha256(ir.interface_fingerprint().encode())
    for port in sorted(ir.output_deps):
        deps = ",".join(sorted(ir.output_deps[port]))
        digest.update(f";{port}<-{deps}".encode())
    return digest.hexdigest()


class Analyzer:
    """Owns the check set and the per-specialization findings cache.

    It keeps no value facts: the compile pipeline's ``AnalyzePass``
    hands it the facts ``ValueFactsPass`` cached for the same run.
    """

    def __init__(self, checks: Optional[Sequence[Check]] = None):
        self._checks: List[Check] = list(
            checks if checks is not None else default_checks()
        )
        self._cache: Dict[AnalysisKey, Tuple[Diagnostic, ...]] = {}
        self._check_set = ",".join(
            sorted(type(c).__name__ for c in self._checks)
        )

    def cache_size(self) -> int:
        return len(self._cache)

    def analyze_netlist(
        self,
        netlist: Netlist,
        fingerprint_of: Optional[Callable[[str], str]] = None,
        value_facts=None,
    ) -> AnalysisReport:
        """Analyze every specialization in ``netlist``.

        ``fingerprint_of`` maps a *module name* to its behavioural
        fingerprint (normally ``LiveParser.fingerprint``); without one,
        results are computed fresh and not cached — the right behaviour
        for one-shot CLI runs over a file.

        ``value_facts`` (key -> ``ModuleValueFacts``) feeds the
        proof-backed checks; the compile pipeline passes its cached
        ones.  When omitted they are computed fresh, uncached.
        """
        started = time.perf_counter()
        report = AnalysisReport(top=netlist.top)
        with obs.span("analyze", top=netlist.top):
            if value_facts is None:
                # Function-level import: repro.passes imports this
                # module (AnalyzePass).
                from ..passes.dataflow import compute_netlist_facts

                value_facts = compute_netlist_facts(netlist)
            ctx = CheckContext(netlist, value_facts)
            signatures = {
                key: comb_signature(ir)
                for key, ir in netlist.modules.items()
            }
            for key in sorted(netlist.modules):
                ir = netlist.modules[key]
                diags = self._analyze_module(
                    ir, ctx, signatures, fingerprint_of, report
                )
                report.diagnostics.extend(diags)
        report.diagnostics = sort_diagnostics(report.diagnostics)
        report.seconds = time.perf_counter() - started
        obs.incr("analyze.runs")
        obs.gauge("analyze.cache_size", len(self._cache))
        obs.gauge("analyze.findings", len(report.diagnostics))
        return report

    def _analyze_module(
        self,
        ir: ModuleIR,
        ctx: CheckContext,
        signatures: Dict[str, str],
        fingerprint_of: Optional[Callable[[str], str]],
        report: AnalysisReport,
    ) -> Tuple[Diagnostic, ...]:
        cache_key: Optional[AnalysisKey] = None
        if fingerprint_of is not None:
            child_sigs = tuple(
                signatures[inst.child_key] for inst in ir.instances
            )
            mod_facts = ctx.facts_for(ir.key)
            facts_digest = mod_facts.digest if mod_facts is not None else ""
            cache_key = (
                ir.key, fingerprint_of(ir.name), child_sigs,
                self._check_set, facts_digest,
            )
            cached = self._cache.get(cache_key)
            if cached is not None:
                report.reused_keys.append(ir.key)
                obs.incr("analyze.cache_hits")
                return cached
        diags: List[Diagnostic] = []
        with obs.span("analyze.module", key=ir.key):
            for check in self._checks:
                diags.extend(check.run(ir, ctx))
        result = tuple(diags)
        if cache_key is not None:
            self._cache[cache_key] = result
        report.analyzed_keys.append(ir.key)
        obs.incr("analyze.cache_misses")
        obs.incr("analyze.modules_analyzed")
        return result

    def evict_stale(self, keep_generations: int = 4) -> int:
        """Bound the cache like the compile cache: keep the newest
        ``keep_generations`` entries per spec key."""
        by_spec: Dict[str, List[AnalysisKey]] = {}
        for cache_key in self._cache:
            by_spec.setdefault(cache_key[0], []).append(cache_key)
        evicted = 0
        for keys in by_spec.values():
            if len(keys) > keep_generations:
                for key in keys[: len(keys) - keep_generations]:
                    del self._cache[key]
                    evicted += 1
        if evicted:
            obs.incr("analyze.cache_evicted", evicted)
            obs.gauge("analyze.cache_size", len(self._cache))
        return evicted
