"""repro.analyze as a pass.

Runs the incremental :class:`~repro.analyze.engine.Analyzer` (which
caches findings per specialization) on the value facts
``ValueFactsPass`` computed for this run, so analysis shares the
compiler's one facts cache.  Analysis runs on the elaborated netlist
*before* any optimization applies, so findings are identical at every
opt level.
"""

from __future__ import annotations

from ..analyze.engine import Analyzer
from .base import Pass, PassData


class AnalyzePass(Pass):
    name = "analyze"
    requires = ("elab.facts", "dataflow.facts")
    produces = ("analyze.report",)

    def __init__(self):
        self._analyzer = Analyzer()

    @property
    def analyzer(self) -> Analyzer:
        return self._analyzer

    def run(self, data: PassData) -> None:
        data.facts["analyze.report"] = self._analyzer.analyze_netlist(
            data.netlist, data.fingerprint if data.fps else None,
            value_facts=data.facts["dataflow.facts"],
        )
