"""LiveParser: attribute edits to regions and detect behavioural change.

Paper §III-C: "The LiveParser identifies which stage the change in code
took place in, and confirm that actual behavior was changed, not just
comments or spacing. LiveParser then extracts those sections of the
codebase and sends only those to LiveCompiler."

The decision procedure:

1. Split the new text into regions (modules / directives), once.
2. Lex each module region whose text changed, once, at its file line.
   A region whose *token-stream fingerprint* changed is a behavioural
   change in that module; comment/whitespace edits produce identical
   fingerprints and are ignored.  The token lists ride on the result,
   so LiveCompiler parses them without lexing again.
3. A changed/added/removed directive poisons every module whose region
   starts below the earliest affected directive line ("much more will
   have to be recompiled").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..hdl.lexer import behavioral_fingerprint, tokenize
from ..hdl.source_regions import (
    DIRECTIVE_REGION,
    MODULE_REGION,
    SourceRegion,
    split_regions,
)
from ..hdl.tokens import Token


@dataclass
class LiveParseResult:
    """Outcome of one LiveParser pass over an edit."""

    behavioral: bool  # does any region change behaviour?
    changed_modules: Set[str] = field(default_factory=set)
    added_modules: Set[str] = field(default_factory=set)
    removed_modules: Set[str] = field(default_factory=set)
    directive_changed: bool = False
    directive_line: Optional[int] = None  # earliest affected directive
    poisoned_modules: Set[str] = field(default_factory=set)  # below directive
    parse_seconds: float = 0.0
    # The analysed text, split once: what :meth:`LiveParser.commit`
    # adopts.  ``fingerprints`` covers every module region; ``tokens``
    # only the regions whose text changed (lexed at file lines).
    source: str = ""
    regions: List[SourceRegion] = field(default_factory=list)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    tokens: Dict[str, List[Token]] = field(default_factory=dict)

    @property
    def modules_to_recompile(self) -> Set[str]:
        return self.changed_modules | self.added_modules | self.poisoned_modules


class LiveParser:
    """Stateful incremental parser over one evolving source text."""

    def __init__(self, source: str):
        self._fingerprints: Dict[str, str] = {}
        self._region_texts: Dict[str, str] = {}
        regions, fingerprints, _ = self._scan(source)
        self._adopt(source, regions, fingerprints)

    @property
    def source(self) -> str:
        return self._source

    @property
    def regions(self) -> List[SourceRegion]:
        return list(self._regions)

    def _scan(
        self, source: str
    ) -> Tuple[List[SourceRegion], Dict[str, str], Dict[str, List[Token]]]:
        """Split ``source`` into regions and fingerprint every module
        region.  A region whose text equals the committed one keeps its
        fingerprint; the others are lexed once, at their file line, and
        their tokens returned for the parser."""
        regions = split_regions(source)
        fingerprints: Dict[str, str] = {}
        tokens: Dict[str, List[Token]] = {}
        for region in regions:
            if region.kind != MODULE_REGION:
                continue
            name = region.name
            if self._region_texts.get(name) == region.text:
                fingerprints[name] = self._fingerprints[name]
            else:
                tokens[name] = tokenize(region.text, region.start_line)
                fingerprints[name] = behavioral_fingerprint(tokens[name])
        return regions, fingerprints, tokens

    def _adopt(
        self,
        source: str,
        regions: List[SourceRegion],
        fingerprints: Dict[str, str],
    ) -> None:
        self._source = source
        self._regions = regions
        self._fingerprints = fingerprints
        self._region_texts = {
            r.name: r.text for r in regions if r.kind == MODULE_REGION
        }

    @staticmethod
    def _directive_signature(regions: List[SourceRegion]) -> List[str]:
        return [
            region.name for region in regions if region.kind == DIRECTIVE_REGION
        ]

    def module_names(self) -> Set[str]:
        return set(self._fingerprints)

    def fingerprint(self, module_name: str) -> str:
        """The committed behavioural fingerprint of one module.

        Includes the *preprocessor context*: every directive above the
        module's region.  A ``\\`define`` edit therefore changes the
        fingerprint of each module below it, even though the modules'
        own text (which references the macro by name) is unchanged —
        this is what keeps the compile cache honest across directive
        edits (the paper's "much more will have to be recompiled").
        """
        import hashlib

        fp = self._fingerprints.get(module_name)
        if fp is None:
            # Module was merged into the design without a region (e.g.
            # generated programmatically): hash on demand.
            return behavioral_fingerprint(tokenize(module_name))
        region = self.region_of_module(module_name)
        context = [
            r.name
            for r in self._regions
            if r.kind == DIRECTIVE_REGION
            and (region is None or r.start_line < region.start_line)
        ]
        if not context:
            return fp
        digest = hashlib.sha256(fp.encode())
        for directive in context:
            digest.update(b"\x00")
            digest.update(directive.encode())
        return digest.hexdigest()

    def region_of_module(self, name: str) -> Optional[SourceRegion]:
        for region in self._regions:
            if region.kind == MODULE_REGION and region.name == name:
                return region
        return None

    def analyze(self, new_source: str) -> LiveParseResult:
        """Compare ``new_source`` against the current text.

        Does **not** commit; call :meth:`commit` with the same text once
        the downstream compile succeeded, so a failed edit can be
        retried without corrupting the baseline.
        """
        started = time.perf_counter()
        new_regions, new_fps, tokens = self._scan(new_source)
        old_fps = self._fingerprints

        result = LiveParseResult(
            behavioral=False,
            source=new_source,
            regions=new_regions,
            fingerprints=new_fps,
            tokens=tokens,
        )
        old_names = set(old_fps)
        new_names = set(new_fps)
        result.added_modules = new_names - old_names
        result.removed_modules = old_names - new_names
        result.changed_modules = {
            name
            for name in old_names & new_names
            if old_fps[name] != new_fps[name]
        }

        old_directives = self._directive_signature(self._regions)
        new_directives = self._directive_signature(new_regions)
        if old_directives != new_directives:
            result.directive_changed = True
            result.directive_line = self._earliest_directive_divergence(
                new_regions, old_directives, new_directives
            )
            # Everything below the earliest affected directive is
            # poisoned (paper: "this could affect any code below").
            line = result.directive_line or 0
            result.poisoned_modules = {
                region.name
                for region in new_regions
                if region.kind == MODULE_REGION and region.start_line >= line
            }

        result.behavioral = bool(
            result.changed_modules
            or result.added_modules
            or result.removed_modules
            or result.directive_changed
        )
        result.parse_seconds = time.perf_counter() - started
        return result

    def _earliest_directive_divergence(
        self,
        new_regions: List[SourceRegion],
        old_directives: List[str],
        new_directives: List[str],
    ) -> int:
        new_directive_regions = [
            r for r in new_regions if r.kind == DIRECTIVE_REGION
        ]
        old_directive_regions = [
            r for r in self._regions if r.kind == DIRECTIVE_REGION
        ]
        for i in range(max(len(old_directives), len(new_directives))):
            old = old_directives[i] if i < len(old_directives) else None
            new = new_directives[i] if i < len(new_directives) else None
            if old != new:
                candidates = []
                if i < len(new_directive_regions):
                    candidates.append(new_directive_regions[i].start_line)
                if i < len(old_directive_regions):
                    candidates.append(old_directive_regions[i].start_line)
                return min(candidates) if candidates else 1
        return 1

    def commit(
        self, new_source: str, analysis: Optional[LiveParseResult] = None
    ) -> None:
        """Accept ``new_source`` as the new baseline.

        ``analysis`` is :meth:`analyze`'s result for the same text; its
        regions and fingerprints are adopted as they are, so committing
        neither splits nor lexes again.
        """
        if analysis is not None and analysis.source == new_source:
            regions, fingerprints = analysis.regions, analysis.fingerprints
        else:
            regions, fingerprints, _ = self._scan(new_source)
        self._adopt(new_source, regions, fingerprints)
