"""LiveCompiler tests: incremental recompilation and cache behaviour."""

import pytest

from repro.hdl.errors import HDLError, LexError, ParseError
from repro.hdl.parser import Parser, parse
from repro.hdl.source_regions import module_regions
from repro.live import compiler_live, parser_live
from repro.live.compiler_live import LiveCompiler
from repro.live.session import LiveSession
from repro.riscv.pgas import build_pgas_source
from tests.conftest import COUNTER_SRC


class TestFullCompile:
    def test_first_compile_builds_everything(self):
        compiler = LiveCompiler(COUNTER_SRC)
        result = compiler.compile_top("top")
        assert sorted(result.report.recompiled_keys) == [
            "adder#(W=8)", "counter#(W=8)", "top",
        ]
        assert result.report.reused_keys == []

    def test_second_compile_reuses_everything(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []
        assert len(result.report.reused_keys) == 3

    def test_different_tops_share_children(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("counter")
        result = compiler.compile_top("top")
        assert "adder#(W=8)" in result.report.reused_keys
        assert "top" in result.report.recompiled_keys


class TestIncrementalRecompile:
    def test_body_edit_recompiles_one_module(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        compiler.update_source(
            COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a - b;")
        )
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == ["adder#(W=8)"]
        assert sorted(result.report.reused_keys) == ["counter#(W=8)", "top"]

    def test_comment_edit_recompiles_nothing(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        analysis = compiler.update_source(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a + b;  // reviewed")
        )
        assert not analysis.behavioral
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []

    def test_interface_edit_recompiles_parent_chain(self):
        # Widening the adder's port changes its interface: counter must
        # recompile too, but top (whose child interface is unchanged)
        # must not.
        new = COUNTER_SRC.replace(
            "module adder #(parameter W = 8) (\n  input clk,",
            "module adder #(parameter W = 8) (\n  input clk,\n  input enable,",
        ).replace(
            "adder #(.W(W)) u_add (.clk(clk),",
            "adder #(.W(W)) u_add (.clk(clk), .enable(1'b1),",
        )
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        compiler.update_source(new)
        result = compiler.compile_top("top")
        assert sorted(result.report.recompiled_keys) == [
            "adder#(W=8)", "counter#(W=8)",
        ]
        assert result.report.reused_keys == ["top"]

    def test_reverting_edit_hits_cache(self):
        compiler = LiveCompiler(COUNTER_SRC)
        first = compiler.compile_top("top")
        compiler.update_source(COUNTER_SRC.replace("a + b", "a - b"))
        compiler.compile_top("top")
        compiler.update_source(COUNTER_SRC)
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []
        assert result.library["adder#(W=8)"] is first.library["adder#(W=8)"]

    def test_syntax_error_keeps_old_source(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        with pytest.raises(HDLError):
            compiler.update_source(
                COUNTER_SRC.replace("assign sum = a + b;", "assign sum = ;")
            )
        # The old design still compiles fine.
        result = compiler.compile_top("top")
        assert result.library["top"] is not None

    def test_added_module_compiles(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        compiler.update_source(COUNTER_SRC + """
module widget (input clk, output y);
  assign y = 1'b1;
endmodule
""")
        result = compiler.compile_top("widget")
        assert "widget" in result.report.recompiled_keys

    def test_removed_module_disappears(self):
        extended = COUNTER_SRC + "\nmodule extra (input clk); endmodule\n"
        compiler = LiveCompiler(extended)
        compiler.compile_top("extra")
        compiler.update_source(COUNTER_SRC)
        assert "extra" not in compiler.design.modules


class TestCacheManagement:
    def test_cache_grows_with_versions(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        baseline = compiler.cache_size()
        compiler.update_source(COUNTER_SRC.replace("a + b", "a - b"))
        compiler.compile_top("top")
        assert compiler.cache_size() == baseline + 1

    def test_evict_stale_bounds_population(self):
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        variants = ["a - b", "a ^ b", "a & b", "a | b", "a * b", "a + b + 1"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        evicted = compiler.evict_stale(keep_generations=2)
        assert evicted > 0
        # Current version still compiles from cache.
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []

    def test_evict_stale_keeps_newest_generations_per_spec(self):
        """Eviction is per spec key in insertion order: the newest
        ``keep_generations`` versions of each module survive."""
        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        # Four adder generations; counter/top each stay at one.
        variants = ["a - b", "a ^ b", "a & b"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        assert compiler.cache_size() == 3 + len(variants)
        evicted = compiler.evict_stale(keep_generations=2)
        # Only the adder spec exceeded the bound: 4 generations -> 2.
        assert evicted == 2
        assert compiler.cache_size() == 3 + len(variants) - 2
        # The two *newest* generations were kept: the current source
        # ("a & b") and the previous one ("a ^ b") compile fully from
        # cache, while an evicted older generation recompiles.
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == []
        compiler.update_source(COUNTER_SRC.replace("a + b", "a ^ b"))
        assert compiler.compile_top("top").report.recompiled_keys == []
        compiler.update_source(COUNTER_SRC.replace("a + b", "a - b"))
        result = compiler.compile_top("top")
        assert result.report.recompiled_keys == ["adder#(W=8)"]

    def test_evict_stale_counts_evictions(self):
        from repro import obs

        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        for variant in ["a - b", "a ^ b", "a & b"]:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        metrics = obs.get_metrics()
        before = metrics.counter("compile.cache_evicted")
        evicted = compiler.evict_stale(keep_generations=1)
        assert evicted == 3
        assert metrics.counter("compile.cache_evicted") == before + 3
        assert metrics.gauge_value("compile.cache_size") == compiler.cache_size()

    def test_evict_stale_noop_below_bound(self):
        from repro import obs

        compiler = LiveCompiler(COUNTER_SRC)
        compiler.compile_top("top")
        metrics = obs.get_metrics()
        before = metrics.counter("compile.cache_evicted")
        size = compiler.cache_size()
        assert compiler.evict_stale(keep_generations=4) == 0
        # The no-op path touches neither the cache nor the counter.
        assert compiler.cache_size() == size
        assert metrics.counter("compile.cache_evicted") == before
        assert compiler.compile_top("top").report.recompiled_keys == []


class TestTimingFields:
    def test_report_times_populated(self):
        compiler = LiveCompiler(COUNTER_SRC)
        result = compiler.compile_top("top")
        report = result.report
        assert report.elaborate_seconds > 0
        assert report.codegen_seconds > 0
        assert report.total_seconds >= report.codegen_seconds

    @pytest.mark.parametrize("opt,sanitize,facts_are_analysis", [
        ("none", False, True),
        ("full", False, False),
        ("none", True, False),
    ])
    def test_analysis_time_stays_out_of_codegen(
        self, opt, sanitize, facts_are_analysis
    ):
        # At opt=none without sanitize only analysis reads the dataflow
        # facts, so that pass counts as analysis, not compile, time.
        compiler = LiveCompiler(COUNTER_SRC, opt=opt, sanitize=sanitize)
        report = compiler.compile_top("top").report
        seconds = report.pass_seconds
        expected = seconds["analyze"]
        if facts_are_analysis:
            expected += seconds["dataflow"]
        assert report.analyze_seconds == pytest.approx(expected)

    def test_incremental_flag(self):
        compiler = LiveCompiler(COUNTER_SRC)
        assert not compiler.compile_top("top").report.was_incremental
        assert compiler.compile_top("top").report.was_incremental


class TestFrontEndWork:
    """An edit splits the file into regions once and lexes each changed
    region once; the parse reuses those tokens, never the whole file."""

    def _count(self, patch, edited):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        calls = {"split_regions": 0, "parse": 0, "parse_design": 0}
        lexed = []
        split_regions = parser_live.split_regions
        tokenize = parser_live.tokenize
        full_parse = compiler_live.parse
        parse_design = Parser.parse_design

        def counting_split(source):
            calls["split_regions"] += 1
            return split_regions(source)

        def counting_tokenize(text, start_line=1):
            lexed.append((text, start_line))
            return tokenize(text, start_line)

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return full_parse(*args, **kwargs)

        def counting_parse_design(parser):
            calls["parse_design"] += 1
            return parse_design(parser)

        patch.setattr(parser_live, "split_regions", counting_split)
        patch.setattr(parser_live, "tokenize", counting_tokenize)
        patch.setattr(compiler_live, "parse", counting_parse)
        patch.setattr(Parser, "parse_design", counting_parse_design)
        report = session.apply_change(edited)
        return report, calls, lexed

    def test_one_module_edit_splits_once_and_lexes_one_region(
        self, monkeypatch
    ):
        edited = COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a - b;")
        report, calls, lexed = self._count(monkeypatch, edited)
        assert report.behavioral
        assert report.recompiled_keys == ["adder#(W=8)"]
        adder = module_regions(edited)["adder"]
        assert lexed == [(adder.text, adder.start_line)]
        assert calls == {"split_regions": 1, "parse": 0, "parse_design": 1}

    def test_comment_only_edit_lexes_but_does_not_parse(self, monkeypatch):
        edited = COUNTER_SRC.replace(
            "assign sum = a + b;", "assign sum = a + b; // reviewed"
        )
        report, calls, lexed = self._count(monkeypatch, edited)
        assert not report.behavioral
        assert len(lexed) == 1
        assert calls == {"split_regions": 1, "parse": 0, "parse_design": 0}


class TestEditErrors:
    """Errors in an edited module name file lines, as a full parse does."""

    def _edit_rv_ex(self, suffix):
        source = build_pgas_source(1)
        lines = source.splitlines()
        region = module_regions(source)["rv_ex"]
        assert region.start_line < 289 <= region.end_line
        lines[288] += suffix
        return source, "\n".join(lines) + "\n"

    @pytest.mark.parametrize("suffix,error", [
        (" @@@ ;", ParseError),
        (" \\ ;", LexError),
    ])
    def test_error_line_matches_full_parse(self, suffix, error):
        source, edited = self._edit_rv_ex(suffix)
        with pytest.raises(error) as full:
            parse(edited)
        compiler = LiveCompiler(source)
        design = compiler.design
        with pytest.raises(error) as live:
            compiler.update_source(edited)
        assert (live.value.line, live.value.col) == (
            full.value.line, full.value.col
        )
        assert live.value.line == 289
        assert str(live.value) == str(full.value)
        assert compiler.source == source
        assert compiler.design is design

    def test_non_ascii_digit_is_rejected_and_rolled_back(self):
        session = LiveSession(COUNTER_SRC)
        session.inst_pipe("p0", session.stage_handle_for("top"))
        with pytest.raises(LexError, match="unexpected character"):
            session.apply_change(
                COUNTER_SRC.replace("assign sum = a + b;", "assign sum = ²;")
            )
        assert session.compiler.source == COUNTER_SRC
        # The session is still live: a good edit goes through.
        report = session.apply_change(
            COUNTER_SRC.replace("assign sum = a + b;", "assign sum = a - b;")
        )
        assert report.recompiled_keys == ["adder#(W=8)"]

    def test_failed_region_parse_keeps_every_module(self):
        # Two edited modules, the second broken: the first must not be
        # swapped into the design on its own.
        compiler = LiveCompiler(COUNTER_SRC)
        adder = compiler.design.modules["adder"]
        edited = COUNTER_SRC.replace(
            "assign sum = a + b;", "assign sum = a - b;"
        ).replace("count_q <= next;", "count_q <= ;")
        with pytest.raises(ParseError):
            compiler.update_source(edited)
        assert compiler.design.modules["adder"] is adder
