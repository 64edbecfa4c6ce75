"""Runs one workload in a process of its own; ``run.py`` spawns it.

Modes:

* ``--setup-only``: set the workload up, print ``READY``, tear down.
* ``--trace 0``: set up, print ``READY``, then run the timed closed loop
  for ``--seconds`` and print ``RESULT <json>`` with the end-to-end
  figures.
* ``--trace 1``: run a fixed, seeded sequence twice in this process,
  first untraced and then traced, and print ``RESULT <json>`` with the
  per-layer figures, the exact counts of both passes and the tracing
  overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import refspeed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

perf = time.perf_counter

# Iterations of the fixed sequence a traced run replays (per pass).
TRACE_ITERATIONS = {
    "edit-mesh2": 1,  # one round: 16 edits, 16 runs
    "sim-mesh4": 40,  # 4000 cycles, 20 edits
    "live-cgra": 24,
    "serve-small": 10,  # 20 sessions
}
# A loop whose operations keep failing stops early; the failures are
# reported, not hidden.
MAX_FAILURES = 25


def emit(tag: str, payload=None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _loop(workload: wl.Workload, seconds: float = None,
          iterations: int = None, rss_after: int = None) -> tuple:
    """Timed iterations, then ``finish``.  Returns the timed wall and the
    peak resident set after ``rss_after`` iterations (None if the loop
    ended sooner)."""
    timed = 0.0
    done = 0
    peak = None
    while True:
        if iterations is not None and done >= iterations:
            break
        if seconds is not None and timed >= seconds:
            break
        if workload.stats.failed > MAX_FAILURES:
            break
        untimed = workload.untimed_seconds
        started = perf()
        workload.iteration()
        timed += perf() - started - (workload.untimed_seconds - untimed)
        done += 1
        if done == rss_after:
            peak = workload.peak_rss_mb()
    untimed = workload.untimed_seconds
    started = perf()
    workload.finish()
    timed += perf() - started - (workload.untimed_seconds - untimed)
    return timed, peak


def _speed(probes: list, reference) -> list:
    """Per operation, the local reference time over ``REF_MS``: how much
    slower than the reference speed the host ran it (see ``refspeed``);
    1 for an unscaled operation."""
    return [1.0 if index is None
            else reference.local_ms(index) / refspeed.REF_MS
            for index in probes]


def timed_run(name: str, seed: int, seconds: float) -> dict:
    workload = wl.WORKLOADS[name](seed)
    reference = None
    try:
        workload.setup()
        emit("READY", {"setup_s": getattr(workload, "setup_seconds", None)})
        reference = workload.reference = refspeed.Reference()
        workload.warmup()
        # Only the timed loop's operations are measured.
        stats = workload.stats
        for series in (stats.edit_ms, stats.gap_ms, stats.cmd_ms,
                       stats.run_hz, stats.edit_probe, stats.cmd_probe,
                       stats.run_probe):
            series.clear()
        # Memory is read after the fixed sequence a traced run replays,
        # not at the end: a faster program fits more iterations into
        # the timed window, and caches and history grow with them.
        wall, peak = _loop(workload, seconds=seconds,
                           rss_after=TRACE_ITERATIONS[name])
        workload.attempt("final checks", workload.final_checks)
        if peak is None:
            peak = workload.peak_rss_mb()
        ledger = workload.ledger()
        edit_ms = [ms / speed for ms, speed in zip(
            stats.edit_ms, _speed(stats.edit_probe, reference))]
        cmd_ms = [ms / speed for ms, speed in zip(
            stats.cmd_ms, _speed(stats.cmd_probe, reference))]
        run_hz = [hz * speed for hz, speed in zip(
            stats.run_hz, _speed(stats.run_probe, reference))]
    finally:
        workload.close()
        if reference is not None:
            reference.close()
    ops = len(stats.cmd_ms) + len(stats.edit_ms)
    raw_ms = sum(stats.edit_ms) + sum(stats.cmd_ms)
    # The timed wall at the reference speed, scaled like its operations.
    scaled_wall = wall * (sum(edit_ms) + sum(cmd_ms)) / raw_ms if raw_ms else wall
    return {
        "workload": name,
        "cores": workload.cores,
        "timed_s": wall,
        "edit_ms": edit_ms,
        "edit_raw_ms": stats.edit_ms,
        "gap_ms": stats.gap_ms,
        "cmd_ms": cmd_ms,
        "cmd_raw_ms": stats.cmd_ms,
        "run_hz": run_hz,
        "run_raw_hz": stats.run_hz,
        "ops_per_s": ops / scaled_wall if scaled_wall > 0 else 0.0,
        "ops_raw_per_s": ops / wall if wall > 0 else 0.0,
        "peak_rss_mb": peak,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "negative_checks": stats.negative_checks,
        "errors": stats.errors,
        "ledger": ledger,
    }


def _fixed_pass(name: str, seed: int, tracer, reference) -> tuple:
    """One pass of the fixed sequence; returns the workload, its wall,
    its exact counts and the reference time over the pass."""
    workload = wl.WORKLOADS[name](seed, tracer)
    workload.reference = reference
    first = len(reference.samples)
    if tracer is not None:
        tracer.op = "setup"
        tracer.resume()
    started = perf()
    try:
        workload.setup()
        workload.warmup()
        _loop(workload, iterations=TRACE_ITERATIONS[name])
        wall = perf() - started - workload.untimed_seconds
        if tracer is not None:
            tracer.pause()
        workload.attempt("final checks", workload.final_checks)
        ledger = workload.ledger()
    finally:
        if tracer is not None:
            tracer.pause()
        workload.close()
    samples = reference.samples[first:]
    speed = statistics.median(samples) if samples else refspeed.REF_MS
    return workload, wall, ledger, speed


def _layer_metrics(tracer: tr.Tracer, ledger: dict, gap_ms: list,
                   untraced_wall: float, speed_ratio: float) -> dict:
    ls = tracer.layer_self
    ms = {layer: ls.get(layer, 0.0) * 1e3 for layer in tr.TIMED_LAYERS}
    cycles = tracer.calls.get("sim.pipeline.tick", 0)
    values = {
        "hdl.lexer.ms": ms["hdl.lexer"],
        "hdl.lexer.calls": len(tracer.durations.get("tokenize", ())),
        "hdl.lexer.tokens": tracer.counts.get("hdl.lexer.tokens", 0),
        "hdl.source_regions.ms": ms["hdl.source_regions"],
        "hdl.source_regions.calls": len(
            tracer.durations.get("split_regions", ())),
        "hdl.parser.ms": ms["hdl.parser"],
        "hdl.parser.bytes": tracer.counts.get("hdl.parser.bytes", 0),
        "live.parser_live.ms": ms["live.parser_live"],
        "hdl.elaborate.ms": ms["hdl.elaborate"],
        "passes.other.ms": ms["passes.other"],
        "analyze.ms": ms["analyze"],
        "live.hotreload.ms": ms["live.hotreload"],
        "live.checkpoint.take_ms": ms["live.checkpoint.take"],
        "live.checkpoint.reload_ms": ms["live.checkpoint.reload"],
        "live.replay.ms": ms["live.replay"],
        "sim.pipeline.ms": ms["sim.pipeline.eval"] + ms["sim.pipeline.tick"],
        "sim.pipeline.eval_us": (
            ms["sim.pipeline.eval"] * 1e3 / cycles if cycles else 0.0),
        "sim.pipeline.tick_us": (
            ms["sim.pipeline.tick"] * 1e3 / cycles if cycles else 0.0),
        "sim.pipeline.cycles": cycles,
        "sim.testbench.ms": ms["sim.testbench"],
        "server.ms": ms["server"],
        "erd.gap_p50_ms": statistics.median(gap_ms) if gap_ms else 0.0,
        "other.ms": tracer.wall * 1e3 - sum(ms.values()),
        "trace.wall_ms": tracer.wall * 1e3,
        "trace.untraced_wall_ms": untraced_wall * 1e3,
        # The two passes compared at the same reference speed.
        "trace.overhead_pct": (
            (tracer.wall / speed_ratio - untraced_wall) / untraced_wall
            * 100.0),
        "trace.spans": len(tracer.spans),
    }
    for cls in tr.PASS_CLASSES:
        values[f"passes.{cls}.ms"] = ms[f"passes.{cls}"]
    for cls in tr.SERVER_CLASSES:
        durations = tracer.durations.get(f"server.{cls}", ())
        values[f"server.{cls}.p50_ms"] = (
            statistics.median(durations) * 1e3 if durations else 0.0)
    return {
        name: values[name] if name in values else ledger.get(name, 0)
        for name, _unit in tr.LAYER_METRICS
    }


def traced_run(name: str, seed: int) -> dict:
    reference = refspeed.Reference()
    try:
        plain, plain_wall, plain_ledger, plain_speed = _fixed_pass(
            name, seed, None, reference)
        tracer = tr.Tracer()
        installed = tr.install(tracer)
        try:
            traced, _wall, traced_ledger, traced_speed = _fixed_pass(
                name, seed, tracer, reference)
        finally:
            installed.uninstall()
    finally:
        reference.close()
    errors = plain.stats.errors + traced.stats.errors
    attempted = plain.stats.attempted + traced.stats.attempted + 2
    failed = plain.stats.failed + traced.stats.failed
    if plain_ledger != traced_ledger:
        failed += 1
        differ = sorted(
            key for key in set(plain_ledger) | set(traced_ledger)
            if plain_ledger.get(key) != traced_ledger.get(key)
        )
        errors.append(f"counts differ between same-seed passes: {differ}")
    unreached = installed.unreached(name)
    if unreached:
        failed += 1
        errors.append(f"wrapped functions never reached: {unreached}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(
        os.path.join(out_dir, f"trace-{name}-seed{seed}.json"),
        {"workload": name, "seed": seed, "ledger": traced_ledger},
    )
    return {
        "workload": name,
        "cores": traced.cores,
        "layers": _layer_metrics(tracer, traced_ledger, plain.stats.gap_ms,
                                 plain_wall, traced_speed / plain_speed),
        "ledger": traced_ledger,
        "attempted": attempted,
        "failed": failed,
        "negative_checks": (plain.stats.negative_checks
                            + traced.stats.negative_checks),
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the workload and every process it starts (the server):
    # a request between two processes then never waits for another
    # virtual CPU to wake up, which made sub-millisecond command
    # latencies swing 3x from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import repro

    expected = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != expected:
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {expected}")
    if args.setup_only:
        workload = wl.WORKLOADS[args.workload](args.seed)
        try:
            workload.setup()
            emit("READY",
                 {"setup_s": getattr(workload, "setup_seconds", None)})
        finally:
            workload.close()
        return 0
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
