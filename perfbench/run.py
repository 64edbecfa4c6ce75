"""LiveSim benchmark: edit latency and simulation rate per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload edit-mesh2 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics (measured untraced);
``--trace 1`` prints the per-layer metrics of a separate traced run.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (with ``--workload all``, metric names are prefixed by the
workload).  The exit code is 0 when a result was produced, and non-zero
(with no result line) when the benchmark could not run.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refspeed  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("edit-mesh2", "sim-mesh4", "live-cgra", "serve-small")
# Set-up is measured in this many fresh processes per run; the median
# is reported.
SETUP_SAMPLES = 3
# Reference probes before and after each set-up process.
SETUP_PROBES = 3
# Hard wall-clock limit for one workload run.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("sim_hz", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("cmds_per_s", "1/s"),
    ("ok_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Child:
    """One worker process (and whatever it starts) with a kill switch
    at the run's deadline."""

    def __init__(self, args, deadline: float):
        self.spawned = time.perf_counter()
        # A session of its own, so the deadline also takes down a
        # server the worker started.
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            start_new_session=True,
        )
        remaining = max(deadline - time.monotonic(), 1.0)
        self._timer = threading.Timer(remaining, self._kill)
        self._timer.daemon = True
        self._timer.start()
        self.ready_at = None
        self.ready = None
        self.result = None

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self) -> int:
        try:
            for line in self.proc.stdout:
                tag, _, payload = line.rstrip("\n").partition(" ")
                if tag == "READY":
                    self.ready_at = time.perf_counter()
                    self.ready = json.loads(payload)
                elif tag == "RESULT":
                    self.result = json.loads(payload)
        except BaseException:
            self._kill()  # interrupted: leave no worker or server behind
            raise
        finally:
            code = self.proc.wait()
            self._timer.cancel()
            self.proc.stdout.close()
        return code

    def setup_seconds(self) -> float:
        """Process start to a booted pipe; for the server workload, the
        worker times server start to the first answered request."""
        if self.ready.get("setup_s") is not None:
            return self.ready["setup_s"]
        return self.ready_at - self.spawned


def setup_sample(common, deadline: float, reference) -> float:
    """One set-up in a fresh process, at the reference host speed
    (``refspeed``): the probes bracket the process."""
    before = reference.median_ms(SETUP_PROBES)
    child = Child(common + ["--setup-only"], deadline)
    if child.wait() != 0 or child.ready is None:
        raise BenchError(f"{common[1]}: set-up run failed")
    seconds = child.setup_seconds()
    local = statistics.median([before, reference.median_ms(SETUP_PROBES)])
    return seconds * refspeed.REF_MS / local


def declared_metrics() -> tuple:
    """(end-to-end, per-layer) name/unit lists from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(result: dict, setups) -> dict:
    edits, cmds = result["edit_ms"], result["cmd_ms"]
    return {
        "setup_s": statistics.median(setups),
        "edit_p50_ms": statistics.median(edits) if edits else 0.0,
        "edit_p90_ms": percentile(edits, 90),
        # Cycles over the seconds of all timed run calls (each call
        # runs the same number of cycles).
        "sim_hz": len(result["run_hz"]) / sum(
            1.0 / hz for hz in result["run_hz"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "cmd_p50_ms": statistics.median(cmds) if cmds else 0.0,
        "cmd_p90_ms": percentile(cmds, 90),
        "cmds_per_s": result["ops_per_s"],
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int):
    """Run one workload; prints its report, returns (result, metrics)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        reference = refspeed.Reference()
        try:
            for _ in range(SETUP_SAMPLES):
                setups.append(setup_sample(common, deadline, reference))
        finally:
            reference.close()
    child = Child(common + ["--seconds", str(seconds),
                            "--trace", str(trace)], deadline)
    code = child.wait()
    if code != 0 or child.result is None:
        raise BenchError(f"{workload}: workload run failed (exit {code})")
    result = child.result

    if trace:
        values = result["layers"]
        units = dict(LAYER_METRICS)
        samples = {}
    else:
        values = end_to_end(result, setups)
        units = dict(END_TO_END)
        edits, cmds = len(result["edit_ms"]), len(result["cmd_ms"])
        samples = {
            "setup_s": len(setups), "edit_p50_ms": edits,
            "edit_p90_ms": edits, "sim_hz": len(result["run_hz"]),
            "cmd_p50_ms": cmds, "cmd_p90_ms": cmds,
            "cmds_per_s": edits + cmds, "ok_frac": result["attempted"],
        }

    attempted, failed = result["attempted"], result["failed"]
    timed = "" if trace else f"  timed {result['timed_s']:.1f} s"
    print(f"workload {workload}  seed {seed}  "
          f"cores/instances {result['cores']}  "
          f"mode {'traced' if trace else 'untraced'}{timed}")
    for name, value in values.items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:34s} {value:14.4f} {units[name]}{extra}")
    if not trace:
        # What the wall clock read, before scaling to the reference speed.
        raw_hz = result["run_raw_hz"]
        print(f"  unscaled: edit p50 "
              f"{statistics.median(result['edit_raw_ms']):.4f} ms, "
              f"cmd p50 {statistics.median(result['cmd_raw_ms']):.4f} ms, "
              f"sim {len(raw_hz) / sum(1.0 / hz for hz in raw_hz):.1f} Hz, "
              f"{result['ops_raw_per_s']:.2f} cmds/s")
    if not trace and result["gap_ms"]:
        gaps = result["gap_ms"]
        print(f"  {'erd_report_gap_ms (p50)':34s} "
              f"{statistics.median(gaps):14.4f} ms  (n={len(gaps)})")
    print(f"  fail_frac {failed / attempted:.4f} "
          f"({failed} failed of {attempted} attempted; "
          f"{result['negative_checks']} checks shown to fail on a wrong "
          "reference)")
    print(f"  correct: {failed == 0}")
    for error in result["errors"]:
        print(f"  error: {error}")
    print("  counts: " + json.dumps(result["ledger"], sort_keys=True))
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through Child.wait, which stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError(
                f"no simulator sources under {os.path.join(ROOT, 'src')}")
        if declared_metrics() != (list(END_TO_END), list(LAYER_METRICS)):
            raise BenchError("BENCHMARK.json metrics differ from the ones "
                             "measured")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        metrics = {}
        for name in names:
            result, values = run_workload(
                name, args.seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            if len(names) == 1:
                metrics = values
            else:
                metrics.update(
                    {f"{name}/{key}": value for key, value in values.items()})
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
