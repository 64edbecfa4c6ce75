"""The four benchmark workloads.

Each workload is a closed loop driven from one process: the next
operation starts only after the previous one returned.  A workload
builds its inputs from the seed, drives the simulator only through its
public APIs, and checks the simulator's outputs against references
that do not come from the compiler under test.

Interface used by ``worker.py``:

* ``setup()``      build the design and boot it (the ``setup_s`` span);
* ``warmup()``     untimed work that brings caches and checkpoint stores
                   to the state every timed iteration then sees;
* ``iteration()``  one timed unit of the closed loop;
* ``finish()``     timed work that closes the loop (sim-mesh4's edits);
* ``final_checks()`` untimed correctness checks;
* ``ledger()``     exact counts, equal on every run with the same seed.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import designs
from tracer import SERVER_STATS

from repro.live.session import LiveSession
from repro.riscv import golden, patches, programs
from repro.riscv.assembler import assemble
from repro.riscv.pgas import build_pgas_source, mesh_top_name
from repro.server.client import LiveSimClient
from repro.sim.testbench import CallbackTestbench

perf = time.perf_counter

PIPE = "uut"


@dataclass
class Stats:
    """What the timed loop observed."""

    edit_ms: List[float] = field(default_factory=list)
    gap_ms: List[float] = field(default_factory=list)  # edit wall - ERD total
    cmd_ms: List[float] = field(default_factory=list)
    run_hz: List[float] = field(default_factory=list)  # per timed run call
    # Index of the reference probe (``refspeed``) taken right before
    # each edit / command / run call, parallel to ``edit_ms`` / ``cmd_ms`` /
    # ``run_hz``; None for an operation whose time is not scaled.
    edit_probe: List[Optional[int]] = field(default_factory=list)
    cmd_probe: List[Optional[int]] = field(default_factory=list)
    run_probe: List[Optional[int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    negative_checks: int = 0  # checks shown to fail on a wrong reference


class Workload:
    name = ""
    cores = 0  # simulated cores or array elements, for the report

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.stats = Stats()
        self.untimed_seconds = 0.0
        self.reference = None  # a refspeed.Reference, in timed runs
        self.counts: Dict[str, int] = {}
        self._ops = 0

    # -- bookkeeping ---------------------------------------------------------

    @contextlib.contextmanager
    def untimed(self):
        """Checks: excluded from the timed wall and from the trace."""
        if self.tracer is not None:
            self.tracer.pause()
        started = perf()
        try:
            yield
        finally:
            self.untimed_seconds += perf() - started
            if self.tracer is not None:
                self.tracer.resume()

    def _label(self, kind: str) -> None:
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op = f"{kind}-{self._ops}"

    def probe(self) -> Optional[int]:
        """Sample the host speed reference (untimed); its index, or None."""
        if self.reference is None:
            return None
        with self.untimed():
            return self.reference.probe()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def check(self, name: str, ok: bool) -> None:
        self.stats.attempted += 1
        if not ok:
            self.fail(name)

    def negative(self, name: str, wrong_ok: bool) -> None:
        """A check run against a deliberately wrong reference must fail;
        if it passes, the check cannot see errors and counts as failed."""
        self.stats.attempted += 1
        if wrong_ok:
            self.fail(f"{name}: passes on a wrong reference")
        else:
            self.stats.negative_checks += 1

    def fail(self, message: str) -> None:
        self.stats.failed += 1
        if len(self.stats.errors) < 20:
            self.stats.errors.append(message)

    def attempt(self, label: str, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        self.stats.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # the loop must survive to report it
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return False, None

    # -- overridable ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def iteration(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def final_checks(self) -> None:
        pass

    def ledger(self) -> Dict[str, int]:
        return dict(sorted(self.counts.items()))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# In-process sessions (edit-mesh2, sim-mesh4, live-cgra)
# ---------------------------------------------------------------------------


class SessionWorkload(Workload):
    """A LiveSession with one pipe, driven by edits and runs."""

    opt = "none"
    sanitize = "off"
    interval = 50  # checkpoint interval, cycles
    # Reload distance, cycles.  Equal to the run after each edit, so a
    # fix replays from the checkpoint taken just before the matching
    # inject: the state it rebuilds never saw the injected bug.
    distance = 50

    def _session(self, source: str, top: str) -> None:
        self.text = source
        self.session = LiveSession(
            source,
            checkpoint_interval=self.interval,
            reload_distance=self.distance,
            opt=self.opt,
            sanitize=self.sanitize,
        )
        self.session.inst_pipe(PIPE, self.session.stage_handle_for(top))
        self._pass_class = {
            p.name: type(p).__name__ for p in self.session.compiler.pipeline.passes
        }
        library = self.session.pipe(PIPE).library
        self.count("setup.modules", len(library))
        self.count(
            "setup.generated_lines",
            sum(m.source.count("\n") for m in library.values()),
        )

    def edit(self, text: str) -> None:
        self._label("edit")
        probe = self.probe()
        started = perf()
        ok, report = self.attempt("apply_change", self.session.apply_change, text)
        wall = perf() - started
        if not ok:
            return
        self.text = text
        self.stats.edit_ms.append(wall * 1e3)
        self.stats.edit_probe.append(probe)
        self.stats.gap_ms.append((wall - report.total_seconds) * 1e3)
        library = self.session.pipe(PIPE).library
        self.count("erd.edits")
        self.count("codegen.recompiled", len(report.recompiled_keys))
        self.count("codegen.reused", len(report.reused_keys))
        self.count("codegen.generated_lines", sum(
            library[key].source.count("\n") for key in report.recompiled_keys
        ))
        for name, keys in report.pass_computed_keys.items():
            self.count(f"passes.{self._pass_class.get(name, name)}.computed",
                       len(keys))
        for name, keys in report.pass_reused_keys.items():
            self.count(f"passes.{self._pass_class.get(name, name)}.reused",
                       len(keys))
        self.count("analyze.analyzed", len(report.analyzed_keys))
        self.count("analyze.reused", len(report.analysis_reused_keys))
        self.count("live.hotreload.swapped", report.swapped_instances)
        self.count("live.replay.cycles", report.cycles_replayed)

    def run(self, cycles: int) -> None:
        self._label("run")
        probe = self.probe()
        started = perf()
        ok, _ = self.attempt("run", self.session.run, self.tb, PIPE, cycles)
        elapsed = perf() - started
        if ok:
            self.stats.cmd_ms.append(elapsed * 1e3)
            self.stats.cmd_probe.append(probe)
            self.stats.run_hz.append(cycles / elapsed)
            self.stats.run_probe.append(probe)

    def ledger(self) -> Dict[str, int]:
        store = self.session.store(PIPE)
        pipe = self.session.pipe(PIPE)
        self.counts["live.checkpoint.taken"] = store.total_captured
        self.counts["live.checkpoint.bytes"] = store.total_bytes()
        self.counts["sim.cycles"] = pipe.cycle
        self.counts["sanitize.sites"] = sum(
            m.san_sites for m in pipe.library.values()
        )
        self.counts["sanitize.elided"] = sum(
            m.san_elided for m in pipe.library.values()
        )
        self.counts["sanitize.hits"] = sum(
            self.session.sanitize_status()["hits"].values()
        )
        return super().ledger()

    def close(self) -> None:
        self.session.close()


class GoldenTrack:
    """One golden ISS core stepped forward on demand, remembering the
    last few architectural states (registers, result mailbox)."""

    KEEP = 8

    def __init__(self, words: List[int], node: int):
        self.words = words
        self.node = node
        self._restart()

    def _restart(self) -> None:
        self.core = golden.GoldenCore(node_id=self.node)
        self.core.load_program(self.words)
        self.pos = 0
        self.history = {0: self._state()}

    def _state(self) -> Tuple[Tuple[int, ...], int]:
        return tuple(self.core.regs), self.core.read(programs.RESULT_ADDR, 8)

    def state(self, retired: int) -> Tuple[Tuple[int, ...], int]:
        if retired not in self.history and retired < self.pos:
            # The pipe went back in time (a repair rebuilt its state).
            self._restart()
        while self.pos < retired:
            self.core.step(1)
            self.pos += 1
            self.history[self.pos] = self._state()
            self.history.pop(self.pos - self.KEEP, None)
        return self.history[retired]


class MeshWorkload(SessionWorkload):
    """The PGAS mesh running ``busy_counter`` on every core."""

    n = 2
    boot_cycles = 5
    warm_cycles = 0
    run_cycles = 50

    def setup(self) -> None:
        self.cores = self.n * self.n
        self._session(build_pgas_source(self.n), mesh_top_name(self.n))
        asm = programs.busy_counter(10_000_000)
        self.tb = self.session.load_testbench(
            programs.boot_program(asm, count=self.cores)
        )
        self.session.run(self.tb, PIPE, self.boot_cycles)
        words = assemble(asm).words
        self.tracks = [GoldenTrack(words, node) for node in range(self.cores)]
        # Patches in a seeded order; every round applies each one.
        self.patches = patches.single_stage_patches()
        self.original = self.text

    def warmup(self) -> None:
        # Runs are cut into checkpoint-interval chunks from their start
        # cycle: finishing the boot interval first puts every checkpoint
        # and every later stop cycle on an interval boundary, so each
        # edit replays exactly ``distance`` cycles.
        self.session.run(self.tb, PIPE, self.interval - self.boot_cycles)
        self.session.run(self.tb, PIPE, self.warm_cycles - self.interval)

    def round_order(self):
        return self.rng.sample(self.patches, len(self.patches))

    def check_golden(self, label: str) -> None:
        """Every node's registers and result mailbox equal a golden core
        stepped to the node's retired count.  The register file lags
        retirement by one cycle (writeback latches, then writes), so
        registers may also equal the state one instruction earlier."""
        pipe = self.session.pipe(PIPE)
        mismatches = []
        wrong_ok = True
        for node, track in enumerate(self.tracks):
            retired = pipe.find(f"n_{node}.u_core.u_wb").peek_reg("retired_q")
            regs = (0,) + tuple(
                pipe.find(f"n_{node}.u_core.u_id").memory("rf")[1:32]
            )
            mailbox = programs.node_result(pipe, node)
            before, _ = track.state(max(retired - 1, 0))
            after, mail = track.state(retired)
            if not (regs in (before, after) and mailbox == mail):
                mismatches.append(node)
            # Deliberately wrong reference: three instructions later.
            wrong_before, _ = track.state(retired + 2)
            wrong_after, wrong_mail = track.state(retired + 3)
            if not (regs in (wrong_before, wrong_after)
                    and mailbox == wrong_mail):
                wrong_ok = False
        self.check(f"{label}: golden mismatch on nodes {mismatches}",
                   not mismatches)
        self.negative(f"{label}: golden", wrong_ok)


class EditMesh2(MeshWorkload):
    name = "edit-mesh2"
    n = 2
    warm_cycles = 200

    def warmup(self) -> None:
        super().warmup()
        # One untimed round fills the compile, pass and analysis caches
        # with every patched variant, so each timed edit does the same
        # kind of work (no first-time misses mixed into the latencies).
        self._round()

    def _round(self) -> None:
        for patch in self.round_order():
            self.edit(patch.inject(self.text))
            self.run(self.run_cycles)
            self.edit(patch.fix(self.text))
            self.run(self.run_cycles)
        with self.untimed():
            self.check("design back to original", self.text == self.original)
            self.check_golden("round")

    def iteration(self) -> None:
        self._round()

    def final_checks(self) -> None:
        self.session.verify_consistency(PIPE, repair=True)
        self.check_golden("after verify")


class SimMesh4(MeshWorkload):
    name = "sim-mesh4"
    n = 4
    interval = 25
    # Past 200 checkpoints (100 latest + 100 thinned older ones) the
    # store's garbage collector runs on every take; warming past that
    # point keeps each timed chunk's work and the resident set steady.
    warm_cycles = 5200
    run_cycles = 100
    # Edits touch one module (the three rv_ex patches), so their
    # latencies form one population: across all stages the median fell
    # between module sizes and swung 1.7x from run to run.
    edit_module = "rv_ex"
    # One inject/fix pair after every this many runs.  Spread over the
    # whole timed window, the edits see the same mix of host speed as
    # the runs; bunched at its end they saw whatever the host did then.
    edit_every = 4

    def setup(self) -> None:
        super().setup()
        self.patches = [p for p in self.patches if p.module == self.edit_module]
        self._runs = 0
        self._queue: List[patches.Patch] = []

    def _edit_pair(self, patch) -> None:
        # Inject then fix with no run in between, so every edit replays
        # the same window from the same clean checkpoint.
        self.edit(patch.inject(self.text))
        self.edit(patch.fix(self.text))

    def warmup(self) -> None:
        # Compile every patched variant once while the history is
        # short, so the timed edits after the long run are all alike.
        self.session.run(self.tb, PIPE, self.interval - self.boot_cycles)
        for patch in self.round_order():
            self._edit_pair(patch)
        self.session.run(self.tb, PIPE, self.warm_cycles - self.interval)
        with self.untimed():
            self.check_golden("after warm-up")

    def iteration(self) -> None:
        self.run(self.run_cycles)
        self._runs += 1
        if self._runs % self.edit_every == 0:
            if not self._queue:
                self._queue = self.round_order()
            self._edit_pair(self._queue.pop())

    def final_checks(self) -> None:
        self.check("design back to original", self.text == self.original)
        self.check_golden("after runs and edits")


class LiveCGRA(SessionWorkload):
    """A CGRA-style array of one small processing element."""

    name = "live-cgra"
    opt = "full"
    sanitize = "report"
    cores = designs.ROWS * designs.COLS
    warm_cycles = 200
    run_cycles = 50

    def setup(self) -> None:
        self.configs = designs.cgra_configs(self.seed)
        self._k_base = self.rng.randrange(1 << 16)
        self.k = [self._k_base, (self._k_base * 7 + 3) & designs.MASK16]
        self._edits = 0
        self._session(designs.cgra_source(*self.k), designs.CGRA_TOP)
        configs = self.configs

        def drive(pipe) -> None:
            pipe.set_inputs(**designs.cgra_inputs(pipe.cycle, configs))

        self.tb = self.session.load_testbench(
            CallbackTestbench(name="cgra_stimulus", drive=drive)
        )
        self.session.run(self.tb, PIPE, designs.CGRA_RESET_CYCLES)

    def warmup(self) -> None:
        # Align checkpoints and stop cycles to the interval (see
        # MeshWorkload.warmup); the array is configured by cycle 66.
        self.session.run(
            self.tb, PIPE, self.interval - designs.CGRA_RESET_CYCLES
        )
        self.session.run(self.tb, PIPE, self.warm_cycles - self.interval)

    def iteration(self) -> None:
        # Each edit sets one of the two constants to a value never used
        # before, so every edit is a new design: a real recompile.
        self._edits += 1
        site = self.rng.randrange(2)
        self.k[site] = (self._k_base + 40503 * self._edits) & designs.MASK16
        self.edit(designs.cgra_source(*self.k))
        self.run(self.run_cycles)

    def _matches(self, model: designs.CGRAModel) -> bool:
        pipe = self.session.pipe(PIPE)
        if self.session.peek(PIPE) != model.outputs():
            return False
        for (r, c), regs in model.registers().items():
            inst = pipe.find(f"p_{r}_{c}")
            got = (inst.peek_reg("cfg_q"), inst.peek_reg("acc_q"),
                   inst.peek_reg("out_q"))
            if got != regs:
                return False
        return True

    def final_checks(self) -> None:
        # Replay after an edit starts from checkpoints taken under older
        # constants (the fast estimate); verification with repair makes
        # the state exact for the current design, which the model then
        # reproduces from power-on.
        self.session.verify_consistency(PIPE, repair=True)
        cycle = self.session.pipe(PIPE).cycle
        model = designs.CGRAModel(self.configs, *self.k)
        model.run_to(cycle)
        self.check("cgra outputs/registers differ from the model",
                   self._matches(model))
        wrong = designs.CGRAModel(self.configs, self.k[0] + 1, self.k[1] + 1)
        wrong.run_to(cycle)
        self.negative("cgra model", self._matches(wrong))


# ---------------------------------------------------------------------------
# The server (serve-small)
# ---------------------------------------------------------------------------


class ServeSmall(Workload):
    """Two client connections against ``python -m repro.server``.

    Each connection runs one session after another; the commands of the
    two connections alternate.  Connection B runs half a session behind
    A: when both sessions reloaded back to back, the second reload
    skipped the ~40 ms stall every reload otherwise shows (the server
    writes a findings event, then the response), splitting the edit
    latencies into two modes with the median between them.
    """

    name = "serve-small"
    cores = 2  # counters in the design
    runs_per_session = 12
    peeks_per_run = 4  # so both command percentiles fall inside a class
    run_cycles = 20

    def setup(self) -> None:
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        started = perf()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--workers", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env,
        )
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split("listening on", 1)[1].split()[0].rsplit(":", 1)
        self.clients = [
            LiveSimClient(host, int(port), read_timeout=60.0)
            for _ in range(2)
        ]
        for client in self.clients:
            client.ping()
        self.setup_seconds = perf() - started
        self._sessions = 0
        self.script_length = 2 + self.runs_per_session * (
            1 + self.peeks_per_run) + 3
        self._streams = [
            self._stream(self.clients[0], 0),
            self._stream(self.clients[1], self.script_length // 2),
        ]

    def _session(self, client):
        """(class, call, expected outputs or None) for one session."""
        self._sessions += 1
        name = f"s{self._sessions}"
        bias = self.rng.randrange(1, 256)
        cycles = self.runs_per_session * self.run_cycles
        # A wrong closed form (one more step per cycle) must not match
        # what the session will report.
        self.negative(
            "counter closed form",
            designs.counter_expected(cycles, bias)
            == designs.counter_expected(cycles, bias + 1),
        )
        yield ("open", lambda: client.open_session(
            name, designs.COUNTER_SRC,
            reset_cycles=designs.COUNTER_RESET_CYCLES), None)
        yield ("instpipe", lambda: client.command(
            name, f"instPipe p0, {designs.COUNTER_TOP_HANDLE}"), None)
        for run in range(1, self.runs_per_session + 1):
            expected = designs.counter_expected(run * self.run_cycles)
            yield ("run", lambda: client.command(
                name, f"run tb0, p0, {self.run_cycles}"), expected)
            for _ in range(self.peeks_per_run):
                yield ("peek", lambda: client.command(name, "peek p0"),
                       expected)
        yield ("reload", lambda: client.reload(
            name, designs.counter_edit(bias)), None)
        yield ("peek", lambda: client.command(name, "peek p0"),
               designs.counter_expected(cycles, bias))
        yield ("close", lambda: client.close_session(name), None)

    def _stream(self, client, delay: int):
        for _ in range(delay):
            yield None
        while True:
            yield from self._session(client)

    def _send(self, step) -> None:
        if step is None:
            return
        cls, call, expected = step
        self._label(cls)
        started = perf()
        if self.tracer is not None:
            ok, value = self.attempt(
                cls, self.tracer.timed, f"server.{cls}", "server", call)
        else:
            ok, value = self.attempt(cls, call)
        elapsed = perf() - started
        if not ok:
            return
        if cls == "reload":
            self.stats.edit_ms.append(elapsed * 1e3)
            self.stats.edit_probe.append(None)  # unscaled: see refspeed
            self.stats.gap_ms.append(elapsed * 1e3 - 1e3 * sum(
                value.get(f"{phase}_seconds", 0.0)
                for phase in ("parse", "compile", "swap", "reload", "replay")
            ))
            self.count("erd.edits")
            self.count("live.hotreload.swapped",
                       value.get("swapped_instances", 0))
            self.count("live.replay.cycles", value.get("cycles_replayed", 0))
        else:
            self.stats.cmd_ms.append(elapsed * 1e3)
            self.stats.cmd_probe.append(None)
            self.count(f"server.{cls}.commands")
        if cls == "run":
            self.stats.run_hz.append(self.run_cycles / elapsed)
            self.stats.run_probe.append(None)
        if expected is not None:
            self.check(f"{cls} outputs {value} != {expected}",
                       {k: value.get(k) for k in expected} == expected)

    def iteration(self) -> None:
        """One session's worth of commands on each connection."""
        for _ in range(self.script_length):
            for stream in self._streams:
                self._send(next(stream))

    def finish(self) -> None:
        # Connection B is mid-session: run it to its close.
        step = next(self._streams[1])
        while True:
            self._send(step)
            if step is not None and step[0] == "close":
                break
            step = next(self._streams[1])

    def ledger(self) -> Dict[str, int]:
        counters = self.clients[0].stats()["metrics"].get("counters", {})
        for key in SERVER_STATS:
            self.counts[f"server.stats.{key}"] = counters.get(f"server.{key}", 0)
        return super().ledger()

    def peak_rss_mb(self) -> float:
        """The server process runs the workload: its peak resident set."""
        with open(f"/proc/{self.server.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def close(self) -> None:
        try:
            self.clients[0].shutdown_server()
        except (OSError, ConnectionError):
            pass
        for client in self.clients:
            client.close()
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait(timeout=20)
        self.server.stdout.close()


WORKLOADS = {
    cls.name: cls for cls in (EditMesh2, SimMesh4, LiveCGRA, ServeSmall)
}
