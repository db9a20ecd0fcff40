"""Benchmark harness for rfbudget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the harness finds the checkout from its own path and
imports rfbudget from its ``src/`` directory. Workloads (see
BENCHMARK.json for why each exists):

  cli_cold    one ``python -m rfbudget.cli`` subprocess per operation,
              round-robin over the seven subcommands with small inputs
  plan_sweep  one in-process ``cycle_report`` per operation

Every workload is a closed loop with one client in one process. It
makes whole passes over a deck of seeded operations, as many as come
closest to ``--seconds`` of operation time (and at least a set number of
operations), checking each output after the operation, outside its
timed region. Whole passes give every run the same mix of operations.
Before each pass, outside any operation's timing, a fresh interpreter
measures the set-up time, so ``setup_s`` is a median over the whole run.

plan_sweep reports its operation times at a reference speed. The speed
of a shared VM drifts by 20-30% over minutes, and in-process operations
drift together. After every operation, also outside its timing, the
harness times a fixed reference kernel of its own (``reference_kernel``);
each pass's operation times are multiplied by ``REF_S`` over that pass's
median kernel time. ``op_p50_s``, ``op_tail_s`` and ``ops_per_s`` are
computed from these scaled times; the table also prints the raw ones.
No change to rfbudget moves the kernel, so a change to the program shows
in full. cli_cold's times and ``setup_s`` are not scaled: import work in
a fresh interpreter does not follow the kernel.

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, which first runs half the time untraced and then at least one full
deck traced; their ratio is the tracing overhead. Count metrics cover
exactly the first traced pass over the deck, so they repeat for a given
seed. Spans are written to ``.perfbench/spans-<workload>-seed<n>.jsonl``.
``--workload all`` runs each workload in turn in its own process.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import checks
import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cli_cold", "plan_sweep")
IMPORT_RUNS = 3
TAIL_BEYOND = 10
# Reference speed: the kernel's median time on the 2-vCPU VM of the first
# baseline (perfbench/baseline.json), and the kernel runs per pass.
REF_S = 0.004
REF_PER_PASS = 42

SETUP_CODE = ("import sys, rfbudget, rfbudget.cli; "
              "rfbudget.load_config(sys.argv[1]); print('ready', flush=True)")
IMPORT_CODE = "import rfbudget.cli; import scipy.optimize"

clock = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# --- set-up and import probes ----------------------------------------------

def setup_seconds(env, config) -> float:
    """Fresh interpreter to ready: import rfbudget, rfbudget.cli, load_config."""
    start = clock()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, config],
                          stdout=subprocess.PIPE, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


def import_seconds(env) -> dict:
    """Cumulative import times from ``python -X importtime``.

    ``rfbudget`` counts the top-level rfbudget imports of
    ``import rfbudget.cli``, dependencies included; ``numpy`` and
    ``scipy.optimize`` count wherever they are first imported. The probe
    then imports ``scipy.optimize`` itself, so its cost is measured even
    once rfbudget no longer imports it up front.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                          env=env, capture_output=True, text=True, check=True)
    found = {"rfbudget": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        cumulative = int(parts[1]) * 1e-6
        if parts[2].startswith(" rfbudget"):  # top level: a single space
            found["rfbudget"] += cumulative
        elif name in ("numpy", "scipy.optimize"):
            found.setdefault(name, cumulative)
    return {"import.rfbudget_s": found["rfbudget"],
            "import.numpy_s": found["numpy"],
            "import.scipy_optimize_s": found["scipy.optimize"]}


# --- machine-speed reference ------------------------------------------------

@dataclass(frozen=True)
class _Record:
    packet: int
    total: float
    bits: int


def reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like a burst
    drain: a per-bit square-root recursion that keeps every running total,
    and a frozen record per packet. It is the benchmark's own code, so only
    the machine's speed moves it."""
    start = clock()
    sqrt = math.sqrt
    w0, c2, b = 9.0, 200.0, 1e-9
    total = 0.0
    records = []
    for packet in range(24):
        out = []
        append = out.append
        m = w0 - c2 * total
        for _ in range(1200):
            total += b * sqrt(m)
            m = w0 - c2 * total
            append(total)
        records.append(_Record(packet, total, len(out)))
    return clock() - start


# --- workloads ----------------------------------------------------------------

class Workload:
    """Generated deck plus how to run and check one operation of it."""

    scale_to_reference = True

    def __init__(self, seed: int, workdir: str, env: dict):
        self.workdir, self.env = workdir, env
        self.config = gen.write_config(workdir)
        self.tracer = None

    def setup(self):
        """Import the program in this process and build the checker."""
        sys.path.insert(0, SRC)
        import rfbudget
        import rfbudget.cli  # noqa: F401  (binds rfbudget.cli)
        if not os.path.abspath(rfbudget.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"imported rfbudget from {rfbudget.__file__}, not {SRC}")
        self.rb = rfbudget
        self.checker = checks.Checker(rfbudget, self.config)

    def start_tracing(self) -> list:
        """Install the tracer and run the traced part of set-up."""
        self.tracer = spans.Tracer()
        self.tracer.install()
        self.loaded = self.rb.load_config(self.config)
        return [(-1, *self.tracer.take())]

    def stop_tracing(self):
        self.tracer.uninstall()
        self.tracer = None

    def take_spans(self) -> tuple:
        return self.tracer.take()

    @contextlib.contextmanager
    def paused(self):
        """Keep the checks' own calls into rfbudget out of the trace."""
        tracer = self.tracer
        if tracer is not None:
            tracer.active = False
        try:
            yield
        finally:
            if tracer is not None:
                tracer.active = True

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PlanSweep(Workload):
    min_ops = 100

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        self.deck = gen.plan_questions(seed)

    def setup(self):
        super().setup()
        rb = self.rb
        self.loaded = rb.load_config(self.config)
        self.records = [
            (rb.ChargeModel(q["v_oc"], q["r_ohm"], q["capacitance_f"]),
             rb.EscState(q["capacitance_f"], q["v0"]), q["cutoff_v"],
             rb.PacketPlan(q["msdu_octets"], q["tx_dbm"], q["rate_bps"]),
             q["cap_n"], q["final_gap"])
            for q in self.deck]

    def execute(self, k):
        model, initial, cutoff, template, cap_n, final_gap = self.records[k]
        config, cycle_report = self.loaded, self.rb.cycle_report
        start = clock()
        plan = cycle_report(model, initial, cutoff, template, config.profile,
                            config.layout, cap_n, include_final_gap=final_gap,
                            brownout_v=config.brownout_v)
        return clock() - start, plan

    def check(self, k, plan, first):
        burst = plan.burst
        key = (plan.n_packets, plan.recharge_time, plan.duty_cycle, plan.active_time,
               burst and (burst.total_energy_uj, burst.final_state.voltage))
        return ((self.checker.cycle_plan(self.deck[k], plan) if first else None)
                or self.checker.repeat(k, key))


class CliCold(Workload):
    """Operations run in child processes, which trace themselves
    (traced_cli.py); this process imports rfbudget only for the checks.
    At about a second per call, a run holds a few dozen operations: six
    passes at least, so the tail is p75 with ten operations beyond it."""

    min_ops = 42
    # Its operations are fresh interpreters, mostly importing; their times
    # do not follow the in-process reference kernel.
    scale_to_reference = False

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        self.deck = gen.cli_ops(seed, workdir)
        self.max_rss_kb = 0
        self.spans_path = os.path.join(workdir, "child-spans.jsonl")

    def start_tracing(self):
        self.tracer = "children"
        return []

    def stop_tracing(self):
        self.tracer = None

    paused = contextlib.nullcontext

    def take_spans(self) -> tuple:
        if not os.path.exists(self.spans_path):  # the child failed
            return [], {}
        (_, child_spans, counts), = spans.load(self.spans_path)
        os.remove(self.spans_path)
        return child_spans, counts

    def execute(self, k):
        if self.tracer:
            prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                      self.spans_path]
        else:
            prefix = [sys.executable, "-m", "rfbudget.cli"]
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            start = clock()
            proc = subprocess.Popen(prefix + self.deck[k]["argv"], stdout=out,
                                    stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = clock() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return elapsed, (proc.returncode, out.read(),
                             err.read().decode(errors="replace"))

    def check(self, k, outcome, first):
        code, report, err = outcome
        op = self.deck[k]
        if code != 0:
            return f"exit status {code}: {err.strip()}"
        argv = op["argv"]
        tables = [argv[i + 1] for i, a in enumerate(argv) if a.endswith("-csv")]
        burst = op["kind"] == "simulate-burst" and first
        return (self.checker.report(op, report)
                or (self.checker.burst_tables(op, *tables) if burst else None)
                or self.checker.repeat(k, checks.digest(report, tables)))

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


KINDS = {"cli_cold": CliCold, "plan_sweep": PlanSweep}


# --- the loop -----------------------------------------------------------------

class Phase:
    """Latencies and failures of one closed-loop stretch of whole passes."""

    def __init__(self, deck_len: int):
        self.deck_len = deck_len
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.traced: list = []
        self.setup: list[float] = []
        self.refs: list[list[float]] = []  # reference kernel times, per pass

    def scaled(self) -> list[float]:
        """Operation times at the reference speed: each pass's times
        multiplied by REF_S over the median kernel time of that pass."""
        factors = [REF_S / statistics.median(r) if r else 1.0 for r in self.refs]
        return [t * factors[i // self.deck_len] for i, t in enumerate(self.latencies)]

    def per_pass_ops(self, latencies: list[float]) -> float:
        """Median over passes of the ok operations per second of operation
        time, so one pass slowed by the machine does not move it."""
        n = self.deck_len
        return statistics.median(
            sum(self.ok[i:i + n]) / sum(latencies[i:i + n])
            for i in range(0, len(latencies), n))

    @property
    def ops_per_s(self) -> float:
        return self.per_pass_ops(self.scaled())


def closed_loop(work: Workload, seconds: float, min_ops: int, seen: set,
                probe=None) -> Phase:
    """Run whole passes over the deck, at least ``min_ops`` operations,
    stopping at the pass boundary nearest ``seconds`` of operation time.
    Each output is checked after its operation, outside its timing.
    ``probe``, if given, runs before each pass; its results go to
    ``phase.setup``."""
    phase = Phase(len(work.deck))
    busy, i, n = 0.0, 0, len(work.deck)
    kernel_runs = -(-REF_PER_PASS // n) if work.scale_to_reference else 0
    while i % n or i < min_ops or busy + busy / (i // n) / 2 < seconds:
        k = i % n
        if k == 0:
            phase.refs.append([])
            if probe is not None:
                phase.setup.append(probe())
        start = clock()
        outcome = error = None
        try:
            elapsed, outcome = work.execute(k)
        except (Exception, SystemExit) as exc:  # counted as a failed operation
            elapsed, error = clock() - start, exc
        if work.tracer is not None:
            phase.traced.append((i, *work.take_spans()))
        phase.refs[-1].extend(reference_kernel() for _ in range(kernel_runs))
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        else:
            try:
                with work.paused():
                    reason = work.check(k, outcome, k not in seen)
            except Exception as exc:  # a malformed output can break a check
                reason = f"check raised {type(exc).__name__}: {exc}"
        seen.add(k)
        phase.latencies.append(elapsed)
        phase.ok.append(reason is None)
        if reason is not None:
            kind = work.deck[k].get("kind", "cycle_report")
            phase.failures.append(f"op {k} ({kind}): {reason}")
        busy += elapsed
        i += 1
    return phase


# --- metrics ------------------------------------------------------------------

def tail_percentile(min_ops: int) -> int:
    """Highest of a fixed set of percentiles with at least TAIL_BEYOND of
    ``min_ops`` operations beyond it. A run does at least ``min_ops``
    operations, so the percentile is the same in every run of a workload."""
    return next(p for p in (99, 95, 90, 75, 50)
                if min_ops - math.ceil(p * min_ops / 100) >= TAIL_BEYOND)


def end_to_end(phase: Phase, peak_rss_mb: float, percentile: int) -> dict:
    """Every end-to-end metric as (value, unit, samples, note)."""
    setup = phase.setup
    lat = sorted(phase.scaled())
    raw = sorted(phase.latencies)
    refs = [r for per_pass in phase.refs for r in per_pass]
    n = len(lat)
    tail = math.ceil(percentile * n / 100) - 1  # nearest rank
    failed = len(phase.failures)

    def raw_note(text):
        return f"; raw {text}" if refs else ""

    table = {
        "setup_s": (statistics.median(setup), "s", len(setup),
                    "median over fresh interpreters, one before each pass"),
        "ops_per_s": (phase.ops_per_s, "1/s", n,
                      f"median of {n // phase.deck_len} passes, {sum(raw):.2f} s"
                      + raw_note(f"{phase.per_pass_ops(phase.latencies):.4g}/s")),
        "op_p50_s": (statistics.median(lat), "s", n,
                     "median latency" + raw_note(f"{statistics.median(raw):.4g} s")),
        "op_tail_s": (lat[tail], "s", n, f"p{percentile}, {n - tail - 1} ops beyond"
                      + raw_note(f"{raw[tail]:.4g} s")),
        "ops_failed_frac": (failed / n, "1", n, f"{failed} of {n} failed"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1,
                        "peak resident set of the process running the operations"),
    }
    if refs:
        table["ref_kernel_s"] = (statistics.median(refs), "s", len(refs),
                                 f"median; scaled times use {REF_S} s")
    return table


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(traced: list, deck_len: int) -> dict:
    """Per-layer metrics from ``[(op, spans, counts), ...]``, where ``op``
    numbers the traced operations from 0 (-1 is the traced set-up).

    Times are means per call (``*_self_s``: minus child spans) over every
    traced operation. Counts cover the first pass over the deck only.
    """
    durations = defaultdict(list)
    selfs = defaultdict(list)
    count = Counter()
    by_mode = {True: [0, 0.0], False: [0, 0.0]}  # record_samples -> [bits, s]
    for op, op_spans, counts in traced:
        first = 0 <= op < deck_len
        child = [0.0] * len(op_spans)
        under_cycle = [False] * len(op_spans)
        for i, (_, start, end, parent, _) in enumerate(op_spans):
            if parent >= 0:
                child[parent] += end - start
                under_cycle[i] = (under_cycle[parent]
                                  or op_spans[parent][0] == "planner.cycle_report")
        for i, (name, start, end, _, attrs) in enumerate(op_spans):
            duration = end - start
            durations[name].append(duration)
            selfs[name].append(duration - child[i])
            attrs = attrs or {}
            bits = attrs.get("bits", 0)
            if "samples" in attrs:
                by_mode[attrs["samples"]][0] += bits
                by_mode[attrs["samples"]][1] += duration
            if not first:
                continue
            count[name] += 1
            count["bits"] += bits
            if under_cycle[i] and name == "burst.burst_energy":
                count["cycle_sims"] += 1
                count["cycle_bits"] += bits
            count["answer_bits"] += attrs.get("answer_bits", 0)
            rows = "rows_written" if name == "fileio.write_table" else "rows_read"
            count[rows] += attrs.get("rows", 0)
        if first:
            count["current_calls"] += counts.get("radiopower.current_from_tx_power", 0)

    def mean_of(*names, table=durations):
        return _mean([d for name in names for d in table[name]])

    def ratio(num, den):
        return num / den if den else 0.0

    loads = [n for n in spans.SPANNED.values() if n.startswith("fileio.load_")]
    return {
        "planner.cycle_report_s": mean_of("planner.cycle_report"),
        "planner.max_packets_s": mean_of("planner.max_packets"),
        "planner.sims_per_question": ratio(count["cycle_sims"],
                                           count["planner.cycle_report"]),
        "planner.bits_per_answer_bit": ratio(count["cycle_bits"], count["answer_bits"]),
        "burst.calls": count["burst.burst_energy"],
        "burst.bits_drained": count["bits"],
        "burst.ns_per_bit_nosamples": ratio(by_mode[False][1], by_mode[False][0]) * 1e9,
        "burst.ns_per_bit_samples": ratio(by_mode[True][1], by_mode[True][0]) * 1e9,
        "fileio.load_s": mean_of(*loads),
        "fileio.rows_read": count["rows_read"],
        "fileio.write_table_s": mean_of("fileio.write_table"),
        "fileio.rows_written": count["rows_written"],
        "fileio.render_s": mean_of("fileio.render_record_json", "fileio.render_record_csv"),
        "harvest.fit_charge_s": mean_of("harvest.fit_charge_model", "harvest.fit_r_known_voc"),
        "harvest.prediction_error_s": mean_of("harvest.prediction_error"),
        "harvest.fit_calls": count["harvest.fit_charge_model"] + count["harvest.fit_r_known_voc"],
        "radiopower.fit_sigmoid_s": mean_of("radiopower.fit_sigmoid"),
        "radiopower.current_calls": count["current_calls"],
        "cli.main_self_s": mean_of("cli.main", table=selfs),
    }


# --- reporting and entry point ----------------------------------------------

def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':30} {'value':>14} {'unit':6} {'samples':>7}  note")
    for name, (value, unit, samples, note) in rows:
        print(f"  {name:30} {value:14.6g} {unit:6} {samples:7}  {note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        env = child_env()
        work = KINDS[name](seed, workdir, env)
        setup_seconds(env, work.config)  # unmeasured: compiles bytecode once
        work.setup()
        seen: set = set()
        title = f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}"
        if not trace:
            phase = closed_loop(work, seconds, work.min_ops, seen,
                                probe=lambda: setup_seconds(env, work.config))
            table = end_to_end(phase, work.peak_rss_mb(), tail_percentile(work.min_ops))
            print_table(title, table.items())
            failures, attempted = phase.failures, len(phase.latencies)
            metrics = {m["name"]: table[m["name"]][0] for m in bench["end_to_end"]}
            section = "end_to_end"
        else:
            imports = [import_seconds(env) for _ in range(IMPORT_RUNS)]
            plain = closed_loop(work, seconds / 2, len(work.deck), seen)
            traced = work.start_tracing()
            phase = closed_loop(work, seconds / 2, len(work.deck), seen)
            work.stop_tracing()
            traced += phase.traced
            spans.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"), traced)
            layer = per_layer(traced, len(work.deck))
            layer.update({key: statistics.median(run[key] for run in imports)
                          for key in imports[0]})
            # Traced over untraced operation time, about 1; and the tracer's
            # own cost, one call to an empty function through a span wrapper.
            layer["trace.overhead_ratio"] = plain.ops_per_s / phase.ops_per_s
            layer["trace.wrapped_call_ns"] = spans.wrapped_call_ns()
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            print_table(f"{title}; {len(phase.latencies)} ops traced, counts over "
                        f"the first {len(work.deck)}", [
                (key, (value, units.get(key, ""), "",
                       "" if key in units else "printed only: not in BENCHMARK.json"))
                for key, value in sorted(layer.items())])
            failures = plain.failures + phase.failures
            attempted = len(plain.latencies) + len(phase.latencies)
            metrics = {m["name"]: layer[m["name"]] for m in bench["per_layer"]}
            section = "per_layer"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}")
    units = {m["name"]: m["unit"] for m in bench[section]}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process; prints their tables and one JSON
    object keyed by workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rfbudget", "__init__.py")):
        print(f"error: no rfbudget sources in {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
