"""Helpers shared by the one-shot and serve-mix runners: paths, process
timing, output checks, percentiles and span aggregation."""

import json
import os
import re
import statistics
import subprocess
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
SMV_CHECK = os.path.join(BUILD, "default", "bin", "smv_check.exe")
PROBE = os.path.join(BUILD, "default", "perfbench", "probe.exe")
CALIB = os.path.join(BUILD, "default", "perfbench", "calib.exe")

# The host-speed reference: calib.exe builds the n-queens BDD for
# REF_QUEENS and must report REF_NODES nodes.  The host this benchmark
# shares runs the same program up to twice as fast in one minute as in
# the next, and every program alike; so every time metric is a measured
# time multiplied by REF_NOMINAL_S over the reference's own time measured
# right before and after it: seconds at the host speed where one
# reference run takes REF_NOMINAL_S.
REF_QUEENS = 7
REF_NODES = 24471
REF_NOMINAL_S = 0.1

# A single check of any workload ends well within this; a hung child is
# killed so the benchmark still exits in time.
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "check_s": "s",
    "check_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "checks_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "warm_p50_ms": "ms",
    "newspec_p50_ms": "ms",
    "cold_p50_ms": "ms",
}

# Set-ups per run; setup_s is their median.
SETUPS = 5


class BenchError(Exception):
    pass


class Host:
    """The reference runs of one benchmark run, in order.  A workload that
    keeps both of the host's cores busy gets two copies of the reference
    at once: the two cores can run at different speeds."""

    def __init__(self, work, copies=1):
        self.work = work
        self.copies = copies
        self.walls = []
        self.cpus = []

    def reference(self):
        """One timed run of the reference, `copies` at once: (mean wall s,
        mean CPU s)."""
        results = [None] * self.copies

        def one(i):
            out = os.path.join(self.work, f"calib{i}.out")
            code, wall, cpu, _ = run_timed([CALIB, str(REF_QUEENS)], out,
                                           os.path.join(self.work, f"calib{i}.err"))
            with open(out) as f:
                results[i] = (code, f.read().strip(), wall, cpu)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(self.copies)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for r in results:
            if r is None or r[0] != 0 or r[1] != str(REF_NODES):
                raise BenchError(f"reference run gave {r}, expected {REF_NODES} nodes")
        wall = sum(r[2] for r in results) / self.copies
        cpu = sum(r[3] for r in results) / self.copies
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall, cpu

    def scaled(self, fn):
        """Run fn() between two reference runs: (its result, wall scale,
        CPU scale).  A wall-clock (CPU) time of fn times the wall (CPU)
        scale is in nominal seconds."""
        if not self.walls:
            self.reference()
        w0, c0 = self.walls[-1], self.cpus[-1]
        result = fn()
        w1, c1 = self.reference()
        return result, 2 * REF_NOMINAL_S / (w0 + w1), 2 * REF_NOMINAL_S / (c0 + c1)

    def ref_ms(self):
        return statistics.median(self.walls) * 1000.0


# The traced spans of each layer, and the layer calls the bdd counters
# are split by.
LAYER_SPANS = {
    "smv": ("smv.parse", "smv.compile"),
    "ctl": ("ctl.verdict",),
    "counterex": ("counterex.witness",),
    "kripke": ("kripke.render",),
    "robust": ("robust.certify",),
}
PHASE_SPANS = {
    "compile": "smv.compile",
    "verdict": "ctl.verdict",
    "witness": "counterex.witness",
    "certify": "robust.certify",
}
RATIOS = ("cache_hit_ratio", "cache_overwrite_ratio", "relprod_miss_ratio")

PER_LAYER_UNITS = {
    "smv.parse_s": "s",
    "smv.compile_s": "s",
    "ctl.verdict_s": "s",
    "counterex.witness_s": "s",
    "kripke.render_s": "s",
    "robust.certify_s": "s",
    **{f"{layer}.share": "fraction" for layer in LAYER_SPANS},
    "ctl.eu_iterations": "count",
    "ctl.eg_iterations": "count",
    "ctl.fair_outer_iterations": "count",
    "ctl.ring_layers": "count",
    "counterex.fixpoint_iterations": "count",
    "counterex.trace_states": "count",
    "counterex.ms_per_trace_state": "ms/state",
    "counterex.witness_to_verdict": "ratio",
    "kripke.trace_bytes": "bytes",
    **{f"bdd.{r}": "fraction" for r in RATIOS},
    **{f"bdd.{p}.{r}": "fraction" for p in PHASE_SPANS for r in RATIOS},
    "bdd.unique_probe_mean": "probes/lookup",
    "bdd.unique_load": "fraction",
    "bdd.peak_nodes": "nodes",
    "bdd.total_nodes": "nodes",
    "bdd.gc_runs": "count",
    "server.check_ms": "ms",
    "server.overhead_ms": "ms",
    "server.warm_ratio": "fraction",
    "server.reach_reused_ratio": "fraction",
    "server.new_nodes_per_req": "nodes",
    "server.shed": "count",
    "server.respawns": "count",
    "server.live_nodes": "nodes",
    "server.pool_entries": "count",
    "trace.overhead_ratio": "ratio",
    "host.ref_ms": "ms",
}


def percentile(xs, p):
    """The p-th percentile (inclusive linear interpolation)."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def ratio(num, den):
    return num / den if den else 0.0


def run_timed(argv, stdout_path, stderr_path):
    """Run a child to completion; (exit code, wall s, user+sys CPU s, max
    RSS MB).  The child's usage is read with wait4, so it is the child's
    own, not the benchmark's."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


SPEC_LINE = re.compile(r"^-- specification .* is (true|false|UNDETERMINED)")
LETTER = {"true": "T", "false": "F", "UNDETERMINED": "U"}
TRACE_START = "-- as demonstrated by the following execution sequence"
CERT_LINE = re.compile(r"^-- certificate: trace independently validated \((\d+) states\)")


def read_output(text):
    """(verdict letters, traces, certified trace lengths, problems) of one
    run's smv_check output.  `traces` holds, per spec, the number of
    certified traces printed for it, as a digit.  A problem is an
    emitted trace without its certificate line, or a failed
    certification."""
    verdicts, counts, lengths, problems = [], [], [], []
    traces = certs = 0

    def close_section():
        if verdicts:
            counts.append(str(certs))
        if traces != certs:
            problems.append(
                f"spec {len(verdicts)}: {traces} trace(s), {certs} certificate(s)")

    for line in text.splitlines():
        m = SPEC_LINE.match(line)
        if m:
            close_section()
            traces = certs = 0
            verdicts.append(LETTER[m.group(1)])
        elif line.startswith(TRACE_START):
            traces += 1
        elif line.startswith("-- CERTIFICATION FAILED"):
            problems.append(f"spec {len(verdicts)}: {line}")
        else:
            m = CERT_LINE.match(line)
            if m:
                certs += 1
                lengths.append(int(m.group(1)))
    close_section()
    return "".join(verdicts), "".join(counts), lengths, problems


def output_problems(text, verdicts, traces, lengths=None):
    """The problems of one check's output against its expectation: the
    verdict letters, one '1' per spec that must have a certified trace
    ('0' where it must have none) and, when known, the certified trace
    lengths in output order."""
    got, got_traces, got_lengths, problems = read_output(text)
    if got != verdicts:
        problems.append(f"verdicts {got}, expected {verdicts}")
    elif got_traces != traces:
        problems.append(f"certified traces per spec {got_traces}, expected {traces}")
    if lengths is not None and got_lengths != lengths:
        problems.append(f"trace lengths {got_lengths}, expected {lengths}")
    return got, got_lengths, problems


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    covered = {}
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def write_spans(workload, spans):
    """Keep a traced run's spans for inspection, in .bench_build/spans."""
    os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
    with open(os.path.join(BUILD, "spans", f"{workload}.json"), "w") as f:
        json.dump(spans, f)
