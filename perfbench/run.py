#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer cost of checks,
counterexamples and witnesses, one-shot and over the wire.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is witness-deep, verdict-wide, fair-lasso or serve-mix, or `all` to
run every workload in turn.  The script builds bin/smv_check.exe, the
in-process probe (perfbench/probe.ml) and the host-speed reference
(perfbench/calib.ml) from the checkout into .bench_build, computes the
expected verdicts (the oracle), sets the workload up at least five times,
measures for S seconds and checks every output.  A run of the reference
comes between every two checks or set-ups, and every time metric is given
in seconds at a fixed nominal host speed (see common.py).  --trace 0
reports the end-to-end metrics of the untraced runs; --trace 1 reports
the per-layer metrics of a traced run (in-process layer calls for
one-shot workloads, client-side spans for serve-mix) and the tracing
overhead against untraced runs made alongside.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/WORKLOADS.md."""

import argparse
import collections
import json
import os
import random
import shutil
import subprocess
import sys
import time
from statistics import median

sys.dont_write_bytecode = True

import workloads  # noqa: E402
import serve  # noqa: E402
from common import (BUILD, END_TO_END_UNITS, LAYER_SPANS, PER_LAYER_UNITS,  # noqa: E402
                    PHASE_SPANS, PROBE, REF_NOMINAL_S, ROOT, SETUPS, SMV_CHECK,
                    BenchError, Host, output_problems, percentile, ratio,
                    run_timed, self_times, write_spans)

# A one-shot set-up runs at least SETUPS times and, while that took under
# SETUP_MIN_S, again (up to SETUP_MAX times): the set-up of a small model
# lasts about 10 ms, and its median needs more samples to be steady.
# Reference runs between set-ups do not count towards SETUP_MIN_S.
SETUP_MIN_S = 1.0
SETUP_MAX = 11
WORKLOADS = [*workloads.ONE_SHOT, "serve-mix"]


def log(msg):
    print(msg, flush=True)


def build():
    """Build the checker and the probe from this checkout's sources."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD,
         "./bin/smv_check.exe", "./perfbench/probe.exe", "./perfbench/calib.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise BenchError("build failed")


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


# ---------------------------------------------------------------------------
# One-shot workloads


def one_shot_setup(name, seed, work):
    """Input generation plus one spawn of smv_check on the bare model (no
    SPECs: parse and compile only), the cold start every check pays."""
    t0 = time.perf_counter()
    w = workloads.ONE_SHOT[name](random.Random(seed))
    path = os.path.join(work, "model.smv")
    bare = os.path.join(work, "bare.smv")
    write(path, workloads.with_specs(w.model, w.specs))
    write(bare, w.model)
    code, *_ = run_timed([SMV_CHECK, "-q", bare], os.path.join(work, "bare.out"),
                         os.path.join(work, "bare.err"))
    if code != 0:
        raise BenchError(f"warm-up run exited {code}")
    return path, time.perf_counter() - t0


CliRun = collections.namedtuple(
    "CliRun", "exit wall cpu rss verdicts lengths problem")
Expected = collections.namedtuple("Expected", "verdicts exit traces lengths")


def cli_run(path, work, expected):
    """One `smv_check --certify` run, checked against the Expected
    verdicts, exit code, certified traces per spec and trace lengths;
    `problem` is None when it matched."""
    out = os.path.join(work, "check.out")
    code, wall, cpu, rss = run_timed([SMV_CHECK, "--certify", path], out,
                                     os.path.join(work, "check.err"))
    with open(out) as f:
        verdicts, lengths, problems = output_problems(
            f.read(), expected.verdicts, expected.traces, expected.lengths)
    if code != expected.exit:
        problems.append(f"exit code {code}, expected {expected.exit}")
    return CliRun(code, wall, cpu, rss, verdicts, lengths, "; ".join(problems) or None)


def probe_run(path, work):
    """One traced in-process check: (summary, spans, wall s)."""
    spans_path = os.path.join(work, "spans.json")
    out = os.path.join(work, "probe.out")
    code, wall, _, _ = run_timed([PROBE, "trace", path, spans_path], out,
                                 os.path.join(work, "probe.err"))
    if code != 0:
        raise BenchError(f"traced run exited {code}")
    with open(out) as f:
        summary = json.loads(f.read())
    with open(spans_path) as f:
        spans = json.load(f)
    return summary, spans, wall


def layer_metrics(summary, spans, scale):
    """Per-layer metrics of one traced check, from its spans' self times
    and the counter deltas taken at their boundaries; `scale` turns its
    seconds into nominal seconds."""
    st = self_times(spans)
    self_s, counts = {}, {}
    for s in spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + st[s["id"]]
        c = counts.setdefault(s["name"], {})
        for k, v in s["counters"].items():
            c[k] = c.get(k, 0) + v
    total = next(s["end"] - s["start"] for s in spans if s["name"] == "check") * scale
    whole = counts["check"]
    zero = {k: 0 for k in whole}

    def c(name):
        return counts.get(name, zero)

    def bdd_ratios(k):
        return {
            "cache_hit_ratio": ratio(k["cache_hits"], k["cache_hits"] + k["cache_misses"]),
            "cache_overwrite_ratio": ratio(k["cache_evictions"], k["cache_stores"]),
            "relprod_miss_ratio":
                ratio(k["relprod_misses"], k["relprod_hits"] + k["relprod_misses"]),
        }

    t = lambda name: self_s.get(name, 0.0) * scale  # noqa: E731
    verdict, witness = c("ctl.verdict"), c("counterex.witness")
    states = sum(summary["trace_lengths"])
    m = {
        "smv.parse_s": t("smv.parse"),
        "smv.compile_s": t("smv.compile"),
        "ctl.verdict_s": t("ctl.verdict"),
        "counterex.witness_s": t("counterex.witness"),
        "kripke.render_s": t("kripke.render"),
        "robust.certify_s": t("robust.certify"),
        "ctl.eu_iterations": verdict["eu_iterations"],
        "ctl.eg_iterations": verdict["eg_iterations"],
        "ctl.fair_outer_iterations": verdict["fair_outer_iterations"],
        "ctl.ring_layers": verdict["ring_layers"],
        "counterex.fixpoint_iterations": witness["eu_iterations"]
        + witness["eg_iterations"] + witness["fair_outer_iterations"],
        "counterex.trace_states": states,
        "counterex.ms_per_trace_state": ratio(t("counterex.witness") * 1000.0, states),
        "counterex.witness_to_verdict": ratio(t("counterex.witness"), t("ctl.verdict")),
        "kripke.trace_bytes": summary["trace_bytes"],
        "bdd.unique_probe_mean": ratio(whole["unique_probes"], whole["unique_lookups"]),
        "bdd.unique_load": ratio(whole["live_nodes"], whole["unique_capacity"]),
        "bdd.peak_nodes": whole["peak_nodes"],
        "bdd.total_nodes": whole["new_nodes"],
        "bdd.gc_runs": whole["gc_runs"],
    }
    for layer, names in LAYER_SPANS.items():
        m[f"{layer}.share"] = ratio(sum(t(n) for n in names), total)
    for r, v in bdd_ratios(whole).items():
        m[f"bdd.{r}"] = v
    for phase, name in PHASE_SPANS.items():
        for r, v in bdd_ratios(c(name)).items():
            m[f"bdd.{phase}.{r}"] = v
    return m


def one_shot(name, seed, seconds, trace, work):
    w = workloads.ONE_SHOT[name](random.Random(seed))
    path = os.path.join(work, "model.smv")
    write(path, workloads.with_specs(w.model, w.specs))
    r = subprocess.run([PROBE, "oracle", path], capture_output=True, text=True,
                       timeout=120)
    if r.returncode != 0:
        raise BenchError(f"oracle failed: {r.stderr.strip()}")
    oracle = json.loads(r.stdout)
    if oracle["base"] != w.verdicts:
        raise BenchError(f"oracle verdicts {oracle['base']} differ from the "
                         f"{w.verdicts} the workload's construction fixes")
    expected = Expected(w.verdicts, 1 if "F" in w.verdicts else 0,
                        oracle["base_traces"], w.lengths)
    log(f"{name}: {len(w.specs)} specs, expected verdicts {expected.verdicts}, "
        f"exit {expected.exit}, certified traces per spec {expected.traces}"
        + (f", lengths {expected.lengths}" if expected.lengths else "")
        + (" (agreed by the explicit-state checker)" if oracle["explicit"] else ""))

    host = Host(work)
    setups, setup_raw = [], []
    while len(setups) < SETUPS or (sum(setup_raw) < SETUP_MIN_S and len(setups) < SETUP_MAX):
        (path, took), scale, _ = host.scaled(lambda: one_shot_setup(name, seed, work))
        setup_raw.append(took)
        setups.append(took * scale)

    runs, walls, cpus, probes, problems = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        run, wall_scale, cpu_scale = host.scaled(lambda: cli_run(path, work, expected))
        runs.append(run)
        walls.append(run.wall * wall_scale)
        cpus.append(run.cpu * cpu_scale)
        if run.problem:
            problems.append(run.problem)
        if trace:
            # A traced run right after each untraced one: same input, same
            # order of layer calls; it must reproduce the CLI's verdicts and
            # trace lengths.
            (summary, spans, wall), scale, _ = host.scaled(lambda: probe_run(path, work))
            probes.append((summary, spans, wall, scale))
            if (summary["verdicts"], summary["trace_lengths"], summary["exit"]) != (
                    run.verdicts, run.lengths, run.exit):
                problems.append(
                    f"traced run gave {summary['verdicts']} {summary['trace_lengths']}, "
                    f"CLI {run.verdicts} {run.lengths}")
        if time.perf_counter() - t_start >= seconds:
            break
    elapsed = time.perf_counter() - t_start

    attempted = len(runs) + len(probes)
    failed = len(problems)
    for p in problems[:5]:
        log(f"failure: {p}")
    log(f"{name}: {len(runs)} checks and {len(host.walls)} reference runs in "
        f"{elapsed:.1f} s; failed_ratio {ratio(failed, attempted):.4f} ({failed}/{attempted})")
    raw = [r.wall for r in runs]
    log(f"  measured check wall-clock (s): median {median(raw):.3f}, "
        f"range {min(raw):.3f}-{max(raw):.3f}; reference run median "
        f"{host.ref_ms():.1f} ms, nominal {REF_NOMINAL_S * 1000:.0f} ms")

    if not trace:
        p50 = median(walls) * 1000.0
        log(f"  req_p90_ms over {len(walls)} checks; every one-shot check is a "
            f"fresh process, so the class medians equal req_p50_ms")
        metrics = {
            "check_s": median(walls),
            "check_cpu_s": median(cpus),
            "peak_rss_mb": median([r.rss for r in runs]),
            "setup_s": median(setups),
            "checks_per_s": len(walls) / sum(walls),
            "req_p50_ms": p50,
            "req_p90_ms": percentile(walls, 90) * 1000.0,
            "warm_p50_ms": p50,
            "newspec_p50_ms": p50,
            "cold_p50_ms": p50,
        }
        return attempted, failed, metrics

    write_spans(name, probes[-1][1])
    per = [layer_metrics(s, spans, scale) for s, spans, _, scale in probes]
    metrics = {k: median([p[k] for p in per]) for k in per[0]}
    metrics["trace.overhead_ratio"] = ratio(median([w for _, _, w, _ in probes]),
                                            median(raw)) - 1.0
    metrics["host.ref_ms"] = host.ref_ms()
    return attempted, failed, metrics


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    work = os.path.join(BUILD, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if name == "serve-mix":
        attempted, failed, metrics = serve.run(seed, seconds, trace, work, log)
    else:
        attempted, failed, metrics = one_shot(name, seed, seconds, trace, work)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    # Layers a workload never reaches report 0 (serve-mix sees the server
    # from the client side only; one-shot workloads run no server).
    out = {k: {"value": float(metrics.get(k, 0.0)), "unit": u} for k, u in units.items()}
    for k, v in out.items():
        log(f"  {k:34s} {v['value']:.6g} {v['unit']}")
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        build()
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                       for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()},
            }
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
