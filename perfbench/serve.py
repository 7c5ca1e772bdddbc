"""serve-mix: a closed loop of check requests to `smv_check --serve` over a
Unix socket, from one client process with two connections.  Each
connection sends its next request only after the previous reply arrived.
The loop runs in slices of SLICE_S seconds with a run of the host-speed
reference between slices, while the server is idle; every time of a slice
is scaled by the reference runs around it (see common.py)."""

import collections
import json
import os
import random
import socket
import struct
import subprocess
import threading
import time
from statistics import median

import workloads
from common import (LETTER, PROBE, SETUPS, SMV_CHECK, BenchError, Host,
                    output_problems, percentile, ratio, self_times, write_spans)

SOCKET = "s.sock"
JOBS = 2
CACHE_MODELS = 6  # below the 7-model working set, so the LRU pool evicts
CONNECTIONS = 2
SLICE_S = 1.0
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 30.0


# One completed check request; send, wait and recv are seconds, t0 the
# send start, scale the wall scale of its slice.
Record = collections.namedtuple(
    "Record", "k cls model traced reply send wait recv t0 scale problem")


def rtt(r):
    return r.send + r.wait + r.recv


def nominal_rtt(r):
    return rtt(r) * r.scale


def recv_exact(sock, n):
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise BenchError("server closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def exchange(sock, obj):
    """Send one frame and read the reply frame: (raw reply, send s, wait s,
    receive s, t_send_start).  Decoding is left to the caller so that it
    can happen outside the timed loop."""
    payload = json.dumps(obj).encode()
    t0 = time.perf_counter()
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    t1 = time.perf_counter()
    (n,) = struct.unpack(">I", recv_exact(sock, 4))
    t2 = time.perf_counter()
    raw = recv_exact(sock, n)
    t3 = time.perf_counter()
    return raw, t1 - t0, t2 - t1, t3 - t2, t0


def rpc(sock, obj):
    return json.loads(exchange(sock, obj)[0])


class Server:
    def __init__(self, work):
        self.path = os.path.join(work, SOCKET)
        self.log = open(os.path.join(work, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [os.path.abspath(SMV_CHECK), "--serve", "--socket", SOCKET,
             "--jobs", str(JOBS), "--cache-models", str(CACHE_MODELS)],
            cwd=work, stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                self.connect().close()
                return
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.kill()
                    raise BenchError("server did not start")
                time.sleep(0.005)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.path)
        except OSError:
            s.close()
            raise
        return s

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def shutdown(self, conn):
        """Ask for a drain and require a clean exit; returns problems."""
        reply = rpc(conn, {"op": "shutdown"})
        conn.close()
        problems = [] if reply.get("status") == "ok" else [f"shutdown reply {reply}"]
        try:
            code = self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return problems + ["server did not drain"]
        self.log.close()
        return problems + ([] if code == 0 else [f"server exited {code}"])

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


Expectation = collections.namedtuple(
    "Expectation", "verdicts traces formula_verdicts formula_traces")


def oracle(models, work):
    """One Expectation per model: its base SPEC letters and certified-trace
    flags, and per extra formula its letter and flag.  The letters must be
    the ones the workload fixes for the model."""
    table = []
    for k, m in enumerate(models):
        path = os.path.join(work, f"oracle-{k}.smv")
        with open(path, "w") as f:
            f.write(m.source)
        r = subprocess.run([PROBE, "oracle", path, *m.formulas], capture_output=True,
                           text=True, timeout=120)
        if r.returncode != 0:
            raise BenchError(f"oracle failed on {m.name}: {r.stderr.strip()}")
        o = json.loads(r.stdout)
        extra = dict(zip(m.formulas, o["extra"]))
        if o["base"] != m.verdicts or extra != m.formula_verdicts:
            raise BenchError(f"oracle verdicts on {m.name} differ from the workload's")
        table.append(Expectation(o["base"], o["base_traces"], extra,
                                 dict(zip(m.formulas, o["extra_traces"]))))
    return table


def check_request(request, k, traced):
    _, _, source, specs, _ = request
    options = {"certify": True}
    if traced:
        options["stats"] = True
    return {"op": "check", "id": str(k), "model": source, "specs": specs,
            "options": options}


def reply_problem(reply, request, table):
    _, i, _, _, added = request
    e = table[i]
    want = e.verdicts + (e.formula_verdicts[added] if added else "")
    want_traces = e.traces + (e.formula_traces[added] if added else "")
    if reply.get("status") != "ok":
        return f"status {reply.get('status')}: {reply.get('error') or reply.get('reason')}"
    got = "".join(LETTER.get(v["verdict"], "U") for v in reply["verdicts"])
    if got != want:
        return f"verdicts {got}, expected {want}"
    want_exit = 1 if "F" in want else 0
    if reply["exit_code"] != want_exit:
        return f"exit code {reply['exit_code']}, expected {want_exit}"
    if any(v["cert_failed"] for v in reply["verdicts"]):
        return "cert_failed"
    _, _, problems = output_problems(reply["output"], want, want_traces)
    return "; ".join(problems) or None


def setup(seed, work, table):
    """Generate the inputs, start the server and prime the pool with each
    model's base request.  Returns (server, connection, sequence, s)."""
    t0 = time.perf_counter()
    models = workloads.serve_models(os.getcwd())
    seq = workloads.RequestSequence(random.Random(f"{seed}:requests"), models)
    server = Server(work)
    try:
        conn = server.connect()
        for k, request in enumerate(seq.priming()):
            reply = rpc(conn, check_request(request, f"prime-{k}", False))
            problem = reply_problem(reply, request, table)
            if problem:
                raise BenchError(f"priming {models[request[1]].name}: {problem}")
    except Exception:
        server.kill()
        raise
    return server, conn, seq, time.perf_counter() - t0


def run(seed, seconds, trace, work, log):
    """Measure serve-mix: (attempted, failed, metrics)."""
    table = oracle(workloads.serve_models(os.getcwd()), work)
    host = Host(work, copies=JOBS)
    setups = []
    for n in range(SETUPS):
        (server, conn, seq, took), scale, _ = host.scaled(lambda: setup(seed, work, table))
        setups.append(took * scale)
        if n < SETUPS - 1:
            problems = server.shutdown(conn)
            if problems:
                raise BenchError("; ".join(problems))
    try:
        return measure(server, conn, seq, table, seconds, trace, setups, host, log)
    finally:
        if server.proc.poll() is None:
            server.kill()


def measure(server, conn0, seq, table, seconds, trace, setups, host, log):
    conns = [conn0] + [server.connect() for _ in range(CONNECTIONS - 1)]
    lock = threading.Lock()
    records = []
    errors = []
    counter = [0]
    deadline = [0.0]

    def loop(conn):
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline[0]:
                        return
                    request = seq.next()
                    k = counter[0]
                    counter[0] += 1
                traced = trace and k % 2 == 0
                raw, send, wait, recv, t0 = exchange(conn, check_request(request, k, traced))
                # Replies are decoded and checked after the loop: parsing
                # here would hold the interpreter lock while the other
                # connection's reply arrives and inflate its round trip.
                with lock:
                    records.append((k, request, traced, raw, send, wait, recv, t0))
        except Exception as e:  # a dead connection ends this loop
            with lock:
                errors.append(repr(e))

    def run_slice(until):
        """Both connections' loops until `until`: (server CPU s, wall s)."""
        deadline[0] = until
        cpu0 = server.cpu_s()
        t0 = time.perf_counter()
        threads = [threading.Thread(target=loop, args=(c,)) for c in conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return server.cpu_s() - cpu0, time.perf_counter() - t0

    # Per slice: (records completed so far, wall scale, scaled CPU s,
    # scaled wall s).
    slices = []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while not errors and time.perf_counter() < t_end:
        until = min(t_end, time.perf_counter() + SLICE_S)
        (cpu, wall), wall_scale, cpu_scale = host.scaled(lambda: run_slice(until))
        slices.append((len(records), wall_scale, cpu * cpu_scale, wall * wall_scale))
    elapsed = time.perf_counter() - t_start
    for c in conns[1:]:
        c.close()
    scales = []
    for end, wall_scale, _, _ in slices:
        scales += [wall_scale] * (end - len(scales))

    # End-of-run health, on an existing connection.
    health = []
    status = rpc(conn0, {"op": "status"})
    counters = status.get("counters", {})
    shed = sum(counters.get(k, 0) for k in ("shed_queue", "shed_inflight", "shed_cold"))
    if shed:
        health.append(f"{shed} shed")
    if status.get("pool_respawns", 0):
        health.append(f"{status['pool_respawns']} worker respawns")
    if counters.get("quarantines", 0):
        health.append(f"{counters['quarantines']} quarantines")
    hwm = server.hwm_mb()
    health += server.shutdown(conn0)
    health += errors

    decoded = []
    for (k, request, traced, raw, send, wait, recv, t0), scale in zip(records, scales):
        reply = json.loads(raw)
        decoded.append(Record(k, request[0], request[1], traced, reply, send, wait, recv,
                              t0, scale,
                              reply_problem(reply, request, table)))
    records = decoded
    failed = [r for r in records if r.problem]
    for r in failed[:5]:
        log(f"request {r.k} ({r.cls}): {r.problem}")
    for h in health:
        log(f"health: {h}")
    attempted = len(records) + 1  # the checks, plus the end-of-run health probe
    n_failed = len(failed) + (1 if health else 0)
    log(f"serve-mix: {len(records)} requests over {CONNECTIONS} connections in "
        f"{len(slices)} slices, {elapsed:.1f} s with the reference runs; reference "
        f"run median {host.ref_ms():.1f} ms; pool {status['cache']['entries']}/{CACHE_MODELS} "
        f"entries; failed_ratio {ratio(n_failed, attempted):.4f} ({n_failed}/{attempted})")
    if not records:
        raise BenchError("no request completed")

    if not trace:
        # Per class, the median round trip of each model's requests,
        # averaged over the models: the models' costs differ by up to 10x,
        # so the plain median of a class would jump between them as the
        # seeded draw gives one model a few more requests than another.
        by_class = {cls: {} for cls in (workloads.WARM, workloads.NEWSPEC, workloads.COLD)}
        for r in records:
            by_class[r.cls].setdefault(r.model, []).append(nominal_rtt(r) * 1000.0)
        class_p50 = {}
        for cls, per_model in by_class.items():
            if not per_model:
                raise BenchError(f"no {cls} request completed")
            class_p50[cls] = sum(map(median, per_model.values())) / len(per_model)
            log(f"  {cls}: {sum(map(len, per_model.values()))} requests on "
                f"{len(per_model)} models, at least {min(map(len, per_model.values()))} each")
        every = [x for per_model in by_class.values() for xs in per_model.values() for x in xs]
        log(f"  req_p90_ms over {len(every)} requests")
        metrics = {
            "check_s": median([r.reply["time_ms"] * r.scale for r in records]) / 1000.0,
            "check_cpu_s": sum(cpu for _, _, cpu, _ in slices) / len(records),
            "peak_rss_mb": hwm,
            "setup_s": median(setups),
            "checks_per_s": len(records) / sum(wall for _, _, _, wall in slices),
            "req_p50_ms": median(every),
            "req_p90_ms": percentile(every, 90),
            "warm_p50_ms": class_p50[workloads.WARM],
            "newspec_p50_ms": class_p50[workloads.NEWSPEC],
            "cold_p50_ms": class_p50[workloads.COLD],
        }
        return attempted, n_failed, metrics

    # Traced run: client-side spans per traced request (send, wait,
    # receive), with the server's own time_ms as the check span inside
    # the wait.  Spans are kept in memory and written out at the end.
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    spans = []
    for r in traced:
        root = len(spans)
        spans.append({"id": root, "name": "server.request", "parent": -1, "req": r.k,
                      "start": r.t0, "end": r.t0 + rtt(r)})
        t = r.t0
        for span, d in (("server.send", r.send), ("server.wait", r.wait),
                        ("server.recv", r.recv)):
            spans.append({"id": len(spans), "name": span, "parent": root, "req": r.k,
                          "start": t, "end": t + d})
            t += d
        waited = r.t0 + r.send + r.wait
        spans.append({"id": len(spans), "name": "server.check", "parent": root + 2,
                      "req": r.k, "start": waited - r.reply["time_ms"] / 1000.0,
                      "end": waited})
    write_spans("serve-mix", spans)
    st = self_times(spans)
    scale_of = {r.k: r.scale for r in traced}
    overhead = {}
    for s in spans:
        if s["name"] != "server.check":
            overhead[s["req"]] = overhead.get(s["req"], 0.0) + st[s["id"]] * scale_of[s["req"]]

    stats = [r.reply["stats"] for r in traced]

    def ops(field):
        return sum(s[op][field] for s in stats
                   for op in ("ite", "exists", "forall", "relprod", "constrain"))

    hits, misses = ops("hits"), ops("misses")
    rp_hits = sum(s["relprod"]["hits"] for s in stats)
    rp_misses = sum(s["relprod"]["misses"] for s in stats)
    metrics = {
        "server.check_ms": median([r.reply["time_ms"] * r.scale for r in traced]),
        "server.overhead_ms": median(overhead.values()) * 1000.0,
        "server.warm_ratio": ratio(sum(r.reply["warm"] for r in records), len(records)),
        "server.reach_reused_ratio":
            ratio(sum(r.reply["reach_reused"] for r in records), len(records)),
        "server.new_nodes_per_req": ratio(sum(s["total_nodes"] for s in stats), len(stats)),
        "server.shed": shed,
        "server.respawns": status.get("pool_respawns", 0),
        "server.live_nodes": status.get("mem_live_nodes", 0),
        "server.pool_entries": status["cache"]["entries"],
        "bdd.cache_hit_ratio": ratio(hits, hits + misses),
        # The reply carries no store count; every cache miss is followed by
        # exactly one store, so misses stand in for stores here.
        "bdd.cache_overwrite_ratio": ratio(sum(s["cache_evictions"] for s in stats), misses),
        "bdd.relprod_miss_ratio": ratio(rp_misses, rp_hits + rp_misses),
        "bdd.peak_nodes": max(s["peak_nodes"] for s in stats),
        "bdd.total_nodes": sum(s["total_nodes"] for s in stats),
        "bdd.gc_runs": sum(s["gc_runs"] for s in stats),
        "trace.overhead_ratio":
            ratio(median(map(rtt, traced)), median(map(rtt, plain))) - 1.0,
        "host.ref_ms": host.ref_ms(),
    }
    return attempted, n_failed, metrics
