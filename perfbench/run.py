#!/usr/bin/env python3
"""The vmbp benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload report|sweep|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --write-sweep-reference

The first builds the probe and the CLI with dune, runs the workload cold
(a fresh process per pass, a fresh store per daemon), checks every output,
and prints one summary line (machine fingerprint, exact counters, sample
counts) followed by the result line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
perfbench/README.md says what each workload and metric is for.

--write-sweep-reference regenerates perfbench/sweep_reference.json from a
run of every sweep cell under --self-check, and refuses to write it unless
the reference simulators agreed on every event of every cell.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import socket
import select
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench"
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
VMBP = os.path.join("_build", "default", "bin", "main.exe")
REPORT_REF = "BENCH_report.json"
CELLS_DIFF = os.path.join("dev", "cells_diff.py")
SWEEP_REF = os.path.join(HERE, "sweep_reference.json")
REQUIRED = ["dune-project", "lib", "bin", REPORT_REF, CELLS_DIFF]

REPORT_CELLS = 665
SETUP_REPEATS = 5  # set-up samples per run; setup_s is their median
SERVE_CLIENTS = 2  # closed-loop connections (the 2-core box's nproc)
SERVE_REQUESTS = 500  # queries per pass, split over the connections
SERVE_KEYS = 140  # distinct configurations per pass: the cold store's misses
# A connection's pause between a reply and its next query.  Without it the
# client and the event thread keep one of the two vCPUs busy with store hits
# whenever the other connection waits on a miss, and the compute domain's
# share of the CPUs, and so the wall, swings with the scheduler.
SERVE_THINK_S = 0.001
SERVE_DEADLINE_S = 60.0  # per pass
CHILD_TIMEOUT_S = 120.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """The q-quantile (0..1) of xs, by linear interpolation between the
    closest ranks; 0 for an empty list."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Children


def run_child(argv, env=None, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; its stdout's last line is parsed as JSON."""
    proc = subprocess.run(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(argv[:3])} exited {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def probe(*args, timeout=CHILD_TIMEOUT_S):
    return run_child([PROBE, *map(str, args)], timeout=timeout)


def build():
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/probe.exe", "./bin/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=900,
    )
    if proc.returncode != 0:
        die(f"build failed (dune exited {proc.returncode})")


# ---------------------------------------------------------------------------
# Machine fingerprint and exact-counter ledger


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    config = subprocess.run(
        ["ocamlfind", "ocamlopt", "-config"]
        if shutil.which("ocamlfind")
        else ["ocamlopt", "-config"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    ).stdout
    fields = dict(
        line.split(": ", 1) for line in config.splitlines() if ": " in line
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "ocaml": fields.get("version", "unknown"),
        "flambda": fields.get("flambda", "unknown"),
    }


def code_digest():
    """Digest of the sources the benchmark measures, so counters are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for top in ["lib", "bin", "bench", "dev", "perfbench", "dune-project", REPORT_REF]:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        else:
            for d, dirs, files in os.walk(top):
                dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
                paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            if p.endswith((".ml", ".mli", ".c", ".py", ".json")) or os.path.basename(p) in ("dune", "dune-project"):
                h.update(p.encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def ledger_check(key, counters):
    """Append this run's exact counters to the ledger and return the names
    of counters that differ from an earlier run with the same workload,
    seed, code and machine fingerprint."""
    path = os.path.join(WORK, "ledger.jsonl")
    differing = []
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if entry.get("key") == key:
                    old = entry["counters"]
                    differing = sorted(
                        k for k in set(old) | set(counters) if old.get(k) != counters.get(k)
                    )
                    break
    with open(path, "a") as f:
        f.write(json.dumps({"key": key, "counters": counters}, sort_keys=True) + "\n")
    return differing


# ---------------------------------------------------------------------------
# Spans (Chrome trace-event JSON, as the program's --trace-out writes it)


def load_spans(path):
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for e in doc.get("traceEvents", []):
        args = e.get("args", {})
        spans.append(
            {
                "name": e["name"],
                "ts": e["ts"] / 1e6,
                "dur": e["dur"] / 1e6,
                "tid": e.get("tid", 0),
                "id": int(args.get("span", -1)),
                "parent": int(args.get("parent", -1)),
                "trace": args.get("trace", ""),
                "args": args,
            }
        )
    return spans


def span_stats(spans):
    """Per span name: count and self time (duration minus the time its
    child spans cover).  Self times sum to the time covered by top-level
    spans."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
    count, self_s = {}, {}
    for s in spans:
        n = s["name"]
        count[n] = count.get(n, 0) + 1
        self_s[n] = self_s.get(n, 0.0) + s["dur"] - child.get(s["id"], 0.0)
    return count, self_s


# ---------------------------------------------------------------------------
# Correctness checks


def report_programs():
    """The report's (vm, workload, scale) programs, from the committed
    cells, in first-use order."""
    seen = []
    for c in read_json(REPORT_REF)["results"]:
        p = f"{c['vm']}/{c['workload']}/{c.get('scale', 1)}"
        if p not in seen:
            seen.append(p)
    return ",".join(seen)


def check_report_cells(cells_json):
    """dev/cells_diff.py against the committed report: the number of
    differing cells (0 when numerically identical)."""
    proc = subprocess.run(
        [sys.executable, CELLS_DIFF, REPORT_REF, cells_json, "--expect-cells", str(REPORT_CELLS)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode == 0:
        return 0
    sys.stderr.write(proc.stderr[-2000:])
    return max(1, sum(1 for l in proc.stderr.splitlines() if l.startswith("cells_diff: ") and "difference(s)" not in l))


SWEEP_FIELDS = ("ok", "cycles", "mispredicts", "icache_misses", "vm_instrs", "dispatches", "code_bytes")


def sweep_key(c):
    return "|".join(str(c[k]) for k in ("vm", "workload", "technique", "cpu", "scale", "predictor"))


def check_sweep_cells(sweep_json, reference):
    """The number of cells that differ from (or are missing in) the
    self-checked reference."""
    return sum(
        1
        for c in read_json(sweep_json)["cells"]
        if reference.get(sweep_key(c)) != [c.get(k) for k in SWEEP_FIELDS]
    )


def read_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Untraced runs


def latency_metrics(lat):
    """Latency quantiles in ms from {"all", "hit", "miss"} sample lists."""
    return {
        "p50_ms": quantile(lat["all"], 0.50),
        "p99_ms": quantile(lat["all"], 0.99),
        "hit_p99_ms": quantile(lat["hit"], 0.99),
        "miss_p50_ms": quantile(lat["miss"], 0.50),
    }


def pooled(a, b):
    return {k: a[k] + b[k] for k in a}


def timed_passes(run, seconds, one_pass, setup):
    """Cold passes until the next would overrun the time budget (at least
    one).  wall_s, rps and peak_rss_mb are medians over passes; latency
    quantiles are taken over every pass's samples pooled; setup_s is the
    median over every set-up sample, the passes' own included."""
    passes, lat, t0 = [], {"all": [], "hit": [], "miss": []}, time.monotonic()
    while True:
        p0 = time.monotonic()
        scalars, pass_lat, setup_s = one_pass(len(passes))
        passes.append(scalars)
        for k in lat:
            lat[k] += pass_lat[k]
        setup.append(setup_s)
        now = time.monotonic()
        if now - t0 + (now - p0) > seconds:
            break
    metrics = {k: median([p[k] for p in passes]) for k in passes[0]}
    metrics.update(latency_metrics(lat))
    metrics["setup_s"] = median(setup)
    run.info["pass_wall_s"] = [p["wall_s"] for p in passes]
    run.info["latency_samples"] = {k: len(v) for k, v in lat.items()}
    run.info["setup_samples"] = len(setup)
    return metrics


# ---------------------------------------------------------------------------
# report and sweep


CELL_COUNTERS = (
    "cells",
    "engine_runs",
    "replays",
    "translations",
    "result_hits",
    "bank_replays",
    "banked_configs",
    "audited",
)


def cell_latencies(summary):
    """Per-cell production times in ms: all cells, hits (served from a
    memo table or the result cache: no simulator ran for the cell) and
    misses (the cell ran the engine)."""
    lat = {"all": [], "hit": [], "miss": []}
    for c in summary["results"]:
        ms = c["wall_seconds"] * 1e3
        lat["all"].append(ms)
        lat["hit" if c["mode"] == "replay" else "miss"].append(ms)
    return lat


class Run:
    """Accumulates one run's outcome."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counters = {}
        self.info = {}

    def fail(self, n, why):
        if n:
            self.failed += n
            self.problems.append(why)


def batch_pass(run, workload, out, seed, programs, reference, trace=False):
    """One cold pass of report or sweep in a fresh probe process."""
    os.makedirs(out, exist_ok=True)
    if workload == "report":
        res = probe("report", out, programs, *(["trace"] if trace else []))
    else:
        res = probe("sweep", out, seed, *(["trace"] if trace else []))
    summary = read_json(os.path.join(out, "cells.json"))
    cells = summary["cells"]
    run.attempted += cells
    failed_cells = sum(1 for c in summary["results"] if not c["ok"])
    run.fail(failed_cells, f"{failed_cells} failed cells")
    run.fail(res["divergences"], f"{res['divergences']} audit divergences")
    if workload == "report":
        run.fail(check_report_cells(os.path.join(out, "cells.json")), "cells differ from BENCH_report.json")
    else:
        bad = check_sweep_cells(os.path.join(out, "sweep.json"), reference)
        run.fail(bad, f"{bad} sweep cells differ from the reference")
    counters = {k: summary[k] for k in CELL_COUNTERS}
    if "report_md5" in res:
        counters["report_md5"] = res["report_md5"]
    if run.counters and counters != run.counters:
        run.fail(1, f"counters differ between passes: {run.counters} vs {counters}")
    run.counters = counters
    scalars = {"wall_s": res["wall_s"], "rps": cells / res["wall_s"], "peak_rss_mb": res["vmhwm_kb"] / 1024.0}
    return res, summary, scalars, cell_latencies(summary)


def batch_untraced(run, workload, seed, seconds, programs, reference):
    setup = [probe("setup", programs)["load_s"] for _ in range(SETUP_REPEATS)]

    # Each sweep pass visits the cells in its own seeded order.
    def one_pass(k):
        res, _, scalars, lat = batch_pass(
            run, workload, os.path.join(run.dir, f"pass{k}"), seed * 1000 + k, programs, reference
        )
        return scalars, lat, res["load_s"]

    return timed_passes(run, seconds, one_pass, setup)


def batch_traced(run, workload, seed, programs, reference):
    """Untraced pass, traced pass (the program's spans on, then the layer
    probes over the cells it produced), and a cold process for the
    memoised load and training-profile layers."""
    _, _, untraced, lat = batch_pass(run, workload, os.path.join(run.dir, "untraced"), seed * 1000, programs, reference)
    out = os.path.join(run.dir, "traced")
    res, summary, traced, traced_lat = batch_pass(run, workload, out, seed * 1000, programs, reference, trace=True)
    spans = load_spans(os.path.join(out, "trace.json"))
    count, self_s = span_stats(spans)
    cold = probe("cold", res["programs"], res["profiles"])
    lay = res["layers"]
    run.fail(lay["probe.mismatches"], f"{lay['probe.mismatches']} probe replays differ from the pass")
    run.fail(lay["store.lost"], f"{lay['store.lost']} store-probe records not found")
    hits = res["trace_cache.hits"]
    span_sum = sum(self_s.values())
    m = {
        "workloads.load_s": cold["workloads.load_s"],
        "workloads.profile_s": cold["workloads.profile_s"],
        "layout.builds": count.get("layout", 0) + count.get("record", 0),
        "engine.semantic_runs": count.get("engine", 0) + count.get("record", 0),
        "engine.translations": summary["translations"],
        "trace.records": count.get("record", 0),
        "trace.bank_replays": summary["bank_replays"],
        "trace.banked_configs": summary["banked_configs"],
        "par_runner.result_hit_ratio": summary["result_hits"] / summary["cells"],
        "par_runner.trace_cache_hit_ratio": hits / max(1, hits + res["trace_cache.misses"]),
        "par_runner.audited": summary["audited"],
        "par_runner.audit_s": self_s.get("audit-crosscheck", 0.0) + self_s.get("audit", 0.0),
        "par_runner.retries": summary["retries"],
        "par_runner.timeouts": summary["timeouts"],
        "gc.minor_words": res["gc.minor_words"],
        "gc.major_collections": res["gc.major_collections"],
        "service.queue_wait_s": 0.0,
        "service.batches": 0,
        "service.batch_cells": 0,
        "service.coalesced": summary["coalesced"],
        "service.shed": summary["shed"],
        "service.admit_s": 0.0,
        "service.flush_s": 0.0,
        **{"latency." + k: v for k, v in latency_metrics(pooled(lat, traced_lat)).items() if k != "miss_p50_ms"},
        "tracing.untraced_wall_s": untraced["wall_s"],
        "tracing.traced_wall_s": traced["wall_s"],
        "tracing.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "tracing.span_self_sum_s": span_sum,
        "tracing.remainder_s": traced["wall_s"] - span_sum,
    }
    m.update((k, v) for k, v in lay.items() if k not in m)
    run.info["probe_sizes"] = {k: v for k, v in lay.items() if "probe" in k}
    run.info["span_self_s"] = self_s
    run.info["span_count"] = count
    return m


# ---------------------------------------------------------------------------
# serve


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def send(self, obj):
        data = json.dumps(obj, separators=(",", ":")).encode()
        self.sock.sendall(struct.pack(">I", len(data)) + data)

    def take(self):
        """One complete reply frame from the buffer, or None."""
        if len(self.buf) < 4:
            return None
        (n,) = struct.unpack(">I", self.buf[:4])
        if len(self.buf) < 4 + n:
            return None
        payload, self.buf = self.buf[4 : 4 + n], self.buf[4 + n :]
        return json.loads(payload)

    def recv(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data

    def call(self, obj, timeout=10.0):
        self.send(obj)
        deadline = time.monotonic() + timeout
        while True:
            reply = self.take()
            if reply is not None:
                return reply
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.sock], [], [], left)[0]:
                raise TimeoutError(f"no reply to {obj.get('verb')}")
            self.recv()

    def close(self):
        self.sock.close()


class Daemon:
    """bin/main.exe serve on a fresh store, in its own directory."""

    def __init__(self, d, trace=False):
        os.makedirs(d, exist_ok=True)
        self.dir = d
        self.sock = os.path.join(d, "s.sock")
        argv = [VMBP, "serve", "--socket", self.sock, "--store", os.path.join(d, "store"), "--flight-dir", d]
        env = dict(os.environ)
        if trace:
            argv += ["--trace-out", os.path.join(d, "trace.json"), "--metrics", os.path.join(d, "metrics.json")]
            env["OCAMLRUNPARAM"] = "v=0x400"  # GC totals on stderr at exit
        self.log = open(os.path.join(d, "daemon.log"), "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=self.log, env=env)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} during start-up")
            try:
                c = Conn(self.sock)
                ok = c.call({"verb": "health"}).get("status") == "ok"
                c.close()
                if ok:
                    break
            except (OSError, TimeoutError):
                pass
            if time.monotonic() - t0 > 30:
                self.stop()
                raise RuntimeError("daemon did not answer health within 30 s")
            time.sleep(0.002)
        self.setup_s = time.monotonic() - t0

    def vmhwm_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = Conn(self.sock)
                c.call({"verb": "shutdown"}, timeout=30)
                c.close()
            except (OSError, TimeoutError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def report_reference_scale1():
    """BENCH_report.json cells a serve query names exactly: scale 1, no
    predictor override, keyed (vm, workload, technique, cpu).  Static
    selection techniques are left out: the report's ablations run them
    with other replica and superinstruction counts under the same name."""
    ref = {}
    for c in read_json(REPORT_REF)["results"]:
        if c.get("scale", 1) == 1 and "predictor" not in c and c["ok"] and "static" not in c["technique"]:
            ref.setdefault((c["vm"], c["workload"], c["technique"], c["cpu"]), []).append(c)
    return ref


SERVE_FIELDS_REF = ("cycles", "mispredicts", "icache_misses", "vm_instrs", "code_bytes")


def same_number(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    return a == b


def serve_pass(run, seed, plans, d, trace=False):
    """Start a daemon on a fresh store, drive the seeded request list over
    SERVE_CLIENTS closed-loop connections, check every reply, stop."""
    daemon = Daemon(d, trace=trace)
    ref = report_reference_scale1()
    first = {}  # key -> first reply
    lat, hit_lat, miss_lat = [], [], []
    miss_keys = set()
    conns = []
    try:
        conns = [Conn(daemon.sock) for _ in plans]
        pos = [0] * len(plans)
        sent_at = [0.0] * len(plans)

        def send_next(i):
            vm, w, t, cpu = plans[i][pos[i]]
            sent_at[i] = time.perf_counter()
            conns[i].send(
                {"verb": "query", "vm": vm, "workload": w, "technique": t, "cpu": cpu, "scale": 1, "rid": f"pb{seed}-c{i}-r{pos[i]}"}
            )

        t0 = time.perf_counter()
        due = {i: t0 for i in range(len(plans))}  # connections thinking, and until when
        live = set(range(len(plans)))
        while live:
            now = time.perf_counter()
            if now - t0 > SERVE_DEADLINE_S:
                run.fail(sum(len(p) - pos[i] for i, p in enumerate(plans) if i in live), "requests unanswered at the deadline")
                break
            for i in [i for i, t in due.items() if t <= now]:
                del due[i]
                send_next(i)
            waiting = [conns[i].sock for i in live if i not in due]
            timeout = max(0.0, min(due.values()) - now) if due else 1.0
            ready, _, _ = select.select(waiting, [], [], timeout)
            for i in list(live):
                if conns[i].sock not in ready:
                    continue
                conns[i].recv()
                while i in live:
                    reply = conns[i].take()
                    if reply is None:
                        break
                    dt = (time.perf_counter() - sent_at[i]) * 1e3
                    run.attempted += 1
                    key = plans[i][pos[i]]
                    rid = f"pb{seed}-c{i}-r{pos[i]}"
                    bad = reply.get("rid") != rid or reply.get("status") != "ok"
                    body = {k: v for k, v in reply.items() if k not in ("rid", "source")}
                    if key in first:
                        bad = bad or body != first[key]
                    else:
                        first[key] = body
                        cands = ref.get(key)
                        if cands and not bad:
                            bad = not all(
                                same_number(body.get(f), r[f]) for r in cands for f in SERVE_FIELDS_REF
                            )
                    run.fail(1 if bad else 0, f"bad reply {rid}")
                    lat.append(dt)
                    if reply.get("source") == "store":
                        hit_lat.append(dt)
                    else:
                        miss_lat.append(dt)
                        miss_keys.add(key)
                    pos[i] += 1
                    if pos[i] < len(plans[i]):
                        due[i] = time.perf_counter() + SERVE_THINK_S
                    else:
                        live.discard(i)
        wall_s = time.perf_counter() - t0
        for c in conns:
            c.close()
        conns = []
        admin = Conn(daemon.sock)
        stats = admin.call({"verb": "stats"})
        registry = json.loads(admin.call({"verb": "metrics"})["body"])
        admin.close()
        rss_kb = daemon.vmhwm_kb()
    finally:
        for c in conns:
            c.close()
        daemon.stop()
    counters = {
        "requests": len(lat),
        "distinct_keys": len(first),
        "miss_keys": len(miss_keys),
        "store_appends": stats.get("appended"),
    }
    scalars = {"wall_s": wall_s, "rps": len(lat) / wall_s, "peak_rss_mb": rss_kb / 1024.0}
    if run.counters and counters != run.counters:
        run.fail(1, f"counters differ between passes: {run.counters} vs {counters}")
    run.counters = counters
    return daemon, scalars, {"all": lat, "hit": hit_lat, "miss": miss_lat}, stats, registry, sorted(miss_keys)


def serve_plans(seed):
    """Each connection's query list, drawn from its Loadgen.query_plan
    stream in alternation: SERVE_REQUESTS queries naming exactly
    SERVE_KEYS distinct configurations (once that many are named, draws of
    new ones are skipped), so every seed's cold store serves the same
    number of hits and computes the same number of misses."""
    # Loadgen seeds client i's stream with seed + i; spacing run seeds by
    # the client count keeps different runs' streams disjoint.
    out = subprocess.run(
        [PROBE, "plan", str(seed * SERVE_CLIENTS), str(SERVE_CLIENTS), str(SERVE_REQUESTS * 2)],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    ).stdout
    streams = [[] for _ in range(SERVE_CLIENTS)]
    for line in out.splitlines():
        q = json.loads(line)
        streams[q["client"]].append((q["vm"], q["workload"], q["technique"], q["cpu"]))
    plans = [[] for _ in range(SERVE_CLIENTS)]
    seen = set()
    for n in range(len(streams[0])):
        for i, stream in enumerate(streams):
            if stream[n] in seen or len(seen) < SERVE_KEYS:
                seen.add(stream[n])
                plans[i].append(stream[n])
                if sum(map(len, plans)) == SERVE_REQUESTS:
                    if len(seen) < SERVE_KEYS:
                        raise RuntimeError("query streams name too few configurations")
                    return plans
    raise RuntimeError("query streams too short")


def serve_untraced(run, seed, seconds):
    plans = serve_plans(seed)
    setup = []
    for k in range(SETUP_REPEATS):
        daemon = Daemon(os.path.join(run.dir, f"setup{k}"))
        setup.append(daemon.setup_s)
        daemon.stop()

    def one_pass(k):
        daemon, scalars, lat, _, _, _ = serve_pass(run, seed, plans, os.path.join(run.dir, f"pass{k}"))
        return scalars, lat, daemon.setup_s

    return timed_passes(run, seconds, one_pass, setup)


def gc_totals(log_path):
    totals = {}
    with open(log_path) as f:
        for line in f:
            k, _, v = line.partition(":")
            if k in ("minor_words", "major_collections"):
                totals[k] = int(float(v))
    return totals


def serve_traced(run, seed):
    plans = serve_plans(seed)
    _, untraced, lat, _, _, _ = serve_pass(run, seed, plans, os.path.join(run.dir, "untraced"))
    d = os.path.join(run.dir, "traced")
    daemon, traced, traced_lat, stats, registry, miss_keys = serve_pass(run, seed, plans, d, trace=True)
    spans = load_spans(os.path.join(d, "trace.json"))
    count, self_s = span_stats(spans)
    c = registry.get("counters", {})
    # Queue wait: a miss's admission ("enqueue") until the compute batch
    # that serves its request id starts.
    admitted = {s["trace"]: s["ts"] + s["dur"] for s in spans if s["name"] == "admit" and s["args"].get("decision") == "enqueue"}
    # A store hit's admission span is its store lookup.
    hit_admit_s = sum(s["dur"] for s in spans if s["name"] == "admit" and s["args"].get("decision") == "store-hit")
    queue_wait, batch_cells = 0.0, 0
    for s in spans:
        if s["name"] == "compute-batch":
            batch_cells += int(s["args"].get("cells", 0))
            for rid in filter(None, s["args"].get("rids", "").split(";")):
                if rid in admitted:
                    queue_wait += max(0.0, s["ts"] - admitted[rid])
    cells_file = os.path.join(d, "miss_cells.tsv")
    with open(cells_file, "w") as f:
        for vm, w, t, cpu in miss_keys:
            f.write(f"{vm}\t{w}\t{t}\t{cpu}\t1\n")
    lay = probe("layers", cells_file)
    run.fail(lay["probe.mismatches"], "probe replays failed")
    hits = c.get("trace_cache.live_hits", 0) + c.get("trace_cache.memo_hits", 0)
    gc = gc_totals(os.path.join(d, "daemon.log"))
    # The event thread and the compute domain overlap, so on serve the
    # remainder is the time neither had a span open (idle, client, wire).
    span_sum = sum(self_s.values())
    m = {
        "layout.builds": count.get("layout", 0) + count.get("record", 0),
        "engine.semantic_runs": count.get("engine", 0) + count.get("record", 0),
        "engine.translations": c.get("engine.translations", 0),
        "trace.records": count.get("record", 0),
        "trace.bank_replays": c.get("trace.bank_replays", 0),
        "trace.banked_configs": c.get("trace.banked_configs", 0),
        "par_runner.result_hit_ratio": c.get("result_cache.hits", 0) / max(1, batch_cells),
        "par_runner.trace_cache_hit_ratio": hits / max(1, hits + c.get("trace_cache.misses", 0)),
        "par_runner.audited": count.get("audit-crosscheck", 0),
        "par_runner.audit_s": self_s.get("audit-crosscheck", 0.0) + self_s.get("audit", 0.0),
        "par_runner.retries": c.get("cells.retries", 0),
        "par_runner.timeouts": c.get("cells.timeouts", 0),
        "gc.minor_words": gc.get("minor_words", 0),
        "gc.major_collections": gc.get("major_collections", 0),
        "store.appends": stats.get("appended", 0),
        "store.fsyncs": stats.get("appended", 0),
        "store.append_s": self_s.get("store-append", 0.0),
        "store.lookups": stats.get("store_hits", 0) + stats.get("store_misses", 0),
        "store.lookup_s": self_s.get("store-serve", 0.0) + hit_admit_s,
        "service.queue_wait_s": queue_wait,
        "service.batches": count.get("compute-batch", 0),
        "service.batch_cells": batch_cells,
        "service.coalesced": c.get("service.coalesced", 0),
        "service.shed": c.get("service.shed", 0),
        "service.parse_s": self_s.get("parse", 0.0),
        "service.admit_s": self_s.get("admit", 0.0) - hit_admit_s,
        "service.flush_s": self_s.get("flush", 0.0),
        **{"latency." + k: v for k, v in latency_metrics(pooled(lat, traced_lat)).items() if k != "miss_p50_ms"},
        "tracing.untraced_wall_s": untraced["wall_s"],
        "tracing.traced_wall_s": traced["wall_s"],
        "tracing.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "tracing.span_self_sum_s": span_sum,
        "tracing.remainder_s": traced["wall_s"] - span_sum,
    }
    m.update((k, v) for k, v in lay.items() if k not in m)
    run.info["probe_sizes"] = {k: v for k, v in lay.items() if "probe" in k}
    run.info["span_self_s"] = self_s
    run.info["span_count"] = count
    return m


# ---------------------------------------------------------------------------
# Main


def result_metrics(spec, values):
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def write_sweep_reference():
    build()
    out = os.path.join(WORK, "sweep-reference")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    res = probe("sweep-reference", out, os.cpu_count() or 1, timeout=None)
    log(f"self-checked sweep: {res}")
    if res["divergences"] or res["failed"] or res["audited"] != res["cells"]:
        die("reference not written: the self-checked sweep was not clean")
    cells = read_json(os.path.join(out, "sweep_reference.json"))["cells"]
    with open(SWEEP_REF, "w") as f:
        f.write('{"schema":"perfbench-sweep-reference/1","fields":%s,"cells":{\n' % json.dumps(list(SWEEP_FIELDS)))
        f.write(",\n".join(f"{json.dumps(sweep_key(c))}:{json.dumps([c.get(k) for k in SWEEP_FIELDS])}" for c in cells))
        f.write("\n}}\n")
    log(f"wrote {len(cells)} reference cells to {SWEEP_REF}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["report", "sweep", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-sweep-reference", action="store_true")
    args = ap.parse_args()

    missing = [p for p in REQUIRED + ["BENCHMARK.json"] if not os.path.exists(p)]
    if missing:
        die(f"run from the root of a vmbp checkout; missing {', '.join(missing)}")
    os.makedirs(WORK, exist_ok=True)
    if args.write_sweep_reference:
        write_sweep_reference()
        return
    if args.workload is None:
        ap.error("--workload is required")

    bench = read_json("BENCHMARK.json")
    build()
    run = Run()
    run.dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(run.dir)
    try:
        if args.workload == "serve":
            values = serve_traced(run, args.seed) if args.trace else serve_untraced(run, args.seed, args.seconds)
        else:
            if args.workload == "report":
                programs, reference = report_programs(), None
            else:
                programs = subprocess.run(
                    [PROBE, "sweep-programs"], stdout=subprocess.PIPE, text=True, check=True
                ).stdout.strip()
                reference = read_json(SWEEP_REF)["cells"]
            if args.trace:
                values = batch_traced(run, args.workload, args.seed, programs, reference)
            else:
                values = batch_untraced(run, args.workload, args.seed, args.seconds, programs, reference)
        spec = bench["per_layer"] if args.trace else bench["end_to_end"]
        metrics = result_metrics(spec, values)
        run.info["unlisted_metrics"] = {k: v for k, v in values.items() if k not in metrics}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    fp = fingerprint()
    key = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "code": code_digest(), "fingerprint": fp}
    differing = ledger_check(key, run.counters)
    run.fail(len(differing), f"counters differ from an earlier run of the same code: {differing}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fp,
        "code": key["code"],
        "counters": run.counters,
        "error_ratio": run.failed / max(1, run.attempted),
        "problems": run.problems,
        **run.info,
    }
    print(json.dumps({"perfbench": summary}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": max(1, run.attempted),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
