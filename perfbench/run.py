#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of divrel's three user paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds experiments_cli and the
benchmark's probe (perfbench/probe) from source under .bench_build, makes
the workload's inputs from the seed, measures, checks every output, and
prints one JSON result as the last line of stdout. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORK = ".bench_build"
WS = os.path.join(WORK, "ws")
CLI = os.path.join(WS, "_build", "default", "bin", "experiments_cli.exe")
PROBE = os.path.join(WS, "_build", "default", "probe", "probe.exe")
TMP = os.path.join(WORK, "tmp")

WORKLOADS = ("serve-analytic", "evidence-ingest", "cli-all")

# serve-analytic: the daemon's batch size, which is also the generator's
# window and the probe's batch, and its queue capacity (above the window,
# so no request is ever refused).
BATCH = 8
QUEUE = 64

# evidence-ingest: the expected demand profile, given to the CLI and to
# the probe's in-process ingest alike.
PROFILE = 1600

# Verbs of the serve requests, by the code the probe's eval spans carry.
VERBS = ("moments", "risk_ratio", "pfd_dist")

# cli-all: experiments reported one by one in the traced run (each above
# 1% of `all` at the parent); the rest are summed as experiment.other_s.
HEAVY = ("E27", "E26", "E29", "E16", "E25", "E22", "E03", "E15")

# cli-all renders the CLI's default seed whatever --seed is. E27 flies
# missions until the developed system fails, so its cost depends on the
# seed 35-fold (0.4 s at seed 41, 14.7 s at seed 42, one domain): an `all`
# that followed --seed would measure the seed, not the program.
CLI_SEED = 42

# Set-up is timed this many times in a run and reported as the median:
# a few spawns stall for several times the usual time.
SETUP_REPEATS = 41

# The host runs each CPU in a fast or a slow state, about 1.5x apart,
# switching several times a second, and over tens of seconds it drifts
# as a whole (see README.md). How much of a run falls in the fast state is
# chance, so a median follows it. The serve session is cut into 50 ms
# rounds and the evidence ingests repeat, and each figure is read at the
# slow decile of its rounds or ingests: nearly every run spends a tenth
# of its time in the slow state, so the decile moves only with the drift.
# A round's batch rate is a mean over the round, so a round with a stall
# of a few ms reads low; the batch rate is read at the slow quartile,
# which stays in the slow state but clear of the stalled rounds.
SLOW_DECILE = 90.0
SLOW_QUARTILE = 75.0


class Failure(Exception):
    pass


def log(msg):
    print("# " + msg, flush=True)


# Pin the daemon and the generator to different CPUs when taskset exists
# and there are two; otherwise run unpinned (the run record says which).
PINNED = shutil.which("taskset") is not None and len(os.sched_getaffinity(0)) >= 2


def pinned(cmd, cpu):
    return ["taskset", "-c", str(cpu)] + cmd if PINNED and cpu is not None else cmd


def run(cmd, cpu=None):
    """Run to completion, reaping with wait4 so the child's own peak RSS
    and CPU time are known. Returns (stdout, wall seconds from spawn to
    exit, rusage)."""
    cmd = pinned(cmd, cpu)
    err = os.path.join(TMP, "stderr.txt")
    with open(err, "wb") as fh:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=fh)
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    if p.returncode != 0:
        with open(err, errors="replace") as fh:
            raise Failure("%s exited %d: %s" % (" ".join(cmd), p.returncode, fh.read()[-2000:]))
    return out, wall, ru


# ---------------------------------------------------------------------------
# Build and run record
# ---------------------------------------------------------------------------


def build():
    for need in ("dune-project", "lib", os.path.join("bin", "experiments_cli.ml"),
                 os.path.join("perfbench", "probe", "probe.ml")):
        if not os.path.exists(need):
            raise Failure("not a divrel checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        raise Failure("dune is not installed")
    os.makedirs(WS, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    # The workspace sees the program's sources through links, so the
    # probe can use the program's libraries without joining its build.
    for name, target in (("dune-project", "perfbench/dune-project"), ("lib", "lib"),
                         ("bin", "bin"), ("probe", "perfbench/probe")):
        link = os.path.join(WS, name)
        if not os.path.islink(link):
            os.symlink(os.path.join("..", "..", target), link)
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", WS, "probe/probe.exe",
                        "bin/experiments_cli.exe"], env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        raise Failure("build failed:\n" + p.stdout.decode()[-4000:])


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(d, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    # Only this checkout's own repository; a repository further up the
    # tree would name some other revision.
    if not os.path.exists(".git"):
        return "none"
    try:
        p = subprocess.run(["git", "rev-parse", "--short", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=10)
        if p.returncode == 0:
            return p.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def run_record(args):
    try:
        ocaml = subprocess.run(["ocamlopt", "-version"], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL).stdout.decode().strip()
    except OSError:
        ocaml = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": ocaml,
        "placement": ("daemon cpu0, generator cpu1 (taskset)" if PINNED
                      else "unpinned (taskset missing or one cpu)"),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def host_ref():
    """The probe's fixed host-reference kernel (no program code), in ms."""
    return probe("host-ref")["ms"]


def cli_setup_s():
    """One-shot set-up: wall time of `experiments_cli list`."""
    walls = []
    for _ in range(SETUP_REPEATS):
        out, wall, _ = run([CLI, "list"], cpu=1)
        if not out:
            raise Failure("list printed nothing")
        walls.append(wall)
    return statistics.median(walls)


def probe(*args, cpu=None):
    out, _, _ = run([PROBE] + [str(a) for a in args], cpu=cpu)
    return json.loads(out.decode().strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.ok = 0

    def add(self, attempted, ok):
        self.attempted += attempted
        self.ok += ok

    def check(self, cond):
        self.add(1, 1 if cond else 0)


# ---------------------------------------------------------------------------
# serve-analytic
# ---------------------------------------------------------------------------


def serve_inputs(seed):
    req = os.path.join(TMP, "requests.jsonl")
    exp = os.path.join(TMP, "expected.jsonl")
    probe("serve-prep", "--seed", seed, "--requests", req, "--expected", exp)
    return req, exp


class Daemon:
    """One `serve` process: --workers 1 under DIVREL_DOMAINS=1, pinned to
    cpu 0, on a Unix socket inside the checkout."""

    def __init__(self, seed, sock):
        if os.path.exists(sock):
            os.unlink(sock)
        env = dict(os.environ, DIVREL_DOMAINS="1")
        cmd = pinned([CLI, "serve", "--socket", sock, "--workers", "1", "--batch", str(BATCH),
                      "--queue-depth", str(QUEUE), "--seed", str(seed)], 0)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                     env=env)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serve: listening"):
            self.kill()
            raise Failure("daemon did not start: %r" % line)
        self.sock = sock

    def finish(self):
        """Wait for exit after a shutdown line; returns the counters of
        the daemon's exit line and its rusage."""
        rest = self.proc.stdout.read().decode()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise Failure("daemon exited %d" % self.proc.returncode)
        done = [l for l in rest.splitlines() if l.startswith("serve: done")]
        if not done:
            raise Failure("daemon printed no exit line")
        fields = dict(kv.split("=") for kv in done[0].split()[2:])
        return {k: int(v) for k, v in fields.items()}, ru

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def daemon_setup_s(seed, req, exp, tally):
    """Spawn to first reply; each daemon is shut down after."""
    with open(req, "rb") as fh:
        first = fh.readline()
    with open(exp, "rb") as fh:
        want = fh.readline()
    walls = []
    for _ in range(SETUP_REPEATS):
        d = Daemon(seed, os.path.join(TMP, "setup.sock"))
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(d.sock)
            s.sendall(first)
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
            walls.append(time.perf_counter() - d.t0)
            tally.check(buf == want)
            s.sendall(b'{"id":"bye","verb":"shutdown"}\n')
            while s.recv(65536):
                pass
            s.close()
            d.finish()
        finally:
            d.kill()
    return statistics.median(walls)


def serve_session(seed, req, exp, seconds, tally):
    """One daemon, one connection, rounds of phase rtt (1 in flight) then
    phase batch (BATCH in flight). Returns the generator's
    summary, the rtt latencies (ns) of each round, the daemon's exit
    counters and its rusage."""
    lat = os.path.join(TMP, "latencies.txt")
    d = Daemon(seed, os.path.join(TMP, "serve.sock"))
    try:
        summary = probe("serve-gen", "--socket", d.sock, "--requests", req, "--expected", exp,
                        "--seconds", seconds, "--window", BATCH, "--latencies", lat, cpu=1)
        counters, ru = d.finish()
    finally:
        d.kill()
    rounds = {}
    with open(lat) as fh:
        for line in fh:
            k, ns = line.split()
            rounds.setdefault(int(k), []).append(int(ns))
    for phase in ("rtt", "batch"):
        tally.add(summary[phase]["sent"], summary[phase]["ok"])
    log("serve phases: rtt sent=%(sent)d ok=%(ok)d failed=%(failed)d" % summary["rtt"]
        + "; batch sent=%(sent)d ok=%(ok)d failed=%(failed)d" % summary["batch"])
    return summary, [sorted(v) for v in rounds.values()], counters, ru


def slow_rate(rates):
    """Slow quartile of the rounds' batch rates."""
    return stats.percentile(sorted(rates), 100.0 - SLOW_QUARTILE)


def slow_rtt_p50_us(rounds):
    """Slow decile over rounds of each round's median rtt."""
    return stats.percentile(sorted(stats.percentile(r, 50.0) for r in rounds),
                            SLOW_DECILE) / 1e3


def median_rtt_p50_us(rounds):
    """Median over rounds of each round's median rtt: like the in-process
    medians of decode and eval, it mixes the host's fast and slow states."""
    return statistics.median(stats.percentile(r, 50.0) for r in rounds) / 1e3


def serve_e2e(args, tally):
    req, exp = serve_inputs(args.seed)
    setup = daemon_setup_s(args.seed, req, exp, tally)
    summary, rounds, _, ru = serve_session(args.seed, req, exp, args.seconds, tally)
    pooled = sorted(x for r in rounds for x in r)
    tail = stats.tail_percentile(len(pooled))
    if tail is None:
        raise Failure("only %d rtt samples: too few for any percentile" % len(pooled))
    tail_us = stats.percentile(pooled, tail) / 1e3
    rps = slow_rate(summary["batch_rates"])
    p50_us = slow_rtt_p50_us(rounds)
    log("serve all rounds: median batch rate %.1f 1/s, median rtt p50 %.2f us, %d rounds"
        % (statistics.median(summary["batch_rates"]), median_rtt_p50_us(rounds), len(rounds)))
    rss = ru.ru_maxrss / 1024.0
    log("serve-analytic: throughput_rps=%.1f 1/s  latency_p50_us=%.2f us  "
        "latency_p%g_us=%.2f us (n=%d)  setup_s=%.6f s  peak_rss_mb=%.2f MB"
        % (rps, p50_us, tail, tail_us, len(pooled), setup, rss))
    return {"throughput_per_s": (rps, "1/s"), "latency_ms": (p50_us / 1e3, "ms"),
            "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB")}


# ---------------------------------------------------------------------------
# evidence-ingest
# ---------------------------------------------------------------------------


def evidence_inputs(seed):
    e26 = os.path.join(TMP, "e26.jsonl")
    logf = os.path.join(TMP, "evidence.jsonl")
    run([CLI, "run", "E26", "--seed", str(seed), "--shards", "1", "--log", e26])
    gen = probe("evidence-gen", "--seed", seed, "--append", e26, "--out", logf)
    os.unlink(e26)
    return logf, gen


def evidence_e2e(args, tally):
    logf, gen = evidence_inputs(args.seed)
    ref = os.path.join(TMP, "verdict.json")
    probe("evidence-ref", "--log", logf, "--profile-size", PROFILE, "--out", ref)
    with open(ref, "rb") as fh:
        want = fh.read()
    events = json.loads(want)["events"]
    tally.check(events["malformed"] == gen["malformed"])
    tally.check(events["skipped"] == gen["skipped"])
    setup = cli_setup_s()
    walls, rss = [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < args.seconds:
        out, wall, ru = run([CLI, "evidence", logf, "--json", "--profile",
                                    "uniform:%d" % PROFILE], cpu=1)
        tally.check(out == want)
        walls.append(wall)
        rss.append(ru.ru_maxrss / 1024.0)
    os.unlink(logf)
    wall = stats.percentile(sorted(walls), SLOW_DECILE)
    eps = gen["lines"] / wall
    log("evidence-ingest: ingest_events_per_s=%.1f 1/s (%d lines, %d ingests, median %.1f 1/s)  "
        "setup_s=%.6f s  peak_rss_mb=%.2f MB" % (eps, gen["lines"], len(walls),
                                                 gen["lines"] / statistics.median(walls),
                                                 setup, max(rss)))
    return {"throughput_per_s": (eps, "1/s"), "latency_ms": (wall * 1e3, "ms"),
            "setup_s": (setup, "s"), "peak_rss_mb": (max(rss), "MB")}


# ---------------------------------------------------------------------------
# cli-all
# ---------------------------------------------------------------------------


def cli_e2e(args, tally):
    experiments = len(run([CLI, "list"])[0].decode().splitlines())
    want, ref_wall, _ = run([CLI, "all", "--seed", str(CLI_SEED), "--domains", "1"])
    log("cli-all reference (--domains 1): %.3f s" % ref_wall)
    setup = cli_setup_s()
    walls, rss, cpu = [], [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < args.seconds:
        out, wall, ru = run([CLI, "all", "--seed", str(CLI_SEED)])
        tally.check(out == want)
        walls.append(wall)
        rss.append(ru.ru_maxrss / 1024.0)
        cpu.append(ru.ru_utime + ru.ru_stime)
    wall = statistics.median(walls)
    log("cli-all: all_s=%.3f s (%d runs, %.1f cpu s)  setup_s=%.6f s  peak_rss_mb=%.2f MB"
        % (wall, len(walls), statistics.median(cpu), setup, max(rss)))
    return {"throughput_per_s": (experiments / wall, "1/s"),
            "latency_ms": (wall * 1e3, "ms"),
            "setup_s": (setup, "s"), "peak_rss_mb": (max(rss), "MB")}


# ---------------------------------------------------------------------------
# Traced run: every layer, from spans recorded around the calls into it
# ---------------------------------------------------------------------------


def read_spans(path):
    """id -> (parent, name, item, arg, start, end, words)."""
    spans = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            f = line.split("\t")
            spans[int(f[0])] = (int(f[1]), f[2], int(f[3]), int(f[4]), int(f[5]), int(f[6]),
                                float(f[7]))
    selfs = stats.self_times({k: (v[0], v[4], v[5]) for k, v in spans.items()})
    return spans, selfs


def by_name(spans, selfs, name):
    """(item, arg, self ns, words) of every span of that name."""
    return [(s[2], s[3], selfs[k], s[6]) for k, s in spans.items() if s[1] == name]


def med(rows, col, scale=1.0):
    return statistics.median(r[col] for r in rows) * scale


def direct_twin(spans, k):
    """Id of the direct evaluation of dispatcher span k's batch. The probe
    records the two back to back, in either order."""
    for j in (k - 1, k + 1):
        twin = spans.get(j)
        if twin is not None and twin[1] == "engine.eval_batch" and twin[2:4] == spans[k][2:4]:
            return j
    raise Failure("dispatcher span %d has no direct twin next to it" % k)


def trace_serve(seed, tally, out):
    req, exp = serve_inputs(seed)
    path = os.path.join(TMP, "serve.spans")
    t = probe("serve-trace", "--seed", seed, "--requests", req, "--expected", exp,
              "--batch", BATCH, "--spans", path)
    tally.add(t["checks"], t["checks"] - t["mismatches"])
    spans, selfs = read_spans(path)
    decode = by_name(spans, selfs, "proto.decode")
    ev = by_name(spans, selfs, "engine.eval")
    overhead = [(selfs[k] - selfs[direct_twin(spans, k)]) / s[3]
                for k, s in spans.items() if s[1] == "dispatcher.run_batch"]
    _, rounds, counters, ru = serve_session(seed, req, exp, 3.0, tally)
    out["proto.decode_us"] = (med(decode, 2, 1e-3), "us")
    out["proto.decode_words"] = (med(decode, 3), "words")
    out["engine.eval_us"] = (med(ev, 2, 1e-3), "us")
    out["engine.eval_words"] = (med(ev, 3), "words")
    for code, verb in enumerate(VERBS):
        rows = [r for r in ev if r[1] == code]
        out["engine.eval_us." + verb] = (med(rows, 2, 1e-3), "us")
        log("engine.eval %s: %d of %d requests, median %.2f us" % (
            verb, len({r[0] for r in rows}), len({r[0] for r in ev}), med(rows, 2, 1e-3)))
    out["json.render_us"] = (med(by_name(spans, selfs, "json.render"), 2, 1e-3), "us")
    out["dispatcher.overhead_us"] = (statistics.median(overhead) * 1e-3, "us")
    out["dispatcher.batch_size"] = (counters["served"] / counters["batches"], "requests")
    out["server.cpu_us"] = ((ru.ru_utime + ru.ru_stime) * 1e6 / counters["served"], "us")
    rtt_us = median_rtt_p50_us(rounds)
    loop_us = rtt_us - out["proto.decode_us"][0] - out["engine.eval_us"][0]
    out["server.loop_us"] = (loop_us, "us")
    log("serve rtt p50 %.2f us: decode %.2f us, eval %.2f us, loop and socket %.2f us"
        % (rtt_us, out["proto.decode_us"][0], out["engine.eval_us"][0], loop_us))
    return t["traced_s"] / t["untraced_s"] - 1.0


def trace_evidence(seed, own, tally, out):
    """own: this is the workload's own group, so its trace.overhead is
    reported and gets a second pair of passes."""
    logf, gen = evidence_inputs(seed)
    path = os.path.join(TMP, "evidence.spans")
    t = probe("evidence-trace", "--log", logf, "--profile-size", PROFILE,
              "--rounds", 2 if own else 1, "--spans", path)
    os.unlink(logf)
    tally.check(t["verdicts_equal"])
    tally.check(t["lines"] == gen["lines"])
    spans, selfs = read_spans(path)
    parse = by_name(spans, selfs, "json.parse")
    long_lines = [r for r in parse if r[1] >= 1024] or parse
    schema = by_name(spans, selfs, "schema.parse")
    ingest = by_name(spans, selfs, "assessor.ingest")
    out["source.read_us"] = (med(by_name(spans, selfs, "source.read"), 2, 1e-3), "us")
    out["json.parse_us"] = (med(parse, 2, 1e-3), "us")
    out["json.parse_ns_per_byte"] = (statistics.median(r[2] / r[1] for r in long_lines), "ns/B")
    out["schema.parse_us"] = (med(schema, 2, 1e-3), "us")
    out["schema.parse_words"] = (med(schema, 3), "words")
    out["assessor.ingest_us"] = (med(ingest, 2, 1e-3), "us")
    out["assessor.ingest_words"] = (med(ingest, 3), "words")
    out["verdict.render_ms"] = (med(by_name(spans, selfs, "verdict.render"), 2, 1e-6), "ms")
    return t["traced_s"] / t["untraced_s"] - 1.0


def trace_cli(own, tally, out):
    """own: this is the workload's own group, so an untraced pass is added
    for trace.overhead."""
    path = os.path.join(TMP, "cli.spans")
    t = probe("cli-trace", "--seed", CLI_SEED, "--overhead", 1 if own else 0, "--spans", path)
    tally.check(t["outputs_equal"])
    spans, selfs = read_spans(path)
    per_pass = {0: {}, 1: {}}
    for k, s in spans.items():
        if s[1].startswith("experiment.") and s[2] in per_pass:
            per_pass[s[2]][s[1][len("experiment."):]] = selfs[k] * 1e-9
    default = per_pass[1]
    for e in HEAVY:
        out["experiment.%s_s" % e] = (default[e], "s")
    out["experiment.other_s"] = (sum(v for k, v in default.items() if k not in HEAVY), "s")
    out["exec.cores_busy"] = (t["cpu_s"] / t["traced_s"], "cores")
    heaviest = max(default, key=default.get)
    out["exec.speedup"] = (per_pass[0][heaviest] / default[heaviest], "x")
    log("exec.speedup on %s: %.3f s at 1 domain, %.3f s at %d" % (
        heaviest, per_pass[0][heaviest], default[heaviest], t["domains"]))
    out["gc.minor_collections"] = (t["minor_collections"], "count")
    out["gc.major_collections"] = (t["major_collections"], "count")
    return t["traced_s"] / t["untraced_s"] - 1.0 if own else None


def traced(args, tally):
    out = {}
    before = host_ref()
    overhead = {
        "serve-analytic": trace_serve(args.seed, tally, out),
        "evidence-ingest": trace_evidence(args.seed, args.workload == "evidence-ingest", tally,
                                          out),
        "cli-all": trace_cli(args.workload == "cli-all", tally, out),
    }
    after = host_ref()
    log("host.ref_ms before=%.3f after=%.3f" % (before, after))
    out["host.ref_ms"] = ((before + after) / 2.0, "ms")
    out["trace.overhead"] = (overhead[args.workload], "ratio")
    return out


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        record = run_record(args)
        log("record " + json.dumps(record, sort_keys=True))
        tally = Tally()
        if args.trace:
            metrics = traced(args, tally)
        else:
            before = host_ref()
            metrics = {"serve-analytic": serve_e2e, "evidence-ingest": evidence_e2e,
                       "cli-all": cli_e2e}[args.workload](args, tally)
            log("host.ref_ms before=%.3f after=%.3f" % (before, host_ref()))
    except Failure as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    failed = tally.attempted - tally.ok
    log("%s: attempted=%d failed=%d failed_share=%.6f" % (
        args.workload, tally.attempted, failed, stats.failed_share(tally.attempted, tally.ok)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
