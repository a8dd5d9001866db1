#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads over the real binaries.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds cspm_check, capl2cspm, cspm_tracecheck, cspm_checkd and the
traced runner perfbench/tracer/perftrace.exe from source (release profile,
into .bench_build), generates the workload's inputs from the seed, and
measures for S seconds. Every output of the programs is checked against an
answer that does not come from the code under test: a hand-written
expectation, a checked-in golden file, or the reference monitor below.

With --trace 0 it times the binaries with tracing off and reports the
end-to-end metrics. With --trace 1 it runs the traced in-process runner
(and, for the daemon, reads the daemon's own protocol events and cache
stats), checks that it reproduces every verdict and count of the binaries,
and reports the per-layer metrics. perfbench/README.md explains the
workloads and what each layer metric should move.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and record the host, the OCaml version, the commit and the seed.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARIES = ["cspm_check", "capl2cspm", "cspm_tracecheck", "cspm_checkd"]
TRACER = "perfbench/tracer/perftrace.exe"
WORKLOADS = ["ecu-interleave", "case-studies", "fleet-tracecheck", "daemon-recheck"]

# Workload sizes. --small is the reduced size perfbench/selftest.py uses.
SIZES = {
    "full": {"ecu_n": 10, "daemon_n": 8, "daemon_jobs": 200, "corpus_streams": 20000, "trace_jobs": 64},
    "small": {"ecu_n": 6, "daemon_n": 5, "daemon_jobs": 24, "corpus_streams": 400, "trace_jobs": 16},
}
SETUP_SAMPLES = 31  # set-ups per run; setup_s is the shortest

# Lowe's attack on the original protocol, as the model names its events:
# a starts a protocol run with the intruder, who replays a's nonce to b as if
# from a, relays b's reply to a, and completes the run with a's answer.
LOWE_ATTACK = [
    "running.a.i",
    "send.a.i.(aenc.(pk.i).(msg1.(nonce.0).a))",
    "recv.b.(aenc.(pk.b).(msg1.(nonce.0).a))",
    "send.b.a.(aenc.(pk.a).(msg2.(nonce.0).(nonce.1)))",
    "recv.a.(aenc.(pk.a).(msg2.(nonce.0).(nonce.1)))",
    "send.a.i.(aenc.(pk.i).(msg3.(nonce.1)))",
    "recv.b.(aenc.(pk.b).(msg3.(nonce.1)))",
    "commit.b.a",
]

# The paper's SP02 on the extracted OTA model: every software inventory
# request is answered before the next one.
SP02 = (
    "\nSP02 = reqSw?p -> rptSw?v -> SP02\n"
    "assert SP02 [T= SYSTEM \\ {|reqApp, rptUpd, timer_vmg_retry|}\n"
)

# figures printed with the metrics but not gated (see README.md)
UNGATED = {"entries_per_s": "1/s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_p95_s": "s"}


class Failure(Exception):
    """The benchmark itself cannot run (missing sources, build error)."""


children = []  # live child processes, killed if the run is cut short


def stop_children():
    for p in children:
        if p.poll() is None:
            p.kill()
            p.wait()
    children.clear()


def metric_units(kind):
    """name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json names."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs)


# ---------------------------------------------------------------------------
# Build and processes


def build():
    for need in ["dune-project", "bin/cspm_check.ml", "lib/csp/refine.ml", "perfbench/tracer/perftrace.ml"]:
        if not os.path.exists(need):
            raise Failure(f"{need} not found: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = [f"./bin/{b}.exe" for b in BINARIES] + ["./" + TRACER]
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release"] + targets
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stdout)


def exe(name):
    return os.path.join(BUILD_DIR, "default", "bin", name + ".exe")


def tracer():
    return os.path.join(BUILD_DIR, "default", TRACER)


class Proc:
    """One finished program run: exit code, output, wall time, peak RSS."""

    def __init__(self, code, out, err, wall_s, rss_mb):
        self.code, self.out, self.err, self.wall_s, self.rss_mb = code, out, err, wall_s, rss_mb


def run_proc(work, argv):
    """Run argv to completion, timing it from spawn to exit. Output goes to
    files so the child can be reaped with wait4, whose rusage gives the
    kernel's peak RSS of that one process."""
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        children.append(p)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        children.remove(p)
    with open(out_path, "rb") as f:
        out = f.read().decode()
    with open(err_path, "rb") as f:
        err = f.read().decode()
    return Proc(p.returncode, out, err, wall, usage.ru_maxrss / 1024.0)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return path


def read(path):
    with open(path) as f:
        return f.read()


# ---------------------------------------------------------------------------
# Input generators


def ecu_script(seed, n, edit=None):
    """n interleaved VMG_i [|{|req_i,rsp_i|}|] ECU_i pairs against
    SPEC = |||_i SPEC_i, components in a seeded order. [edit] = (k, body)
    replaces ECU_k's definition."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    lines = [
        f"-- {n} interleaved VMG/ECU request-response pairs (seed {seed})",
        "channel " + ", ".join(f"req{i}, rsp{i}" for i in order) + " : {0..1}",
    ]
    for i in order:
        ecu = f"req{i}?x -> rsp{i}!x -> ECU{i}"
        if edit is not None and edit[0] == i:
            ecu = edit[1]
        lines += [
            f"ECU{i} = {ecu}",
            f"VMG{i} = req{i}!0 -> rsp{i}?y -> VMG{i}",
            f"SPEC{i} = req{i}?x -> rsp{i}!x -> SPEC{i}",
        ]
    lines.append("SYSTEM = " + " ||| ".join(f"(VMG{i} [| {{| req{i}, rsp{i} |}} |] ECU{i})" for i in order))
    lines.append("SPEC = " + " ||| ".join(f"SPEC{i}" for i in order))
    lines.append("assert SPEC [T= SYSTEM")
    return "\n".join(lines) + "\n"


def daemon_jobs(seed, n, count):
    """The edit stream: each job is the n-pair model with one seeded ECU_k
    rewritten. In every block of eight jobs one edit plants a bug (the
    response no longer echoes the request); the others rename the bound
    variable, which changes the script but not its meaning. Returns
    (script, holds) pairs."""
    rng = random.Random(seed * 7919 + 1)
    jobs = []
    while len(jobs) < count:
        bug_at = rng.randrange(8)
        for j in range(8):
            k = rng.randrange(n)
            if j == bug_at:
                body, holds = f"req{k}?x -> rsp{k}!((x+1)%2) -> ECU{k}", False
            else:
                v = f"v{len(jobs)}"
                body, holds = f"req{k}?{v} -> rsp{k}!{v} -> ECU{k}", True
            jobs.append((ecu_script(seed, n, (k, body)), holds))
    return jobs[:count]


def generate(workload, seed, size, work):
    """Write the workload's inputs into [work]; returns a dict of paths and
    facts the checks need. The programs only ever see these files."""
    sz = SIZES[size]
    inp = {}
    if workload == "ecu-interleave":
        inp["script"] = write(os.path.join(work, "ecu.csp"), ecu_script(seed, sz["ecu_n"]))
        inp["n"] = sz["ecu_n"]
    elif workload == "case-studies":
        for variant in ["fixed", "flawed"]:
            path = os.path.join(work, f"ns_{variant}.csp")
            r = run_proc(work, [tracer(), "ns", variant, path])
            if r.code != 0:
                raise Failure("perftrace ns failed: " + r.err)
            inp["ns_" + variant] = path
        lint = os.path.join("examples", "lint")
        for name in ["ota.dbc", "vmg.can", "ecu_fixed.can", "ecu_flawed.can", "ota_fixed.expected", "ota_flawed.expected"]:
            src = os.path.join(lint, name)
            if not os.path.exists(src):
                raise Failure(f"{src} not found")
            shutil.copyfile(src, os.path.join(work, name))
            inp[name] = os.path.join(work, name)
    elif workload == "fleet-tracecheck":
        corpus = os.path.join(work, "corpus.ndjson")
        r = run_proc(work, [exe("cspm_tracecheck"), "generate", "-o", corpus, "--streams", str(sz["corpus_streams"]),
                            "--seed", str(seed), "--flawed-rate", "0.25"])
        if r.code != 0:
            raise Failure("corpus generation failed: " + r.err)
        inp["corpus"] = corpus
        with open(corpus) as f:
            header = f.readline()
        inp["header"] = write(os.path.join(work, "header.ndjson"), header)
        inp["specs"] = os.path.join(HERE, "inputs", "fleet_specs.csp")
    elif workload == "daemon-recheck":
        inp["jobs"] = daemon_jobs(seed, sz["daemon_n"], sz["daemon_jobs"])
        inp["n"] = sz["daemon_n"]
    return inp


# ---------------------------------------------------------------------------
# Oracles: answers that do not come from the code under test


def auth_monitor(corpus):
    """A hand-written reference monitor for SPEC_AUTH over a can-trace/1
    corpus: a stream is rejected once the ECU transmits rptUpd (id 514) for
    a version no reqApp (id 258) has authorised with tag = (version+5)%8.
    Only transmitted frames are observations. Also returns, per stream,
    whether its meta line declared the flawed firmware, and the line count
    after the header."""
    granted, rejected, flawed = {}, set(), {}
    lines = 0
    with open(corpus) as f:
        f.readline()
        for raw in f:
            lines += 1
            o = json.loads(raw)
            s = o["s"]
            if "meta" in o:
                flawed[s] = o["meta"].get("flawed", False) is True
                continue
            granted.setdefault(s, set())
            if o["d"] != "tx" or s in rejected:
                continue
            data = o["data"] + [0, 0]
            if o["id"] == 258:
                version, tag = data[0] & 7, data[1] & 7
                if tag == (version + 5) % 8:
                    granted[s].add(version)
            elif o["id"] == 514 and (data[0] & 7) not in granted[s]:
                rejected.add(s)
    return {"streams": set(granted), "auth_rejected": rejected, "flawed": flawed, "lines": lines}


def check_report(a, expected):
    """Compare one cspm-check/1 assertion object with an expectation;
    returns what differs, or None."""
    if a.get("verdict") != expected["verdict"]:
        return f"verdict {a.get('verdict')} != {expected['verdict']}"
    if "impl_states" in expected and a["stats"]["impl_states"] != expected["impl_states"]:
        return f"impl_states {a['stats']['impl_states']} != {expected['impl_states']}"
    if "trace" in expected and a["counterexample"]["trace"] != expected["trace"]:
        return f"counterexample {a['counterexample']['trace']} != {expected['trace']}"
    return None


def one_assertion(r, code):
    """The single assertion object of a cspm_check --format json run."""
    if r.code != code:
        raise ValueError(f"exit {r.code} (expected {code}): {r.err.strip()[:300]}")
    doc = json.loads(r.out)
    if len(doc["assertions"]) != 1:
        raise ValueError("expected one assertion")
    return doc["assertions"][0]


# ---------------------------------------------------------------------------
# Passes. A pass is one run over the workload's check set; it returns
# (ops, wall_s, peak_rss_mb, outputs) and raises ValueError on a wrong
# answer.


def ecu_pass(work, inp, extra=()):
    r = run_proc(work, [exe("cspm_check"), "-j", "1", "--format", "json", *extra, inp["script"]])
    a = one_assertion(r, 0)
    err = check_report(a, {"verdict": "pass", "impl_states": 2 ** inp["n"]})
    if err:
        raise ValueError(err)
    return 1, r.wall_s, r.rss_mb, [a]


def case_pass(work, inp, extra=()):
    walls, rss, outputs = [], [], []

    def note(r):
        walls.append(r.wall_s)
        rss.append(r.rss_mb)

    r = run_proc(work, [exe("cspm_check"), "--format", "json", *extra, inp["ns_fixed"]])
    note(r)
    a = one_assertion(r, 0)
    if a["verdict"] != "pass":
        raise ValueError("NS fixed does not hold")
    outputs.append(a)
    r = run_proc(work, [exe("cspm_check"), "--format", "json", inp["ns_flawed"]])
    note(r)
    a = one_assertion(r, 1)
    err = check_report(a, {"verdict": "fail", "trace": LOWE_ATTACK})
    if err:
        raise ValueError("NS flawed: " + err)
    outputs.append(a)
    for variant, code in [("flawed", 4), ("fixed", 0)]:
        argv = [exe("capl2cspm"), "-d", inp["ota.dbc"], inp["vmg.can"], inp[f"ecu_{variant}.can"], "--lint", "--deny-warnings"]
        model = os.path.join(work, "ota_fixed.csp")
        if variant == "fixed":
            argv += ["-q", "-o", model]
        r = run_proc(work, argv)
        note(r)
        expected = read(inp[f"ota_{variant}.expected"])
        if r.code != code or r.err != expected:
            raise ValueError(f"capl2cspm {variant}: exit {r.code}, stderr differs from ota_{variant}.expected")
        outputs.append({"capl": variant, "stderr": r.err, "script": read(model) if variant == "fixed" else None})
    sp02 = write(os.path.join(work, "sp02.csp"), read(model) + SP02)
    r = run_proc(work, [exe("cspm_check"), "--format", "json", sp02])
    note(r)
    a = one_assertion(r, 0)
    if a["verdict"] != "pass":
        raise ValueError("SP02 does not hold")
    outputs.append(a)
    return 5, sum(walls), max(rss), outputs


def fleet_pass(work, inp, extra=(), oracle=None, samples=None):
    argv = [exe("cspm_tracecheck"), "check", inp["specs"], "--corpus", inp["corpus"], "-j", "2", "--format", "json", *extra]
    if samples:
        argv += ["--sample-limit", str(samples)]
    r = run_proc(work, argv)
    code = 1 if oracle["auth_rejected"] else 0
    if r.code != code:
        raise ValueError(f"cspm_tracecheck exit {r.code} (expected {code}): {r.err.strip()[:300]}")
    rep = json.loads(r.out)
    reqs = {q["spec"]: q for q in rep["requirements"]}
    nstreams = len(oracle["streams"])
    if rep["streams"] != nstreams or rep["malformed"] != 0:
        raise ValueError(f"streams {rep['streams']} != {nstreams} or malformed lines")
    if rep["entries"] + nstreams != oracle["lines"]:
        raise ValueError("entries do not add up to the corpus lines")
    for spec in ["SPEC_ORDER", "SPEC_WELLFORMED"]:
        if reqs[spec]["accepted"] != nstreams:
            raise ValueError(f"{spec} rejects a stream")
    auth = reqs["SPEC_AUTH"]
    if auth["rejected"] != len(oracle["auth_rejected"]) or auth["corrupt"] != 0:
        raise ValueError(f"SPEC_AUTH rejects {auth['rejected']} streams, the reference monitor {len(oracle['auth_rejected'])}")
    if samples:
        got = {s["stream"] for s in auth["rejections"]}
        if got != oracle["auth_rejected"]:
            raise ValueError("SPEC_AUTH rejects other streams than the reference monitor")
    if any(not oracle["flawed"][s] for s in oracle["auth_rejected"]):
        raise ValueError("a fixed-firmware stream is rejected")
    return oracle["lines"], r.wall_s, r.rss_mb, [rep]


class Daemon:
    """cspm_checkd --cache driven over stdio by one closed-loop client."""

    def __init__(self, work, extra=()):
        self.err = open(os.path.join(work, "daemon.stderr"), "wb")
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen([exe("cspm_checkd"), "--cache", *extra], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=self.err, text=True, bufsize=1)
        children.append(self.p)

    def send(self, obj):
        self.p.stdin.write(json.dumps(obj) + "\n")
        self.p.stdin.flush()

    def recv(self):
        line = self.p.stdout.readline()
        if not line:
            raise ValueError("daemon closed its output")
        return json.loads(line)

    def health(self):
        self.send({"op": "health"})
        while True:
            ev = self.recv()
            if ev.get("event") == "health":
                return ev

    def job(self, jid, script):
        """Submit one check job and wait for its result; returns the
        result event and the submit->accepted, accepted->started and
        started->result times."""
        t_submit = time.perf_counter()
        self.send({"op": "submit", "id": jid, "script": script})
        stamps = {}
        while True:
            ev = self.recv()
            kind = ev.get("event")
            if ev.get("id") != jid:
                continue
            stamps.setdefault(kind, time.perf_counter())
            if kind in ("result", "failed", "rejected"):
                break
        t_acc = stamps.get("accepted", t_submit)
        t_start = stamps.get("started", t_acc)
        return ev, t_acc - t_submit, t_start - t_acc, stamps[kind] - t_start, stamps[kind] - t_submit

    def close(self):
        """Drain and reap the daemon; returns its peak RSS in MB."""
        self.p.stdin.close()
        for _ in self.p.stdout:
            pass
        _, status, usage = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        children.remove(self.p)
        self.err.close()
        if self.p.returncode != 0:
            raise ValueError(f"cspm_checkd exit {self.p.returncode}")
        return usage.ru_maxrss / 1024.0


def daemon_lifetime(work, inp, extra=()):
    """One daemon lifetime: the job stream, in a closed loop. Returns the
    per-job timings, the cache stats, the daemon's peak RSS and the count
    of wrong answers."""
    d = Daemon(work, extra)
    try:
        d.health()
        jobs, wrong = [], 0
        for i, (script, holds) in enumerate(inp["jobs"]):
            ev, ingest, wait, run, latency = d.job(f"j{i}", script)
            ok = ev.get("event") == "result"
            if ok:
                a = ev["report"]["assertions"][0]
                want = {"verdict": "pass", "impl_states": 2 ** inp["n"]} if holds else {"verdict": "fail"}
                ok = check_report(a, want) is None
            wrong += 0 if ok else 1
            jobs.append((ingest, wait, run, latency))
        health = d.health()
    finally:
        rss = d.close()
    return jobs, health, rss, wrong


# ---------------------------------------------------------------------------
# Set-up: the time before the first unit of work


def setup_once(workload, work, inp):
    if workload == "ecu-interleave":
        scripts = [inp["script"]]
    elif workload == "case-studies":
        scripts = [inp["ns_fixed"], inp["ns_flawed"]]
    elif workload == "fleet-tracecheck":
        r = run_proc(work, [exe("cspm_tracecheck"), "check", inp["specs"], "--corpus", inp["header"], "-j", "2"])
        if r.code != 0:
            raise ValueError("header-only trace check failed: " + r.err)
        return r.wall_s
    else:
        d = Daemon(work)
        d.health()
        t = time.perf_counter() - d.t0
        d.close()
        return t
    total = 0.0
    for s in scripts:
        r = run_proc(work, [exe("cspm_check"), "--list", s])
        if r.code != 0 or not r.out.startswith("assert"):
            raise ValueError("cspm_check --list failed")
        total += r.wall_s
    return total


# ---------------------------------------------------------------------------
# Runs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, f, ops=1):
        """Run f; count ops operations, all failed if f raises ValueError."""
        self.attempted += ops
        try:
            return f()
        except ValueError as e:
            self.failed += ops
            log(f"WRONG: {e}")
            return None


def pass_fn(workload):
    return {"ecu-interleave": ecu_pass, "case-studies": case_pass, "fleet-tracecheck": fleet_pass}[workload]


class Setups:
    """The run's set-up samples, spread evenly over the run, a few before
    each pass. setup_s is the shortest of them, not their median: the
    daemon's set-up has two modes 20 ms apart (its first request may wait
    for the runner's next idle poll), and how often each occurs depends
    on the host's load (README.md)."""

    def __init__(self, workload, work, inp, tally, seconds):
        self.args = workload, work, inp
        self.tally, self.seconds = tally, seconds
        self.samples, self.t0 = [], time.perf_counter()

    def take(self):
        t = self.tally.attempt(lambda: setup_once(*self.args))
        if t is not None:
            self.samples.append(t)

    def catch_up(self):
        due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - self.t0) / self.seconds)
        while len(self.samples) < max(1, due):
            self.take()

    def value(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return min(self.samples)


def timed_passes(workload, work, inp, seconds, tally, extra=(), oracle=None, before=lambda: None):
    """Repeat passes until [seconds] have gone by; returns their results."""
    results, t0 = [], time.perf_counter()
    ops_per_pass = {"ecu-interleave": 1, "case-studies": 5, "fleet-tracecheck": oracle and oracle["lines"]}[workload]
    kwargs = {"oracle": oracle} if workload == "fleet-tracecheck" else {}
    while not results or time.perf_counter() - t0 < seconds:
        before()
        r = tally.attempt(lambda: pass_fn(workload)(work, inp, extra, **kwargs), ops_per_pass)
        if r is not None:
            results.append(r)
    return results


def end_to_end(workload, seconds, work, inp, tally):
    """The end-to-end metrics, plus throughput figures derived from them
    that are printed but not gated (they move with check_s)."""
    if workload == "daemon-recheck":
        setups = Setups(workload, work, inp, tally, seconds)
        lat, rss = [], []
        while not lat or time.perf_counter() - setups.t0 < seconds:
            setups.catch_up()
            jobs, _, peak, wrong = daemon_lifetime(work, inp)
            tally.attempted += len(jobs)
            tally.failed += wrong
            lat += [j[3] for j in jobs]
            rss.append(peak)
        extras = {"job_p50_s": median(lat), "job_p95_s": statistics.quantiles(lat, n=20)[-1], "jobs_per_s": len(lat) / sum(lat)}
        return {"setup_s": setups.value(), "check_s": median(lat), "peak_rss_mb": median(rss)}, extras
    oracle = fleet_oracle(tally, work, inp) if workload == "fleet-tracecheck" else None
    setups = Setups(workload, work, inp, tally, seconds)
    passes = timed_passes(workload, work, inp, seconds, tally, oracle=oracle, before=setups.catch_up)
    check_s = median([p[1] for p in passes])
    extras = {"entries_per_s": passes[0][0] / check_s} if workload == "fleet-tracecheck" else {}
    return {"setup_s": setups.value(), "check_s": check_s, "peak_rss_mb": median([p[2] for p in passes])}, extras


def fleet_oracle(tally, work, inp):
    """The reference monitor's verdicts, plus one untimed run of the checker
    that lists every rejected stream so each verdict can be compared."""
    oracle = auth_monitor(inp["corpus"])
    tally.attempt(lambda: fleet_pass(work, inp, oracle=oracle, samples=len(oracle["streams"]) + 1), 1)
    return oracle


# ---------------------------------------------------------------------------
# Traced run

# layer metric -> the spans whose self time (or allocation) it sums
SPAN_TIMES = {
    "csp.lts.spec_compile_s": ["csp.lts.spec_compile"],
    "csp.normalise_s": ["csp.normalise"],
    "csp.reduce.compile_staged_s": ["csp.reduce.compile_staged"],
    "csp.reduce.apply_s": ["csp.reduce.apply"],
    "csp.search_s": ["csp.search"],
    "csp.search.cex_s": ["csp.search.cex"],
    "csp.cache.lookup_s": ["csp.cache"],
    "cspm.parse_s": ["cspm.parse"],
    "cspm.elaborate_s": ["cspm.elaborate"],
    "capl.parse_s": ["capl.parse"],
    "extractor.extract_s": ["extractor.extract"],
    "analysis.dataflow_s": ["analysis.dataflow"],
    "serve.read_s": ["serve.read"],
    "serve.parse_s": ["serve.parse"],
    "extractor.trace_rv.map_s": ["extractor.trace_rv.map"],
    "csp.tracecheck.compile_s": ["csp.tracecheck.compile"],
    "csp.tracecheck.step_s": ["csp.tracecheck.step"],
}
SPAN_ALLOCS = {
    "cspm.alloc_mw": ["cspm.parse", "cspm.elaborate"],
    "serve.parse_alloc_mw": ["serve.parse"],
    "csp.lts.spec_compile.alloc_mw": ["csp.lts.spec_compile"],
    "csp.normalise.alloc_mw": ["csp.normalise"],
    "csp.reduce.alloc_mw": ["csp.reduce.compile_staged", "csp.reduce.apply"],
    "csp.search.alloc_mw": ["csp.search", "csp.search.cex"],
}


def perftrace(work, seconds, steps, cache=False):
    argv = [tracer(), "run", "--seconds", f"{seconds:.3f}"] + (["--cache"] if cache else []) + steps
    r = run_proc(work, argv)
    if r.code != 0:
        raise ValueError("perftrace: " + r.err.strip()[:300])
    return json.loads(r.out)


def layer_metrics(doc, per=1.0):
    """Median over traced passes of each span-derived metric, divided by
    [per] (the daemon reports per job)."""
    passes = doc["passes"]
    m = {}
    for name, spans in SPAN_TIMES.items():
        m[name] = median([sum(p["layers"].get(s, {}).get("self_s", 0.0) for s in spans) for p in passes]) / per
    for name, spans in SPAN_ALLOCS.items():
        m[name] = median([sum(p["layers"].get(s, {}).get("alloc_w", 0.0) for s in spans) for p in passes]) / per / 1e6
    m["bench.other_s"] = median([p["other_s"] for p in passes]) / per
    m["bench.layer_coverage"] = median([1.0 - p["other_s"] / p["wall_s"] for p in passes])
    m["traced_wall_s"] = median([p["wall_s"] for p in passes]) / per
    return m


def check_counts(traced, binary):
    """The traced run must reproduce the binary's verdict and counts."""
    if traced["verdict"] != binary["verdict"]:
        raise ValueError(f"traced verdict {traced['verdict']} != {binary['verdict']}")
    if binary["verdict"] == "pass":
        for k in ["impl_states", "spec_nodes", "pairs", "reductions"]:
            if traced["stats"][k] != binary["stats"][k]:
                raise ValueError(f"traced {k} {traced['stats'][k]} != {binary['stats'][k]}")
    elif traced["trace"] != binary["counterexample"]["trace"]:
        raise ValueError("traced counterexample differs")


def count_metrics(assertions, per_check=False):
    """Count metrics summed over the checks of a pass that hold (a failing
    check reports a counterexample instead of counts); [per_check] gives
    their mean instead."""
    held = [a["stats"] for a in assertions if a["verdict"] == "pass"]
    nodes = sum(s["spec_nodes"] for s in held)
    pairs = sum(s["pairs"] for s in held)
    per = len(held) if per_check and held else 1
    return {
        "csp.normalise.nodes": nodes / per,
        "csp.normalise.nodes_per_pair": nodes / pairs if pairs else 0.0,
        "csp.reduce.impl_states": sum(s["reductions"][0]["states_before"] for s in held if s["reductions"]) / per,
        "csp.reduce.states_after": sum(s["reductions"][-1]["states_after"] for s in held if s["reductions"]) / per,
        "csp.search.pairs": pairs / per,
    }


def paired_ratio(run_plain, run_traced, seconds):
    """Alternate plain and --trace-out runs for [seconds]; the ratio of
    their median times. A run returns its time, or None if it went
    wrong."""
    plain, traced, t0 = [], [], time.perf_counter()
    while not plain or not traced or time.perf_counter() - t0 < seconds:
        for runs, f in [(plain, run_plain), (traced, run_traced)]:
            t = f()
            if t is not None:
                runs.append(t)
    return median(traced) / median(plain), median(plain)


def traced(workload, seconds, size, work, inp, tally):
    m = dict.fromkeys(metric_units("per_layer"), 0.0)
    trace_out = ["--trace-out", os.path.join(work, "trace.jsonl")]
    if workload == "daemon-recheck":
        jobs, health, _, wrong = daemon_lifetime(work, inp)
        tally.attempted += len(jobs)
        tally.failed += wrong
        jobs_out, _, _, wrong = daemon_lifetime(work, inp, trace_out)
        tally.attempted += len(jobs_out)
        tally.failed += wrong
        job_s = median([j[3] for j in jobs])
        m["obs.trace_out_ratio"] = median([j[3] for j in jobs_out]) / job_s
        m["serve.ingest_s"] = median([j[0] for j in jobs])
        m["serve.queue_wait_s"] = median([j[1] for j in jobs])
        m["serve.job_run_s"] = median([j[2] for j in jobs])
        m["serve.jobs_failed"] = health["failed"]
        cache = health["cache"]
        m["csp.cache.hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
        m["csp.cache.evictions"] = cache["evictions"]
        # the traced run re-checks the first jobs of the stream in-process,
        # sharing one cache as the daemon does
        n = SIZES[size]["trace_jobs"]
        steps = [write(os.path.join(work, f"job{i}.csp"), s) for i, (s, _) in enumerate(inp["jobs"][:n])]
        doc = tally.attempt(lambda: perftrace(work, seconds / 3, [f"check={p}" for p in steps], cache=True), n)
        if doc is not None:
            for res, (_, holds) in zip(doc["results"], inp["jobs"][:n]):
                a = res["assertions"][0]
                want = {"verdict": "pass", "impl_states": 2 ** inp["n"]} if holds else {"verdict": "fail"}
                if a["verdict"] != want["verdict"] or (holds and a["stats"]["impl_states"] != want["impl_states"]):
                    tally.failed += 1
                    log("WRONG: traced job verdict")
            m.update(layer_metrics(doc, per=n))
            m.update(count_metrics([r["assertions"][0] for r in doc["results"]], per_check=True))
            m["bench.trace_overhead_ratio"] = m.pop("traced_wall_s") / job_s
        return m

    oracle = fleet_oracle(tally, work, inp) if workload == "fleet-tracecheck" else None
    kwargs = {"oracle": oracle} if workload == "fleet-tracecheck" else {}
    run = pass_fn(workload)
    reference = []

    def plain():
        r = tally.attempt(lambda: run(work, inp, (), **kwargs))
        if r is not None:
            reference.append(r)
            return r[1]
        return None

    def with_trace_out():
        r = tally.attempt(lambda: run(work, inp, trace_out, **kwargs))
        return r and r[1]

    if workload == "case-studies":
        # obs.trace_out_ratio is taken on the NS fixed check alone
        def ns(extra):
            r = run_proc(work, [exe("cspm_check"), "--format", "json", *extra, inp["ns_fixed"]])
            return r.wall_s if one_assertion(r, 0)["verdict"] == "pass" else None

        ratio, _ = paired_ratio(lambda: tally.attempt(lambda: ns(())), lambda: tally.attempt(lambda: ns(trace_out)), seconds / 6)
        t0 = time.perf_counter()
        while not reference or time.perf_counter() - t0 < seconds / 4:
            plain()
        plain_wall = median([r[1] for r in reference])
    else:
        ratio, plain_wall = paired_ratio(plain, with_trace_out, seconds / 2)
    m["obs.trace_out_ratio"] = ratio
    if not reference:
        return m
    outputs = reference[0][3]
    if workload == "ecu-interleave":
        steps = [f"check={inp['script']}"]
    elif workload == "case-studies":
        steps = [
            f"check={inp['ns_fixed']}",
            f"check={inp['ns_flawed']}",
            f"capl={inp['ota.dbc']},{inp['vmg.can']},{inp['ecu_flawed.can']}",
            f"capl={inp['ota.dbc']},{inp['vmg.can']},{inp['ecu_fixed.can']}",
            f"check={os.path.join(work, 'sp02.csp')}",
        ]
    else:
        steps = [f"corpus={inp['specs']},{inp['corpus']}"]
    doc = tally.attempt(lambda: perftrace(work, seconds / 2, steps), 1)
    if doc is None:
        return m

    def compare():
        assertions = []
        for res, out in zip(doc["results"], outputs):
            if res["step"] == "check":
                check_counts(res["assertions"][0], out)
                assertions.append(res["assertions"][0])
            elif res["step"] == "capl":
                if out["capl"] == "flawed":
                    if res["diagnostics"] + "extraction aborted: blocking diagnostics\n" != out["stderr"]:
                        raise ValueError("traced CAPL diagnostics differ")
                elif res["script"] != out["script"]:
                    raise ValueError("traced CAPL extraction differs")
            else:
                for k in ["streams", "entries", "events", "skipped", "faults", "malformed"]:
                    if res[k] != out[k]:
                        raise ValueError(f"traced corpus {k} {res[k]} != {out[k]}")
                got = {q["spec"]: (q["accepted"], q["rejected"], q["corrupt"]) for q in res["requirements"]}
                want = {q["spec"]: (q["accepted"], q["rejected"], q["corrupt"]) for q in out["requirements"]}
                if got != want:
                    raise ValueError("traced per-spec stream counts differ")
                if set(res["auth_rejected"]) != oracle["auth_rejected"]:
                    raise ValueError("traced SPEC_AUTH verdicts differ from the reference monitor")
                m["serve.malformed"] = res["malformed"]
                m["tracecheck.useful_ratio"] = res["events"] / res["entries"]
        return assertions

    assertions = tally.attempt(compare, 1)
    m.update(layer_metrics(doc))
    if assertions:
        m.update(count_metrics(assertions))
    m["bench.trace_overhead_ratio"] = m.pop("traced_wall_s") / plain_wall
    return m


# ---------------------------------------------------------------------------


def provenance(args):
    def cmd(argv):
        try:
            return subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout.strip() or "unknown"
        except OSError:
            return "unknown"

    cpu = "unknown"
    try:
        for line in read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]) if shutil.which("ocamlfind") else cmd(["ocamlopt", "-version"]),
        "commit": cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "small" if args.small else "full",
    }


def run_all(args):
    """Run every workload in turn, each in its own process with the same
    arguments; their output lines are prefixed with the workload's name,
    and the last line maps each workload to its result."""
    results, code = {}, 0
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--small"] if args.small else [])
        r = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{w}: {line}")
        if r.returncode != 0 or not lines:
            code = r.returncode or 1
            continue
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def on_alarm(signum, frame):
    raise Failure("time limit reached")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"], help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true", help="reduced input sizes (for the self-test)")
    ap.add_argument("--keep", metavar="DIR", help="write the generated inputs to DIR and exit")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    size = "small" if args.small else "full"
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    signal.signal(signal.SIGALRM, on_alarm)
    try:
        build()
        # the first run in a checkout may spend long on the build; what
        # follows must end within three minutes
        signal.alarm(170)
        os.makedirs(work)
        inp = generate(args.workload, args.seed, size, work)
        if args.keep:
            os.makedirs(args.keep, exist_ok=True)
            for name in sorted(os.listdir(work)):
                if name not in ("stdout", "stderr"):
                    shutil.copyfile(os.path.join(work, name), os.path.join(args.keep, name))
            if args.workload == "daemon-recheck":
                write(os.path.join(args.keep, "jobs.json"), json.dumps(inp["jobs"]))
            return 0
        tally = Tally()
        if args.trace:
            units = metric_units("per_layer")
            values, extras = traced(args.workload, args.seconds, size, work, inp, tally), {}
        else:
            units = metric_units("end_to_end")
            values, extras = end_to_end(args.workload, args.seconds, work, inp, tally)
    except Failure as e:
        stop_children()
        log(f"perfbench: {e}")
        return 2
    finally:
        signal.alarm(0)
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({"provenance": provenance(args)}))
    error_rate = tally.failed / max(1, tally.attempted)
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    for name, value in extras.items():
        print(f"{name} {value:.6g} {UNGATED[name]}")
    print(f"error_rate {error_rate:.6g} ratio ({tally.failed} of {tally.attempted} operations wrong)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
