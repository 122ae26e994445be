#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer costs of the ebrc CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds `ebrc` and the probe
(perfbench/probe) from source into .bench_build, and the reference
kernel (perfbench/calib) with plain ocamlopt beside them, then measures
from outside: every repetition runs in fresh processes under a fresh
temp root (.bench_tmp/, removed at exit) with no EBRC_* variable set,
and its outputs are checked.

Workloads
  figures   `ebrc figure all -j 1` (quick mode), cold caches, one process
            per repetition. Fixed registry inputs; the seed is unused.
            Tables are checked against reference/figures.json: the MD5
            of each CSV table, i.e. the id and tables fields that
            `probe figures` prints.
  dumbbell  ns-2 baseline (Scenario.default_config, 300 s) plus its
            DropTail-100 twin over 5 consecutive seeds from --seed,
            primed with `ebrc serve M --workers 0` and drained by one
            `ebrc worker`.
  fleet     64 demo tasks (`ebrc manifest --tasks 64 --duration 10`),
            served cold with `ebrc serve --workers 2`, then re-served warm.
  BENCHMARK.json lists figures and fleet; dumbbell runs by hand only.
  On a host whose speed drifts over tens of seconds, three workloads
  do not fit the time budget at a run length that keeps them steady.
  For dumbbell and fleet every store record is byte-compared with the
  same config run in-process by the probe.

--trace 0 prints the end-to-end metrics (median over the repetitions
that fit in --seconds, but see Host speed): wall_s, cpu_s (user+sys
of every process), peak_rss_mb (largest RSS of any process), setup_s
(figures: process start-up, sampled before every repetition;
dumbbell/fleet: manifest write + queue priming).

Host speed. The host is shared, and its speed for this GC- and
memory-heavy code drifts by up to 50 % over minutes, which is more
than the 0.25 bound. So a run of the reference kernel (perfbench/calib)
precedes every repetition, and CPU-bound times are divided by the host
factor (k / CAL_REF_S) ** CAL_ELASTICITY, k the median kernel CPU time
of the run: wall_s and cpu_s of the one-process workloads (figures,
dumbbell), which run pinned with the kernel to one CPU, and cpu_s of
fleet. The kernel reacts to the host about twice as strongly as
`figure all` does (log-log slope 0.35-0.7 between the two over windows
of one to ten minutes on the 2-vCPU host), hence the square root.
Fleet's wall_s waits on polls more than on the CPU and is left raw, as
the mean over the repetitions: serve's 0.25 s watch poll and the
workers' 0.2 s rescan meet in one of two phases, so a cold serve takes
one of two times ~0.1 s apart, and a median would jump between them as
the mix shifts. The raw medians and means and the factor are printed
beside the reported values.

--trace 1 repeats, for the length of the window, a pair of one
untraced repetition with OCAMLRUNPARAM=v=0x400 (GC totals) and one
with --telemetry / worker streams, and measures per-call costs of
public layer functions with the probe. Counts come from the first pair
(they repeat exactly), times are medians over the pairs. Each layer's
self time is its traced count times its per-call cost;
layers.residual_pct is the share of the untraced wall those self
times leave unexplained.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("figures", "dumbbell", "fleet")
DUMBBELL_PAIRS = 5  # tasks per repetition = 2 x pairs
FLEET_TASKS = 64
FLEET_WORKERS = 2
STARTUP_SAMPLES = 3  # per figures repetition
MIN_REPS = 3
CAL_ROUNDS = 3  # one run of the reference kernel: ~0.45 s
CAL_CHECKSUM = "600000 512"
CAL_REF_S = 0.45  # its CPU time on a quiet 2-vCPU Xeon host
CAL_ELASTICITY = 0.5
RUN_BUDGET_S = 170.0  # every run must end within 180 s

# Every metric the benchmark reports: unit and one-line meaning.
METRICS = {
    # end to end, tracing off, median over the repetitions of a run
    "wall_s": ("s", "wall seconds of one repetition, what the user waits for (figures, dumbbell: / host factor; fleet: mean)"),
    "cpu_s": ("s", "user+sys seconds of every process in a repetition / host factor"),
    "peak_rss_mb": ("MB", "largest resident set of any process in a repetition"),
    "setup_s": ("s", "preparation before timing: CLI start-up (figures), manifest write + queue priming"),
    # event core (lib/sim)
    "sim.events_fired": ("count", "events dispatched by every engine"),
    "sim.queue_depth": ("count", "peak pending events; sim.dispatch_ns is measured at this depth"),
    "sim.discard_ratio": ("ratio", "cancelled events discarded / events scheduled"),
    "sim.ns_per_event": ("ns", "untraced wall / events fired"),
    "sim.dispatch_ns": ("ns", "Engine.schedule_after_unit + Engine.run, per event"),
    "wheel.overflow_ratio": ("ratio", "events pushed to the overflow heap / events scheduled"),
    # link and queue (lib/net)
    "queue.enqueues": ("count", "packets admitted by queue disciplines"),
    "queue.drops": ("count", "packets dropped by queue disciplines"),
    "link.delivered": ("count", "packets delivered by links"),
    "net.offer_ns": ("ns", "Queue_discipline.offer (+ departure), mean of RED and DropTail"),
    "fault.injected": ("count", "sum of the fault.* counters"),
    "fluid.steps": ("count", "fluid background ODE steps"),
    # control loop (lib/tfrc, lib/tcp, lib/estimator, lib/formulas)
    "tfrc.feedbacks": ("count", "TFRC feedback reports processed"),
    "tfrc.rate_changes": ("count", "TFRC send-rate updates"),
    "tfrc.wali_updates": ("count", "WALI loss-interval estimator updates"),
    "tcp.timeouts": ("count", "TCP retransmit timeouts"),
    "estimator.update_ns": ("ns", "Loss_interval.record + Loss_interval.estimate"),
    "formula.eval_ns": ("ns", "Formula.eval, PFTK-standard"),
    # analytic engines and experiments (lib/control.., lib/exp)
    "figures.analytic_s": ("s", "figure spans of runners that fire no events"),
    "figures.packet_s": ("s", "figure spans (served: task busy time) of runs that simulate packets"),
    "cache.misses": ("count", "scenario result-cache misses, i.e. full scenario runs"),
    "store.resume_s": ("s", "warm re-serve (dumbbell, fleet); warm in-process regeneration (figures)"),
    "store.load_ms": ("ms", "Result_cache.load_from per record: the read path of store.resume_s"),
    # fleet (lib/serve); figures count as one worker whose tasks are figure ids
    "fleet.spawn_s": ("s", "process start to the first lease"),
    "fleet.busy_s": ("s", "sum over tasks of lease to done"),
    "fleet.lease_gap_s": ("s", "sum over workers of done to the next lease"),
    "fleet.drain_s": ("s", "last done to process exit"),
    "fleet.unaccounted_s": ("s", "wall - (spawn + busy / workers + drain)"),
    "fleet.utilization": ("ratio", "busy / (workers x wall)"),
    "fleet.retries": ("count", "tasks leased again or failed"),
    "fleet.compute_s": ("s", "the same ops run serially in-process by the probe"),
    "fleet.publish_ms": ("ms", "Result_cache.store_to per record"),
    "fleet.claim_ms": ("ms", "Task_queue.claim + Task_queue.complete per task"),
    # OCaml runtime (OCAMLRUNPARAM=v=0x400, untraced, every process)
    "gc.minor_words": ("words", "minor-heap words allocated"),
    "gc.minor_words_per_event": ("words", "minor words / events fired"),
    "gc.major_collections": ("count", "major collections"),
    "gc.top_heap_mb": ("MB", "largest major heap of any process"),
    # telemetry and the cost model
    "telemetry.overhead_pct": ("%", "traced / untraced wall - 1"),
    "layers.residual_pct": ("%", "untraced wall not explained by spawn, drain and count x per-call cost"),
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
STARTED = time.monotonic()  # reset once the build is done


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ #
# Processes                                                          #
# ------------------------------------------------------------------ #


def child_env(gc=False):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EBRC_") and k != "OCAMLRUNPARAM"}
    env["TMPDIR"] = TMP
    if gc:
        env["OCAMLRUNPARAM"] = "v=0x400"
    return env


class Proc:
    """One finished process: wall from spawn to reap, rusage of it and
    of every descendant it reaped (serve reaps its workers)."""

    def __init__(self, argv, out, err, env=None, cwd=None):
        budget = RUN_BUDGET_S - (time.monotonic() - STARTED)
        if budget <= 0:
            raise RuntimeError("run budget exhausted")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            self.start = time.time()
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                                 env=env or child_env(), cwd=cwd or ROOT,
                                 start_new_session=True)
            timer = threading.Timer(budget, lambda: os.killpg(p.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                os.killpg(p.pid, signal.SIGKILL)
                os.wait4(p.pid, 0)
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - t0
            self.end = self.start + self.wall
            p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.out, self.err = out, err


def run(argv, tag, **kw):
    return Proc(argv, os.path.join(TMP, tag + ".out"), os.path.join(TMP, tag + ".err"), **kw)


def probe_json(args, tag):
    p = run([PROBE] + args, tag)
    if p.rc != 0:
        raise RuntimeError("probe %s failed: %s" % (args[0], open(p.err).read()[-2000:]))
    with open(p.out) as f:
        return json.loads(f.read().strip().splitlines()[-1])


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # the compiler's temporary files go to TMPDIR: keep them in the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=TMP)
    targets = ["./bin/ebrc_cli.exe", "./perfbench/probe/probe.exe"]
    r = subprocess.run(["dune", "build", "--root", ".", "--build-dir", build_dir,
                        "--profile", "release"] + targets,
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    # the reference kernel is built apart, so no build flag of the repo reaches it
    cal_dir = os.path.join(ROOT, build_dir, "calib")
    os.makedirs(cal_dir, exist_ok=True)
    shutil.copy(os.path.join(HERE, "calib", "calib.ml"), cal_dir)
    r = subprocess.run(["ocamlopt", "-o", "calib.exe", "calib.ml"], cwd=cal_dir, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build of the reference kernel failed")
    base = os.path.join(ROOT, build_dir, "default")
    return (os.path.join(base, "bin", "ebrc_cli.exe"),
            os.path.join(base, "perfbench", "probe", "probe.exe"),
            os.path.join(cal_dir, "calib.exe"))


# ------------------------------------------------------------------ #
# Readers                                                            #
# ------------------------------------------------------------------ #


def md5(path):
    with open(path, "rb") as f:
        return hashlib.md5(f.read()).hexdigest()


def gc_totals(*paths):
    """Sum the OCAMLRUNPARAM=v=0x400 exit reports of every process."""
    tot = {"minor_words": 0.0, "major_collections": 0.0, "top_heap_words": 0.0}
    for path in paths:
        with open(path, errors="replace") as f:
            for line in f:
                m = re.match(r"^(minor_words|major_collections|top_heap_words): (\d+)", line)
                if not m:
                    continue
                k, v = m.group(1), float(m.group(2))
                tot[k] = max(tot[k], v) if k == "top_heap_words" else tot[k] + v
    return tot


def read_telemetry(path):
    """Counters, gauges and spans of an `--telemetry FILE` JSONL dump."""
    counters, gauges, spans = {}, {}, []
    with open(path) as f:
        for line in f:
            d = json.loads(line)
            t = d.get("type")
            if t == "counter":
                counters[d["name"]] = d["count"]
            elif t == "gauge":
                gauges[d["name"]] = d
            elif t == "span":
                spans.append(d)
    return counters, gauges, spans


def read_streams(paths):
    """Summed counter deltas and per-worker task records of worker
    stream files (deltas of a run add up to its final totals)."""
    counters, workers = {}, []
    for path in paths:
        tasks = []
        with open(path) as f:
            for line in f:
                try:
                    d = json.loads(line)
                except ValueError:
                    continue  # torn tail of a killed worker
                t = d.get("type")
                if t in ("delta", "run_end"):
                    for k, v in d.get("counters", {}).items():
                        counters[k] = counters.get(k, 0) + v
                elif t == "task":
                    tasks.append((d["phase"], d["id"], d["t_wall"]))
        workers.append(tasks)
    return counters, workers


def decompose(start, end, workers):
    """Fleet layers from task records: spawn (start to first lease),
    busy (sum of lease-to-done), lease gaps (done to next lease on the
    same worker), drain (last done to exit)."""
    leased = [t for w in workers for (ph, _, t) in w if ph == "leased"]
    done = [t for w in workers for (ph, _, t) in w if ph == "done"]
    busy = gaps = 0.0
    retries = 0
    for w in workers:
        cur, last_done, seen = None, None, set()
        for ph, key, t in w:
            if ph == "leased":
                if key in seen:
                    retries += 1
                seen.add(key)
                if last_done is not None:
                    gaps += t - last_done
                cur = t
            elif ph == "done" and cur is not None:
                busy += t - cur
                last_done, cur = t, None
    retries += sum(1 for w in workers for (ph, _, _) in w if ph not in ("leased", "done"))
    spawn = (min(leased) - start) if leased else 0.0
    drain = (end - max(done)) if done else 0.0
    return {"spawn": spawn, "busy": busy, "gaps": gaps, "drain": drain, "retries": retries}


# ------------------------------------------------------------------ #
# Workloads: one repetition each                                     #
# ------------------------------------------------------------------ #


def figures_reference():
    with open(os.path.join(HERE, "reference", "figures.json")) as f:
        return json.load(f)["figures"]


def check_figures(csv_dir, rc):
    """Failed figure ids: tables missing or differing from the reference."""
    ref = figures_reference()
    if rc != 0:
        return len(ref), len(ref)
    files = sorted((f for f in os.listdir(csv_dir) if f.endswith(".csv")),
                   key=lambda f: int(re.sub(r"\D", "", f)))
    got = [md5(os.path.join(csv_dir, f)) for f in files]
    failed, i = 0, 0
    for fig in ref:
        n = len(fig["tables"])
        if got[i:i + n] != fig["tables"]:
            failed += 1
        i += n
    if len(got) != i:
        failed = max(failed, 1)
    return len(ref), failed


def figures_rep(tag, gc=False, telemetry=None):
    d = os.path.join(TMP, tag)
    os.makedirs(d)
    argv = [EBRC, "figure", "all", "-j", "1", "--csv", d]
    if telemetry:
        argv += ["--telemetry", telemetry]
    p = run(argv, tag, env=child_env(gc))
    ops, failed = check_figures(d, p.rc)
    shutil.rmtree(d)
    return {"proc": p, "wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
            "ops": ops, "failed": failed}


def startup_s(tag):
    """Process start-up of the CLI: median of several `ebrc --version`."""
    walls = []
    for i in range(STARTUP_SAMPLES):
        p = run([EBRC, "--version"], "%s-startup-%d" % (tag, i))
        if p.rc != 0:
            raise RuntimeError("ebrc --version failed")
        walls.append(p.wall)
    return statistics.median(walls)


def calib_s(tag):
    """CPU seconds of one run of the reference kernel."""
    p = run([CALIB, str(CAL_ROUNDS)], tag)
    with open(p.out) as f:
        if p.rc != 0 or f.read().strip() != CAL_CHECKSUM:
            raise RuntimeError("reference kernel failed or gave a wrong checksum")
    return p.cpu


def check_store(store, ref_dir, digests):
    bad = 0
    for dg in digests:
        a, b = os.path.join(store, dg + ".json"), os.path.join(ref_dir, dg + ".json")
        if not os.path.exists(a) or md5(a) != md5(b):
            bad += 1
    return bad


def prime(tag, write_manifest):
    """Setup of a served workload: write the manifest, prime the queue."""
    d = os.path.join(TMP, tag)
    os.makedirs(d)
    m = os.path.join(d, "m.json")
    t0 = time.perf_counter()
    w = write_manifest(m, tag)
    s = run([EBRC, "serve", m, "--workers", "0", "-q"], tag + "-prime")
    setup = time.perf_counter() - t0
    if w.rc != 0 or s.rc != 0:
        raise RuntimeError("setup failed for %s" % tag)
    return d, m, m + ".queue", setup


def dumbbell_manifest(seed):
    def write(m, tag):
        return run([PROBE, "dumbbell-manifest", "--seed", str(seed), "--pairs",
                    str(DUMBBELL_PAIRS), "--out", m], tag + "-manifest")
    return write


def fleet_manifest(seed):
    def write(m, tag):
        return run([EBRC, "manifest", m, "--tasks", str(FLEET_TASKS), "--duration", "10",
                    "--seed0", str(seed)], tag + "-manifest")
    return write


def worker_rep(tag, ref, write_manifest, gc=False, traced=False):
    """Prime a queue and drain it with one `ebrc worker`."""
    d, m, q, setup = prime(tag, write_manifest)
    argv = [EBRC, "worker", q]
    if traced:
        os.makedirs(os.path.join(q, "streams"), exist_ok=True)
        argv += ["--telemetry", os.path.join(d, "tel.jsonl"),
                 "--stream", os.path.join(q, "streams", "worker.jsonl"),
                 "--stream-period", "0", "--stream-wall", "0"]
    p = run(argv, tag, env=child_env(gc))
    bad = check_store(os.path.join(q, "store"), ref["dir"], ref["digests"])
    ops = len(ref["digests"])
    return {"proc": p, "dir": d, "manifest": m, "queue": q, "wall_s": p.wall,
            "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb, "setup_s": setup,
            "ops": ops, "failed": ops if p.rc != 0 else bad}


def fleet_rep(tag, ref, gc=False):
    d, m, q, setup = prime(tag, fleet_manifest(ARGS.seed))
    cold = run([EBRC, "serve", m, "--workers", str(FLEET_WORKERS), "-q"], tag + "-cold",
               env=child_env(gc))
    bad = check_store(os.path.join(q, "store"), ref["dir"], ref["digests"])
    warm = run([EBRC, "serve", m, "--workers", str(FLEET_WORKERS), "-q"], tag + "-warm")
    bad = max(bad, check_store(os.path.join(q, "store"), ref["dir"], ref["digests"]))
    ops = len(ref["digests"])
    return {"proc": cold, "warm": warm, "dir": d, "queue": q,
            "wall_s": cold.wall + warm.wall, "cpu_s": cold.cpu + warm.cpu,
            "peak_rss_mb": max(cold.rss_mb, warm.rss_mb), "setup_s": setup,
            "ops": ops, "failed": ops if (cold.rc != 0 or warm.rc != 0) else bad}


def reference(seed, workload):
    """Replay the workload's manifest serially in-process: the
    byte-identity reference for the fleet's store, plus compute time."""
    d = os.path.join(TMP, "ref")
    os.makedirs(d)
    m = os.path.join(d, "m.json")
    w = (dumbbell_manifest if workload == "dumbbell" else fleet_manifest)(seed)(m, "ref")
    if w.rc != 0:
        raise RuntimeError("manifest write failed")
    store = os.path.join(d, "store")
    rows = probe_json(["replay", "--manifest", m, "--ref", store], "replay")["tasks"]
    return {"dir": store, "manifest": m, "digests": sorted({r["digest"] for r in rows}),
            "compute_s": sum(r["compute_s"] for r in rows)}


# ------------------------------------------------------------------ #
# Measurement                                                        #
# ------------------------------------------------------------------ #


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def concurrent_slowdown():
    """Wall of a short CPU-bound run when two run at once, over alone."""
    argv = [EBRC, "figure", "3", "-j", "1"]
    solo = statistics.median(run(argv, "solo-%d" % i).wall for i in range(3))
    pair = []
    for i in range(3):
        t0 = time.perf_counter()
        ps = [subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                               env=child_env()) for _ in range(2)]
        for p in ps:
            p.wait()
        pair.append(time.perf_counter() - t0)
    return statistics.median(pair) / solo


def source_id():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(p[len(ROOT):].encode())
                h.update(open(p, "rb").read())
    return "src-sha256:" + h.hexdigest()[:16]


def context():
    ocaml = subprocess.run(["ocamlopt", "-version"], capture_output=True,
                           text=True).stdout.strip() if shutil.which("ocamlopt") else "?"
    return {"source": source_id(), "ocaml": ocaml, "nproc": os.cpu_count(),
            "concurrent_slowdown": round(concurrent_slowdown(), 3)}


def timed_reps(rep, seconds):
    """Repetitions until the next one would end past the window."""
    reps, took = [], []
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - t0 + statistics.median(took) <= seconds:
        t = time.monotonic()
        reps.append(rep("rep-%d" % len(reps)))
        took.append(time.monotonic() - t)
        if "dir" in reps[-1]:
            shutil.rmtree(reps[-1]["dir"])
    return reps


def end_to_end():
    if ARGS.workload == "figures":
        def rep(tag):
            setup = startup_s(tag)
            return dict(figures_rep(tag), setup_s=setup)
    else:
        ref = reference(ARGS.seed, ARGS.workload)
        if ARGS.workload == "dumbbell":
            rep = lambda tag: worker_rep(tag, ref, dumbbell_manifest(ARGS.seed))
        else:
            rep = lambda tag: fleet_rep(tag, ref)
    one_process = ARGS.workload != "fleet"
    if one_process:
        # pin it and the kernel to one CPU, so the kernel samples the
        # contention of the CPU the workload runs on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def calibrated(tag):
        cal = calib_s(tag + "-calib")
        return dict(rep(tag), calib_s=cal)

    reps = timed_reps(calibrated, ARGS.seconds)
    cal = summary([r["calib_s"] for r in reps])
    factor = (cal["median"] / CAL_REF_S) ** CAL_ELASTICITY
    scaled = ("wall_s", "cpu_s") if one_process else ("cpu_s",)
    lines = ["host factor    %12.6f     (%.6f s / %.3f s) ** %.2f; reference kernel"
             " q1 %.6f  q3 %.6f  n=%d; divides %s"
             % (factor, cal["median"], CAL_REF_S, CAL_ELASTICITY, cal["q1"], cal["q3"],
                cal["n"], " ".join(scaled))]
    metrics = {}
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        unit, meaning = METRICS[name]
        values = [r[name] for r in reps]
        s = summary(values)
        # serve's wall is bimodal (the 0.2 s worker and 0.25 s serve polls
        # meet in one of two phases): the mean moves smoothly with the mix
        v = statistics.mean(values) if name == "wall_s" and not one_process else s["median"]
        if name in scaled:
            v /= factor
        metrics[name] = {"value": v, "unit": unit}
        lines.append("%-14s %12.6f %-3s  raw: median %.6f  mean %.6f  q1 %.6f  q3 %.6f  n=%d  %s"
                     % (name, v, unit, s["median"], statistics.mean(values), s["q1"], s["q3"],
                        s["n"], meaning))
    lines.append("wall_s by repetition: " + " ".join("%.4f" % r["wall_s"] for r in reps))
    lines.append("reference kernel by repetition: "
                 + " ".join("%.4f" % r["calib_s"] for r in reps))
    return reps, metrics, lines


# ------------------------------------------------------------------ #
# Traced run: per-layer metrics                                      #
# ------------------------------------------------------------------ #


def figure_tasks(spans, fires):
    """Figure spans as one worker's task records, and the span time of
    runners that fire no events (analytic) and that do (packet)."""
    analytic = packet = 0.0
    tasks = []
    for s in sorted((s for s in spans if s["name"].startswith("figure:")),
                    key=lambda s: s["begin_s"]):
        fid = s["name"][len("figure:"):]
        if fires.get(fid):
            packet += s["dur_s"]
        else:
            analytic += s["dur_s"]
        tasks += [("leased", fid, s["begin_s"]), ("done", fid, s["begin_s"] + s["dur_s"])]
    return tasks, analytic, packet


def trace_figures():
    counted = probe_json(["figures", "--count"], "figures-count")
    timed = probe_json(["figures", "--warm"], "figures-time")
    fires = {f["id"]: f["events"] > 0 for f in counted["figures"]}

    def sample(tag):
        untraced = figures_rep(tag + "-untraced", gc=True)
        tel = os.path.join(TMP, tag + "-tel.jsonl")
        traced = figures_rep(tag + "-traced", telemetry=tel)
        counters, gauges, spans = read_telemetry(tel)
        os.remove(tel)
        tasks, analytic, packet = figure_tasks(spans, fires)
        # the process the figure spans were recorded in, as one worker
        return {"reps": [untraced, traced], "counters": counters, "gauges": gauges,
                "gc": gc_totals(untraced["proc"].err), "wall_u": untraced["proc"].wall,
                "wall_d": traced["proc"].wall,
                "fleet": decompose(traced["proc"].start, traced["proc"].end, [tasks]),
                "traced": traced["proc"].wall, "plain": untraced["proc"].wall,
                "analytic_s": analytic, "packet_s": packet, "resume_s": timed["warm_s"]}

    return {"sample": sample, "workers": 1, "records": 0, "costs_args": [],
            "compute_s": sum(f["seconds"] for f in timed["figures"])}


def trace_dumbbell():
    ref = reference(ARGS.seed, "dumbbell")

    def sample(tag):
        untraced = worker_rep(tag + "-untraced", ref, dumbbell_manifest(ARGS.seed), gc=True)
        traced = worker_rep(tag + "-traced", ref, dumbbell_manifest(ARGS.seed), traced=True)
        counters, gauges, _ = read_telemetry(os.path.join(traced["dir"], "tel.jsonl"))
        _, workers = read_streams([os.path.join(traced["queue"], "streams", "worker.jsonl")])
        fleet = decompose(traced["proc"].start, traced["proc"].end, workers)
        warm = run([EBRC, "serve", traced["manifest"], "--workers", "1", "-q"], tag + "-resume")
        for r in (untraced, traced):
            shutil.rmtree(r["dir"])
        return {"reps": [untraced, traced], "counters": counters, "gauges": gauges,
                "gc": gc_totals(untraced["proc"].err), "wall_u": untraced["proc"].wall,
                "wall_d": traced["proc"].wall, "fleet": fleet,
                "traced": traced["proc"].wall, "plain": untraced["proc"].wall,
                "analytic_s": 0.0, "packet_s": fleet["busy"], "resume_s": warm.wall}

    return {"sample": sample, "workers": 1, "records": len(ref["digests"]),
            "costs_args": ["--manifest", ref["manifest"], "--ref", ref["dir"]],
            "compute_s": ref["compute_s"]}


def trace_fleet():
    ref = reference(ARGS.seed, "fleet")

    def sample(tag):
        untraced = fleet_rep(tag + "-untraced", ref, gc=True)
        cold = untraced["proc"]
        sdir = os.path.join(untraced["queue"], "streams")
        counters, workers = read_streams(sorted(os.path.join(sdir, f) for f in os.listdir(sdir)))
        # Serve's workers always stream, so the telemetry overhead is that
        # of one worker draining the same tasks with --telemetry over without.
        plain = worker_rep(tag + "-plain", ref, fleet_manifest(ARGS.seed))
        traced = worker_rep(tag + "-traced", ref, fleet_manifest(ARGS.seed), traced=True)
        _, gauges, _ = read_telemetry(os.path.join(traced["dir"], "tel.jsonl"))
        fleet = decompose(cold.start, cold.end, workers)
        for r in (untraced, plain, traced):
            shutil.rmtree(r["dir"])
        return {"reps": [untraced, plain, traced], "counters": counters, "gauges": gauges,
                "gc": gc_totals(cold.err), "wall_u": cold.wall, "wall_d": cold.wall,
                "fleet": fleet, "traced": traced["proc"].wall, "plain": plain["proc"].wall,
                "analytic_s": 0.0, "packet_s": fleet["busy"], "resume_s": untraced["warm"].wall}

    return {"sample": sample, "workers": FLEET_WORKERS, "records": len(ref["digests"]),
            "costs_args": ["--manifest", ref["manifest"], "--ref", ref["dir"]],
            "compute_s": ref["compute_s"]}


def layers():
    """Per-layer metrics. Counts come from the first traced sample (they
    repeat exactly); times are medians over the untraced/traced sample
    pairs that fit in the rest of the window."""
    t0 = time.monotonic()
    t = {"figures": trace_figures, "dumbbell": trace_dumbbell, "fleet": trace_fleet}[ARGS.workload]()
    samples = timed_reps(t["sample"], ARGS.seconds - (time.monotonic() - t0))
    first, workers = samples[0], t["workers"]
    counters = first["counters"]
    c = lambda k: counters.get(k, 0)
    depth = int(first["gauges"].get("sim.queue_depth", {}).get("max") or 1)
    scratch = os.path.join(TMP, "costs")
    os.makedirs(scratch)
    costs = probe_json(["costs", "--depth", str(depth), "--scratch", scratch] + t["costs_args"],
                       "costs")
    events = c("sim.events_fired")
    offer_ns = (costs["offer_red_ns"] + costs["offer_droptail_ns"]) / 2.0
    # Self time of each layer = traced count x per-call cost; parallel
    # workers overlap, the spawn and drain phases do not.
    work_s = (events * costs["dispatch_ns"]
              + (c("queue.enqueues") + c("queue.drops")) * offer_ns
              + c("tfrc.wali_updates") * costs["estimator_ns"]
              + c("tfrc.feedbacks") * costs["formula_ns"]
              + t["records"] * (costs["publish_ns"] + costs["claim_ns"])) / 1e9

    def residual(s):
        f = s["fleet"]
        explained = f["spawn"] + f["drain"] + (work_s + s["analytic_s"]) / workers
        return 100.0 * (s["wall_u"] - explained) / s["wall_u"]

    per_sample = {
        "sim.ns_per_event": lambda s: s["wall_u"] * 1e9 / max(1, events),
        "figures.analytic_s": lambda s: s["analytic_s"],
        "figures.packet_s": lambda s: s["packet_s"],
        "store.resume_s": lambda s: s["resume_s"],
        "fleet.spawn_s": lambda s: s["fleet"]["spawn"],
        "fleet.busy_s": lambda s: s["fleet"]["busy"],
        "fleet.lease_gap_s": lambda s: s["fleet"]["gaps"],
        "fleet.drain_s": lambda s: s["fleet"]["drain"],
        "fleet.unaccounted_s": lambda s: s["wall_d"] - (s["fleet"]["spawn"] + s["fleet"]["busy"]
                                                        / workers + s["fleet"]["drain"]),
        "fleet.utilization": lambda s: s["fleet"]["busy"] / (workers * s["wall_d"]),
        "fleet.retries": lambda s: s["fleet"]["retries"],
        "gc.minor_words": lambda s: s["gc"]["minor_words"],
        "gc.major_collections": lambda s: s["gc"]["major_collections"],
        "gc.top_heap_mb": lambda s: s["gc"]["top_heap_words"] * 8 / 2 ** 20,
        "telemetry.overhead_pct": lambda s: 100.0 * (s["traced"] / s["plain"] - 1.0),
        "layers.residual_pct": residual,
    }
    spread = {k: summary([f(s) for s in samples]) for k, f in per_sample.items()}
    m = {}

    def put(name, value):
        m[name] = {"value": value, "unit": METRICS[name][0]}

    def med(name):
        put(name, spread[name]["median"])

    put("sim.events_fired", events)
    put("sim.queue_depth", depth)
    put("sim.discard_ratio", c("sim.events_discarded") / max(1, c("sim.events_scheduled")))
    med("sim.ns_per_event")
    put("sim.dispatch_ns", costs["dispatch_ns"])
    put("wheel.overflow_ratio", c("wheel.overflowed") / max(1, c("sim.events_scheduled")))
    put("queue.enqueues", c("queue.enqueues"))
    put("queue.drops", c("queue.drops"))
    put("link.delivered", c("link.delivered"))
    put("net.offer_ns", offer_ns)
    put("fault.injected", sum(v for k, v in counters.items() if k.startswith("fault.")))
    put("fluid.steps", c("fluid.steps"))
    put("tfrc.feedbacks", c("tfrc.feedbacks"))
    put("tfrc.rate_changes", c("tfrc.rate_changes"))
    put("tfrc.wali_updates", c("tfrc.wali_updates"))
    put("tcp.timeouts", c("tcp.timeouts"))
    put("estimator.update_ns", costs["estimator_ns"])
    put("formula.eval_ns", costs["formula_ns"])
    med("figures.analytic_s")
    med("figures.packet_s")
    put("cache.misses", c("cache.misses"))
    med("store.resume_s")
    put("store.load_ms", costs["load_ns"] / 1e6)
    for k in ("fleet.spawn_s", "fleet.busy_s", "fleet.lease_gap_s", "fleet.drain_s",
              "fleet.unaccounted_s", "fleet.utilization", "fleet.retries"):
        med(k)
    put("fleet.compute_s", t["compute_s"])
    put("fleet.publish_ms", costs["publish_ns"] / 1e6)
    put("fleet.claim_ms", costs["claim_ns"] / 1e6)
    med("gc.minor_words")
    put("gc.minor_words_per_event", m["gc.minor_words"]["value"] / max(1, events))
    med("gc.major_collections")
    med("gc.top_heap_mb")
    med("telemetry.overhead_pct")
    med("layers.residual_pct")
    lines = []
    for k, v in m.items():
        q = spread.get(k)
        qs = "  q1 %.6g  q3 %.6g  n=%d" % (q["q1"], q["q3"], q["n"]) if q else ""
        lines.append("%-26s %18.6f %-5s  %s%s" % (k, v["value"], v["unit"], METRICS[k][1], qs))
    reps = [r for s in samples for r in s["reps"]]
    return reps, m, lines


# ------------------------------------------------------------------ #
# Main                                                               #
# ------------------------------------------------------------------ #


def main():
    global ARGS, TMP, EBRC, PROBE, CALIB, STARTED
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ARGS = ap.parse_args()
    # a terminated run still stops its children and removes its temp root
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for need in ("dune-project", "bin/ebrc_cli.ml", "lib", "perfbench/probe/probe.ml",
                 "perfbench/calib/calib.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the repository root (missing %s)" % need)
    for tool in ("dune", "ocamlopt"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    TMP = os.path.join(base, "run-%d" % os.getpid())
    os.makedirs(TMP)
    try:
        EBRC, PROBE, CALIB = build()
        STARTED = time.monotonic()
        ctx = context()
        reps, metrics, lines = layers() if ARGS.trace else end_to_end()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("workload %s seed %d trace %d | source %s | ocaml %s | nproc %d | "
          "concurrent slowdown x%.3f" % (ARGS.workload, ARGS.seed, ARGS.trace, ctx["source"],
                                         ctx["ocaml"], ctx["nproc"], ctx["concurrent_slowdown"]))
    for line in lines:
        print(line)
    print("%-14s %12d ops  (%d repetitions)" % ("ops", attempted, len(reps)))
    print("%-14s %12d ops" % ("ops_failed", failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
