#!/usr/bin/env python3
"""perfbench: the hotg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds hotg and the in-process
job replayer with CMake into $CARGO_TARGET_DIR (default .bench_build), generates
the workload's job list from the seed, runs it, checks every job's output,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
the separate traced run that reports the per-layer metrics. Workloads and
metric definitions are documented in BENCHMARK.json. The generated job list
and all raw results are written to <build dir>/perfbench-runs/ so a run can
be replayed exactly.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

import metrics as M
import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ("hotg-bench-replay", "hotg-serve", "hotg-run")

# Daemon spawns before and again after the open loop; setup_s is the
# median of both batches, so it samples two instants of the run.
SERVE_SPAWNS = 7
SERVE_WORKERS = 2

# Per-workload latency limit behind within_limit_frac, fixed well above
# the p90 measured at the benchmark's introduction.
LIMIT_MS = {"lexer-ho": 600.0, "csv-dart-j2": 60.0, "serve-mix": 600.0}
# An open-loop run whose generator sent a job this late is invalid.
MAX_LATE_MS = 25.0

PING = {"id": "ping", "program": "fun main(x: int) -> int { return x; }",
        "policy": "unsound", "max_tests": 1}


class RunError(Exception):
    """The run cannot produce a valid result (build failure, invalid open
    loop, crashed child)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as out:
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j4", "--target", *TARGETS]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RunError("build failed: " + " ".join(cmd))
    exe = {"hotg-bench-replay": os.path.join(build_dir, "hotg-bench-replay"),
           "hotg-serve": os.path.join(build_dir, "hotg-tools", "hotg-serve"),
           "hotg-run": os.path.join(build_dir, "hotg-tools", "hotg-run")}
    for path in exe.values():
        if not os.access(path, os.X_OK):
            raise RunError("missing build output " + path)
    return exe


def run_replay(exe, out_dir, name, doc):
    joblist = os.path.join(out_dir, name + "-joblist.json")
    result = os.path.join(out_dir, name + "-result.json")
    with open(joblist, "w") as f:
        json.dump(doc, f)
    proc = subprocess.run([exe["hotg-bench-replay"], joblist, result])
    if proc.returncode:
        raise RunError("hotg-bench-replay exited with %d" % proc.returncode)
    with open(result) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Registry helpers


def counter(reg, name):
    return reg["counters"].get(name, 0)


def registry_layers(reg, jobs, workers, wall_ns):
    """Per-layer counts and ratios from the exported registry, per job where
    a count. Each ratio names its base in the comment beside it."""
    per_job = lambda n: M.ratio(counter(reg, n), jobs)
    tried = counter(reg, "validity.groundings_tried")
    pruned = counter(reg, "validity.groundings_pruned")
    checks = counter(reg, "solver.checks")
    reused = counter(reg, "solver.prefix_literals_reused")
    hits, misses = (counter(reg, "solver.cache_hits"),
                    counter(reg, "solver.cache_misses"))
    return {
        "search.tests": per_job("search.tests"),
        "search.candidates": per_job("search.candidates"),
        "validity.queries": per_job("validity.queries"),
        "validity.groundings_tried": per_job("validity.groundings_tried"),
        "validity.groundings_pruned": per_job("validity.groundings_pruned"),
        # pruned / (tried + pruned)
        "validity.prune_frac": M.ratio(pruned, tried + pruned),
        # strategies found / validity queries
        "validity.strategy_frac": M.ratio(
            counter(reg, "validity.strategy_found"),
            counter(reg, "validity.queries")),
        "validity.unknown": per_job("validity.unknown"),
        "smt.checks": per_job("solver.checks"),
        # unsat answers / checks
        "smt.unsat_frac": M.ratio(counter(reg, "solver.unsat"), checks),
        "smt.decisions": per_job("solver.decisions"),
        # literals kept across retargets / (kept + freshly pushed)
        "smt.prefix_reuse_frac": M.ratio(
            reused, reused + counter(reg, "solver.scope_pushes")),
        "exec.runs": M.ratio(counter(reg, "vm.runs") +
                             counter(reg, "dse.runs"), jobs),
        "exec.instructions": per_job("vm.instructions"),
        # worker busy ns / (workers x job wall ns)
        "par.worker_busy_frac": M.ratio(counter(reg, "search.worker_busy_ns"),
                                        workers * wall_ns),
        # query-cache hits / lookups
        "par.cache_hit_frac": M.ratio(hits, hits + misses),
        # speculations discarded / dispatched
        "par.discarded_frac": M.ratio(
            counter(reg, "search.speculation_discarded"),
            counter(reg, "search.speculative_dispatches")),
    }


ZERO_SERVE = {"serve.service_ms.p50": 0.0, "serve.service_ms.p90": 0.0,
              "serve.queue_wait_ms.mean": 0.0, "serve.queue_depth.p90": 0.0,
              "serve.fabric_hit_frac": 0.0, "serve.shed_frac": 0.0,
              "serve.retries": 0.0, "serve.busy_frac": 0.0,
              "gen.late_ms.p90": 0.0}


def span_layers(trace, searches, jobs, wall_ns):
    """Per-layer busy time (ms per job) from the trace report's span self
    times, summed over every thread (session threads and speculative
    workers), the exact p90 of solver.check, and the harness remainder of
    the session threads. `trace` is hotg-bench-replay's analysis of the
    trace. Raises when the trace is malformed, when a span escapes its
    parent or its children overlap (the self times would no longer add
    up), when the session trees (search.run) are not one per search, or
    when they outlast the measured job wall."""
    if trace["trace_errors"] or trace["nesting_errors"]:
        raise RunError("trace has %d schema and %d nesting errors" %
                       (trace["trace_errors"], trace["nesting_errors"]))
    root = trace["roots"].get("search.run", {"count": 0, "total_ns": 0})
    if root["count"] != searches:
        raise RunError("trace has %d search.run trees for %d searches" %
                       (root["count"], searches))
    if root["total_ns"] > wall_ns:
        raise RunError("spans exceed the measured job wall")
    layers = M.layer_self_ms({name: row["self_ns"]
                              for name, row in trace["phases"].items()})
    check_ns = trace["solver_check_ns"]
    return {
        "search.self_ms": M.ratio(layers["search"] + layers["other"], jobs),
        "validity.self_ms": M.ratio(layers["validity"], jobs),
        "smt.check_ms": M.ratio(layers["smt"], jobs),
        "smt.check_ms.p90": M.percentile(check_ns, 90) / 1e6
                            if check_ns else 0.0,
        "exec.ms": M.ratio(layers["exec"], jobs),
        "par.await_ms": M.ratio(layers["par"], jobs),
        "harness.ms": M.ratio((wall_ns - root["total_ns"]) / 1e6, jobs),
    }


# ---------------------------------------------------------------------------
# Closed-loop workloads (in-process)


def check_closed(jobs, out):
    """Output checks of a closed-loop run: per distinct job, the oracle on
    its reference outcome; per timed sample, byte-identity with it."""
    failed_jobs, problems = set(), []
    for i, (job, res) in enumerate(zip(jobs, out["results"])):
        p = oracles.check_bugs(res["bugs"], job["expect"])
        if res["degraded"]:
            p.append("degraded")
        if p:
            failed_jobs.add(i)
            problems += ["%s: %s" % (job["id"], x) for x in p]
    for s in out["serial"]:
        if s["report"] != out["results"][s["job"]]["report"]:
            failed_jobs.add(s["job"])
            problems.append("%s: jobs=%d report differs from jobs=1" %
                            (jobs[s["job"]]["id"], jobs[s["job"]]["jobs"]))
    return failed_jobs, problems


def closed_loop(workload, exe, out_dir, seed, seconds, trace):
    programs, jobs = (workloads.lexer_jobs if workload == "lexer-ho"
                      else workloads.csv_jobs)(seed)
    # Enough whole passes over the job list for a p90.
    doc = {"programs": programs, "jobs": jobs, "seconds": seconds,
           "min_passes": -(-M.min_samples_for(90) // len(jobs)),
           "max_seconds": 3 * seconds}
    if trace:
        doc["trace_path"] = os.path.join(out_dir, "trace.jsonl")
        doc["seconds"] = seconds / 2.0
        out = run_replay(exe, out_dir, "traced", doc)
    else:
        out = run_replay(exe, out_dir, "timed", doc)

    failed_jobs, problems = check_closed(jobs, out)
    if out["mismatches"]:
        problems.append("%d timed runs differ from the reference" %
                        out["mismatches"])

    if trace:
        reg = out["registry"]
        n_jobs = len(out["traced_job_ns"]) + len(out["untraced_job_ns"])
        wall_ns = sum(out["traced_job_ns"]) + sum(out["untraced_job_ns"])
        traced_jobs = len(out["traced_job_ns"])
        layer = {"lang.parse_check_ms": M.median(out["parse_ns"]) / 1e6}
        layer.update(span_layers(out["trace"], traced_jobs, traced_jobs,
                                 sum(out["traced_job_ns"])))
        layer.update(registry_layers(reg, n_jobs,
                                     max(j["jobs"] for j in jobs), wall_ns))
        layer.update(ZERO_SERVE)
        # traced wall / untraced wall - 1, over the same job passes
        layer["trace.overhead_frac"] = M.ratio(
            sum(out["traced_job_ns"]), sum(out["untraced_job_ns"])) - 1.0
        attempted = n_jobs
        failed = sum(1 for i in range(n_jobs) if i % len(jobs) in failed_jobs)
        return attempted, failed + out["mismatches"], problems, layer

    results = out["results"]
    known = sum(oracles.known_bug_count(j["expect"]) for j in jobs)
    found = sum(oracles.found_bug_count(r["bugs"], j["expect"])
                for j, r in zip(jobs, results))
    lat_ms = [ns / 1e6 for ns in out["sample_ns"]]
    sample_failed = [j in failed_jobs for j in out["sample_job"]]
    attempted = len(lat_ms)
    failed = sum(sample_failed) + out["mismatches"]
    p90 = M.tail_percentile(lat_ms, 90)
    if p90 is None:
        raise RunError("too few jobs for a p90 (%d)" % attempted)
    within = sum(1 for ms, bad in zip(lat_ms, sample_failed)
                 if ms <= LIMIT_MS[workload] and not bad)
    e2e = {
        "setup_s": M.median(out["setup_ns"]) / 1e9,
        "job_latency_ms.p50": M.percentile(lat_ms, 50),
        "job_latency_ms.p90": p90,
        "tests_per_s": M.median_rate(out["sample_tests"], out["sample_ns"],
                                     out["sample_job"]),
        "covered_frac": M.ratio(sum(r["covered"] for r in results),
                                sum(r["total"] for r in results)),
        "bugs_found_frac": M.ratio(found, known),
        "ok_frac": 1.0 - M.ratio(failed, attempted),
        "within_limit_frac": M.ratio(within, attempted),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    log("%s: %d jobs timed, %d distinct" % (workload, attempted, len(jobs)))
    return attempted, failed, problems, e2e


# ---------------------------------------------------------------------------
# serve-mix (open loop against a hotg-serve child)


def frame(doc):
    payload = json.dumps(doc).encode()
    return b"%d\n%s\n" % (len(payload), payload)


def read_frame(stream):
    header = stream.readline()
    if not header:
        return None
    size = int(header.strip())
    payload = stream.read(size + 1)
    return json.loads(payload[:size])


class Daemon:
    """One hotg-serve child speaking the framed protocol on stdin/stdout."""

    def __init__(self, exe, stats_path, trace_path=None):
        cmd = [exe["hotg-serve"], "--workers", str(SERVE_WORKERS),
               "--queue-capacity", "64", "--stats-json", stats_path]
        if trace_path:
            cmd += ["--trace-out", trace_path]
        self.stats_path = stats_path
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def ping(self):
        """Seconds from spawn until the daemon answered a trivial job."""
        self.send(PING)
        answer = read_frame(self.proc.stdout)
        if not answer or answer.get("status") != "ok":
            raise RunError("hotg-serve did not answer the ping: %r" % answer)
        return time.perf_counter() - self.start

    def send(self, doc):
        self.proc.stdin.write(frame(doc))
        self.proc.stdin.flush()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def kill(self):
        self.proc.kill()
        self.proc.wait()

    def close(self):
        """Drain (end of input), wait for exit, return the registry."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RunError("hotg-serve did not drain")
        self.proc.stdout.close()
        if code:
            raise RunError("hotg-serve exited with %d" % code)
        with open(self.stats_path) as f:
            return json.load(f)


def open_loop(daemon, programs, jobs):
    """Sends every job at its due time from a generator thread while this
    thread collects answers. Returns per-job due, sent and received times,
    the answers, and the answers outstanding at each send."""
    n = len(jobs)
    sent, received, answers, outstanding = [0.0] * n, [0.0] * n, [None] * n, []
    index = {j["id"]: i for i, j in enumerate(jobs)}
    requests = [frame(workloads.serve_request(programs, j)) for j in jobs]
    done = [0]
    t0 = time.perf_counter() + 0.05

    def generator():
        for i, job in enumerate(jobs):
            delay = t0 + job["due_s"] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            outstanding.append(i - done[0])
            daemon.proc.stdin.write(requests[i])
            daemon.proc.stdin.flush()

    thread = threading.Thread(target=generator)
    thread.start()
    for _ in range(n):
        answer = read_frame(daemon.proc.stdout)
        if answer is None:
            break
        i = index[answer["id"]]
        received[i] = time.perf_counter()
        answers[i] = answer
        done[0] += 1
    thread.join()
    due = [t0 + j["due_s"] for j in jobs]
    return due, sent, received, answers, outstanding


def check_serve(exe, out_dir, programs, jobs, answers):
    """Oracle per answer; byte-identity with hotg-run on a sample of
    distinct configurations (first fresh job of every kind, plus repeats)."""
    failed, problems = set(), []
    for i, (job, ans) in enumerate(zip(jobs, answers)):
        if ans is None or ans.get("status") not in ("ok", "bugs"):
            failed.add(i)
            problems.append("%s: status %r" % (
                job["id"], ans and ans.get("status")))
            continue
        p = oracles.check_bugs(oracles.bugs_from_report(ans["output"]),
                               job["expect"])
        if p:
            failed.add(i)
            problems += ["%s: %s" % (job["id"], x) for x in p]
    sample, kinds = [], set()
    for i, job in enumerate(jobs):
        if job["kind"] not in kinds or (job["repeat"] and len(sample) < 8):
            kinds.add(job["kind"])
            sample.append(i)
    for i in sample:
        if i in failed:
            continue
        job = jobs[i]
        path = os.path.join(out_dir, "program-%d.ml" % job["program"])
        with open(path, "w") as f:
            f.write(programs[job["program"]])
        proc = subprocess.run([exe["hotg-run"], path] +
                              workloads.hotg_run_args(job),
                              capture_output=True, text=True)
        report = proc.stdout.split("\n", 1)[1] if "\n" in proc.stdout else ""
        if proc.returncode != 0 or report != answers[i]["output"]:
            failed.add(i)
            problems.append("%s: answer differs from hotg-run" % job["id"])
    return failed, problems


def serve_phase(exe, out_dir, name, programs, jobs, trace_path=None):
    daemon = Daemon(exe, os.path.join(out_dir, name + "-stats.json"),
                    trace_path)
    try:
        daemon.ping()
        due, sent, received, answers, outstanding = open_loop(
            daemon, programs, jobs)
        rss = daemon.peak_rss_mb()
    except BaseException:
        daemon.kill()
        raise
    reg = daemon.close()
    if any(a is None for a in answers):
        raise RunError("hotg-serve left %d jobs unanswered" %
                       answers.count(None))
    late_ms = [x * 1e3 for x in M.lateness(due, sent)]
    late_p90 = M.percentile(late_ms, 90)
    # serve.job busy time / (workers x open-loop wall): how close the
    # offered rate runs the daemon to its capacity
    busy_frac = M.ratio(reg["timers"]["serve.job"]["total_ns"] / 1e9,
                        SERVE_WORKERS * (max(received) - min(due)))
    third = max(1, len(outstanding) // 3)
    with open(os.path.join(out_dir, name + "-health.json"), "w") as f:
        json.dump({"gen.late_ms.p90": late_p90,
                   "outstanding.first_third_mean":
                       sum(outstanding[:third]) / third,
                   "outstanding.last_third_mean":
                       sum(outstanding[-third:]) / third,
                   "outstanding.max": max(outstanding),
                   "serve.busy_frac": busy_frac}, f, indent=1)
    if late_p90 > MAX_LATE_MS:
        raise RunError("invalid run: generator late by %.1f ms (p90)" %
                       late_p90)
    if M.backlog_grew(outstanding):
        raise RunError("invalid run: the backlog grew")
    lat_ms = [x * 1e3 for x in M.due_time_latencies(due, received)]
    return {"lat_ms": lat_ms, "answers": answers, "rss": rss, "reg": reg,
            "late_p90": late_p90, "outstanding": outstanding,
            "busy_frac": busy_frac}


def serve_spawn_times(exe, out_dir):
    """Spawn-to-ready times of SERVE_SPAWNS fresh daemons."""
    times = []
    for _ in range(SERVE_SPAWNS):
        d = Daemon(exe, os.path.join(out_dir, "spawn-stats.json"))
        try:
            times.append(d.ping())
        except BaseException:
            d.kill()
            raise
        d.close()
    return times


def serve_mix(exe, out_dir, seed, seconds, trace):
    if trace:
        return serve_traced(exe, out_dir, seed, seconds)
    programs, jobs = workloads.serve_jobs(seed, seconds)
    write_joblist(out_dir, programs, jobs)
    spawns = serve_spawn_times(exe, out_dir)
    run = serve_phase(exe, out_dir, "timed", programs, jobs)
    setup_s = M.median(spawns + serve_spawn_times(exe, out_dir))
    failed, problems = check_serve(exe, out_dir, programs, jobs,
                                   run["answers"])
    answers = run["answers"]
    covered = sum(a.get("covered_directions", 0) for a in answers)
    total = sum(a.get("total_directions", 0) for a in answers)
    known = sum(oracles.known_bug_count(j["expect"]) for j in jobs)
    found = sum(oracles.found_bug_count(
        oracles.bugs_from_report(a.get("output", "")), j["expect"])
        for j, a in zip(jobs, answers))
    lat = run["lat_ms"]
    p90 = M.tail_percentile(lat, 90)
    if p90 is None:
        raise RunError("too few jobs for a p90 (%d)" % len(lat))
    service_ns = run["reg"]["timers"]["serve.job"]["total_ns"]
    within = sum(1 for i, ms in enumerate(lat)
                 if ms <= LIMIT_MS["serve-mix"] and i not in failed)
    e2e = {
        "setup_s": setup_s,
        "job_latency_ms.p50": M.percentile(lat, 50),
        "job_latency_ms.p90": p90,
        "tests_per_s": M.ratio(sum(a.get("tests", 0) for a in answers),
                               service_ns / 1e9),
        "covered_frac": M.ratio(covered, total),
        "bugs_found_frac": M.ratio(found, known),
        "ok_frac": 1.0 - M.ratio(len(failed), len(jobs)),
        "within_limit_frac": M.ratio(within, len(jobs)),
        "peak_rss_mb": run["rss"],
    }
    log("serve-mix: %d jobs, generator late p90 %.2f ms, max outstanding "
        "%d, daemon busy %.2f" % (len(jobs), run["late_p90"],
                                  max(run["outstanding"]), run["busy_frac"]))
    return len(jobs), len(failed), problems, e2e


def serve_traced(exe, out_dir, seed, seconds):
    """Untraced then traced daemon over the same arrivals; an in-process
    replay of the same jobs without the fabric gives the query count the
    fabric's hits are measured against, and the parse cost."""
    programs, jobs = workloads.serve_jobs(seed, seconds / 2.0)
    write_joblist(out_dir, programs, jobs)
    plain = serve_phase(exe, out_dir, "untraced", programs, jobs)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    traced = serve_phase(exe, out_dir, "traced", programs, jobs, trace_path)
    failed, problems = check_serve(exe, out_dir, programs, jobs,
                                   traced["answers"])
    replay = run_replay(exe, out_dir, "replay", {
        "programs": programs, "jobs": jobs, "seconds": 0, "max_seconds": 0})

    reg = traced["reg"]
    n = len(jobs)
    service_ns = reg["timers"]["serve.job"]["total_ns"]
    analysis = os.path.join(out_dir, "trace-report.json")
    if subprocess.run([exe["hotg-bench-replay"], "--trace-report",
                       trace_path, analysis]).returncode:
        raise RunError("hotg-bench-replay could not analyse the trace")
    with open(analysis) as f:
        trace = json.load(f)
    layer = {"lang.parse_check_ms": M.median(replay["parse_ns"]) / 1e6}
    # The daemon ran one search per job plus the readiness ping's.
    layer.update(span_layers(trace, n + 1, n, service_ns))
    layer.update(registry_layers(reg, n, 0, service_ns))
    # Queries the sessions solved themselves (validity queries plus
    # satisfiability checks outside validity) against every solveSat /
    # solveValidity of the same jobs replayed without a shared cache.
    asked = sum(r["solver_calls"] + r["validity_calls"]
                for r in replay["results"])
    # Whole milliseconds, as the daemon reports them per answer.
    service_ms = [a["elapsed_ms"] for a in traced["answers"]]
    layer.update({
        "serve.service_ms.p50": M.percentile(service_ms, 50),
        "serve.service_ms.p90": M.percentile(service_ms, 90),
        # client latency - service time, mean over jobs
        "serve.queue_wait_ms.mean": M.ratio(
            sum(traced["lat_ms"]) - sum(service_ms), n),
        # answers outstanding when each job was sent (a count, not a time)
        "serve.queue_depth.p90": M.percentile(traced["outstanding"], 90),
        # fabric hits / queries asked
        "serve.fabric_hit_frac": M.ratio(asked - trace["solved_queries"],
                                         asked),
        "serve.busy_frac": traced["busy_frac"],
        # jobs shed / jobs sent
        "serve.shed_frac": M.ratio(counter(reg, "serve.jobs_shed"), n),
        "serve.retries": counter(reg, "serve.jobs_retried"),
        "gen.late_ms.p90": traced["late_p90"],
        # traced service time / untraced service time - 1
        "trace.overhead_frac": M.ratio(
            service_ns, plain["reg"]["timers"]["serve.job"]["total_ns"]) - 1,
    })
    return n, len(failed), problems, layer


def write_joblist(out_dir, programs, jobs):
    with open(os.path.join(out_dir, "joblist.json"), "w") as f:
        json.dump({"programs": programs, "jobs": jobs}, f)


# ---------------------------------------------------------------------------


WORKLOADS = ("lexer-ho", "csv-dart-j2", "serve-mix")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = os.path.join(build_dir(), "perfbench-runs", "%s-seed%d-trace%d" %
                           (args.workload, args.seed, args.trace))
    try:
        exe = build(build_dir())
        os.makedirs(out_dir, exist_ok=True)
        if args.workload == "serve-mix":
            result = serve_mix(exe, out_dir, args.seed, args.seconds,
                               args.trace)
        else:
            result = closed_loop(args.workload, exe, out_dir, args.seed,
                                 args.seconds, args.trace)
    except (RunError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    attempted, failed, problems, values = result
    for p in problems[:20]:
        log("perfbench: check failed: %s" % p)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = spec["per_layer" if args.trace else "end_to_end"]
    out = {"correct": not problems and failed == 0, "attempted": attempted,
           "failed": failed,
           "metrics": {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]} for m in names}}
    for name, metric in out["metrics"].items():
        print("%-28s %14.6f %s" % (name, metric["value"], metric["unit"]))
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(dict(out, problems=problems), f, indent=1)
    print(json.dumps(out))
    return 0 if out["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
