#!/usr/bin/env python3
"""The repository benchmark: builds manimal_perfbench and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the Manimal libraries and
the benchmark from source into .bench_build/ (or $CARGO_TARGET_DIR),
then:

  --trace 0  runs SESSIONS benchmark processes one after another. Each
             sets up from scratch (datagen, Open, index builds, reference
             outputs) and runs the workload's closed loop for
             seconds / SESSIONS. Their samples make the end-to-end
             metrics.
  --trace 1  runs one traced process for `seconds` and reports the
             per-layer metrics; its spans go to
             .bench_build/work/trace-<workload>/trace.json.

Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Every job's output is checked against the
conventional run; on any mismatch or failed call the result says
correct: false and the exit code is 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Untraced runs are split over this many processes: per-process effects
# (the allocator's and the scheduler's state) then average out instead
# of setting the whole run's figure, and setup_s is a median of these.
SESSIONS = 5
# Gated times are reported at the host speed at which the calibration
# probe (a fixed sort, see src/main.cc) takes this long.
REFERENCE_CALIBRATION_MS = 100.0
# How long one session may take beyond its measuring time (set-up,
# draining the last round).
SESSION_SLACK_S = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    """This checkout's build directory. A relative $CARGO_TARGET_DIR lies
    inside the checkout; an absolute one may be shared by several
    checkouts, so each gets a subdirectory named after its path (else a
    second checkout would rebuild and time the first one's sources)."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        return os.path.join(ROOT, target)
    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    return os.path.join(target, f"perfbench-{key}")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "manimal_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "manimal_perfbench")


def cpu_ticks():
    """The host's cumulative CPU time counters, or None without /proc."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests (steal)."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / max(1, sum(delta))


def no_aslr_prefix():
    """The command prefix that starts a process without address-space
    randomization, or [] where setarch is missing. Under randomization a
    process runs a job type in one of two speeds throughout (B2: 57-60
    or 72-77 ms of CPU in the same minute; README.md, "Steadiness"), set
    by where its stack, heap and mappings landed."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    if subprocess.run(prefix + ["true"]).returncode != 0:
        return []
    return prefix


def run_session(binary, args, seconds, trace, work, prefix):
    """Runs one benchmark process; returns (exit code, its result)."""
    cmd = prefix + [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", "1" if trace else "0",
        "--work", work]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    before = cpu_ticks()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + SESSION_SLACK_S)
    steal = steal_pct(before, cpu_ticks())
    lines = proc.stdout.strip().splitlines()
    # 0: all outputs correct; 3: the session finished but counted
    # failures. Anything else is a crash or a refusal.
    if proc.returncode not in (0, 3) or not lines:
        log(f"benchmark process exited with {proc.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    result["host"]["cpu_steal_pct"] = steal
    result["host"]["aslr"] = "off" if prefix else "on"
    return proc.returncode, result


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def beyond_p90(values):
    cut = p90(values)
    return sum(1 for v in values if v > cut)


def by_type(samples):
    groups = defaultdict(list)
    for name, ms in samples:
        groups[name].append(ms)
    return groups


def type_median(samples):
    """Mean over job types of each type's median."""
    return statistics.fmean(statistics.median(v)
                            for v in by_type(samples).values())


def session_median(sessions, key):
    """The median over sessions of each session's type_median.

    A session can be slow throughout for reasons outside the code under
    test (a process that runs one job type slowly, or a burst of CPU
    steal on a shared host; see README.md, "Steadiness"); the median
    over sessions ignores up to two such sessions of five. Job types are
    weighted equally (the round-robin stream gives each the same share):
    a percentile of the mixed stream would fall between two types'
    distributions.
    """
    return statistics.median(type_median(r[key]) for r in sessions)


def pooled(sessions, key, stat):
    """Mean over job types (or artifacts) of `stat` of each one's samples
    from all sessions: one session holds too few of them for a 90th
    percentile of its own."""
    groups = by_type(s for r in sessions for s in r[key])
    return statistics.fmean(stat(v) for v in groups.values())


def at_reference_speed(session):
    """The session with its gated times (job CPU, builds, set-up)
    scaled to the reference host speed, by the median of its
    calibration probes: the host's speed drifts over minutes by more
    than the bounds allow (README.md, "Steadiness")."""
    factor = (REFERENCE_CALIBRATION_MS
              / statistics.median(session["calibration_ms"]))
    scaled = dict(session)
    for key in ("job_cpu", "builds"):
        scaled[key] = [(name, ms * factor) for name, ms in session[key]]
    scaled["setup_s"] = session["setup_s"] * factor
    return scaled


def end_to_end(sessions):
    for key, what in (("jobs", "job wall"), ("job_cpu", "job cpu"),
                      ("builds", "build wall")):
        for name, values in sorted(by_type(
                s for r in sessions for s in r[key]).items()):
            log(f"  {what} {name}: n={len(values)} "
                f"p50={statistics.median(values):.3f} ms "
                f"p90={p90(values):.3f} ms ({beyond_p90(values)} beyond)")
    log("  workspace entries per session: "
        + " ".join(str(r["workspace_entries"]) for r in sessions))
    log("  cpu steal per session: " + " ".join(
        "n/a" if r["host"]["cpu_steal_pct"] is None
        else f"{r['host']['cpu_steal_pct']:.1f}%" for r in sessions))
    log("  calibration probe ms per session: " + " ".join(
        f"{statistics.median(r['calibration_ms']):.2f}" for r in sessions))
    sessions = [at_reference_speed(r) for r in sessions]
    return {
        "job_cpu_p50_ms": session_median(sessions, "job_cpu"),
        "job_cpu_p90_ms": pooled(sessions, "job_cpu", p90),
        "build_p50_ms": pooled(sessions, "builds", statistics.median),
        "build_p90_ms": pooled(sessions, "builds", p90),
        "setup_s": statistics.median(r["setup_s"] for r in sessions),
        "space_ratio": statistics.median(r["space_ratio"] for r in sessions),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in sessions),
    }


def wall_figures(sessions):
    """The wall-clock job figures, printed with every result but not
    gated (see README.md, "Steadiness"): the session median of the
    balanced wall p50, and of jobs per second of time spent in timed
    calls."""
    return {
        "job_p50_ms": session_median(sessions, "jobs"),
        "jobs_per_s": statistics.median(
            len(r["jobs"]) / r["system_s"] for r in sessions),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter the reference outputs; the run must "
                             "report the mismatches and fail")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        sys.exit(1)

    work_root = os.path.join(build_dir(), "work")
    prefix = no_aslr_prefix()
    if args.trace:
        work = os.path.join(work_root, f"trace-{args.workload}")
        shutil.rmtree(work, ignore_errors=True)
        code, result = run_session(binary, args, args.seconds, True, work,
                                   prefix)
        codes, values = [code], result["layers"]
        attempted, failed = result["attempted"], result["failed"]
        values["error_rate"] = failed / attempted
        values["obs.trace_overhead_frac"] = (
            type_median(result["traced_jobs"]) / type_median(result["jobs"]) - 1)
        print(f"host: {json.dumps(result['host'])}", flush=True)
        log(f"spans written to {os.path.join(work, 'trace.json')}")
    else:
        sessions, codes = [], []
        for i in range(SESSIONS):
            work = os.path.join(work_root, f"{args.workload}-{i}")
            shutil.rmtree(work, ignore_errors=True)
            code, result = run_session(binary, args, args.seconds / SESSIONS,
                                       False, work, prefix)
            shutil.rmtree(work, ignore_errors=True)
            codes.append(code)
            sessions.append(result)
        host = dict(sessions[0]["host"])
        host["cpu_steal_pct"] = [r["host"]["cpu_steal_pct"] for r in sessions]
        print(f"host: {json.dumps(host)}", flush=True)
        print(f"wall: {json.dumps(wall_figures(sessions))}", flush=True)
        values = end_to_end(sessions)
        attempted = sum(r["attempted"] for r in sessions)
        failed = sum(r["failed"] for r in sessions)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"benchmark did not report {missing}")
        sys.exit(1)
    correct = failed == 0 and all(c == 0 for c in codes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
