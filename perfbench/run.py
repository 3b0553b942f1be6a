"""ssmkit benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's cycle of jobs back to back (the next job
starts when the previous one returns) until S seconds have passed, and
always finishes the cycle it is in.  Every job's output is checked.  The
last line of standard output is the result object; the line before it
holds provenance and the metrics that apply to this workload only.

--trace 0 measures end-to-end metrics.  --trace 1 first runs a third of
the window untraced, then wraps the ssmkit functions the jobs reach and
reports per-layer metrics from the spans, plus the tracing overhead.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: the library is single-threaded, so BLAS is too.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3
UNTRACED_SHARE = 1 / 3
CAL_SHARE = 0.25

_CAL_A = np.array([[0.9, 0.1], [0.0, 0.8]])
_CAL_C = np.eye(2)
_CAL_Q = 0.1 * np.eye(2)
_CAL_R = 0.5 * np.eye(2)

# ROADMAP baseline cases: (workload, span, job kind, ROADMAP time in s).
BASELINE = [
    ("exact_long", "hmm.forward_filter", "hmm_analysis", "0.058"),
    ("exact_long", "hmm.backward_smooth", "hmm_analysis", "0.105"),
    ("exact_long", "hmm.viterbi", "hmm_analysis", "0.153"),
    ("exact_long", "kalman.kalman_filter", "lg1_analysis", "0.63-0.76"),
    ("exact_long", "kalman.kalman_filter", "lg6_analysis", "0.72-0.87"),
    ("exact_long", "kalman.rts_smoother", "lg1_analysis", "0.385"),
    ("particle", "particle.bootstrap_filter", "pf_systematic", "1.45"),
    ("particle", "particle.fixed_lag_smoother", "fixed_lag", "0.35"),
]


def _import_library() -> None:
    if not os.path.isfile(os.path.join(SRC, "ssmkit", "__init__.py")):
        raise SystemExit(f"perfbench: no ssmkit sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ssmkit  # noqa: F401


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports ssmkit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ssmkit"], env=env, check=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ssmkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def set_up(name, seed, size, workdir):
    """Build the workload and warm up on a smoke-size copy of its cycle."""
    import workloads

    build = workloads.BUILDERS[name]
    workload = build(seed, size, workdir)
    for job in build(seed + 1, "smoke", workdir + "-warm").jobs:
        job.run()
    return workload


def calibration_kernel():
    """Fixed Python-and-numpy loop shaped like a two-state Kalman filter.

    Its time, measured between jobs, tracks how fast this machine runs
    interpreter-bound numpy code, the kind ssmkit runs, at that moment.
    """
    m, p, total = np.zeros(2), np.eye(2), 0.0
    for _ in range(200):
        s = _CAL_C @ p @ _CAL_C.T + _CAL_R
        gain = np.linalg.solve(s, _CAL_C @ p).T
        m = _CAL_A @ (m + gain @ (np.ones(2) - _CAL_C @ m))
        p = _CAL_A @ (p - gain @ _CAL_C @ p) @ _CAL_A.T + _CAL_Q
        total += np.log(np.linalg.det(s))
    return total


def calibrate(budget):
    """Run the kernel at least once and until `budget` seconds have passed."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return times


def run_cycles(workload, seconds, records, tracer=None, first_cycle=0):
    """Closed loop over whole cycles until `seconds` have passed.

    The calibration kernel runs in the gap before and after every job, for
    CAL_SHARE of the previous job's latency; a job's `cal` is the mean
    kernel time over both gaps.  Slowdowns of a shared host come and go
    within seconds, so dividing a job's latency by its `cal` cancels most of
    them.  Calibration is not part of any job's latency.
    """
    start = time.perf_counter()
    cycle = first_cycle
    n = len(workload.jobs)
    before = calibrate(0.0)
    while True:
        for index, job in enumerate(workload.jobs):
            t0 = time.perf_counter()
            try:
                out = tracer.run_job(cycle * n + index, job.run) if tracer else job.run()
                problems = None
            except Exception as err:  # a job that raises is a failed job
                problems = [f"raised {type(err).__name__}: {err}"]
            latency = time.perf_counter() - t0
            after = calibrate(CAL_SHARE * latency)
            if problems is None:
                problems = job.check(out)
            records.append(dict(cycle=cycle, kind=job.kind, latency=latency,
                                cal=statistics.fmean(before + after), steps=job.steps,
                                particles=job.particles * job.steps, problems=problems))
            before = after
        cycle += 1
        if time.perf_counter() - start >= seconds:
            return cycle, time.perf_counter() - start


def end_to_end(records, setup_s):
    """Gated metrics.  Job times are in units of the calibration kernel.

    Each cycle replays the same jobs, so job_p50 takes each job's median
    over the cycles and then the median over the jobs of a cycle; the plain
    median of a cycle with an even number of jobs falls between the slowest
    run of one job and the fastest run of another.
    """
    relative = [r["latency"] / r["cal"] for r in records]
    by_job = {}
    for r, rel in zip(records, relative):
        by_job.setdefault(r["kind"], []).append(rel)
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_cal": (statistics.median(statistics.median(v) for v in by_job.values()),
                        "cal"),
        "steps_per_cal": (sum(r["steps"] for r in records) / sum(relative), "steps/cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def workload_details(name, workload, records, cycles):
    """Metrics that apply to this workload only, with units and direction."""
    latencies = [r["latency"] for r in records]
    failed = sum(1 for r in records if r["problems"])
    out = {
        "jobs": len(records),
        "cycles": cycles,
        "error_ratio": {"value": failed / len(records), "unit": "failed/attempted",
                        "better": "lower"},
        "job_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms",
                       "better": "lower", "samples": len(records)},
        "steps_per_s": {"value": sum(r["steps"] for r in records) / sum(latencies),
                        "unit": "steps/s", "better": "higher"},
        "cal_ms": {"value": 1e3 * statistics.median(r["cal"] for r in records), "unit": "ms"},
        "job_ms_by_kind": {
            kind: 1e3 * statistics.median(r["latency"] for r in records if r["kind"] == kind)
            for kind in dict.fromkeys(r["kind"] for r in records)},
    }
    if len(records) >= 100:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        out["job_p90_ms"] = {"value": 1e3 * p90, "unit": "ms",
                             "better": "lower", "samples": len(records)}
    if name == "particle":
        out["particle_steps_per_s"] = {
            "value": sum(r["particles"] for r in records) / sum(latencies),
            "unit": "particle-steps/s", "better": "higher"}
    if name == "fit":
        out["fit_s"] = {"value": statistics.median(latencies), "unit": "s", "better": "lower",
                        "samples": len(records)}
        out["fit_loglik_gain"] = {"value": sum(workload.gains) / cycles, "unit": "nats",
                                  "better": "higher"}
    problems = [f"{r['kind']} (cycle {r['cycle']}): {p}"
                for r in records for p in r["problems"]]
    if problems:
        out["problems"] = problems[:20]
    return out


def _cycle_busy(records):
    busy = {}
    for r in records:
        busy[r["cycle"]] = busy.get(r["cycle"], 0.0) + r["latency"] / r["cal"]
    return statistics.median(busy.values())


def traced_details(name, workload, tracer, traced, untraced, wall):
    """Span coverage, tracing overhead and the ROADMAP baseline cross-check."""
    import tracing

    n = len(workload.jobs)
    kinds = {cycle * n + i: job.kind for cycle in {r["cycle"] for r in traced}
             for i, job in enumerate(workload.jobs)}
    sums = tracing.cycle_sums(tracer.spans, {job: job // n for job in kinds})
    job_s = sum(acc.get("job.total_s", 0.0) for acc in sums.values())
    library_s = sum(acc.get("top.total_s", 0.0) for acc in sums.values())
    metrics = tracing.layer_metrics(sums, tracing.setup_sums(tracer.spans))
    metrics["trace.overhead"] = (_cycle_busy(traced) / _cycle_busy(untraced) - 1, "ratio")
    metrics["trace.job_coverage"] = (job_s / wall, "ratio")
    metrics["trace.library_coverage"] = (library_s / job_s, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    durations = {}
    for rec in tracer.spans:
        kind = kinds.get(rec[tracing.JOB])
        if kind is not None:
            key = (rec[tracing.NAME], kind)
            durations.setdefault(key, []).append(rec[tracing.END] - rec[tracing.START])
    baseline = [
        {"case": f"{span} in {kind}", "roadmap_s": roadmap,
         "traced_s": statistics.median(durations[(span, kind)])}
        for wl, span, kind, roadmap in BASELINE
        if wl == name and (span, kind) in durations
    ]
    return metrics, baseline


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,job,raised,units,extra\n")
        for rec in spans:
            fh.write(",".join(str(v) for v in rec) + "\n")


def run(name, seed, seconds, trace, size="full"):
    """One benchmark run; returns (details, result) as printed."""
    _import_library()
    import tracing
    import workloads

    if name not in workloads.BUILDERS:
        raise SystemExit(f"perfbench: unknown workload {name!r}")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
    tracer = tracing.Tracer() if trace else None
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            if tracer and last:
                tracer.install()
            t0 = time.perf_counter()
            workload = set_up(name, seed, size, workdir)
            setup_times.append(time.perf_counter() - t0)
            if tracer and last:
                tracer.uninstall()
        setup_s = import_seconds() + statistics.median(setup_times)

        details = {"workload": name, "provenance": provenance(seed)}
        if not trace:
            records = []
            cycles, _ = run_cycles(workload, seconds, records)
            metrics = end_to_end(records, setup_s)
        else:
            untraced = []
            first, _ = run_cycles(workload, seconds * UNTRACED_SHARE, untraced)
            records = []
            tracer.install()
            try:
                last_cycle, wall = run_cycles(workload, seconds * (1 - UNTRACED_SHARE),
                                              records, tracer, first_cycle=first)
            finally:
                tracer.uninstall()
            cycles = last_cycle - first
            metrics, baseline = traced_details(name, workload, tracer, records, untraced, wall)
            details["baseline"] = baseline
            details["untraced"] = workload_details(name, workload, untraced, first)
            write_spans(os.path.join(OUT_DIR, f"spans-{name}.csv"), tracer.spans)
            records = untraced + records
            cycles += first
        details.update(workload_details(name, workload, records, cycles))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-warm", ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    if trace and metrics["trace.count_mismatches"][0]:
        failed += 1
        details.setdefault("problems", []).append("per-cycle counts differ between cycles")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    details, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
