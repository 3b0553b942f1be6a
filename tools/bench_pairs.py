"""Paired benchmark runs of two source trees, with the gain and bound verdicts.

    python3 tools/bench_pairs.py --base DIR --change DIR --workload NAME
                                 --seeds 301-310 --seconds 20
                                 [--claim steps_per_cal]

DIR is the root of a source tree that holds perfbench/run.py, for example a
git worktree or an unpacked `git archive` of the parent commit.  Pair i runs
`perfbench/run.py --workload NAME --seed S_i --seconds T --trace 0` in both
trees, the base tree first on even pairs and the change first on odd ones,
so that drift on the host does not favour one side.

For every end-to-end metric in BENCHMARK.json at the root of this tool's
tree (read, never written) it prints each side's
median and quartiles over the runs, the pairs the change won (ties count
for neither side), the gain (the change of the medians as a fraction of the
base median, positive when the change is better) and the metric's bound:

- "worse": the change's median is worse than the base's by more than the
  bound, as a fraction of the base median;
- "unresolved": it is not, but either side's inter-quartile range is wider
  than the bound (as a fraction of the base median), unless every run of
  the change is better than every run of the base;
- "within bound" otherwise.

A metric named by --claim also gets the gain rule: the change wins at least
nine tenths of the pairs, and its median is better than the base's by more
than the base's inter-quartile range.  The failed share of jobs on each
side and each job kind's median time are printed too.  The exit status is
1 when a claim fails, a metric is worse than its bound, or the change fails
a larger share of its jobs than the base.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """Seeds from "301-310", "5,9,12" or a mix such as "1-3,7"."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        if sep:
            if int(hi) < int(lo):
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(lo))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seeds in {text!r}")
    return seeds


def load_spec(path: str) -> list[dict]:
    """The end-to-end metrics of a benchmark file: name, unit, better, bound."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in the tree at root."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "job_ms": details.get("job_ms_by_kind", {}),
        "cal_ms": details.get("cal_ms", {}).get("value"),
    }


def run_pairs(runner, seeds: list[int], report=None) -> tuple[list[dict], list[dict]]:
    """runner(side, seed) for side "base" and "change" on every seed, the
    base first on even pairs; returns each side's runs in seed order."""
    runs = {"base": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(runner(side, seed))
            if report:
                report(f"pair {i + 1}/{len(seeds)} seed {seed} {side} done")
    return runs["base"], runs["change"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(base: list[float], change: list[float], better: str, bound: float,
          claimed: bool) -> dict:
    """The verdicts on one metric over paired runs (base[i] with change[i])."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    scale = abs(bmed) if bmed else 1.0
    gain = sign * (cmed - bmed) / scale  # positive when the change is better
    spread = max(bq3 - bq1, cq3 - cq1) / scale
    if -gain > bound:
        bound_verdict = "worse"
    elif spread > bound and not min(sign * c for c in change) > max(sign * b for b in base):
        bound_verdict = "unresolved"
    else:
        bound_verdict = "within bound"
    out = {
        "base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3), "wins": wins,
        "losses": losses, "pairs": len(base), "gain": gain, "spread": spread,
        "bound": bound, "bound_verdict": bound_verdict, "claim": None,
    }
    if claimed:
        enough_wins = wins >= WIN_SHARE * len(base)
        beyond_iqr = sign * (cmed - bmed) > bq3 - bq1
        out["claim"] = "holds" if enough_wins and beyond_iqr else (
            "fails: " + "; ".join(
                reason for ok, reason in [
                    (enough_wins, f"won {wins} of {len(base)} pairs, "
                                  f"needs {WIN_SHARE:.0%}"),
                    (beyond_iqr, f"median moved {abs(cmed - bmed):.4g}, "
                                 f"base IQR {bq3 - bq1:.4g}"),
                ] if not ok))
    return out


def verdicts(spec: list[dict], base_runs: list[dict], change_runs: list[dict],
             claims: list[str]) -> dict[str, dict]:
    """judge() on every end-to-end metric of spec, in its order."""
    unknown = set(claims) - {m["name"] for m in spec}
    if unknown:
        raise ValueError(f"claimed metrics not in the benchmark: {sorted(unknown)}")
    return {
        m["name"]: judge([r["metrics"][m["name"]] for r in base_runs],
                         [r["metrics"][m["name"]] for r in change_runs],
                         m["better"], m["bound"], m["name"] in claims)
        for m in spec
    }


def failed_share(runs: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def job_medians(runs: list[dict]) -> dict[str, tuple[float, float | None]]:
    """Per job kind, the median over runs of its ms and of its ms in units of
    the run's calibration time (None when a run has no calibration time)."""
    kinds = dict.fromkeys(k for r in runs for k in r["job_ms"])
    out = {}
    for k in kinds:
        having = [r for r in runs if k in r["job_ms"]]
        cal = None
        if all(r.get("cal_ms") for r in having):
            cal = statistics.median(r["job_ms"][k] / r["cal_ms"] for r in having)
        out[k] = (statistics.median(r["job_ms"][k] for r in having), cal)
    return out


def report(spec, base_runs, change_runs, claims) -> tuple[list[str], bool]:
    """The printed lines and whether every verdict passed."""
    judged = verdicts(spec, base_runs, change_runs, claims)
    def fmt(q1, median, q3):
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    lines = [f"{'metric':<14} {'base median [q1, q3]':<28} {'change median [q1, q3]':<28} "
             f"{'wins':>6} {'gain':>8} {'bound':>6}  verdict"]
    passed = True
    for m in spec:
        v = judged[m["name"]]
        verdict = v["bound_verdict"]
        if v["claim"] is not None:
            verdict += f"; claim {v['claim']}"
        passed &= v["bound_verdict"] != "worse" and v["claim"] in (None, "holds")
        lines.append(f"{m['name']:<14} {fmt(*v['base']):<28} {fmt(*v['change']):<28} "
                     f"{v['wins']:>3}/{v['pairs']:<2} {v['gain']:>+8.1%} {v['bound']:>6.2f}  "
                     f"{verdict}")
    (bf, ba), (cf, ca) = failed_share(base_runs), failed_share(change_runs)
    lines.append(f"failed jobs: base {bf}/{ba}, change {cf}/{ca}")
    if ca and ba and cf / ca > bf / ba:
        passed = False
    base_jobs, change_jobs = job_medians(base_runs), job_medians(change_runs)
    lines.append("job medians over runs: kind, base ms, change ms, ratio; "
                 "base cal, change cal, ratio")
    for kind, (b_ms, b_cal) in base_jobs.items():
        if kind not in change_jobs:
            continue
        c_ms, c_cal = change_jobs[kind]
        line = f"  {kind} {b_ms:.2f} {c_ms:.2f} {c_ms / b_ms:.3f}"
        if b_cal is not None and c_cal is not None:
            line += f"; {b_cal:.3f} {c_cal:.3f} {c_cal / b_cal:.3f}"
        lines.append(line)
    return lines, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the base source tree")
    parser.add_argument("--change", required=True, help="root of the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--claim", action="append", default=[],
                        help="an end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    spec = load_spec(BENCHMARK)
    roots = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}

    def runner(side, seed):
        return run_once(roots[side], args.workload, seed, args.seconds)

    base_runs, change_runs = run_pairs(
        runner, args.seeds, report=lambda msg: print(msg, file=sys.stderr, flush=True))
    print(f"workload {args.workload}, {len(args.seeds)} pairs of {args.seconds:g} s, "
          f"seeds {','.join(map(str, args.seeds))}")
    print(f"base {roots['base']}\nchange {roots['change']}")
    for side, runs in (("base", base_runs), ("change", change_runs)):
        for m in spec:
            values = " ".join(f"{r['metrics'][m['name']]:.4g}" for r in runs)
            print(f"{side} {m['name']}: {values}")
    lines, passed = report(spec, base_runs, change_runs, args.claim)
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
