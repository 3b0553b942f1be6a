"""tools/bench_pairs.py on synthetic runs: the pair order, the gain rule
(nine tenths of the pairs and a median beyond the base's inter-quartile
range) and each metric's bound.  No benchmark is run."""

import hashlib
import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(_ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "steps_per_cal", "unit": "steps/cal", "better": "higher", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def runs(values, failed=0, attempted=100, job_ms=None, cal_ms=5.0):
    """Synthetic runs: values maps each metric to one value per run."""
    count = len(next(iter(values.values())))
    return [{"seed": i, "metrics": {k: v[i] for k, v in values.items()},
             "failed": failed, "attempted": attempted, "job_ms": job_ms or {},
             "cal_ms": cal_ms}
            for i in range(count)]


BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.0]


class TestGainRule:
    def test_ten_wins_beyond_the_iqr_hold(self):
        v = bench_pairs.judge(BASE, [b * 1.1 for b in BASE], "higher", 0.24, True)
        assert v["wins"] == 10 and v["claim"] == "holds"
        assert v["gain"] == pytest.approx(0.1, rel=1e-9)

    def test_nine_of_ten_wins_hold(self):
        change = [b * 1.1 for b in BASE]
        change[3] = BASE[3] - 1.0
        v = bench_pairs.judge(BASE, change, "higher", 0.24, True)
        assert (v["wins"], v["losses"]) == (9, 1)
        assert v["claim"] == "holds"

    def test_eight_of_ten_wins_fail(self):
        change = [b * 1.1 for b in BASE]
        change[3] = BASE[3] - 1.0
        change[5] = BASE[5]  # a tie counts for neither side
        v = bench_pairs.judge(BASE, change, "higher", 0.24, True)
        assert (v["wins"], v["losses"]) == (8, 1)
        assert v["claim"].startswith("fails: won 8 of 10 pairs")

    def test_median_inside_the_base_iqr_fails(self):
        # Every pair won, but by less than the base's own spread.
        v = bench_pairs.judge(BASE, [b + 0.5 for b in BASE], "higher", 0.24, True)
        assert v["wins"] == 10
        assert v["claim"].startswith("fails: median moved 0.5")

    def test_lower_is_better(self):
        v = bench_pairs.judge(BASE, [b * 0.9 for b in BASE], "lower", 0.24, True)
        assert v["wins"] == 10 and v["claim"] == "holds"
        v = bench_pairs.judge(BASE, [b * 1.1 for b in BASE], "lower", 0.24, True)
        assert v["wins"] == 0 and v["claim"].startswith("fails")

    def test_unclaimed_metric_has_no_claim_verdict(self):
        assert bench_pairs.judge(BASE, BASE, "higher", 0.24, False)["claim"] is None


class TestBound:
    def test_worse_beyond_the_bound(self):
        v = bench_pairs.judge(BASE, [b * 0.7 for b in BASE], "higher", 0.24, False)
        assert v["bound_verdict"] == "worse"
        v = bench_pairs.judge(BASE, [b * 1.11 for b in BASE], "lower", 0.1, False)
        assert v["bound_verdict"] == "worse"

    def test_worse_within_the_bound(self):
        v = bench_pairs.judge(BASE, [b * 0.9 for b in BASE], "higher", 0.24, False)
        assert v["bound_verdict"] == "within bound"

    def test_wide_spread_is_unresolved(self):
        wide = [60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 100.0]
        v = bench_pairs.judge(wide, list(reversed(wide)), "higher", 0.24, False)
        assert v["spread"] > 0.24
        assert v["bound_verdict"] == "unresolved"

    def test_wide_spread_with_every_change_run_better_is_resolved(self):
        wide = [60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 100.0]
        v = bench_pairs.judge(wide, [w + 50.0 for w in wide], "higher", 0.24, False)
        assert v["bound_verdict"] == "unresolved"  # the runs overlap
        v = bench_pairs.judge(wide, [w + 90.0 for w in wide], "higher", 0.24, False)
        assert v["bound_verdict"] == "within bound"

    def test_sides_must_pair(self):
        with pytest.raises(ValueError):
            bench_pairs.judge(BASE, BASE[:-1], "higher", 0.24, False)


class TestReport:
    def test_passes_and_prints_every_metric(self):
        base = runs({"steps_per_cal": BASE, "peak_rss_mb": [100.0] * 10},
                    job_ms={"pf": 40.0})
        change = runs({"steps_per_cal": [b * 1.1 for b in BASE],
                       "peak_rss_mb": [100.0] * 10}, job_ms={"pf": 30.0}, cal_ms=4.0)
        lines, passed = bench_pairs.report(SPEC, base, change, ["steps_per_cal"])
        assert passed
        text = "\n".join(lines)
        assert "claim holds" in text and "peak_rss_mb" in text
        assert "steps_per_cal  100 [99.12, 100.9]" in text
        assert "failed jobs: base 0/1000, change 0/1000" in text
        assert "  pf 40.00 30.00 0.750; 8.000 7.500 0.938" in text

    def test_a_failed_claim_or_more_failures_fail(self):
        base = runs({"steps_per_cal": BASE, "peak_rss_mb": [100.0] * 10})
        same = runs({"steps_per_cal": BASE, "peak_rss_mb": [100.0] * 10})
        assert not bench_pairs.report(SPEC, base, same, ["steps_per_cal"])[1]
        assert bench_pairs.report(SPEC, base, same, [])[1]
        failing = runs({"steps_per_cal": BASE, "peak_rss_mb": [100.0] * 10}, failed=1)
        assert not bench_pairs.report(SPEC, base, failing, [])[1]

    def test_unknown_claim_rejected(self):
        base = runs({"steps_per_cal": BASE, "peak_rss_mb": [100.0] * 10})
        with pytest.raises(ValueError, match="not in the benchmark"):
            bench_pairs.verdicts(SPEC, base, base, ["steps_per_s"])


def test_pairs_alternate_which_side_runs_first():
    calls = []
    base, change = bench_pairs.run_pairs(
        lambda side, seed: calls.append((side, seed)) or {"side": side, "seed": seed},
        [7, 8, 9])
    assert calls == [("base", 7), ("change", 7), ("change", 8), ("base", 8),
                     ("base", 9), ("change", 9)]
    assert [r["seed"] for r in base] == [r["seed"] for r in change] == [7, 8, 9]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("301-305") == [301, 302, 303, 304, 305]
    assert bench_pairs.parse_seeds("1-3,7, 9") == [1, 2, 3, 7, 9]
    for bad in ("5-3", "1,1", "x"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(bad)


def test_reads_the_benchmark_file_without_writing_it():
    path = bench_pairs.BENCHMARK
    with open(path, "rb") as fh:
        before = hashlib.sha256(fh.read()).hexdigest()
    spec = bench_pairs.load_spec(path)
    assert {m["name"] for m in spec} >= {"steps_per_cal", "job_p50_cal", "setup_s",
                                         "peak_rss_mb"}
    assert all(m["bound"] > 0 and m["better"] in ("higher", "lower") for m in spec)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == before
