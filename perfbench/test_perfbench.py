"""Self-tests of the benchmark at smoke size.

    python -m pytest perfbench

Each workload runs on two seeds, untraced and traced, and must emit every
metric BENCHMARK.json names with its unit.  Deliberately corrupted library
output must be caught by the per-job checks.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run._import_library()

import ssmkit  # noqa: E402
import ssmkit.io  # noqa: E402
import workloads  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
with open(SPEC_PATH, encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _expected_units(trace):
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, seed, trace):
    _, result = run.run(workload, seed, 0, trace, size="smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _expected_units(trace)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        # Job spans are covered by top-level ssmkit spans, up to glue.
        assert result["metrics"]["trace.library_coverage"]["value"] >= 0.95
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_at_a_fixed_seed():
    counts = []
    for _ in range(2):
        _, result = run.run("cli_mix", 5, 0, 1, size="smoke")
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert result["metrics"]["cli.gaussian_logpdf.calls"]["value"] == \
        workloads.SIZES["cli_mix"]["smoke"]["T_lg"]
    assert result["metrics"]["hmm.forward_passes_per_em_step"]["value"] == 2.0


def _shifted_loglik(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dataclasses.replace(out, log_likelihood=out.log_likelihood + 1e-6)
    return corrupted


def _shifted_means(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dataclasses.replace(out, filtered_means=out.filtered_means + 0.5)
    return corrupted


def _unfitted(fn):
    def corrupted(model0, obs, **kwargs):
        fitted, report = fn(model0, obs, **kwargs)
        return model0, report
    return corrupted


CORRUPTIONS = [
    ("exact_long", ssmkit, "forward_filter", _shifted_loglik),
    ("exact_long", ssmkit, "kalman_filter", _shifted_loglik),
    ("particle", ssmkit, "bootstrap_filter", _shifted_means),
    ("fit", ssmkit, "fit_mle", _unfitted),
    ("cli_mix", ssmkit.io, "_fmt", lambda fn: lambda x: f"{float(x):.8g}"),
]


@pytest.mark.parametrize("workload,owner,attr,corrupt", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[2]}" for c in CORRUPTIONS])
def test_corrupted_output_is_caught(monkeypatch, workload, owner, attr, corrupt):
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    details, result = run.run(workload, 1, 0, 0, size="smoke")
    assert not result["correct"] and result["failed"] >= 1
    assert details["problems"]


def test_fails_without_the_library():
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(SPEC_PATH, bare)
        shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
