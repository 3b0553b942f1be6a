"""Spans at the boundary of every ssmkit function the benchmark reaches.

The tracer wraps functions from outside the package: it replaces each
target in every ssmkit module namespace that binds it, because modules
import each other with ``from .x import f`` and so hold separate bindings.
A span records name, start, end, parent span, job id, whether it raised,
and up to two counts taken from the call's arguments or result.  Spans
stay in memory; per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

import ssmkit
from ssmkit.models import GenericStateSpaceModel
from ssmkit.rng import SeededGenerator

SETUP_JOB = -1

# Span record fields.
NAME, START, END, PARENT, JOB, RAISED, UNITS, EXTRA = range(8)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _series_len(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "obs")), 0


def _smoother_len(args, kwargs, result):
    return _arg(args, kwargs, 1, "forward").filtered_means.shape[0], 0


def _particle_steps(args, kwargs, result):
    T = len(_arg(args, kwargs, 1, "obs"))
    return T, T * int(_arg(args, kwargs, 2, "N"))


def _draws(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "count")), 0


def _rows_read(args, kwargs, result):
    return len(result), 0


def _rows_written(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return len(_arg(args, kwargs, 2, "rows")), os.path.getsize(path)


def _nm_iterations(args, kwargs, result):
    return result.iterations, 0


# (span name, defining module, attribute, measure)
FUNCTIONS = [
    ("numerics.log_sum_exp", "ssmkit.numerics", "log_sum_exp", None),
    ("numerics.gaussian_logpdf", "ssmkit.numerics", "gaussian_logpdf", None),
    ("models.require_valid", "ssmkit.models", "require_valid", None),
    ("simulate.simulate_hmm", "ssmkit.simulate", "simulate_hmm", None),
    ("simulate.simulate_lgssm", "ssmkit.simulate", "simulate_lgssm", None),
    ("hmm.forward_filter", "ssmkit.hmm", "forward_filter", _series_len),
    ("hmm.backward_smooth", "ssmkit.hmm", "backward_smooth", _series_len),
    ("hmm.viterbi", "ssmkit.hmm", "viterbi", _series_len),
    ("hmm.predict_states", "ssmkit.hmm", "predict_states", None),
    ("hmm.baum_welch_step", "ssmkit.hmm", "baum_welch_step", None),
    ("hmm.fit_em", "ssmkit.hmm", "fit_em", None),
    ("kalman.kalman_filter", "ssmkit.kalman", "kalman_filter", _series_len),
    ("kalman.rts_smoother", "ssmkit.kalman", "rts_smoother", _smoother_len),
    ("kalman.kalman_predict", "ssmkit.kalman", "kalman_predict", None),
    ("particle.bootstrap_filter", "ssmkit.particle", "bootstrap_filter", _particle_steps),
    ("particle.fixed_lag_smoother", "ssmkit.particle", "fixed_lag_smoother", _particle_steps),
    ("particle.resample", "ssmkit.particle", "systematic_resample", None),
    ("particle.resample", "ssmkit.particle", "multinomial_resample", None),
    ("particle.pf_loglik", "ssmkit.particle", "pf_loglik", None),
    ("estimation.fit_mle", "ssmkit.estimation", "fit_mle", None),
    ("estimation.nelder_mead", "ssmkit.estimation", "nelder_mead", _nm_iterations),
    ("forgetting.forgetting_curve", "ssmkit.forgetting", "forgetting_curve", None),
    ("forgetting.dobrushin_coefficient", "ssmkit.forgetting", "dobrushin_coefficient", None),
    ("io.parse_model", "ssmkit.io", "parse_model", None),
    ("io.read_series", "ssmkit.io", "read_series", _rows_read),
    ("io.write_table", "ssmkit.io", "write_table", _rows_written),
    ("io.write_series", "ssmkit.io", "write_series", None),
    ("io.write_model", "ssmkit.io", "write_model", None),
    ("cli.run_command", "ssmkit.cli", "run_command", None),
]

METHODS = [
    ("rng.derive", "derive", None),
    ("rng.normals", "normals", _draws),
]

MODULES = (
    "rng", "numerics", "models", "simulate", "hmm", "kalman",
    "particle", "estimation", "forgetting", "io", "cli",
)


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = SETUP_JOB
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.job, False, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[UNITS], rec[EXTRA] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id: int, fn):
        """Call fn under a top-level "job" span."""
        self.job = job_id
        try:
            return self.wrap("job", fn)()
        finally:
            self.job = SETUP_JOB

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ssmkit"]
        adapter = ssmkit.particle.lgssm_as_generic
        targets = [(name, getattr(sys.modules[mod], attr), measure)
                   for name, mod, attr, measure in FUNCTIONS]
        targets.append(("particle.lgssm_as_generic", adapter, None))
        for name, original, measure in targets:
            inner = self._traced_generic(original) if original is adapter else original
            wrapper = self.wrap(name, inner, measure)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patch(module, key, wrapper)
        for name, attr, measure in METHODS:
            self._patch(SeededGenerator, attr,
                        self.wrap(name, SeededGenerator.__dict__[attr], measure))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _traced_generic(self, original):
        # The particle callbacks are closures built per model, so they are
        # wrapped on the model the adapter returns.
        def generic(model):
            g = original(model)
            return GenericStateSpaceModel(
                d_x=g.d_x,
                init_sampler=self.wrap("particle.propagate", g.init_sampler),
                transition_sampler=self.wrap("particle.propagate", g.transition_sampler),
                observation_logdensity=self.wrap("particle.weight", g.observation_logdensity),
            )

        return generic


def _ancestors(spans, index):
    names = set()
    parent = spans[index][PARENT]
    while parent >= 0:
        names.add(spans[parent][NAME])
        parent = spans[parent][PARENT]
    return names


def cycle_sums(spans, job_cycle: dict[int, int]) -> dict[int, dict[str, float]]:
    """Per-cycle totals: calls, self and total seconds, counts, errors."""
    child_time = [0.0] * len(spans)
    child_raised = [False] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
            child_raised[rec[PARENT]] |= rec[RAISED]
    sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, rec in enumerate(spans):
        cycle = job_cycle.get(rec[JOB])
        if cycle is None:
            continue
        name, dur = rec[NAME], rec[END] - rec[START]
        acc = sums[cycle]
        acc[name + ".calls"] += 1
        acc[name + ".self_s"] += dur - child_time[i]
        acc[name + ".total_s"] += dur
        acc[name + ".units"] += rec[UNITS]
        acc[name + ".extra"] += rec[EXTRA]
        if rec[RAISED] and not child_raised[i]:
            acc[name.split(".")[0] + ".errors"] += 1
        if name == "job":
            continue
        if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "job":
            acc["top.total_s"] += dur
        if name in ("hmm.forward_filter", "kalman.kalman_filter",
                    "hmm.baum_welch_step", "numerics.gaussian_logpdf"):
            above = _ancestors(spans, i)
            if "hmm.fit_em" in above:
                acc[name + ".in_fit_em"] += 1
            if "estimation.fit_mle" in above:
                acc[name + ".in_fit_mle"] += 1
            if "cli.run_command" in above:
                acc[name + ".in_cli"] += 1
    return sums


def setup_sums(spans) -> dict[str, float]:
    """Self seconds by module for the spans recorded during set-up."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, float] = defaultdict(float)
    for i, rec in enumerate(spans):
        if rec[JOB] == SETUP_JOB:
            out[rec[NAME].split(".")[0]] += rec[END] - rec[START] - child_time[i]
            if rec[PARENT] < 0:
                out["top"] += rec[END] - rec[START]
    return out


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(sums: dict[int, dict[str, float]], setup: dict[str, float]) -> dict:
    """Per-layer metrics: counts from one cycle, times as the median cycle."""
    cycles = sorted(sums)
    first = sums[cycles[0]]

    def count(key):
        return int(round(first.get(key, 0.0)))

    def seconds(key):
        return statistics.median(sums[c].get(key, 0.0) for c in cycles)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for fn in ("hmm.forward_filter", "kalman.kalman_filter"):
        put(fn + ".calls", count(fn + ".calls"), "count")
    for fn in ("hmm.forward_filter", "hmm.backward_smooth", "hmm.viterbi",
               "kalman.kalman_filter", "kalman.rts_smoother", "kalman.kalman_predict",
               "particle.propagate", "particle.weight", "particle.resample",
               "particle.bootstrap_filter", "particle.fixed_lag_smoother", "rng.derive",
               "rng.normals", "numerics.log_sum_exp", "models.require_valid",
               "estimation.fit_mle", "forgetting.forgetting_curve",
               "simulate.simulate_hmm", "simulate.simulate_lgssm", "io.read_series",
               "io.parse_model", "io.write_table", "io.write_model", "cli.run_command"):
        put(fn + ".self_s", seconds(fn + ".self_s"), "s")
    for fn in ("hmm.forward_filter", "kalman.kalman_filter", "kalman.rts_smoother"):
        put(fn + ".us_per_step",
            _ratio(seconds(fn + ".self_s"), count(fn + ".units"), 1e6), "us/step")

    em_steps = count("hmm.baum_welch_step.calls")
    put("hmm.baum_welch_step.calls", em_steps, "count")
    put("hmm.fit_em.iterations", count("hmm.baum_welch_step.in_fit_em"), "count")
    put("hmm.forward_passes_per_em_step",
        _ratio(count("hmm.forward_filter.in_fit_em"),
               count("hmm.baum_welch_step.in_fit_em")), "ratio")

    pf_steps = count("particle.bootstrap_filter.units") + count(
        "particle.fixed_lag_smoother.units")
    particle_steps = count("particle.bootstrap_filter.extra") + count(
        "particle.fixed_lag_smoother.extra")
    put("particle.resample.calls", count("particle.resample.calls"), "count")
    put("particle.resample_ratio", _ratio(count("particle.resample.calls"), pf_steps), "ratio")
    put("particle.ns_per_particle_step",
        _ratio(seconds("particle.bootstrap_filter.total_s")
               + seconds("particle.fixed_lag_smoother.total_s"), particle_steps, 1e9),
        "ns")

    put("rng.derive.calls", count("rng.derive.calls"), "count")
    put("rng.normals.draws", count("rng.normals.units"), "count")
    put("numerics.log_sum_exp.calls", count("numerics.log_sum_exp.calls"), "count")
    put("models.require_valid.calls", count("models.require_valid.calls"), "count")

    evals = count("hmm.forward_filter.in_fit_mle") + count("kalman.kalman_filter.in_fit_mle")
    nm_iterations = count("estimation.nelder_mead.units")
    put("estimation.nelder_mead.iterations", nm_iterations, "count")
    put("estimation.likelihood_evals", evals, "count")
    put("estimation.evals_per_iteration", _ratio(evals, nm_iterations), "ratio")

    put("io.read_series.rows", count("io.read_series.units"), "count")
    rows = count("io.write_table.units")
    put("io.write_table.rows", rows, "count")
    put("io.write_table.bytes", count("io.write_table.extra"), "bytes")
    put("io.write_table.us_per_row",
        _ratio(seconds("io.write_table.self_s"), rows, 1e6), "us/row")
    put("cli.run_command.calls", count("cli.run_command.calls"), "count")
    put("cli.gaussian_logpdf.calls", count("numerics.gaussian_logpdf.in_cli"), "count")
    for module in MODULES:
        put(module + ".errors", count(module + ".errors"), "count")

    put("setup.rng.self_s", setup.get("rng", 0.0), "s")
    put("setup.simulate.self_s", setup.get("simulate", 0.0), "s")
    put("setup.library_s", setup.get("top", 0.0), "s")
    mismatched = sum(
        1 for c in cycles[1:] for key in set(first) | set(sums[c])
        if not key.endswith("_s") and sums[c].get(key, 0.0) != first.get(key, 0.0)
    )
    put("trace.count_mismatches", mismatched, "count")
    return m
