"""tools/job_digest.py at smoke size: two runs of a workload in the same work
directory give the same digests, and a changed output changes them."""

import importlib.util
import os

import numpy as np
import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "job_digest.py")
_spec = importlib.util.spec_from_file_location("job_digest", _TOOL)
job_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(job_digest)


@pytest.mark.parametrize("workload", ["particle", "cli_mix"])
def test_two_runs_give_equal_digests(workload, tmp_path):
    workdir = str(tmp_path / "work")
    first = job_digest.digest(workload, 3, "smoke", workdir, cycles=2)
    second = job_digest.digest(workload, 3, "smoke", workdir, cycles=2)
    assert [(k, e["return"], e["files"]) for k, e in first.items()] == \
        [(k, e["return"], e["files"]) for k, e in second.items()]
    assert job_digest.total_digest(first) == job_digest.total_digest(second)
    for entry in first.values():
        assert entry["differs"] == [] and entry["problems"] == []
        assert entry["minflt"] >= 0
        assert entry["peak_kb"] > 0
    if workload == "cli_mix":
        assert "pf.csv" in first["pf"]["files"]


def test_digest_tells_bytes_apart():
    a = np.array([0.0, 1.0])
    assert job_digest.value_digest(a) == job_digest.value_digest(a.copy())
    assert job_digest.value_digest(a) != job_digest.value_digest(np.array([-0.0, 1.0]))
    assert job_digest.value_digest(a) != job_digest.value_digest(a.astype(np.float32))
    assert job_digest.value_digest((1, "x")) != job_digest.value_digest([1, "x"])
    assert job_digest.value_digest(0.0) != job_digest.value_digest(-0.0)
    with pytest.raises(TypeError):
        job_digest.value_digest(object())
