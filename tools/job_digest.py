"""Digest of every job's output in one perfbench workload, with its page faults.

    python3 tools/job_digest.py --workload NAME --seed N --workdir DIR
                                [--size full|smoke] [--cycles C]

Builds the workload from perfbench/workloads.py at the given seed and size,
with its files in DIR, and runs its cycle of jobs C times.  For each job kind
it prints the SHA-256 of the job's return value and of every file the job
writes, and the median over the cycles of the minor page faults (ru_minflt)
the job's run took.  The last line is one SHA-256 over all output digests.

Two source trees give the same bytes on a workload when their digests match
at the same seed, size and work directory (CLI jobs print paths under it).
The fault counts tell a change in the code from a change in how the heap
is laid out: a run whose jobs fault hundreds of times more per cycle than
another's is in a different memory mode, whatever its code.

The exit status is 1 when a later cycle's digest differs from the first
cycle's, or when a job's own check reports a problem.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # As in perfbench/run.py: BLAS is single-threaded, fixed before numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import workloads  # noqa: E402


def _feed(h, obj) -> None:
    """Add a canonical encoding of obj to the hash: type, shape and bytes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"array {a.dtype.str} {a.shape};".encode())
        h.update(a.tobytes())
    elif isinstance(obj, float):
        h.update(b"float;" + struct.pack("<d", obj))
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__} {obj!r};".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__} {len(obj)};".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)};".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"{type(obj).__name__};".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def value_digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _file_states(workdir: str) -> dict[str, tuple[int, int, int]]:
    states = {}
    for dirpath, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            states[os.path.relpath(path, workdir)] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return states


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def digest(name: str, seed: int, size: str, workdir: str, cycles: int = 3) -> dict:
    """Per job kind: the return and file digests of the first cycle, the
    median minor faults per cycle, the cycles whose digests differed from
    the first, and the problems the job's check reported."""
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    workdir = os.path.abspath(workdir)
    workload = workloads.BUILDERS[name](seed, size, workdir)
    kinds = [job.kind for job in workload.jobs]
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"{name} has repeated job kinds: {kinds}")
    jobs = {kind: dict(files={}, faults=[], differs=[], problems=[]) for kind in kinds}
    for cycle in range(cycles):
        for job in workload.jobs:
            entry = jobs[job.kind]
            before = _file_states(workdir) if cycle == 0 else None
            f0 = _minflt()
            out = job.run()
            entry["faults"].append(_minflt() - f0)
            if cycle == 0:
                after = _file_states(workdir)
                written = sorted(p for p, s in after.items() if before.get(p) != s)
                entry["files"] = {p: file_digest(os.path.join(workdir, p)) for p in written}
                entry["return"] = value_digest(out)
            elif (value_digest(out) != entry["return"]
                  or any(file_digest(os.path.join(workdir, p)) != d
                         for p, d in entry["files"].items())):
                entry["differs"].append(cycle + 1)
            entry["problems"] += [f"cycle {cycle + 1}: {p}" for p in job.check(out)]
    for entry in jobs.values():
        entry["minflt"] = statistics.median(entry.pop("faults"))
    return jobs


def total_digest(jobs: dict) -> str:
    """One SHA-256 over every return and file digest, in job order."""
    return value_digest([(kind, e["return"], e["files"]) for kind, e in jobs.items()])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--cycles", type=int, default=3)
    args = parser.parse_args(argv)
    jobs = digest(args.workload, args.seed, args.size, args.workdir, args.cycles)
    failed = False
    for kind, e in jobs.items():
        print(f"{kind} return {e['return']}")
        for path, d in e["files"].items():
            print(f"{kind} file {path} {d}")
        print(f"{kind} minflt {e['minflt']:g}")
        if e["differs"]:
            failed = True
            print(f"{kind} DIFFERS in cycles {e['differs']}")
        for problem in e["problems"]:
            failed = True
            print(f"{kind} PROBLEM {problem}")
    print(f"total {total_digest(jobs)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
