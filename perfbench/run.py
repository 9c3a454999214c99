"""Run one modbalance benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. BLAS and OpenMP use one thread. The workload builds its inputs
from the seed (``setup``), then runs whole rounds of operations until S
seconds have passed, checking every operation's output against the
independent values in ``reference.py`` outside the timed region. Scratch
files go to ``.perfbench_out/`` in the checkout.

``setup_s`` is the median time to import numpy, modbalance and the workload
code in a fresh interpreter (three probes), plus the median of three input
builds with their warm-up calls.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` every layer entry point is
wrapped (``tracing.py``) and the metrics are per-layer values per operation.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
try:  # the process's own symbols; malloc_trim exists under glibc only
    _LIBC = ctypes.CDLL(None)
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, modbalance, tracing, workloads; "
                "print(time.perf_counter() - t)")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("tradeoff", "calibrate", "audit", "population")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _git_sha() -> str:
    """HEAD of the checkout's own .git, or 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _header(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"# cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} git={_git_sha()}")


def _import_seconds() -> float:
    """Import time of the benchmark's modules in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.path.join(ROOT, "perfbench")]))
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def _release_memory() -> None:
    """Hand freed heap pages back to the OS, so that every op starts from the
    same resident set whatever the previous ops left fragmented (glibc only)."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _measure(workload, seconds: float, tracer):
    """Whole rounds of ops until ``seconds`` have passed; checks are untimed."""
    durations, failed, problems = [], 0, []
    start = time.perf_counter()
    i = 0
    while not durations or time.perf_counter() - start < seconds:
        for _ in range(workload.round_size):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.op(i)
                else:
                    with tracer.span("op"):
                        output = workload.op(i)
            except Exception as exc:  # a raising op counts as failed, the run goes on
                durations.append(time.perf_counter() - t0)
                failed += 1
                print(f"# op {i} failed: {exc!r}", file=sys.stderr)
                i += 1
                continue
            durations.append(time.perf_counter() - t0)
            try:
                op_failed, op_problems = workload.check(i, output)
            except Exception as exc:  # unreadable output is a wrong output
                op_failed, op_problems = False, [f"check raised {exc!r}"]
            failed += int(op_failed)
            for p in op_problems:
                print(f"# op {i} {'failed' if op_failed else 'wrong'}: {p}", file=sys.stderr)
            if not op_failed:
                problems += op_problems
            del output  # the next op must not run beside this one's data
            _release_memory()
            i += 1
    return durations, failed, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modbalance", "__init__.py")):
        print(f"error: no modbalance sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # read by BLAS when numpy loads it
    sys.path.insert(0, SRC)

    import numpy as np

    import modbalance
    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(modbalance.__file__)) != os.path.join(SRC, "modbalance"):
        print(f"error: modbalance imported from {modbalance.__file__}", file=sys.stderr)
        return 2
    print(_header(np))
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = workloads.WORKLOADS[args.workload]()
    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(_import_seconds())
        t0 = time.perf_counter()
        workload.setup(args.seed, OUT_DIR)
        setup_times.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    durations, failed, problems = _measure(workload, args.seconds, tracer)

    if tracer is None:
        values = {
            "setup_s": (statistics.median(import_times) + statistics.median(setup_times), "s"),
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"# spans written to {trace_path}")
        values = {
            name: (value, tracing.unit(name))
            for name, value in tracer.layer_metrics(len(durations)).items()
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
