"""spinwedge benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the program is imported from
`src/`.  The loop is closed with one client and no thread pool: each op is an
in-process call of `spinwedge.cli.main(argv)` with the argv a user would
type, and the next op starts when the previous one returns.  Every op's
output is checked outside the timed region.  With `--trace 0` the last line
of standard output holds the end-to-end metrics; with `--trace 1` untraced
and traced rounds alternate, and the last line holds the per-layer metrics
of the traced rounds and the tracing overhead.  A JSON record with the
environment and details goes to `perfbench/out/`, and the traced run's spans
to `perfbench/out/spans-<workload>.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from spans import SpanRecorder, metric_units

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = (workloads.VerifyCorpus.name, workloads.SpectrumCap.name, workloads.EvolveChain.name)
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MiB"}

# Set-up is repeated and its median reported, so one slow start does not decide it.
SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
# A run ends on a round boundary, but never later than this past its measuring time.
WALL_SLACK_S = 30.0


def invoke(argv: list[str]):
    """One op: `spinwedge.cli.main(argv)` with its output captured.

    Returns (seconds, exit code or None on an exception, stdout, stderr).
    """
    import spinwedge.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = spinwedge.cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def check_op(workload, argv, rc, out: str, err: str) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    if rc is None:
        return "exception: " + err.strip().splitlines()[-1]
    try:
        return workload.check(argv, rc, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def run_ops(workload, seconds: float, first: int, call, recorder=None) -> list[tuple[float, str | None]]:
    """Issue ops from the pool until `seconds` of op time is spent and a round ends.

    Returns (op seconds, failure reason or None) per op.
    """
    records = []
    spent = 0.0
    wall_end = time.perf_counter() + seconds + WALL_SLACK_S
    i = first
    while True:
        argv = workload.pool[i % len(workload.pool)]
        with recorder.op(i) if recorder is not None else contextlib.nullcontext():
            dt, rc, out, err = call(argv)
        records.append((dt, check_op(workload, argv, rc, out, err)))
        i += 1
        spent += dt
        if spent >= seconds and (i - first) % workload.round_size == 0:
            return records
        if time.perf_counter() > wall_end:
            return records


def time_import() -> float:
    """Wall time for a fresh interpreter to import the CLI, as each `spinwedge` call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import spinwedge.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest of p50, p90, p99, p99.9 with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); values are nearest-rank.
    A fixed ladder keeps the reported percentile the same from run to run.
    """
    ordered = sorted(times)
    n = len(ordered)
    best = (ordered[-1], 100.0, 0)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank < 10:
            break
        best = (ordered[rank - 1], pct, n - rank)
    return best


def ops_per_s(records) -> float:
    return len(records) / sum(dt for dt, _ in records)


def median_round_rate(records, round_size: int) -> float:
    """Median over whole rounds of ops per second of op time."""
    rounds = [records[i:i + round_size] for i in range(0, len(records) - round_size + 1, round_size)] or [records]
    return statistics.median(ops_per_s(r) for r in rounds)


def run_benchmark(make_workload, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS, call=invoke):
    """Set up, measure, check; returns (result, recorder or None).

    `make_workload` builds the workload's inputs; `call` runs one op.
    """
    setups, imports, warmups = [], [], []
    for _ in range(setup_repeats):
        start = time.perf_counter()
        imports.append(time_import())
        workload = make_workload()
        argv = workload.warmup_argv()
        dt, rc, out, err = call(argv)
        setups.append(time.perf_counter() - start)
        warmups.append((dt, check_op(workload, argv, rc, out, err)))

    recorder = None
    if not trace:
        records = run_ops(workload, seconds, 0, call)
    else:
        # Untraced and traced rounds alternate, so both see the same machine.
        plain, traced = [], []
        recorder = SpanRecorder()
        wall_end = time.perf_counter() + seconds + WALL_SLACK_S
        while True:
            plain += run_ops(workload, 0.0, len(plain) + len(traced), call)
            recorder.install()
            try:
                traced += run_ops(workload, 0.0, len(plain) + len(traced), call, recorder)
            finally:
                recorder.uninstall()
            if sum(dt for dt, _ in plain + traced) >= seconds or time.perf_counter() > wall_end:
                break
        records = plain + traced

    all_ops = warmups + records
    failures = [reason for _, reason in all_ops if reason is not None]
    detail = {
        "setup_samples_s": setups,
        "import_samples_s": imports,
        "ops_measured": len(records),
        "fail_frac": len(failures) / len(all_ops),
        "failures": failures[:10],
    }
    if not trace:
        times = [dt for dt, _ in records]
        tail_s, tail_pct, beyond = tail(times)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": median_round_rate(records, workload.round_size),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        detail["op_s_tail"] = {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(times)}
    else:
        values = recorder.metrics()
        values["trace.overhead_ops_per_s"] = ops_per_s(traced) - ops_per_s(plain)
        units = metric_units()
        detail["trace"] = {
            "untraced_ops": len(plain),
            "traced_ops": len(traced),
            "untraced_ops_per_s": ops_per_s(plain),
            "traced_ops_per_s": ops_per_s(traced),
            "spans": len(recorder.spans),
        }
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "detail": detail,
    }
    return result, recorder


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, params: dict, import_s: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": params,
        "loop": "closed, 1 client, no thread pool",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SPINWEDGE_THREADS": os.environ.get("SPINWEDGE_THREADS"),
        "first_import_s": import_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinwedge" / "cli.py").is_file():
        print(f"perfbench: no spinwedge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SPINWEDGE_THREADS", None)
    start = time.perf_counter()
    import spinwedge.cli  # noqa: F401  (imported once here, so no op pays for it)

    import_s = time.perf_counter() - start

    OUT.mkdir(exist_ok=True)
    params = {}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        def make_workload():
            workload = workloads.make(args.workload, args.seed, workdir)
            params.update(workload.params())
            return workload

        result, recorder = run_benchmark(make_workload, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    detail["environment"] = environment(args, params, import_s)
    record = dict(result, detail=detail)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    if recorder is not None:
        recorder.write(str(OUT / f"spans-{args.workload}.jsonl.gz"))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
