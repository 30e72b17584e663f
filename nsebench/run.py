"""Benchmark of the nsesimp toolkit, one workload per process.

    python3 nsebench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run sets up ``SETUPS`` times
(input generation, model build, warm-up) and then repeats rounds of timed
calls (see ``workloads.py``) while the next round fits in ``--seconds``,
at least one.

Standard output ends with three JSON lines: the environment, every sample
behind each reported median, and the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end rows; with ``--trace 1`` each untraced round is
followed by a traced one, the metrics are the per-layer rows, and the spans
are written to ``.nsebench/spans-<workload>-<seed>.jsonl``.  A failed output
check counts as a failed operation and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".nsebench"
SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> str | None:
    """Import nsesimp from this checkout's src/; returns what went wrong, if anything."""
    if not (SRC / "nsesimp" / "__init__.py").is_file():
        return f"no package at {SRC / 'nsesimp'}; run from a checkout"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import nsesimp

    if Path(nsesimp.__file__).resolve().parent != (SRC / "nsesimp").resolve():
        return f"imported nsesimp from {nsesimp.__file__}, not from {SRC}"
    return None


# ---------------------------------------------------------------------------
# environment record


def git_sha(root: Path) -> str | None:
    """HEAD commit read from the .git directory, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((SRC / "nsesimp").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "src_digest": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


# ---------------------------------------------------------------------------
# the run


def unit_of(name: str) -> str:
    if name.startswith("train_tok_per_s."):
        return "tok/s"
    if name.startswith("decode_sent_per_s."):
        return "sent/s"
    return "s"


def median_rows(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_package()
    if problem:
        print(f"nsebench: {problem}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.SHAPES:
        print(f"nsebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.SHAPES)}", file=sys.stderr)
        return 2
    shape = workloads.SHAPES[args.workload]
    env = environment()

    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(shape, args.seed)
        workloads.warm_up(inputs)
        setup_s.append(time.perf_counter() - t0)

    WORKDIR.mkdir(exist_ok=True)
    ckpt_path = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}.ckpt"
    spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
    if args.trace:
        spans_path.unlink(missing_ok=True)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            plain.append(workloads.run_round(inputs, ckpt_path))
            if args.trace:
                with tracing.Tracer() as tracer:
                    traced.append(workloads.run_round(inputs, ckpt_path, tracer))
                leftover = tracing.leftover_wrappers()
                if leftover:
                    raise RuntimeError(f"tracer left wrappers installed: {leftover}")
                tracers.append(tracer)
            # another round only if one more like the last still fits in --seconds
            now = time.perf_counter()
            if (now - start) + (now - round_start) > args.seconds:
                break
    finally:
        ckpt_path.unlink(missing_ok=True)

    rounds = plain + traced
    problems = sorted({p for r in rounds for p in r.problems})
    for p in problems:
        print(f"nsebench: check failed: {p}", file=sys.stderr)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        layer_rows = []
        for i, tracer in enumerate(tracers):
            tracer.write(spans_path, i)
            layer_rows.append(tracer.layer_metrics(shape.train_pairs))
            layer_rows[-1]["trace.spans"] = len(tracer.spans)
        rows = median_rows(layer_rows)
        rows["trace.overhead_s"] = statistics.median(
            r.timed_s() for r in traced
        ) - statistics.median(r.timed_s() for r in plain)
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in rows.items()}
        detail = {"rounds": len(traced), "per_round": layer_rows,
                  "spans_file": str(spans_path.relative_to(ROOT))}
    else:
        tokens = inputs.train_tokens()
        sents = len(inputs.decode)
        samples = {
            "setup_s": setup_s,
            "ckpt_save_s": [x for r in plain for x in r.ckpt_save_s],
            "ckpt_load_s": [x for r in plain for x in r.ckpt_load_s],
        }
        for kind in workloads.KINDS:
            samples[f"train_tok_per_s.{kind}"] = [tokens / r.train_s[kind] for r in plain]
        for beam in workloads.BEAMS:
            samples[f"decode_sent_per_s.beam{beam}"] = [
                sents / x for r in plain for x in r.decode_s[beam]
            ]
        metrics = {
            name: {"value": statistics.median(values), "unit": unit_of(name)}
            for name, values in samples.items()
        }
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        detail = {"rounds": len(plain), "samples": samples,
                  "train_tokens": tokens, "decode_sentences": sents}

    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
