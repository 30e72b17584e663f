"""Self-tests of the benchmark harness, on a tiny model so they take seconds.

    python3 nsebench/selftest.py

Checks that one seed gives identical corpora, checkpoint bytes, outputs and
exact counts on every run, that another seed gives other inputs, that a
round passes its output checks, and that a traced round leaves every
wrapped function as it found it.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import sys

import run


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def tiny_shape():
    import workloads

    return workloads.Shape(
        dim=8, vocab=60, src_mean=6, tgt_mean=5,
        train_pairs=2, batch_size=2, dev_pairs=1, decode_sents=2,
    )


def traced_round(seed: int):
    """Inputs, round result, checkpoint digest, exact counts and tracer of one traced round."""
    import tracing
    import workloads

    shape = tiny_shape()
    inputs = workloads.make_inputs(shape, seed)
    path = run.WORKDIR / f"selftest-{seed}.ckpt"
    try:
        with tracing.Tracer() as tracer:
            result = workloads.run_round(inputs, path, tracer)
        digest = workloads.file_digest(path)
    finally:
        path.unlink(missing_ok=True)
    rows = tracer.layer_metrics(shape.train_pairs)
    counts = {k: v for k, v in rows.items() if tracing.unit(k) != "s"}
    return inputs, result, digest, counts, tracer


def test_same_seed_same_inputs_bytes_and_counts():
    import workloads

    a_in, a, a_digest, a_counts, _ = traced_round(7)
    b_in, b, b_digest, b_counts, _ = traced_round(7)
    check(a_in == b_in, "one seed gave two different input sets")
    check(a_digest == b_digest, "one seed gave two different checkpoint files")
    check(a.outputs == b.outputs, "one seed gave two different decodes")
    check(a_counts == b_counts, f"counts differ across runs: {a_counts} vs {b_counts}")
    check(all(v > 0 for v in a_counts.values()), f"a count is zero: {a_counts}")
    check(a.failed == 0 and a.attempted > 0, f"output checks failed: {a.problems}")
    c_in = workloads.make_inputs(tiny_shape(), 8)
    check(c_in.train != a_in.train and c_in.decode != a_in.decode,
          "another seed gave the same inputs")


def test_tracer_restores_every_wrapped_function():
    import tracing

    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing.TARGETS]
    _, _, _, _, tracer = traced_round(3)
    check(tracer.spans, "the traced round recorded no spans")
    for owner, attr, original in before:
        check(owner.__dict__[attr] is original, f"{owner}.{attr} was not restored")
    check(not tracing.leftover_wrappers(), f"wrappers left: {tracing.leftover_wrappers()}")


def main() -> int:
    problem = run.import_package()
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    run.WORKDIR.mkdir(exist_ok=True)
    for test in (test_same_seed_same_inputs_bytes_and_counts,
                 test_tracer_restores_every_wrapped_function):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
