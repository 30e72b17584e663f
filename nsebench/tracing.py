"""Per-layer spans, recorded by wrapping the package's public functions.

A :class:`Tracer` replaces each traced function at the name its callers look
up (``nsesimp.training.encode``, ``nsesimp.layers.lstm_step``,
``nsesimp.model.DecodeSession.step``, ...) with a wrapper that records a
span: name, start, end, parent span and the benchmark phase it ran in.
Leaving the ``with`` block puts every original back, so untraced timings
see the original functions.  Spans stay in memory until written out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from nsesimp import decoder, encoders, layers, metrics, model, search, training

# Marks a wrapper, so a leftover one can be found after the tracer exits.
ORIGINAL_ATTR = "__nsebench_original__"

# (owner, attribute, span name).  The span name is the defining module and
# function; one function is wrapped at every name its callers look it up by.
TARGETS = [
    (training, "train", "training.train"),
    (training, "batches", "data.batches"),
    (training, "encode", "model.encode"),
    (model, "encode", "model.encode"),
    (training, "teacher_logits", "model.teacher_logits"),
    (training, "xent_loss", "training.xent_loss"),
    (training, "backward", "autodiff.backward"),
    (training, "clip_global_norm", "training.clip_global_norm"),
    (training, "adam_step", "training.adam_step"),
    (training, "dev_decode_scores", "training.dev_decode_scores"),
    (training, "make_checkpoint", "training.make_checkpoint"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (training, "restore_model", "training.restore_model"),
    (training, "greedy_decode", "search.greedy_decode"),
    (training, "replace_unks", "search.replace_unks"),
    (training, "bleu_corpus", "metrics.bleu_corpus"),
    (training, "sari_corpus", "metrics.sari_corpus"),
    (layers, "embed", "layers.embed"),
    (layers, "lstm_step", "layers.lstm_step"),
    (layers, "mlp", "layers.mlp"),
    (layers, "linear", "layers.linear"),
    (model, "nse_encode", "encoders.nse_encode"),
    (model, "lstm_encode", "encoders.lstm_encode"),
    (encoders, "memory_retrieve", "encoders.memory_retrieve"),
    (encoders, "memory_update", "encoders.memory_update"),
    (model, "decoder_step", "decoder.decoder_step"),
    (decoder, "attend", "decoder.attend"),
    (model.DecodeSession, "step", "model.DecodeSession.step"),
    (model.DecodeSession, "advance", "model.DecodeSession.advance"),
    (search, "greedy_decode", "search.greedy_decode"),
    (search, "beam_decode", "search.beam_decode"),
    (search, "replace_unks", "search.replace_unks"),
    (metrics, "bleu_corpus", "metrics.bleu_corpus"),
    (metrics, "sari_corpus", "metrics.sari_corpus"),
]


# Layers that get a self-time row; autodiff, data and metrics rows already
# are single spans with no children.
SELF_LAYERS = ("layers", "encoders", "decoder", "model", "search", "training")


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "children_s")

    def __init__(self, name, parent, phase):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0
        self.children_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.children_s


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.phase_name: str | None = None
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name):
        hook = _HOOKS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.phase_name is not None and hook is not None:
                hook(self, *args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None, self.phase_name)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.children_s += span.seconds

        setattr(wrapper, ORIGINAL_ATTR, original)
        return wrapper

    # -- recording --------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Label the spans of one benchmark phase (``train.nse``, ``decode.beam5``...)."""
        self.phase_name = name
        span = Span(f"bench.{name}", None, name)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.phase_name = None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def write(self, path, round_index: int) -> None:
        """Append the spans as JSON lines; a parent is an ``id`` of the same round."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "a", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "round": round_index,
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "phase": s.phase,
                }) + "\n")

    # -- per-layer rows ---------------------------------------------------

    def layer_metrics(self, train_pairs: int) -> dict[str, float]:
        """Per-layer rows of the spans recorded inside benchmark phases."""
        total = defaultdict(float)
        by_phase = defaultdict(float)
        self_by_layer = defaultdict(float)
        self_by_phase = defaultdict(float)
        for s in self.spans:
            if s.phase is None or s.name.startswith("bench."):
                continue
            total[s.name] += s.seconds
            by_phase[s.name, s.phase] += s.seconds
            self_by_layer[s.name.split(".", 1)[0]] += s.self_s
            self_by_phase[s.name.split(".", 1)[0], s.phase] += s.self_s

        def in_phases(name, *phases):
            return sum(by_phase[name, p] for p in phases)

        train_phases = [f"train.{k}" for k in ("nse", "lstm")]
        out = {
            "autodiff.backward_s": total["autodiff.backward"],
            "layers.lstm_step_s": total["layers.lstm_step"],
            "layers.lstm_step.calls": self.counts["layers.lstm_step.calls"],
            "layers.linear_s": total["layers.linear"],
            "layers.embed_s": total["layers.embed"],
            "encoders.nse_s": total["encoders.nse_encode"],
            "encoders.lstm_s": total["encoders.lstm_encode"],
            "encoders.memory_read_s": total["encoders.memory_retrieve"],
            "encoders.memory_write_s": total["encoders.memory_update"],
            "encoders.compose_s": total["layers.mlp"],
            "decoder.teacher_s": total["model.teacher_logits"],
            "decoder.step_s": total["decoder.decoder_step"],
            "decoder.attend_s": total["decoder.attend"],
            "model.session_step_s": total["model.DecodeSession.step"],
            "metrics.bleu_s": total["metrics.bleu_corpus"],
            "metrics.sari_s": total["metrics.sari_corpus"],
            "data.batches_s": total["data.batches"],
            "training.forward_s": sum(
                in_phases(n, *train_phases)
                for n in ("model.encode", "model.teacher_logits", "training.xent_loss")
            ),
            "training.optimizer_s": (
                total["training.clip_global_norm"] + total["training.adam_step"]
            ),
            "training.dev_eval_s": total["training.dev_decode_scores"],
            "training.snapshot_s": in_phases("training.make_checkpoint", *train_phases),
            "training.save_s": in_phases("training.make_checkpoint", "ckpt.save")
            + total["training.save_checkpoint"],
            "training.load_s": total["training.load_checkpoint"],
            "training.restore_s": total["training.restore_model"],
        }
        c = self.counts
        for kind in ("nse", "lstm"):
            out[f"autodiff.tape_nodes.{kind}"] = c[f"autodiff.tape_nodes.{kind}"] / train_pairs
            out[f"autodiff.tape_mb.{kind}"] = c[f"autodiff.tape_bytes.{kind}"] / train_pairs / 1e6
        for beam in (1, 5, 10):
            p = f"decode.beam{beam}"
            out[f"model.session_step.calls.beam{beam}"] = c[f"model.session_step.calls.{p}"]
            out[f"search.self_s.beam{beam}"] = self_by_phase["search", p]
            out[f"search.output_tokens.beam{beam}"] = c[f"search.output_tokens.beam{beam}"]
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        return out


def _count_tape(tracer: Tracer, loss, tape) -> None:
    kind = tracer.phase_name.split(".")[-1]
    tracer.count(f"autodiff.tape_nodes.{kind}", len(tape.nodes))
    tracer.count(f"autodiff.tape_bytes.{kind}", sum(n.out.data.nbytes for n in tape.nodes))


def _count_lstm_step(tracer: Tracer, *args, **kwargs) -> None:
    tracer.count("layers.lstm_step.calls")


def _count_session_step(tracer: Tracer, *args, **kwargs) -> None:
    tracer.count(f"model.session_step.calls.{tracer.phase_name}")


_HOOKS = {
    "autodiff.backward": _count_tape,
    "layers.lstm_step": _count_lstm_step,
    "model.DecodeSession.step": _count_session_step,
}


def unit(name: str) -> str:
    if ".tape_mb." in name:
        return "MB"
    return "s" if any(part.endswith("_s") for part in name.split(".")) else "count"


def leftover_wrappers() -> list[str]:
    """Names in the traced modules and classes that still hold a tracer wrapper."""
    found = []
    for owner in {owner for owner, _, _ in TARGETS}:
        for attr, value in vars(owner).items():
            if hasattr(value, ORIGINAL_ATTR):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found

