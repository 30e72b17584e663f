"""Command-line interface: train, simplify, evaluate, inspect.

Conventions shared by every subcommand:

* payloads go to standard output, progress and logs to standard error;
* the effective configuration is echoed to standard error as ``key=value``
  lines before any work starts;
* exit codes are stable for scripting: 0 success, 2 usage or
  configuration problem (a training run that diverges to NaN or Inf is
  one; the message names the epoch and the batch or dev decode), 3 data
  problem, 4 checkpoint problem.

``train`` additionally accepts a configuration file of ``key=value``
lines (``#`` starts a comment); command-line flags override file values,
which override preset values, which override defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing

import numpy as np

from .data import (
    build_vocab,
    load_parallel,
    load_pretrained_embeddings,
    load_references,
)
from .errors import ConfigError, DataError, FormatError, NumericError, UsageError
from .model import ENCODER_KINDS, DecodeSession
from .search import greedy_decode, replace_unks
from .training import (
    PRESETS,
    TrainConfig,
    decode_tokens,
    dev_decode_scores,
    initial_model,
    load_checkpoint,
    make_checkpoint,
    preset_config,
    restore_model,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4

# Config keys are the TrainConfig fields; each value is parsed as its field's type.
CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(TrainConfig))
_FIELD_TYPES = typing.get_type_hints(TrainConfig)
PATH_KEYS = ("train_src", "train_tgt", "dev_src", "dev_tgt", "embeddings", "out")


def _err(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# configuration plumbing


def parse_config_file(path) -> dict:
    """Read ``key=value`` lines; ``#`` comments and blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    out = {}
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    if type(None) in typing.get_args(kind):  # ``lr: float | None`` given a value
        kind = next(t for t in typing.get_args(kind) if t is not type(None))
    try:
        if kind is bool:
            low = value.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(x.strip()) for x in value.split(",") if x.strip())
        return kind(value)
    except ValueError as e:
        raise ConfigError(f"config key {key!r}: {e}") from e


def apply_config_overrides(config: TrainConfig, mapping: dict) -> TrainConfig:
    unknown = sorted(set(mapping) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    coerced = {k: _coerce(k, v) if isinstance(v, str) else v for k, v in mapping.items()}
    return dataclasses.replace(config, **coerced)


def echo_config(config: TrainConfig, extras: dict) -> None:
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "lr":
            value = config.resolved_lr()
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        _err(f"{f.name}={value}")
    echo_options(extras)


def echo_options(options: dict) -> None:
    for key in sorted(options):
        _err(f"{key}={options[key]}")


def _check_max_len(max_len: int) -> None:
    if max_len < 1:
        raise ConfigError(f"max-len {max_len} must be at least 1")


def _parse_beams(text: str) -> list:
    try:
        beams = [int(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad beam list {text!r}: {e}") from e
    if not beams or any(b < 1 for b in beams):
        raise ConfigError(f"beam list {text!r} must contain integers >= 1")
    return beams


# ---------------------------------------------------------------------------
# shared I/O helpers


def _read_checkpoint(path):
    try:
        return load_checkpoint(path)
    except OSError as e:
        raise FormatError(f"cannot read checkpoint {path}: {e}") from e


def _read_lines(path):
    if path is None:
        return sys.stdin.read().splitlines()
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read().splitlines()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e


# ---------------------------------------------------------------------------
# train


def cmd_train(ns) -> int:
    file_map = parse_config_file(ns.config) if ns.config else {}
    unknown = sorted(set(file_map) - CONFIG_KEYS - set(PATH_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    encoder = ns.encoder or file_map.get("encoder_kind") or "lstm"
    if ns.preset:
        config = preset_config(ns.preset, encoder)
    else:
        config = TrainConfig(encoder_kind=encoder)
    config = apply_config_overrides(
        config, {k: v for k, v in file_map.items() if k in CONFIG_KEYS}
    )
    flag_map = {
        "encoder_kind": ns.encoder,
        "dim": ns.dim,
        "vocab_size": ns.vocab_size,
        "lr": ns.lr,
        "batch_size": ns.batch_size,
        "dropout": ns.dropout,
        "max_epochs": ns.epochs,
        "tune_metric": ns.tune_metric,
        "sari_bleu_threshold": ns.sari_bleu_threshold,
        "seed": ns.seed,
        "max_sentence_length": ns.max_sentence_length,
        "bucket": True if ns.bucket else None,
    }
    config = apply_config_overrides(
        config, {k: v for k, v in flag_map.items() if v is not None}
    )
    config.validate()

    paths = {k: file_map.get(k) for k in PATH_KEYS}
    for key in PATH_KEYS:
        flag_value = getattr(ns, key)
        if flag_value is not None:
            paths[key] = flag_value
    missing = [k for k in ("train_src", "train_tgt", "dev_src", "dev_tgt") if not paths[k]]
    if missing:
        raise ConfigError(f"missing required path(s): {', '.join(missing)}")
    out_dir = paths["out"] or "."

    echo_config(config, {k: v for k, v in paths.items() if v})

    try:
        train_corpus = load_parallel(
            paths["train_src"], paths["train_tgt"], config.max_sentence_length
        )
        dev_corpus = load_parallel(
            paths["dev_src"], paths["dev_tgt"], config.max_sentence_length
        )
    except OSError as e:
        raise DataError(str(e)) from e
    if len(train_corpus) == 0 or len(dev_corpus) == 0:
        raise ConfigError("corpus is empty after filtering")

    src_vocab = build_vocab(train_corpus.source_sentences(), config.vocab_size)
    tgt_vocab = build_vocab(train_corpus.target_sentences(), config.vocab_size)
    model = initial_model(config, src_vocab.size, tgt_vocab.size)
    if paths["embeddings"]:
        try:
            table, hit_rate = load_pretrained_embeddings(
                paths["embeddings"], src_vocab, config.dim, np.random.default_rng([config.seed, 3])
            )
        except OSError as e:
            raise DataError(str(e)) from e
        except FormatError as e:
            raise DataError(f"embeddings: {e}") from e
        model.src_embed.E.data = table.E.data.copy()
        _err(f"embeddings_hit_rate={hit_rate:.4f}")

    result = train(
        config,
        train_corpus,
        dev_corpus,
        model=model,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        log=_err,
    )

    try:
        os.makedirs(out_dir, exist_ok=True)
        best_path = os.path.join(out_dir, "best.ckpt")
        last_path = os.path.join(out_dir, "last.ckpt")
        save_checkpoint(result.best, best_path)
        last_record = result.records[-1]
        save_checkpoint(
            make_checkpoint(
                result.model,
                result.src_vocab,
                result.tgt_vocab,
                adam=result.adam,
                epoch=last_record.epoch,
                dev_bleu=last_record.dev_bleu,
                dev_sari=last_record.dev_sari,
            ),
            last_path,
        )
    except OSError as e:
        raise FormatError(f"cannot write checkpoint: {e}") from e

    print(f"best_epoch={result.best.epoch}")
    print(f"best_dev_bleu={result.best.dev_bleu:.4f}")
    print(f"best_dev_sari={result.best.dev_sari:.4f}")
    print(f"best_checkpoint={best_path}")
    print(f"last_checkpoint={last_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simplify


def cmd_simplify(ns) -> int:
    echo_options(
        {
            "checkpoint": ns.checkpoint,
            "beam": ns.beam,
            "max_len": ns.max_len,
            "length_normalize": ns.length_normalize,
        }
    )
    if ns.beam < 1:
        raise ConfigError(f"beam {ns.beam} must be at least 1")
    _check_max_len(ns.max_len)
    ckpt = _read_checkpoint(ns.checkpoint)
    model = restore_model(ckpt)
    for line in _read_lines(ns.input):
        tokens = line.split()
        [out] = decode_tokens(
            model,
            tokens,
            ckpt.src_vocab,
            ckpt.tgt_vocab,
            [ns.beam],
            ns.max_len,
            ns.length_normalize,
        )
        print(" ".join(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(ns) -> int:
    beams = _parse_beams(ns.beams)
    echo_options(
        {
            "checkpoint": ns.checkpoint,
            "src": ns.src,
            "refs": ",".join(ns.refs),
            "beams": ",".join(str(b) for b in beams),
            "max_len": ns.max_len,
            "length_normalize": ns.length_normalize,
        }
    )
    _check_max_len(ns.max_len)
    ckpt = _read_checkpoint(ns.checkpoint)
    model = restore_model(ckpt)
    sources = [line.split() for line in _read_lines(ns.src)]
    references = load_references(ns.refs, expected=len(sources))
    scores = dev_decode_scores(
        model,
        sources,
        references,
        ckpt.src_vocab,
        ckpt.tgt_vocab,
        ns.max_len,
        beams,
        ns.length_normalize,
    )
    rows = [(beam, bleu, sari) for beam, (bleu, sari) in zip(beams, scores)]
    _err(f"decoded beams={','.join(str(b) for b in beams)}")
    best_bleu = max(range(len(rows)), key=lambda i: rows[i][1])
    best_sari = max(range(len(rows)), key=lambda i: rows[i][2])
    print(f"{'beam':>4}  {'bleu':>9}  {'sari':>9}")
    for i, (beam, bleu, sari) in enumerate(rows):
        bleu_mark = "*" if i == best_bleu else " "
        sari_mark = "*" if i == best_sari else " "
        print(f"{beam:>4}  {bleu:8.4f}{bleu_mark}  {sari:8.4f}{sari_mark}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(ns) -> int:
    echo_options({"checkpoint": ns.checkpoint, "max_len": ns.max_len})
    _check_max_len(ns.max_len)
    ckpt = _read_checkpoint(ns.checkpoint)
    model = restore_model(ckpt)
    if ns.sentence is not None:
        tokens = ns.sentence.split()
    else:
        lines = _read_lines(None)
        tokens = lines[0].split() if lines else []
    if not tokens:
        raise ConfigError("no sentence to inspect")
    session = DecodeSession(model, ckpt.src_vocab.encode(tokens))
    hyp = greedy_decode(session, ns.max_len)
    out_tokens = replace_unks(hyp, tokens, ckpt.tgt_vocab)

    print("output: " + " ".join(out_tokens))
    print()
    print("attention (rows = output tokens, columns = source tokens)")
    width = max([len(t) for t in tokens] + [6]) + 1
    label_width = max([len(t) for t in out_tokens] + [6]) + 1
    print(" " * label_width + "".join(f"{t:>{width}}" for t in tokens))
    for out_tok, alpha in zip(out_tokens, hyp.alphas):
        cells = "".join(f"{a:>{width}.3f}" for a in alpha)
        print(f"{out_tok:>{label_width}}{cells}")

    if model.encoder_kind == "nse":
        print()
        print("memory slot weights (rows = encode steps, columns = slots)")
        slot_width = max(width, 7)
        print(" " * label_width + "".join(f"{t:>{slot_width}}" for t in tokens))
        for step_tok, sigma in zip(tokens, session.encoder_output.slot_weights):
            cells = "".join(f"{s:>{slot_width}.3f}" for s in sigma[0])
            print(f"{step_tok:>{label_width}}{cells}")
    else:
        print()
        print("encoder kind lstm keeps no memory trace; attention only")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsesimp",
        description="Train and run memory-augmented sentence simplification models.",
    )
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="train a model and write checkpoints")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--preset", choices=sorted(PRESETS))
    p_train.add_argument("--encoder", choices=ENCODER_KINDS)
    p_train.add_argument("--train-src", dest="train_src")
    p_train.add_argument("--train-tgt", dest="train_tgt")
    p_train.add_argument("--dev-src", dest="dev_src")
    p_train.add_argument("--dev-tgt", dest="dev_tgt")
    p_train.add_argument("--embeddings", dest="embeddings")
    p_train.add_argument("--out", dest="out", help="directory for best/last checkpoints")
    p_train.add_argument("--dim", type=int)
    p_train.add_argument("--vocab-size", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--dropout", type=float)
    p_train.add_argument("--epochs", type=int, help="maximum number of epochs")
    p_train.add_argument("--tune-metric", choices=("bleu", "sari"))
    p_train.add_argument("--sari-bleu-threshold", type=float)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--max-sentence-length", type=int)
    p_train.add_argument("--bucket", action="store_true", default=None)
    p_train.set_defaults(func=cmd_train)

    p_simp = sub.add_parser("simplify", help="decode sentences with a trained model")
    p_simp.add_argument("--checkpoint", required=True)
    p_simp.add_argument("--input", help="source sentences, one per line (default stdin)")
    p_simp.add_argument("--beam", type=int, default=5)
    p_simp.add_argument("--max-len", type=int, default=100)
    p_simp.add_argument("--length-normalize", action="store_true")
    p_simp.set_defaults(func=cmd_simplify)

    p_eval = sub.add_parser("evaluate", help="score a model against references")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--src", required=True)
    p_eval.add_argument("--refs", nargs="+", required=True)
    p_eval.add_argument("--beams", default="1,5,10", help="comma-separated beam sizes")
    p_eval.add_argument("--max-len", type=int, default=100)
    p_eval.add_argument("--length-normalize", action="store_true")
    p_eval.set_defaults(func=cmd_evaluate)

    p_insp = sub.add_parser("inspect", help="show attention and memory traces")
    p_insp.add_argument("--checkpoint", required=True)
    p_insp.add_argument("--sentence", help="source sentence (default: first stdin line)")
    p_insp.add_argument("--max-len", type=int, default=100)
    p_insp.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if ns.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return ns.func(ns)
    except (ConfigError, UsageError, NumericError) as e:
        _err(f"error: {e}")
        return EXIT_USAGE
    except DataError as e:
        _err(f"error: {e}")
        return EXIT_DATA
    except FormatError as e:
        _err(f"error: {e}")
        return EXIT_CHECKPOINT
    except OSError as e:
        _err(f"error: {e}")
        return EXIT_DATA


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
