"""End-to-end tests for the command-line interface."""

import argparse
import dataclasses
import io

import numpy as np
import pytest

import toy_tasks
from nsesimp.cli import (
    CONFIG_KEYS,
    PATH_KEYS,
    apply_config_overrides,
    build_parser,
    echo_config,
    main,
    parse_config_file,
)
from nsesimp.model import ENCODER_KINDS, DecodeSession, build_model
from nsesimp.search import greedy_decode, replace_unks
from nsesimp.training import (
    PRESETS,
    TrainConfig,
    load_checkpoint,
    make_checkpoint,
    restore_model,
    save_checkpoint,
)


def _write(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(10)
    train = toy_tasks.copy_pairs(rng, 12, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 4, min_len=3, max_len=4)
    return {
        "train_src": _write(root / "train.src", [" ".join(s) for s, _ in train.pairs]),
        "train_tgt": _write(root / "train.tgt", [" ".join(t) for _, t in train.pairs]),
        "dev_src": _write(root / "dev.src", [" ".join(s) for s, _ in dev.pairs]),
        "dev_tgt": _write(root / "dev.tgt", [" ".join(t) for _, t in dev.pairs]),
        "root": root,
    }


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory, corpus_files):
    """Untrained models saved as checkpoints; enough for decode plumbing."""
    root = tmp_path_factory.mktemp("ckpts")
    rng = np.random.default_rng(3)
    corpus_words = toy_tasks.copy_pairs(rng, 10)
    src_vocab, tgt_vocab = toy_tasks.vocabs_for(corpus_words)
    paths = {}
    for kind in ("lstm", "nse"):
        model = build_model(kind, 6, src_vocab.size, tgt_vocab.size, np.random.default_rng(5))
        path = root / f"{kind}.ckpt"
        save_checkpoint(make_checkpoint(model, src_vocab, tgt_vocab), path)
        paths[kind] = str(path)
    return paths


# ---------------------------------------------------------------------------
# config files


def test_config_file_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# a comment\n\nencoder_kind = nse\ndim=8  # trailing comment\nbeam_sizes=3,7\n"
    )
    assert parse_config_file(path) == {
        "encoder_kind": "nse",
        "dim": "8",
        "beam_sizes": "3,7",
    }


def test_config_file_bad_line_exits_2(tmp_path, corpus_files):
    conf = tmp_path / "bad.conf"
    conf.write_text("just some words\n")
    code = main(["train", "--config", str(conf)])
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, corpus_files):
    conf = tmp_path / "bad.conf"
    conf.write_text("learning_rate=0.1\n")
    code = main(
        ["train", "--config", str(conf)]
        + ["--train-src", corpus_files["train_src"], "--train-tgt", corpus_files["train_tgt"]]
        + ["--dev-src", corpus_files["dev_src"], "--dev-tgt", corpus_files["dev_tgt"]]
    )
    assert code == 2


def test_bad_config_value_exits_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("dim=three\n")
    assert main(["train", "--config", str(conf)]) == 2


def test_echoed_config_parses_back_to_the_same_config(tmp_path, capsys):
    config = TrainConfig(
        encoder_kind="nse",
        dim=7,
        vocab_size=123,
        lr=0.0125,
        beta1=0.8,
        beta2=0.99,
        adam_eps=1e-7,
        batch_size=3,
        dropout=0.1,
        max_epochs=2,
        tune_metric="sari",
        sari_bleu_threshold=12.5,
        seed=9,
        clip_norm=2.5,
        forget_bias=0.5,
        max_sentence_length=50,
        max_decode_len=20,
        beam_sizes=(3, 7),
        bucket=True,
    )
    default = TrainConfig()
    for f in dataclasses.fields(TrainConfig):
        assert getattr(config, f.name) != getattr(default, f.name), f.name
    capsys.readouterr()
    echo_config(config, {})
    conf = tmp_path / "echo.conf"
    conf.write_text(capsys.readouterr().err, encoding="utf-8")
    assert apply_config_overrides(TrainConfig(), parse_config_file(conf)) == config


def _train_actions():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["train"]._actions


def _train_option(dest):
    return next(a for a in _train_actions() if a.dest == dest)


def test_encoder_and_preset_choices_come_from_their_single_lists():
    assert tuple(_train_option("encoder_kind").choices) == ENCODER_KINDS
    assert list(_train_option("preset").choices) == sorted(PRESETS)


def test_every_train_flag_is_named_after_what_it_sets():
    # train applies a flag to the config through its dest alone
    dests = {a.dest for a in _train_actions()} - {"help", "config", "preset"}
    assert dests - set(PATH_KEYS) <= CONFIG_KEYS
    assert {"encoder_kind", "max_epochs", "bucket"} <= dests


# ---------------------------------------------------------------------------
# train


def _train_args(corpus_files, out_dir, extra=()):
    return (
        [
            "train",
            "--train-src",
            corpus_files["train_src"],
            "--train-tgt",
            corpus_files["train_tgt"],
            "--dev-src",
            corpus_files["dev_src"],
            "--dev-tgt",
            corpus_files["dev_tgt"],
            "--out",
            str(out_dir),
        ]
        + list(extra)
    )


def test_train_writes_checkpoints_and_logs(tmp_path, corpus_files, capsys):
    out_dir = tmp_path / "run"
    code = main(
        _train_args(
            corpus_files,
            out_dir,
            ["--dim", "8", "--epochs", "2", "--batch-size", "8", "--lr", "0.005",
             "--dropout", "0.0", "--seed", "1"],
        )
    )
    captured = capsys.readouterr()
    assert code == 0
    assert (out_dir / "best.ckpt").exists()
    assert (out_dir / "last.ckpt").exists()
    assert "best_epoch=" in captured.out
    assert "best_checkpoint=" in captured.out
    # Config echo and per-epoch logs go to standard error.
    assert "encoder_kind=lstm" in captured.err
    assert "dim=8" in captured.err
    assert "epoch=1 " in captured.err and "epoch=2 " in captured.err
    best = load_checkpoint(out_dir / "best.ckpt")
    assert best.encoder_kind == "lstm" and best.dim == 8
    assert best.adam is None
    # last.ckpt is the resume point: 2 epochs of 2 batches of Adam steps
    last = load_checkpoint(out_dir / "last.ckpt")
    assert last.adam is not None and last.adam.t == 4
    assert len(last.adam.m) == len(last.adam.v) == len(last.params)


def test_train_single_epoch_logs_once(tmp_path, corpus_files, capsys):
    out_dir = tmp_path / "one"
    code = main(
        _train_args(
            corpus_files,
            out_dir,
            ["--dim", "6", "--epochs", "1", "--batch-size", "8", "--dropout", "0.0"],
        )
    )
    captured = capsys.readouterr()
    assert code == 0
    epoch_lines = [l for l in captured.err.splitlines() if l.startswith("epoch=")]
    assert len(epoch_lines) == 1


def test_train_flag_overrides_config_file(tmp_path, corpus_files, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dim=12\nmax_epochs=1\nbatch_size=8\ndropout=0.0\n")
    out_dir = tmp_path / "out"
    code = main(
        _train_args(corpus_files, out_dir, ["--config", str(conf), "--dim", "6"])
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "dim=6" in captured.err
    assert load_checkpoint(out_dir / "best.ckpt").dim == 6


def test_train_config_file_can_supply_paths(tmp_path, corpus_files, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "\n".join(
            [
                f"train_src={corpus_files['train_src']}",
                f"train_tgt={corpus_files['train_tgt']}",
                f"dev_src={corpus_files['dev_src']}",
                f"dev_tgt={corpus_files['dev_tgt']}",
                f"out={tmp_path / 'out'}",
                "dim=6",
                "max_epochs=1",
                "batch_size=8",
                "dropout=0.0",
            ]
        )
        + "\n"
    )
    assert main(["train", "--config", str(conf)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "best.ckpt").exists()


def test_train_from_the_readme_config_example(tmp_path, corpus_files, capsys):
    # the keys of the README's --config example, with a small model and run
    conf = tmp_path / "run.conf"
    conf.write_text(
        "\n".join(
            [
                "encoder_kind = nse",
                "dim = 6",
                "lr = 0.0003",
                "max_epochs = 1",
                f"train_src = {corpus_files['train_src']}",
                f"train_tgt = {corpus_files['train_tgt']}",
                f"dev_src = {corpus_files['dev_src']}",
                f"dev_tgt = {corpus_files['dev_tgt']}",
                f"out = {tmp_path / 'out'}",
            ]
        )
        + "\n"
    )
    assert main(["train", "--config", str(conf)]) == 0
    assert "encoder_kind=nse" in capsys.readouterr().err
    assert load_checkpoint(tmp_path / "out" / "best.ckpt").encoder_kind == "nse"


# the diverging run overflows inside numpy; only the NaN/Inf guard may report it
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_diverged_run_exits_2_naming_the_epoch(tmp_path, corpus_files, capsys):
    code = main(
        _train_args(
            corpus_files,
            tmp_path / "nan",
            ["--dim", "8", "--lr", "1e300", "--epochs", "3", "--batch-size", "8"],
        )
    )
    captured = capsys.readouterr()
    assert code == 2
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith("error: epoch 1, ")
    assert "NaN or Inf" in errors[0]
    assert "Traceback" not in captured.err


# each is a flag or a config-file line; every one used to pass validation
@pytest.mark.parametrize(
    "case",
    [
        "--seed -1",
        "--lr nan",
        "--lr inf",
        "--sari-bleu-threshold nan",
        "clip_norm=nan",
        "adam_eps=inf",
        "forget_bias=nan",
        "forget_bias=-inf",
    ],
)
def test_train_config_value_that_breaks_a_run_exits_2(tmp_path, corpus_files, capsys, case):
    if case.startswith("--"):
        flag, value = case.split()
        key, extra = flag[2:].replace("-", "_"), [flag, value]
    else:
        key = case.split("=")[0]
        (tmp_path / "run.conf").write_text(case + "\n")
        extra = ["--config", str(tmp_path / "run.conf")]
    code = main(_train_args(corpus_files, tmp_path / "out", extra))
    captured = capsys.readouterr()
    assert code == 2
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {key} ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_train_preset_echoes_recipe(tmp_path, corpus_files, capsys):
    out_dir = tmp_path / "preset"
    code = main(
        _train_args(
            corpus_files,
            out_dir,
            ["--preset", "newsela", "--encoder", "nse", "--dim", "6", "--epochs", "1",
             "--batch-size", "8", "--dropout", "0.0"],
        )
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "vocab_size=20000" in captured.err
    assert "sari_bleu_threshold=22.0" in captured.err
    assert "lr=0.0003" in captured.err
    assert "encoder_kind=nse" in captured.err


def test_train_missing_file_exits_3(tmp_path, corpus_files, capsys):
    out_dir = tmp_path / "x"
    args = _train_args(corpus_files, out_dir, ["--epochs", "1"])
    args[args.index("--train-src") + 1] = str(tmp_path / "nope.src")
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert "nope.src" in captured.err


@pytest.mark.parametrize("value", ["0.5x", "nan", "inf"])
def test_train_bad_embeddings_value_exits_3(tmp_path, corpus_files, capsys, value):
    vectors = _write(tmp_path / "vec.txt", ["w00 " + " ".join(["0.5"] * 6),
                                            "w01 " + " ".join(["0.5"] * 5 + [value])])
    args = _train_args(corpus_files, tmp_path / "run", ["--dim", "6", "--epochs", "1"])
    code = main(args + ["--embeddings", vectors])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: embeddings: embedding line 2" in err
    assert not (tmp_path / "run").exists()


NOT_UTF8 = b"w00 w01\n\xff\xfe w02\n"


def test_train_corpus_not_utf8_exits_3(tmp_path, corpus_files, capsys):
    bad = tmp_path / "train.src"
    bad.write_bytes(NOT_UTF8)
    args = _train_args(corpus_files, tmp_path / "run", ["--epochs", "1"])
    args[args.index("--train-src") + 1] = str(bad)
    code = main(args)
    assert code == 3
    assert f"error: {bad} is not UTF-8 text (byte 8)" in capsys.readouterr().err


def test_train_config_not_utf8_exits_2(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"dim=6\nseed=\xff\n")
    assert main(["train", "--config", str(conf)]) == 2
    assert f"{conf} is not UTF-8 text" in capsys.readouterr().err


def test_train_missing_required_paths_exits_2(capsys):
    assert main(["train", "--dim", "6"]) == 2
    assert "missing required path" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simplify


def test_simplify_beam1_matches_greedy_api(tmp_path, corpus_files, saved_models, capsys):
    in_path = tmp_path / "in.txt"
    lines = ["w00 w01 w02", "w03 w04 w05 w06"]
    _write(in_path, lines)
    code = main(
        ["simplify", "--checkpoint", saved_models["lstm"], "--input", str(in_path),
         "--beam", "1", "--max-len", "12"]
    )
    captured = capsys.readouterr()
    assert code == 0
    got = captured.out.splitlines()

    ckpt = load_checkpoint(saved_models["lstm"])
    model = restore_model(ckpt)
    want = []
    for line in lines:
        tokens = line.split()
        hyp = greedy_decode(DecodeSession(model, ckpt.src_vocab.encode(tokens)), 12)
        want.append(" ".join(replace_unks(hyp, tokens, ckpt.tgt_vocab)))
    assert got == want


def test_simplify_preserves_line_count_and_empty_lines(tmp_path, saved_models, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("w00 w01 w02\n\nw04 w05 w06\n"))
    code = main(["simplify", "--checkpoint", saved_models["lstm"], "--beam", "2", "--max-len", "8"])
    captured = capsys.readouterr()
    assert code == 0
    out_lines = captured.out.splitlines()
    assert len(out_lines) == 3
    assert out_lines[1] == ""


def test_simplify_empty_input_is_empty_output(tmp_path, saved_models, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = main(["simplify", "--checkpoint", saved_models["lstm"], "--beam", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""


def test_simplify_input_not_utf8_exits_3(tmp_path, saved_models, capsys, monkeypatch):
    bad = tmp_path / "in.txt"
    bad.write_bytes(NOT_UTF8)
    code = main(["simplify", "--checkpoint", saved_models["lstm"], "--input", str(bad)])
    assert code == 3
    assert f"error: {bad} is not UTF-8 text" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    assert main(["simplify", "--checkpoint", saved_models["lstm"]]) == 3
    assert "error: standard input is not UTF-8 text" in capsys.readouterr().err


def test_simplify_missing_checkpoint_exits_4(tmp_path):
    assert main(["simplify", "--checkpoint", str(tmp_path / "no.ckpt")]) == 4


def test_simplify_corrupt_checkpoint_exits_4(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    assert main(["simplify", "--checkpoint", str(path)]) == 4


def test_simplify_empty_checkpoint_exits_4_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"")
    assert main(["simplify", "--checkpoint", str(path)]) == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: file truncated while reading magic (at offset 0)"]


def test_simplify_directory_as_checkpoint_exits_4_with_one_error_line(tmp_path, capsys):
    assert main(["simplify", "--checkpoint", str(tmp_path)]) == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "cannot read checkpoint" in errors[0]


def test_simplify_bad_beam_exits_2(saved_models):
    assert main(["simplify", "--checkpoint", saved_models["lstm"], "--beam", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simplify", "--beam", "0"],
        ["simplify", "--max-len", "0"],
        ["evaluate", "--src", "t.src", "--refs", "t.ref", "--max-len", "0"],
        ["inspect", "--sentence", "w00", "--max-len", "0"],
    ],
)
def test_bad_decode_option_exits_2_before_reading_the_checkpoint(tmp_path, capsys, argv):
    missing = str(tmp_path / "no.ckpt")
    assert main(argv[:1] + ["--checkpoint", missing] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.index(f"checkpoint={missing}") < err.index("error:")


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_prints_marked_table(tmp_path, saved_models, capsys):
    src = _write(tmp_path / "t.src", ["w00 w01 w02", "w03 w04"])
    ref = _write(tmp_path / "t.ref", ["w00 w01 w02", "w03 w04"])
    code = main(
        ["evaluate", "--checkpoint", saved_models["lstm"], "--src", src,
         "--refs", ref, "--beams", "1,2", "--max-len", "8"]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0].split() == ["beam", "bleu", "sari"]
    assert len(lines) == 3
    assert lines[1].lstrip().startswith("1")
    assert lines[2].lstrip().startswith("2")
    # Exactly one best mark per metric column.
    stars = "".join(lines[1:]).count("*")
    assert 2 <= stars <= 4  # each metric marks one row; rows can share marks


def test_evaluate_accepts_eight_reference_files(tmp_path, saved_models, capsys):
    src = _write(tmp_path / "t.src", ["w00 w01 w02"])
    ref = _write(tmp_path / "t.ref", ["w00 w01"])
    code = main(
        ["evaluate", "--checkpoint", saved_models["lstm"], "--src", src,
         "--refs"] + [ref] * 8 + ["--beams", "1", "--max-len", "6"]
    )
    capsys.readouterr()
    assert code == 0


def test_evaluate_duplicated_reference_file_keeps_scores(tmp_path, saved_models, capsys):
    src = _write(tmp_path / "t.src", ["w00 w01 w02", "w04 w05"])
    ref = _write(tmp_path / "t.ref", ["w00 w01 w02", "w04 w05"])
    main(["evaluate", "--checkpoint", saved_models["lstm"], "--src", src,
          "--refs", ref, "--beams", "1", "--max-len", "6"])
    once = capsys.readouterr().out
    main(["evaluate", "--checkpoint", saved_models["lstm"], "--src", src,
          "--refs", ref, ref, "--beams", "1", "--max-len", "6"])
    twice = capsys.readouterr().out
    assert once == twice


def test_evaluate_misaligned_references_exit_3(tmp_path, saved_models, capsys):
    src = _write(tmp_path / "t.src", ["w00 w01", "w02 w03"])
    ref = _write(tmp_path / "t.ref", ["w00 w01"])  # one line short
    code = main(
        ["evaluate", "--checkpoint", saved_models["lstm"], "--src", src,
         "--refs", ref, "--beams", "1"]
    )
    assert code == 3


def test_evaluate_files_not_utf8_exit_3(tmp_path, saved_models, capsys):
    good = _write(tmp_path / "t.src", ["w00 w01", "w02 w03"])
    bad = tmp_path / "t.bad"
    bad.write_bytes(NOT_UTF8)
    for src, ref in ((good, str(bad)), (str(bad), good)):
        code = main(
            ["evaluate", "--checkpoint", saved_models["lstm"], "--src", src,
             "--refs", ref, "--beams", "1"]
        )
        assert code == 3
        assert f"error: {bad} is not UTF-8 text" in capsys.readouterr().err


def test_evaluate_bad_beam_list_exits_2(tmp_path, saved_models):
    src = _write(tmp_path / "t.src", ["w00"])
    assert main(
        ["evaluate", "--checkpoint", saved_models["lstm"], "--src", src,
         "--refs", src, "--beams", "1,zero"]
    ) == 2


# ---------------------------------------------------------------------------
# inspect


def _grid_rows(block_lines, n_cols):
    rows = []
    for line in block_lines:
        parts = line.split()
        if len(parts) == n_cols + 1:
            try:
                rows.append([float(x) for x in parts[1:]])
            except ValueError:
                continue
    return rows


def test_inspect_attention_rows_sum_to_one(saved_models, capsys):
    code = main(
        ["inspect", "--checkpoint", saved_models["lstm"], "--sentence", "w00 w01 w02 w03",
         "--max-len", "8"]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("output: ")
    out_len = len(lines[0].split()) - 1
    rows = _grid_rows(lines, 4)
    assert len(rows) == out_len
    for row in rows:
        assert abs(sum(row) - 1.0) < 1e-6
    assert "no memory trace" in captured.out


def test_inspect_nse_prints_memory_trace(saved_models, capsys):
    code = main(
        ["inspect", "--checkpoint", saved_models["nse"], "--sentence", "w00 w01 w02",
         "--max-len", "6"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "memory slot weights" in captured.out
    body = captured.out.split("memory slot weights", 1)[1].splitlines()
    sigma_rows = _grid_rows(body, 3)
    # One weight row per encode step, each summing to 1.
    assert len(sigma_rows) == 3
    for row in sigma_rows:
        assert abs(sum(row) - 1.0) < 1e-6


def test_inspect_reads_stdin_when_no_flag(saved_models, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("w00 w01\n"))
    assert main(["inspect", "--checkpoint", saved_models["lstm"], "--max-len", "5"]) == 0
    assert "attention" in capsys.readouterr().out


def test_inspect_empty_sentence_exits_2(saved_models, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["inspect", "--checkpoint", saved_models["lstm"]]) == 2


# ---------------------------------------------------------------------------
# top level


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
