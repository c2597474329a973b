"""End-to-end command-line pipeline: files in, files out, exit codes."""

import ast
import csv
import functools
import graphlib
import json
import logging
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import backrank
from backrank import __version__, cli, load_checkpoint
from backrank.cli import main
from backrank.corpus import read_qrels, read_ranking, records_from_ranking
from backrank.ranker import SWEEP_COLUMNS
from helpers import effectiveness, forbid_fork, pin_cores, read_run, rewrite_checkpoint_header

CFG = """\
seed = 7
num_queries = 12
docs_per_query = 8
relevant_per_query = 2
vocab_size = 60
skew = 0.8
"""

TRAIN_ARGS = ["--epochs", "1", "--lr", "0.01", "--seed", "7",
              "--embed-dim", "16", "--senses", "4", "--sense-hidden", "4",
              "--heads", "2", "--max-seq-len", "32",
              "--depth", "8", "--negatives", "4"]


def read_csv(path):
    """(header, data rows, trailing comment) of a report CSV."""
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("# backrank=")
    rows = list(csv.DictReader(lines[:-1]))
    return lines[0].split(","), rows, lines[-1]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> train -> rank pass shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "tiny.cfg"
    cfg.write_text(CFG)
    data = root / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0

    ckpt = root / "model.ckpt"
    loss = root / "loss.csv"
    assert main(["train", "--corpus", str(data / "corpus.tsv"),
                 "--queries", str(data / "queries.tsv"),
                 "--qrels", str(data / "qrels.txt"),
                 "--out", str(ckpt), "--loss-csv", str(loss), *TRAIN_ARGS]) == 0

    run = root / "run.txt"
    assert main(["rank", "--checkpoint", str(ckpt),
                 "--corpus", str(data / "corpus.tsv"),
                 "--queries", str(data / "queries.tsv"),
                 "--out", str(run), "--depth", "8"]) == 0
    return {"root": root, "cfg": cfg, "data": data, "ckpt": ckpt,
            "loss": loss, "run": run}


# ---------------------------------------------------------------------------
# synth


def test_synth_outputs_and_manifest(pipeline):
    data = pipeline["data"]
    for name in ("corpus.tsv", "queries.tsv", "qrels.txt", "synth.cfg",
                 "manifest.json"):
        assert (data / name).exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 7
    assert manifest["version"] == __version__
    assert manifest["config_values"]["num_queries"] == 12


def test_synth_manifest_holds_only_what_synth_fills(pipeline):
    data = pipeline["data"]
    manifest = json.loads((data / "manifest.json").read_text())
    assert set(manifest) == {"subcommand", "inputs", "outputs", "seed", "config",
                             "config_values", "version"}
    assert manifest["inputs"] == {"config": str(pipeline["cfg"])}
    assert manifest["outputs"] == {"corpus": str(data / "corpus.tsv"),
                                   "queries": str(data / "queries.tsv"),
                                   "qrels": str(data / "qrels.txt")}


def test_synth_rerun_is_byte_identical(pipeline, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", "--config", str(pipeline["cfg"]), "--out", str(again)]) == 0
    for name in ("corpus.tsv", "queries.tsv", "qrels.txt"):
        assert (again / name).read_bytes() == (pipeline["data"] / name).read_bytes()


def test_synth_seed_flag_overrides_config(pipeline, tmp_path):
    other = tmp_path / "other"
    assert main(["synth", "--config", str(pipeline["cfg"]), "--seed", "8",
                 "--out", str(other)]) == 0
    assert (other / "corpus.tsv").read_bytes() != (pipeline["data"] / "corpus.tsv").read_bytes()
    assert json.loads((other / "manifest.json").read_text())["seed"] == 8


def test_synth_rejects_out_of_range_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("skew = 1.5\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert f"error: {bad}:1: skew must be in [0, 1]" in capsys.readouterr().err
    bad.write_text("docs_per_query = 20\nrelevant_per_query = 30\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert (f"error: {bad}: relevant_per_query must be below docs_per_query"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# train


def test_train_checkpoint_and_loss_csv(pipeline):
    model, tokens, meta = load_checkpoint(pipeline["ckpt"])
    assert meta["seed"] == 7
    assert meta["steps"] > 0
    assert tokens[:3] == ["<pad>", "<unk>", "<sep>"]
    header, rows, comment = read_csv(pipeline["loss"])
    assert header == ["step", "loss"]
    assert len(rows) == meta["steps"]
    assert rows[0]["step"] == "1"
    assert comment == f"# backrank={__version__} seed=7 lambda=-"


def test_train_resume_continues_step_count(pipeline, tmp_path):
    data = pipeline["data"]
    ckpt2 = tmp_path / "resumed.ckpt"
    loss2 = tmp_path / "loss2.csv"
    assert main(["train", "--corpus", str(data / "corpus.tsv"),
                 "--queries", str(data / "queries.tsv"),
                 "--qrels", str(data / "qrels.txt"),
                 "--resume", str(pipeline["ckpt"]),
                 "--out", str(ckpt2), "--loss-csv", str(loss2), *TRAIN_ARGS]) == 0
    _, _, meta0 = load_checkpoint(pipeline["ckpt"])
    _, rows, _ = read_csv(loss2)
    assert rows[0]["step"] == str(meta0["steps"] + 1)
    _, _, meta1 = load_checkpoint(ckpt2)
    assert meta1["steps"] == meta0["steps"] + len(rows)


def test_train_resume_rejects_a_shape_option_the_checkpoint_lacks(pipeline, tmp_path,
                                                                  capsys, monkeypatch):
    """The model comes from --resume: a shape option that differs from its
    config is exit 2 before anything loads or is created; an equal one, or
    none, trains on."""
    calls = []
    real = cli.load_collection
    monkeypatch.setattr(cli, "load_collection", lambda *a: calls.append(a) or real(*a))
    data = pipeline["data"]
    out = tmp_path / "out"
    resume = ["train", "--corpus", str(data / "corpus.tsv"),
              "--queries", str(data / "queries.tsv"), "--qrels", str(data / "qrels.txt"),
              "--resume", str(pipeline["ckpt"]), "--epochs", "1", "--lr", "0.01",
              "--depth", "8", "--negatives", "4",
              "--out", str(out / "a" / "m.ckpt"), "--loss-csv", str(out / "b" / "l.csv")]
    for flag, value, field, saved in (("--heads", "4", "context_heads", 2),
                                      ("--embed-dim", "7", "embed_dim", 16),
                                      ("--max-seq-len", "64", "max_seq_len", 32),
                                      ("--layers", "2", "context_layers", 1)):
        assert main([*resume, "--embed-dim", "16", flag, value]) == 2
        assert capsys.readouterr().err == (f"error: {flag} {value} does not match {field} "
                                           f"{saved} of {pipeline['ckpt']}\n")
    assert calls == [] and not out.exists()
    # equal to the checkpoint's (16 is not the --embed-dim default), or not given
    model0, _, _ = load_checkpoint(pipeline["ckpt"])
    for shape in (["--embed-dim", "16", "--senses", "4", "--heads", "2"], []):
        assert main([*resume, *shape]) == 0
        model1, _, _ = load_checkpoint(out / "a" / "m.ckpt")
        assert model1.config == model0.config
    # --layers 2 builds a two-layer encoder, and a resume that names it trains on
    fresh = resume[:7] + resume[9:]    # resume without "--resume <checkpoint>"
    assert main([*fresh, "--layers", "2", "--out", str(out / "two.ckpt")]) == 0
    model2, _, _ = load_checkpoint(out / "two.ckpt")
    assert model2.config.context_layers == 2
    assert main([*fresh, "--resume", str(out / "two.ckpt"), "--layers", "2"]) == 0
    model3, _, meta3 = load_checkpoint(out / "a" / "m.ckpt")
    steps = len(read_csv(out / "b" / "l.csv")[1])    # one epoch, as the fresh run took
    assert model3.config == model2.config and meta3["steps"] == 2 * steps


def test_train_missing_corpus_is_exit_2(pipeline, tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "nope.tsv"),
                 "--queries", str(pipeline["data"] / "queries.tsv"),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(tmp_path / "x.ckpt")]) == 2
    assert "corpus" in capsys.readouterr().err


@pytest.mark.parametrize("lr,message", [("nan", "learning_rate"),
                                        ("1e300", "diverged at step")])
def test_train_diverged_is_exit_2_and_writes_nothing(pipeline, tmp_path, capsys, lr, message):
    data = pipeline["data"]
    ckpt, loss = tmp_path / "x.ckpt", tmp_path / "loss.csv"
    args = [*TRAIN_ARGS]
    args[args.index("--lr") + 1] = lr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--corpus", str(data / "corpus.tsv"),
                     "--queries", str(data / "queries.tsv"),
                     "--qrels", str(data / "qrels.txt"),
                     "--out", str(ckpt), "--loss-csv", str(loss), *args]) == 2
    assert not ckpt.exists() and not loss.exists()
    assert message in capsys.readouterr().err
    # the divergence is reported once, as the error above, not as numpy warnings
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("flag,value,message", [("--epochs", "0", "epochs"),
                                                ("--lr", "nan", "learning_rate"),
                                                ("--depth", "0", "--depth must be >= 1"),
                                                ("--negatives", "0", "--negatives must be >= 1"),
                                                ("--heads", "5", "context_heads must divide"),
                                                ("--senses", "0", "num_senses must be >= 1")])
def test_train_checks_its_options_before_loading(pipeline, tmp_path, capsys, monkeypatch,
                                                 flag, value, message):
    """Before it reads the collection or creates an output's directory."""
    calls = []
    real = cli.load_collection
    monkeypatch.setattr(cli, "load_collection", lambda *a: calls.append(a) or real(*a))
    data = pipeline["data"]
    args = [*TRAIN_ARGS]
    args[args.index(flag) + 1] = value
    out = tmp_path / "out"
    assert main(["train", "--corpus", str(data / "corpus.tsv"),
                 "--queries", str(data / "queries.tsv"),
                 "--qrels", str(data / "qrels.txt"),
                 "--out", str(out / "new1" / "sub" / "x.ckpt"),
                 "--loss-csv", str(out / "new2" / "l.csv"), *args]) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


# ---------------------------------------------------------------------------
# rank


def test_rank_run_format_and_tag(pipeline):
    records = read_run(pipeline["run"])
    assert records
    assert {tag for *_rest, tag in records} == {"backrank-s7"}   # training seed
    per_query = {}
    for qid, _did, rank, score, _tag in records:
        per_query.setdefault(qid, []).append((rank, score))
    for recs in per_query.values():
        assert [rank for rank, _score in recs] == list(range(1, len(recs) + 1))
        scores = [score for _rank, score in recs]
        assert scores == sorted(scores, reverse=True)


def test_rank_lambda_one_equals_omitted(pipeline, tmp_path):
    out = tmp_path / "run_lam1.txt"
    assert main(["rank", "--checkpoint", str(pipeline["ckpt"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--queries", str(pipeline["data"] / "queries.tsv"),
                 "--out", str(out), "--lambda", "1.0", "--depth", "8"]) == 0
    assert out.read_bytes() == pipeline["run"].read_bytes()


def test_rank_suppression_changes_the_run(pipeline, tmp_path):
    out = tmp_path / "run_lam.txt"
    assert main(["rank", "--checkpoint", str(pipeline["ckpt"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--queries", str(pipeline["data"] / "queries.tsv"),
                 "--out", str(out), "--lambda", "0.25", "--top-senses", "2",
                 "--depth", "8"]) == 0
    assert out.read_bytes() != pipeline["run"].read_bytes()


def test_rank_reads_the_lexicon_at_every_lambda(pipeline, tmp_path, capsys):
    """rank takes one path at every lambda: at 1, where no sense is scaled,
    a malformed --pairs file is still exit 2 at its line, and so is a
    --top-senses above the model's sense count."""
    data = pipeline["data"]
    argv = ["rank", "--checkpoint", str(pipeline["ckpt"]), "--corpus", str(data / "corpus.tsv"),
            "--queries", str(data / "queries.tsv"), "--out", str(tmp_path / "x.txt"),
            "--lambda", "1", "--depth", "8"]
    bad = tmp_path / "bad_pairs.txt"
    bad.write_text("he she\nking\n")
    assert main([*argv, "--pairs", str(bad)]) == 2
    assert f"{bad}:2: expected 'negative positive', got 1 fields" in capsys.readouterr().err
    assert main([*argv, "--top-senses", "99"]) == 2
    assert "error: m must be in [0, 4]" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


# words that hold none of the built-in lexicon's pairs; q1 and q2 each match two documents
GENDER_FREE = {"corpus.tsv": "d1\talpha beta\nd2\talpha gamma\nd3\tdelta epsilon\n"
                             "d4\tdelta zeta\nd5\teta theta\nd6\tiota kappa\n",
               "queries.tsv": "q1\talpha\nq2\tdelta\n",
               "qrels.txt": "q1 0 d1 1\nq2 0 d4 1\n"}


@pytest.mark.parametrize("case,message", [
    ("gender-free", "error: attribute_scores needs at least one polarity pair\n"),
    ("one-sense", "error: m must be in [0, 1]\n")], ids=["gender-free", "one-sense"])
def test_rank_at_lambda_1_scores_no_lexicon_pair(pipeline, tmp_path, capsys, case, message):
    """At lambda 1 every sense weight is 1, so rank and sweep with their
    default flags write the unweighted run and rows, silently, on a model
    whose vocabulary holds no lexicon pair and on a one-sense model; so does
    rank below 1 with --top-senses 0. Below 1 with the default m, each still
    needs what it lacks."""
    data, train_args = pipeline["data"], TRAIN_ARGS
    if case == "gender-free":
        data = tmp_path
        for name, text in GENDER_FREE.items():
            (data / name).write_text(text)
    else:
        train_args = [*TRAIN_ARGS, "--senses", "1"]
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--corpus", str(data / "corpus.tsv"),
                 "--queries", str(data / "queries.tsv"), "--qrels", str(data / "qrels.txt"),
                 "--out", str(ckpt), "--loss-csv", str(tmp_path / "loss.csv"), *train_args]) == 0
    capsys.readouterr()
    inputs = ["--checkpoint", str(ckpt), "--corpus", str(data / "corpus.tsv"),
              "--queries", str(data / "queries.tsv"), "--depth", "8"]
    argv = ["rank", *inputs, "--out", str(tmp_path / "run.txt")]
    sweep = ["sweep", *inputs, "--qrels", str(data / "qrels.txt"), "--cutoffs", "2",
             "--out", str(tmp_path / "sweep.csv")]
    model, tokens, _ = load_checkpoint(ckpt)
    ones = (1.0,) * model.config.num_senses
    eval_set = backrank.build_eval_set(
        backrank.load_collection(data / "corpus.tsv", data / "queries.tsv", data / "qrels.txt"),
        backrank.Vocab(tokens), candidate_depth=8)
    records = [rec for _qid, (ranked,) in backrank.rank_all(model, eval_set, (ones,))
               for rec in records_from_ranking(ranked, tag="backrank-s7")]
    backrank.write_run(tmp_path / "want.txt", records)
    cli._write_csv(tmp_path / "want.csv", SWEEP_COLUMNS,
                   backrank.sweep_lambda(model, eval_set, {1.0: ones}, cutoffs=(2,)),
                   seed=7, lambdas=(1.0,))
    for extra in ([], ["--lambda", "0.5", "--top-senses", "0"]):
        assert main([*argv, *extra]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "run.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    assert main([*sweep, "--lambdas", "1.0"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert main([*argv, "--lambda", "0.5"]) == 2
    assert capsys.readouterr().err.endswith(message)
    assert main([*sweep, "--lambdas", "0.5"]) == 2
    assert capsys.readouterr().err.endswith(message)


@pytest.mark.parametrize("fault", ["pairs", "top-senses"])
@pytest.mark.parametrize("subcommand", ["rank", "sweep"])
def test_sense_weights_fail_before_the_collection_is_read(pipeline, tmp_path, capsys,
                                                          monkeypatch, subcommand, fault):
    """rank and sweep build their sense weights right after they load the
    checkpoint: a malformed --pairs file, or a --top-senses above the
    model's sense count, is exit 2 at lambda 1 before the collection is read."""
    calls = []
    monkeypatch.setattr(cli, "load_collection", lambda *a: calls.append(a))
    bad = tmp_path / "bad_pairs.txt"
    bad.write_text("he she\nking\n")
    option, message = {
        "pairs": (["--pairs", str(bad)], f"{bad}:2: expected 'negative positive', got 1 fields"),
        "top-senses": (["--top-senses", "99"], "error: m must be in [0, 4]")}[fault]
    data = pipeline["data"]
    argv = [subcommand, "--checkpoint", str(pipeline["ckpt"]),
            "--corpus", str(data / "corpus.tsv"), "--queries", str(data / "queries.tsv"),
            "--out", str(tmp_path / "x.out"), "--depth", "8", *option]
    if subcommand == "sweep":
        argv += ["--qrels", str(data / "qrels.txt"), "--lambdas", "1.0"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "x.out").exists()


def test_rank_rejects_lambda_zero(pipeline, tmp_path, capsys):
    code = main(["rank", "--checkpoint", str(pipeline["ckpt"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--queries", str(pipeline["data"] / "queries.tsv"),
                 "--out", str(tmp_path / "x.txt"), "--lambda", "0"])
    assert code == 2
    assert "lambda" in capsys.readouterr().err
    assert main(["rank", "--checkpoint", str(pipeline["ckpt"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--queries", str(pipeline["data"] / "queries.tsv"),
                 "--out", str(tmp_path / "x.txt"), "--lambda", "1.5"]) == 2


def test_rank_rejects_ids_with_whitespace(pipeline, tmp_path, capsys):
    """A run line naming such an id would have 7 fields; eval and bias
    could not read the run back."""
    data = pipeline["data"]
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text((data / "corpus.tsv").read_text().replace("d000002\t", "d 2\t", 1))
    queries = tmp_path / "queries.tsv"
    queries.write_text((data / "queries.tsv").read_text().replace("q0002\t", "q 2\t", 1))
    for c, q, bad in ((corpus, data / "queries.tsv", corpus),
                      (data / "corpus.tsv", queries, queries)):
        assert main(["rank", "--checkpoint", str(pipeline["ckpt"]), "--corpus", str(c),
                     "--queries", str(q), "--out", str(tmp_path / "x.run"),
                     "--depth", "8"]) == 2
        assert f"{bad}:2: id " in capsys.readouterr().err
    assert not (tmp_path / "x.run").exists()


def test_rank_rejects_a_tag_with_whitespace_before_loading(pipeline, tmp_path, capsys):
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint")
    assert main(["rank", "--checkpoint", str(garbage),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--queries", str(pipeline["data"] / "queries.tsv"),
                 "--out", str(tmp_path / "x.run"), "--tag", "my run"]) == 2
    err = capsys.readouterr().err
    assert "tag 'my run'" in err and str(garbage) not in err
    assert not (tmp_path / "x.run").exists()


def _exits_before_loading(pipeline, tmp_path, capsys, monkeypatch, subcommand, options,
                          message):
    """``subcommand`` with ``options`` exits 2 with ``message`` before it loads
    the checkpoint or the collection, and writes nothing."""
    calls = []
    for name in ("load_collection", "load_checkpoint"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: calls.append(a) or real(*a))
    data = pipeline["data"]
    argv = [subcommand, "--checkpoint", str(pipeline["ckpt"]),
            "--corpus", str(data / "corpus.tsv"), "--queries", str(data / "queries.tsv"),
            "--out", str(tmp_path / "x.out"), *options]
    if subcommand == "sweep":
        argv += ["--qrels", str(data / "qrels.txt")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("subcommand", ["rank", "sweep"])
def test_depth_is_checked_before_loading(pipeline, tmp_path, capsys, monkeypatch, subcommand):
    _exits_before_loading(pipeline, tmp_path, capsys, monkeypatch, subcommand,
                          ["--depth", "0"], "error: --depth must be >= 1, got 0")


@pytest.mark.parametrize("subcommand,lam", [("rank", "--lambda=1.0"), ("rank", "--lambda=0.5"),
                                            ("sweep", "--lambdas=1.0,0.5")])
def test_negative_top_senses_is_rejected_before_loading(pipeline, tmp_path, capsys,
                                                        monkeypatch, subcommand, lam):
    """At every lambda, including 1 where no sense is suppressed."""
    _exits_before_loading(pipeline, tmp_path, capsys, monkeypatch, subcommand,
                          [lam, "--top-senses", "-3"], "error: --top-senses must be >= 0, got -3")


def test_rank_checks_the_tag_it_would_write(pipeline, tmp_path, capsys):
    """The default tag comes from the checkpoint's meta.seed; a seed with
    whitespace would write 7-field run lines that eval cannot read back."""
    data = pipeline["data"]
    bad = tmp_path / "seed.ckpt"
    rewrite_checkpoint_header(pipeline["ckpt"], bad,
                              lambda h: {**h, "meta": {**h["meta"], "seed": "3 x"}})
    rank = ["rank", "--checkpoint", str(bad), "--corpus", str(data / "corpus.tsv"),
            "--queries", str(data / "queries.tsv"), "--depth", "8"]
    out = tmp_path / "x.run"
    assert main([*rank, "--out", str(out)]) == 2
    assert f"error: {bad}: run tag 'backrank-s3 x' must not contain" in capsys.readouterr().err
    assert not out.exists()
    # an explicit tag is the one written, so the seed no longer matters
    assert main([*rank, "--out", str(out), "--tag", "mine"]) == 0
    assert {tag for *_rest, tag in read_run(out)} == {"mine"}


def test_rank_rejects_bad_checkpoints(pipeline, tmp_path, capsys):
    args = ["--corpus", str(pipeline["data"] / "corpus.tsv"),
            "--queries", str(pipeline["data"] / "queries.tsv"),
            "--out", str(tmp_path / "x.txt"), "--depth", "8"]
    blob = pipeline["ckpt"].read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:20])
    assert main(["rank", "--checkpoint", str(cut), *args]) == 2
    assert str(cut) in capsys.readouterr().err
    # format 1 still carried lm.w; format 2 nested a second tensor container;
    # format 3 named the separator id in its config
    for version in (1, 2, 3):
        old = tmp_path / f"v{version}.ckpt"
        rewrite_checkpoint_header(pipeline["ckpt"], old,
                                  lambda h: {**h, "format_version": version})
        assert main(["rank", "--checkpoint", str(old), *args]) == 2
        assert f"{old}: checkpoint format {version}" in capsys.readouterr().err


def test_checkpoint_vocab_is_checked_at_its_path(pipeline, tmp_path, capsys):
    """A vocabulary that does not fit the model would map most words to <unk>."""
    data = pipeline["data"]
    _, tokens, _ = load_checkpoint(pipeline["ckpt"])
    rank = ["rank", "--corpus", str(data / "corpus.tsv"), "--queries", str(data / "queries.tsv"),
            "--out", str(tmp_path / "x.txt"), "--depth", "8"]
    resume = ["train", "--corpus", str(data / "corpus.tsv"), "--queries", str(data / "queries.tsv"),
              "--qrels", str(data / "qrels.txt"), "--out", str(tmp_path / "x.ckpt"),
              "--loss-csv", str(tmp_path / "x.csv"), *TRAIN_ARGS]
    for i, (vocab, needle) in enumerate([(tokens[:50], "50 tokens for a config of"),
                                         (tokens[3:] + tokens[:3], "reserved tokens")]):
        bad = tmp_path / f"vocab{i}.ckpt"
        rewrite_checkpoint_header(pipeline["ckpt"], bad, lambda h: {**h, "vocab": vocab})
        assert main([*rank, "--checkpoint", str(bad)]) == 2
        assert f"error: {bad}: " in capsys.readouterr().err
        assert main([*resume, "--resume", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: " in err and needle in err
    assert not (tmp_path / "x.txt").exists() and not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("steps", ["12", -1, 2.5, None, True])
def test_resume_with_bad_meta_steps_is_exit_2(pipeline, tmp_path, capsys, steps):
    data = pipeline["data"]
    bad = tmp_path / "steps.ckpt"
    rewrite_checkpoint_header(pipeline["ckpt"], bad,
                              lambda h: {**h, "meta": {**h["meta"], "steps": steps}})
    assert main(["train", "--corpus", str(data / "corpus.tsv"),
                 "--queries", str(data / "queries.tsv"), "--qrels", str(data / "qrels.txt"),
                 "--resume", str(bad), "--out", str(tmp_path / "x.ckpt"),
                 "--loss-csv", str(tmp_path / "x.csv"), *TRAIN_ARGS]) == 2
    assert f"error: {bad}: checkpoint meta 'steps'" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


# ---------------------------------------------------------------------------
# eval / bias


def test_output_path_that_cannot_be_opened_is_exit_2(pipeline, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    for out in (tmp_path, blocker / "x.csv"):
        assert main(["eval", "--run", str(pipeline["run"]),
                     "--qrels", str(pipeline["data"] / "qrels.txt"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err, out


def test_eval_non_finite_score_is_exit_2(pipeline, tmp_path, capsys):
    run = tmp_path / "run.txt"
    run.write_text("q0001 Q0 d000001 1 nan t\n")
    assert main(["eval", "--run", str(run),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(tmp_path / "e.csv")]) == 2
    assert f"{run}:1:" in capsys.readouterr().err


def test_run_listing_a_document_twice_is_exit_2(pipeline, tmp_path, capsys):
    """Without the check eval wrote NDCG above 1 and bias counted d1 twice."""
    run = tmp_path / "run.txt"
    run.write_text("q0001 Q0 d000001 1 0.9 t\nq0001 Q0 d000001 2 0.5 t\n")
    for argv in (["eval", "--qrels", str(pipeline["data"] / "qrels.txt")],
                 ["bias", "--corpus", str(pipeline["data"] / "corpus.tsv")]):
        assert main([*argv, "--run", str(run), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{run}:2:" in err and "q0001" in err and "d000001" in err, argv[0]
    assert not (tmp_path / "o.csv").exists()


def test_eval_negative_qrels_grade_is_exit_2_with_its_line(pipeline, tmp_path, capsys):
    """A grade outside 0..1000 is exit 2 at its line. Without the range check
    1024 overflowed 2.0 ** g (internal error) and three docs graded 1023 wrote nan.
    A grade is ASCII ``-?[0-9]+``: the other forms Python's int() reads (an
    underscore, a plus sign, non-ASCII digits) and any other text are a bad
    relevance; "-0" is grade 0."""
    qrels = tmp_path / "neg.qrels"
    too_large = "too large a relevance grade"
    for grade, message in (("-1", "negative relevance grade"), ("1001", too_large),
                           ("1024", too_large), (str(10 ** 30), too_large),
                           *((odd, "bad relevance") for odd in
                             ("1_0", "+7", "-", "--1", "\u0663", "1.0", "0x1", "1e2"))):
        qrels.write_text(f"q0001 0 d000002 1\nq0001 0 d000001 {grade}\n", encoding="utf-8")
        assert main(["eval", "--run", str(pipeline["run"]), "--qrels", str(qrels),
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert f"{qrels}:2: {message} {grade!r}" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
    qrels.write_text("q0001 0 d000002 1\nq0001 0 d000001 -0\n")
    assert main(["eval", "--run", str(pipeline["run"]), "--qrels", str(qrels),
                 "--out", str(tmp_path / "e.csv")]) == 0


def test_qrels_naming_an_unknown_id_is_exit_2_with_its_line(pipeline, tmp_path, capsys):
    data = pipeline["data"]
    inputs = ["--corpus", str(data / "corpus.tsv"), "--queries", str(data / "queries.tsv")]
    commands = {"train": ["train", "--loss-csv", str(tmp_path / "l.csv"), *TRAIN_ARGS],
                "sweep": ["sweep", "--checkpoint", str(pipeline["ckpt"]), "--depth", "8"]}
    for line, unknown in (("q9999 0 d000001 1", "query 'q9999'"),
                          ("q0001 0 dXXXX 1", "document 'dXXXX'")):
        qrels = tmp_path / "unknown.qrels"
        qrels.write_text(f"q0001 0 d000001 1\n\n{line}\nq0001 0 d000002 0\n")
        for name, argv in commands.items():
            out = tmp_path / f"{name}.out"
            assert main([*argv, *inputs, "--qrels", str(qrels), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{qrels}:3: qrels references unknown {unknown}" in err, name
            assert not out.exists(), name


def test_bad_utf8_byte_in_any_input_is_exit_2_with_its_line(pipeline, tmp_path, capsys):
    data, bad = pipeline["data"], tmp_path / "bad"
    good_run = tmp_path / "good.run"
    good_run.write_text("q0001 Q0 d000001 1 0.5 t\n")
    cases = {
        "corpus": (b"d000001\tshe runs\n", ["bias", "--run", str(good_run), "--corpus", str(bad)]),
        "run": (b"q0001 Q0 d000001 1 0.5 t\n",
                ["eval", "--run", str(bad), "--qrels", str(data / "qrels.txt")]),
        "qrels": (b"q0001 0 d000001 1\n", ["eval", "--run", str(good_run), "--qrels", str(bad)]),
        "synth config": (b"seed = 7\n", ["synth", "--config", str(bad)]),
        "pairs": (b"he she\n", ["senses", "--checkpoint", str(pipeline["ckpt"]),
                                  "--pairs", str(bad)]),
    }
    for name, (first_line, argv) in cases.items():
        bad.write_bytes(first_line + b"caf\xff\n")
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2, name
        assert f"{bad}:2:" in capsys.readouterr().err, name
    assert main(["eval", "--run", str(tmp_path), "--qrels", str(data / "qrels.txt"),
                 "--out", str(tmp_path / "e.csv")]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_bad_utf8_byte_line_counts_every_line_break(pipeline, tmp_path, capsys):
    """The reported line of a bad byte is the line the parsers number, with
    CR-only and CRLF endings as with LF."""
    good_run = tmp_path / "good.run"
    good_run.write_text("q0001 Q0 d000001 1 0.5 t\n")
    bad = tmp_path / "bad.qrels"
    for eol in (b"\r", b"\r\n", b"\n"):
        bad.write_bytes(eol.join([b"q0001 0 d000001 1", b"q0001 0 d000002 0", b"caf\xff", b""]))
        assert main(["eval", "--run", str(good_run), "--qrels", str(bad),
                     "--out", str(tmp_path / "e.csv")]) == 2
        assert f"{bad}:3:" in capsys.readouterr().err, eol


def test_eval_warns_once_for_queries_absent_from_qrels(pipeline, tmp_path, caplog):
    qrels = tmp_path / "partial.qrels"
    qrels.write_text("".join((pipeline["data"] / "qrels.txt").read_text().splitlines(True)[:4]))
    with caplog.at_level(logging.WARNING, logger="backrank.metrics"):
        assert main(["eval", "--run", str(pipeline["run"]), "--qrels", str(qrels),
                     "--out", str(tmp_path / "e.csv")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "10 of 12 queries absent from qrels (first q0003); scoring them 0"]


def test_eval_csv_matches_library(pipeline, tmp_path):
    from backrank import read_qrels, read_ranking
    out = tmp_path / "eval.csv"
    assert main(["eval", "--run", str(pipeline["run"]),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(out), "--cutoffs", "5,8"]) == 0
    header, rows, comment = read_csv(out)
    assert header == ["cutoff", "mrr", "ndcg"]
    assert [r["cutoff"] for r in rows] == ["5", "8"]
    grouped = read_ranking(pipeline["run"])
    means = effectiveness(grouped, read_qrels(pipeline["data"] / "qrels.txt"), (5, 8))
    for row in rows:    # the one-process means, as eval writes them
        k = int(row["cutoff"])
        assert row["mrr"] == f"{means[('mrr', k)]:.6f}"
        assert row["ndcg"] == f"{means[('ndcg', k)]:.6f}"
    assert comment.endswith("seed=- lambda=-")


def test_eval_keeps_file_order_on_tied_ranks(tmp_path):
    """Two documents tie at rank 1 and the relevant one comes second in the
    file, so it is ranked second: MRR 0.5. Ordering ties by doc id would put
    it first."""
    run, qrels, out = tmp_path / "tie.run", tmp_path / "tie.qrels", tmp_path / "eval.csv"
    run.write_text("q1 Q0 dz 1 0.5 s\nq1 Q0 da 1 0.5 s\n")
    qrels.write_text("q1 0 da 1\n")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(out),
                 "--cutoffs", "10"]) == 0
    _, rows, _ = read_csv(out)
    assert rows == [{"cutoff": "10", "mrr": "0.500000", "ndcg": "0.630930"}]


def test_bias_builds_no_full_token_list(pipeline, tmp_path, monkeypatch):
    """bias reads each document's gender tokens alone, and writes the report
    that the corpus's full token lists give."""
    args = ["bias", "--run", str(pipeline["run"]), "--corpus",
            str(pipeline["data"] / "corpus.tsv"), "--cutoffs", "1,3,8", "--variant", "both"]
    monkeypatch.setattr(cli, "read_gender_tokens", backrank.corpus.read_tsv)
    assert main([*args, "--out", str(tmp_path / "full.csv")]) == 0
    monkeypatch.undo()

    def no_tokenize(text):
        raise AssertionError("a full token list was built")

    monkeypatch.setattr(backrank.corpus, "tokenize", no_tokenize)
    assert main([*args, "--out", str(tmp_path / "bias.csv")]) == 0
    assert (tmp_path / "bias.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_bias_csv_variants(pipeline, tmp_path):
    out = tmp_path / "bias.csv"
    assert main(["bias", "--run", str(pipeline["run"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--out", str(out), "--cutoffs", "5", "--variant", "both"]) == 0
    header, rows, _ = read_csv(out)
    assert header == ["variant", "cutoff", "rab", "arab"]
    assert [r["variant"] for r in rows] == ["tf", "bool"]
    assert all(float(r["arab"]) > 0.0 for r in rows)    # skewed corpus


def test_bias_variant_selects_the_rows_of_both(pipeline, tmp_path):
    """``--variant tf`` and ``--variant bool`` write exactly the header, the
    matching rows and the trailing comment of ``--variant both``."""
    def written(variant):
        out = tmp_path / f"bias.{variant}.csv"
        assert main(["bias", "--run", str(pipeline["run"]),
                     "--corpus", str(pipeline["data"] / "corpus.tsv"), "--out", str(out),
                     "--cutoffs", "5,10", "--variant", variant]) == 0
        return out.read_text().splitlines()

    header, *rows, comment = written("both")
    assert [row.split(",")[0] for row in rows] == ["tf", "tf", "bool", "bool"]
    for variant in ("tf", "bool"):
        assert written(variant) == [header, *(row for row in rows
                                              if row.startswith(variant + ",")), comment]


def test_bias_gender_free_corpus_is_all_zeros(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("d1\talpha beta gamma\nd2\tdelta beta\n")
    run = tmp_path / "run.txt"
    run.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.5 t\n")
    out = tmp_path / "bias.csv"
    assert main(["bias", "--run", str(run), "--corpus", str(corpus),
                 "--out", str(out), "--cutoffs", "1,2"]) == 0
    _, rows, _ = read_csv(out)
    assert rows
    for row in rows:
        assert float(row["rab"]) == 0.0
        assert float(row["arab"]) == 0.0


def test_bias_run_doc_missing_from_corpus_is_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("d1\talpha\n")
    run = tmp_path / "run.txt"
    run.write_text("q1 Q0 ghost 1 0.9 t\n")
    assert main(["bias", "--run", str(run), "--corpus", str(corpus),
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert "ghost" in capsys.readouterr().err


def test_bias_names_the_first_run_line_whose_document_the_corpus_lacks(pipeline, tmp_path,
                                                                      capsys):
    run = tmp_path / "run.txt"
    lines = pipeline["run"].read_text().splitlines(True)
    run.write_text("".join(lines) + "q0001 Q0 dNOPE 1 0.5 x\n")
    argv = ["bias", "--run", str(run), "--corpus", str(pipeline["data"] / "corpus.tsv"),
            "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {run}:{len(lines) + 1}: run document 'dNOPE' "
                                       "(query q0001) missing from corpus\n")
    # the first such line of the file, not the first by rank
    run.write_text("q1 Q0 d000001 1 0.9 t\nq1 Q0 ghostB 3 0.1 t\nq1 Q0 ghostA 2 0.5 t\n")
    assert main(argv) == 2
    assert f"{run}:2: run document 'ghostB' (query q1)" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def _bias_argv(run, corpus, out):
    return ["bias", "--run", str(run), "--corpus", str(corpus), "--out", str(out),
            "--variant", "both"]


def _counted_forks(monkeypatch):
    """Count the forks this process makes; each still forks."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("gender_free", [False, True], ids=["pipeline", "gender-free"])
def test_bias_writes_the_same_bytes_under_one_and_two_workers(pipeline, tmp_path,
                                                              monkeypatch, gender_free):
    """With two usable cores a forked helper reads the corpus while this
    process reads the run, and the CSV is byte-identical to one process's."""
    run, corpus = pipeline["run"], pipeline["data"] / "corpus.tsv"
    if gender_free:
        run, corpus = tmp_path / "run.txt", tmp_path / "corpus.tsv"
        run.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.5 t\n")
        corpus.write_text("d1\talpha beta gamma\nd2\tdelta beta\n")
    forks = _counted_forks(monkeypatch)
    for workers in (1, 2):
        pin_cores(monkeypatch, workers)
        assert main(_bias_argv(run, corpus, tmp_path / f"{workers}.csv")) == 0
        assert len(forks) == workers - 1
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_bias_malformed_corpus_under_two_workers_is_exit_2_with_its_line(pipeline, tmp_path,
                                                                         capsys, monkeypatch):
    """The helper fails on the malformed corpus line; this process reads the
    corpus itself and reports that line as one process does."""
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text((pipeline["data"] / "corpus.tsv").read_text() + "no tab here\n")
    line = len(corpus.read_text().splitlines())
    forks = _counted_forks(monkeypatch)
    for workers in (1, 2):
        pin_cores(monkeypatch, workers)
        assert main(_bias_argv(pipeline["run"], corpus, tmp_path / "b.csv")) == 2
        assert capsys.readouterr().err == f"error: {corpus}:{line}: expected id<TAB>text\n"
    assert len(forks) == 1 and not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run_text,message", [
    ("q1 Q0 d1 1 0.5\n", "{run}:1: expected 6 fields, got 5"),
    ("\n", "run file {run} holds no records"),
])
def test_bias_reports_the_runs_error_before_the_corpus(tmp_path, capsys, monkeypatch,
                                                       workers, run_text, message):
    """When the run and the corpus are both malformed, the run's error is the
    one reported, the empty-run check included."""
    run, corpus = tmp_path / "run.txt", tmp_path / "corpus.tsv"
    run.write_text(run_text)
    corpus.write_text("d1\tshe\nd1\the\n")
    pin_cores(monkeypatch, workers)
    assert main(_bias_argv(run, corpus, tmp_path / "b.csv")) == 2
    assert capsys.readouterr().err == f"error: {message.format(run=run)}\n"


def test_bias_reads_the_corpus_itself_when_fork_fails(pipeline, tmp_path, monkeypatch):
    """A fork that fails costs time, not the call: this process reads the
    corpus and writes the same bytes."""
    argv = functools.partial(_bias_argv, pipeline["run"], pipeline["data"] / "corpus.tsv")
    pin_cores(monkeypatch, 1)
    assert main(argv(tmp_path / "1.csv")) == 0
    pin_cores(monkeypatch, 2)
    forks = []

    def failing_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert main(argv(tmp_path / "2.csv")) == 0
    assert forks == [1]
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_bias_forks_nothing_while_another_thread_runs(pipeline, tmp_path, monkeypatch):
    """A forked child would inherit any lock another thread holds, so with a
    second thread alive this process reads both files itself."""
    argv = functools.partial(_bias_argv, pipeline["run"], pipeline["data"] / "corpus.tsv")
    pin_cores(monkeypatch, 1)
    assert main(argv(tmp_path / "1.csv")) == 0
    pin_cores(monkeypatch, 2)
    forbid_fork(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert main(argv(tmp_path / "2.csv")) == 0
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


# ---------------------------------------------------------------------------
# senses / sweep


def test_senses_table_stdout(pipeline, capsys):
    assert main(["senses", "--checkpoint", str(pipeline["ckpt"])]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["sense", "score"]
    assert len(lines) == 6    # header + 4 senses + ranking line
    assert lines[-1].startswith("most gender-sensitive first:")


def test_senses_csv(pipeline, tmp_path):
    out = tmp_path / "senses.csv"
    assert main(["senses", "--checkpoint", str(pipeline["ckpt"]),
                 "--out", str(out)]) == 0
    header, rows, _ = read_csv(out)
    assert header == ["sense", "score"]
    assert [r["sense"] for r in rows] == ["0", "1", "2", "3"]
    for r in rows:
        assert -1.0 <= float(r["score"]) <= 1.0


def test_sweep_csv(pipeline, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--checkpoint", str(pipeline["ckpt"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--queries", str(pipeline["data"] / "queries.tsv"),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(out), "--lambdas", "1.0,0.5",
                 "--top-senses", "2", "--cutoffs", "5,8", "--depth", "8"]) == 0
    header, rows, comment = read_csv(out)
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 4    # 2 lambdas x 2 cutoffs
    assert comment == f"# backrank={__version__} seed=7 lambda=1.0|0.5"


def test_a_checkpoint_seed_stays_on_the_comment_line(pipeline, tmp_path):
    """meta.seed is free-form; a line break in it must not start a CSV row."""
    data = pipeline["data"]
    bad = tmp_path / "seed.ckpt"
    rewrite_checkpoint_header(pipeline["ckpt"], bad,
                              lambda h: {**h, "meta": {**h["meta"], "seed": "1\n3,0.99"}})
    senses, sweep = tmp_path / "senses.csv", tmp_path / "sweep.csv"
    assert main(["senses", "--checkpoint", str(bad), "--out", str(senses)]) == 0
    assert main(["sweep", "--checkpoint", str(bad), "--corpus", str(data / "corpus.tsv"),
                 "--queries", str(data / "queries.tsv"), "--qrels", str(data / "qrels.txt"),
                 "--out", str(sweep), "--lambdas", "1.0", "--cutoffs", "5",
                 "--depth", "8"]) == 0
    for path, n_rows, lam in ((senses, 4, "-"), (sweep, 1, "1.0")):
        _, rows, comment = read_csv(path)
        assert len(rows) == n_rows
        assert comment == f'# backrank={__version__} seed="1\\n3,0.99" lambda={lam}'


def test_sweep_identity_row_matches_eval_and_bias(pipeline, tmp_path):
    sweep = tmp_path / "sweep.csv"
    evalc = tmp_path / "eval.csv"
    bias = tmp_path / "bias.csv"
    base = ["--checkpoint", str(pipeline["ckpt"]),
            "--corpus", str(pipeline["data"] / "corpus.tsv"),
            "--queries", str(pipeline["data"] / "queries.tsv"),
            "--qrels", str(pipeline["data"] / "qrels.txt")]
    assert main(["sweep", *base, "--out", str(sweep), "--lambdas", "1.0",
                 "--cutoffs", "8", "--depth", "8"]) == 0
    assert main(["eval", "--run", str(pipeline["run"]),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(evalc), "--cutoffs", "10"]) == 0
    assert main(["bias", "--run", str(pipeline["run"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--out", str(bias), "--cutoffs", "8"]) == 0
    _, srows, _ = read_csv(sweep)
    _, erows, _ = read_csv(evalc)
    _, brows, _ = read_csv(bias)
    assert srows[0]["mrr@10"] == erows[0]["mrr"]
    assert srows[0]["ndcg@10"] == erows[0]["ndcg"]
    tf = next(r for r in brows if r["variant"] == "tf")
    assert srows[0]["rab_tf"] == tf["rab"]
    assert srows[0]["arab_tf"] == tf["arab"]


def test_sweep_lambda_1_rows_do_not_depend_on_the_other_lambdas(pipeline, tmp_path):
    """Scoring the lexicon never moves a lambda 1 row: alone, lambda 1 takes
    m = 0 and scores nothing, and its data rows are byte-equal to the
    lambda 1 rows of a sweep that scores the lexicon for lambda 0.5."""
    data = pipeline["data"]
    base = ["sweep", "--checkpoint", str(pipeline["ckpt"]), "--corpus", str(data / "corpus.tsv"),
            "--queries", str(data / "queries.tsv"), "--qrels", str(data / "qrels.txt"),
            "--cutoffs", "5,8", "--depth", "8"]
    rows = {}
    for lambdas in ("1.0", "1.0,0.5"):
        out = tmp_path / f"sweep-{lambdas}.csv"
        assert main([*base, "--lambdas", lambdas, "--out", str(out)]) == 0
        rows[lambdas] = out.read_bytes().splitlines()[1:-1]
    assert len(rows["1.0"]) == 2 and len(rows["1.0,0.5"]) == 4
    assert rows["1.0"] == [r for r in rows["1.0,0.5"] if r.startswith(b"1.000000,")]


def test_rank_then_eval_and_bias_equal_the_sweep_row(tmp_path):
    """Ranking under one lambda and scoring the run file gives the cells of
    that lambda's sweep row."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CFG.replace("seed = 7", "seed = 3").replace("num_queries = 12",
                                                               "num_queries = 40"))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    coll = ["--corpus", str(data / "corpus.tsv"), "--queries", str(data / "queries.tsv")]
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", *coll, "--qrels", str(data / "qrels.txt"), "--out", str(ckpt),
                 "--loss-csv", str(tmp_path / "loss.csv"), *TRAIN_ARGS]) == 0
    model = ["--checkpoint", str(ckpt), *coll, "--depth", "8", "--top-senses", "3"]
    run, sweep = tmp_path / "r.run", tmp_path / "s.csv"
    assert main(["rank", *model, "--lambda", "0.5", "--out", str(run)]) == 0
    assert main(["sweep", *model, "--qrels", str(data / "qrels.txt"), "--out", str(sweep),
                 "--lambdas", "1.0,0.5", "--cutoffs", "10"]) == 0
    assert main(["eval", "--run", str(run), "--qrels", str(data / "qrels.txt"),
                 "--out", str(tmp_path / "e.csv"), "--cutoffs", "10"]) == 0
    assert main(["bias", "--run", str(run), "--corpus", str(data / "corpus.tsv"),
                 "--out", str(tmp_path / "b.csv"), "--cutoffs", "10"]) == 0
    _, srows, _ = read_csv(sweep)
    [erow] = read_csv(tmp_path / "e.csv")[1]
    brows = {r["variant"]: r for r in read_csv(tmp_path / "b.csv")[1]}
    [row] = [r for r in srows if r["lambda"] == "0.500000"]
    assert (row["mrr@10"], row["ndcg@10"]) == (erow["mrr"], erow["ndcg"])
    for v in ("tf", "bool"):
        assert (row[f"rab_{v}"], row[f"arab_{v}"]) == (brows[v]["rab"], brows[v]["arab"])
    assert row != srows[0]    # suppression moved the row


# ---------------------------------------------------------------------------
# rank and sweep by query block


class _StderrHandler(logging.StreamHandler):
    """A handler on whatever ``sys.stderr`` is when a record arrives."""

    def emit(self, record):
        self.stream = sys.stderr
        super().emit(record)


@pytest.fixture
def log_to_stderr(capfd):
    """The CLI's log lines on the captured stderr, formatted as ``main``
    configures them; pytest's own root handlers keep ``basicConfig`` from
    adding one in this process. A helper that logged would write there too."""
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.getLogger("backrank").addHandler(handler)
    yield
    logging.getLogger("backrank").removeHandler(handler)


def _warned_calls(pipeline, tmp_path):
    """rank and a 3-lambda sweep, by output name, on the pipeline's
    collection plus a query that retrieves nothing, with qrels for 2 of its
    12 other queries and a cutoff past the end of every list."""
    data = pipeline["data"]
    queries, qrels = tmp_path / "queries.tsv", tmp_path / "partial.qrels"
    queries.write_text((data / "queries.tsv").read_text() + "q9999\tnothing retrieves this\n")
    qrels.write_text("".join((data / "qrels.txt").read_text().splitlines(True)[:4]))
    inputs = ["--checkpoint", str(pipeline["ckpt"]), "--corpus", str(data / "corpus.tsv"),
              "--queries", str(queries), "--depth", "8"]
    return {"run.txt": ["rank", *inputs, "--lambda", "0.5", "--top-senses", "2",
                        "--out", str(tmp_path / "run.txt")],
            "sweep.csv": ["sweep", *inputs, "--qrels", str(qrels), "--lambdas", "1.0,0.7,0.5",
                          "--cutoffs", "5,10", "--out", str(tmp_path / "sweep.csv")]}


def test_sweep_prints_each_warning_once(pipeline, tmp_path, capfd, log_to_stderr):
    """Every lambda ranks the same queries with the same candidate lists, so
    the dropped query, the cutoff past the lists' end and the queries absent
    from qrels are one line each, however many lambdas the sweep has."""
    assert main(_warned_calls(pipeline, tmp_path)["sweep.csv"]) == 0
    assert capfd.readouterr().err == (
        "WARNING backrank.senses: dropped 5 polarity pairs with out-of-vocabulary terms\n"
        "WARNING backrank.corpus: dropped 1 queries with no retrievable candidates\n"
        "WARNING backrank.metrics: bias cutoff 10 exceeds the length of 12 of 12 lists "
        "(shortest 8); using their prefix\n"
        "WARNING backrank.metrics: 10 of 12 queries absent from qrels (first q0003); "
        "scoring them 0\n")


def test_rank_and_sweep_write_the_same_bytes_and_stderr_under_one_and_two_workers(
        pipeline, tmp_path, monkeypatch, capfd, log_to_stderr):
    """Each block of queries but the first is ranked, and in a sweep scored,
    by a forked helper that logs nothing: the run file, the CSV and stderr,
    where a helper's own writes would show, are the same bytes under one and
    two usable cores, and each call forks workers - 1 helpers."""
    calls = _warned_calls(pipeline, tmp_path)
    forks = _counted_forks(monkeypatch)
    seen = {}
    for workers in (1, 2):
        pin_cores(monkeypatch, workers)
        for name, argv in calls.items():
            forks.clear()
            assert main(argv) == 0
            assert len(forks) == workers - 1
            seen[workers, name] = (tmp_path / name).read_bytes(), capfd.readouterr()
    for name in calls:
        assert seen[1, name] == seen[2, name]
    assert all(seen[1, name][1].err for name in calls)    # each warns of the dropped query


def _one_query_retrieves(tmp_path):
    """A checkpoint trained on the gender-free corpus with q1, which
    retrieves d1 and d2, and q2, which retrieves nothing; the files' paths."""
    for name, text in {**GENDER_FREE, "queries.tsv": "q1\talpha\nq2\tomega\n",
                       "qrels.txt": "q1 0 d1 1\n"}.items():
        (tmp_path / name).write_text(text)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--corpus", str(tmp_path / "corpus.tsv"),
                 "--queries", str(tmp_path / "queries.tsv"), "--qrels", str(tmp_path / "qrels.txt"),
                 "--out", str(ckpt), "--loss-csv", str(tmp_path / "loss.csv"), *TRAIN_ARGS]) == 0

    def argv(subcommand, queries):
        inputs = ["--checkpoint", str(ckpt), "--corpus", str(tmp_path / "corpus.tsv"),
                  "--queries", str(queries), "--out", str(tmp_path / f"{subcommand}.out")]
        if subcommand == "sweep":
            inputs += ["--qrels", str(tmp_path / "qrels.txt"), "--lambdas", "1.0", "--cutoffs", "2"]
        return [subcommand, *inputs]
    return argv


def test_a_block_whose_queries_retrieve_nothing_is_no_error(tmp_path, monkeypatch, capfd,
                                                             log_to_stderr):
    """Under two workers q2 is the helper's block, and BM25 retrieves nothing
    for it: rank and sweep exit 0 with q1's outputs and one warning."""
    argv = _one_query_retrieves(tmp_path)
    capfd.readouterr()
    pin_cores(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    for subcommand in ("rank", "sweep"):
        forks.clear()
        assert main(argv(subcommand, tmp_path / "queries.tsv")) == 0
        assert capfd.readouterr().err == (
            "WARNING backrank.corpus: dropped 1 queries with no retrievable candidates\n")
        assert len(forks) == 1
    assert {line.split()[0] for line in (tmp_path / "rank.out").read_text().splitlines()} == {"q1"}


def test_a_collection_where_nothing_retrieves_is_exit_2(tmp_path, monkeypatch, capfd,
                                                       log_to_stderr):
    """When no block's queries retrieve anything, rank and sweep fail with
    one warning and today's message, under one and two workers alike."""
    argv = _one_query_retrieves(tmp_path)
    queries = tmp_path / "none.tsv"
    queries.write_text("q1\tomega\nq2\tpsi\n")
    capfd.readouterr()
    for workers in (1, 2):
        pin_cores(monkeypatch, workers)
        for subcommand in ("rank", "sweep"):
            assert main(argv(subcommand, queries)) == 2
            assert capfd.readouterr().err == (
                "WARNING backrank.corpus: dropped 2 queries with no retrievable candidates\n"
                "error: no queries with candidates to evaluate\n")
            assert not (tmp_path / f"{subcommand}.out").exists()


def _run_cases(pipeline, tmp_path):
    """name -> (run file bytes, the error eval reports or None) of the runs
    that ``eval``'s block driver must score, or reject, as one process does."""
    run = tmp_path / "run.txt"
    lines = pipeline["run"].read_bytes().splitlines(True)
    late = len(lines) - 3    # a line past the byte midpoint, 0-based
    half = next(i for i, line in enumerate(lines) if line.startswith(b"q0007"))

    def query(qid, n, first=1):
        return b"".join(b"%s Q0 d%06d %d 0.5 t\n" % (qid, i, i) for i in range(first, first + n))

    return {
        "pipeline": (b"".join(lines), None),
        # q0007-q0012 first: the blocks' values join in sorted id order
        "unsorted": (b"".join(lines[half:] + lines[:half]), None),
        # q0002's 40 lines hold the byte midpoint: the cut moves past them
        "straddle": (query(b"q0001", 3) + query(b"q0002", 40) + query(b"q0003", 3), None),
        # q0001 in both blocks: the whole file is read again
        "two stretches": (query(b"q0001", 5) + query(b"q0002", 5) + query(b"q0001", 5, 6), None),
        "faulty line": (b"".join(lines[:late] + [b"q0012 Q0 d000001 x 0.5 t\n"] + lines[late:]),
                        f"{run}:{late + 1}: bad rank 'x'"),
        "bad byte": (b"".join(lines[:late] + [b"caf\xff\n"] + lines[late:]),
                     f"{run}:{late + 1}: byte 0xff is not valid UTF-8"),
        "blank lines": (b"\n \n\n", f"run file {run} holds no records"),
        "one query": (query(b"q0001", 2), None),
    }


@pytest.mark.parametrize("case", ["pipeline", "unsorted", "straddle", "two stretches",
                                  "faulty line", "bad byte", "blank lines", "one query"])
def test_eval_writes_the_same_bytes_and_stderr_under_one_and_two_workers(
        pipeline, tmp_path, monkeypatch, capfd, log_to_stderr, case):
    """Under two usable cores a forked helper parses and scores the second
    block of the run: eval.csv and stderr (one absent-qrels warning, or the
    error at the faulty line of the whole file) are the bytes one process
    writes, and the means are the one-process ``effectiveness``. Only a
    run that a block cannot score alone is read again whole."""
    data, message = _run_cases(pipeline, tmp_path)[case]
    run, qrels, out = tmp_path / "run.txt", tmp_path / "partial.qrels", tmp_path / "eval.csv"
    run.write_bytes(data)
    qrels.write_text("".join((pipeline["data"] / "qrels.txt").read_text().splitlines(True)[:4]))
    argv = ["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(out)]
    forks, reads, read_ranking = _counted_forks(monkeypatch), [], cli.read_ranking
    monkeypatch.setattr(cli, "read_ranking", lambda path: reads.append(1) or read_ranking(path))
    capfd.readouterr()
    seen = {}
    for workers in (1, 2):
        pin_cores(monkeypatch, workers)
        forks.clear()
        reads.clear()
        out.unlink(missing_ok=True)
        code = main(argv)
        seen[workers] = code, out.read_bytes() if out.exists() else None, capfd.readouterr().err
        assert len(forks) == workers - 1, workers
        # only a faulty run, or one whose query lands in two blocks, is read again
        assert len(reads) == (message is not None or (case, workers) == ("two stretches", 2))
    assert seen[1] == seen[2]
    code, csv_bytes, err = seen[1]
    if message is not None:
        assert (code, csv_bytes, err) == (2, None, f"error: {message}\n")
        return
    means = effectiveness(read_ranking(run), read_qrels(qrels), (10, 20, 30, 40))
    assert code == 0 and csv_bytes.decode().splitlines()[1:-1] == [
        f"{k},{means[('mrr', k)]:.6f},{means[('ndcg', k)]:.6f}" for k in (10, 20, 30, 40)]
    assert err == capfd.readouterr().err    # the warning the oracle logs, if any
    assert err.count("absent from qrels") == (case in ("pipeline", "unsorted", "straddle"))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run_text,message", [
    ("q0001 Q0 d000001 1 0.5 t\nq0001 Q0 d000002 2 high t\n", "{run}:2: bad score 'high'"),
    ("\n", "run file {run} holds no records"),
])
def test_eval_reports_the_runs_error_before_the_qrels(tmp_path, capsys, monkeypatch,
                                                      workers, run_text, message):
    """eval reads the qrels before its run blocks, yet when the run and the
    qrels are both malformed, the run's error is the one reported, as when
    eval read the run first; the empty-run error too."""
    run, qrels = tmp_path / "run.txt", tmp_path / "bad.qrels"
    run.write_text(run_text)
    qrels.write_text("q0001 0 d000001 1\nq0001 0 d000002\n")
    pin_cores(monkeypatch, workers)
    assert main(["eval", "--run", str(run), "--qrels", str(qrels),
                 "--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(run=run)}\n"
    run.write_text("q0001 Q0 d000001 1 0.5 t\n")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels),
                 "--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr().err == f"error: {qrels}:2: expected 4 fields, got 3\n"
    assert not (tmp_path / "e.csv").exists()


# ---------------------------------------------------------------------------
# plumbing


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["not-a-subcommand"])
    assert err.value.code == 2


def test_bad_cutoffs_is_exit_2(pipeline, tmp_path, capsys):
    assert main(["eval", "--run", str(pipeline["run"]),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(tmp_path / "x.csv"), "--cutoffs", "a,b"]) == 2
    assert "cutoff" in capsys.readouterr().err


def _writing_commands(pipeline, out):
    """Each subcommand that writes files, with every output under ``out``."""
    data = pipeline["data"]
    coll = ["--corpus", str(data / "corpus.tsv"), "--queries", str(data / "queries.tsv")]
    model = ["--checkpoint", str(pipeline["ckpt"]), *coll, "--depth", "8"]
    qrels = ["--qrels", str(data / "qrels.txt")]
    return {
        "train": (["train", *coll, *qrels, "--out", str(out / "a" / "m.ckpt"),
                   "--loss-csv", str(out / "b" / "loss.csv"), *TRAIN_ARGS],
                  ["a/m.ckpt", "b/loss.csv"]),
        "rank": (["rank", *model, "--out", str(out / "c" / "x.run")], ["c/x.run"]),
        "eval": (["eval", "--run", str(pipeline["run"]), *qrels,
                  "--out", str(out / "d" / "eval.csv")], ["d/eval.csv"]),
        "bias": (["bias", "--run", str(pipeline["run"]), "--corpus", str(data / "corpus.tsv"),
                  "--out", str(out / "e" / "bias.csv")], ["e/bias.csv"]),
        "senses": (["senses", "--checkpoint", str(pipeline["ckpt"]),
                    "--out", str(out / "f" / "senses.csv")], ["f/senses.csv"]),
        "sweep": (["sweep", *model, *qrels, "--lambdas", "1.0,0.5",
                   "--out", str(out / "g" / "sweep.csv")], ["g/sweep.csv"]),
    }


@pytest.mark.parametrize("command", ["train", "rank", "eval", "bias", "senses", "sweep"])
def test_each_writing_subcommand_creates_missing_output_directories(pipeline, tmp_path,
                                                                    command):
    out = tmp_path / "new"
    argv, outputs = _writing_commands(pipeline, out)[command]
    assert main(argv) == 0
    for rel in outputs:
        assert (out / rel).is_file(), rel


@pytest.mark.parametrize("command,flag,value,message", [
    ("train", "--depth", "0", "--depth must be >= 1, got 0"),
    ("train", "--negatives", "0", "--negatives must be >= 1, got 0"),
    ("rank", "--lambda", "0", "--lambda must be in (0, 1], got 0.0"),
    ("rank", "--lambda", "nan", "--lambda must be in (0, 1], got nan"),
    ("rank", "--top-senses", "-3", "--top-senses must be >= 0, got -3"),
    ("rank", "--depth", "0", "--depth must be >= 1, got 0"),
    ("rank", "--tag", "my run", "--tag 'my run' must not contain whitespace"),
    ("eval", "--cutoffs", "a,b", "--cutoffs invalid int list value: 'a,b'"),
    ("eval", "--cutoffs", "10,0", "--cutoffs must be >= 1, got 0"),
    ("bias", "--cutoffs", " , ", "--cutoffs must list at least one value, got ' , '"),
    ("bias", "--cutoffs", "-5", "--cutoffs must be >= 1, got -5"),
    ("eval", "--cutoffs", "10,10,5", "--cutoffs must list each value once, got 10 more than once"),
    ("bias", "--cutoffs", "10,10", "--cutoffs must list each value once, got 10 more than once"),
    ("sweep", "--cutoffs", "10,20,010", "--cutoffs must list each value once, got 10 more than once"),
    ("sweep", "--lambdas", "1.0,1.0", "--lambdas must list each value once, got 1.0 more than once"),
    ("sweep", "--lambdas", "0.5,1,1.0", "--lambdas must list each value once, got 1.0 more than once"),
    ("sweep", "--lambdas", "1.0,1.5", "--lambdas must be in (0, 1], got 1.5"),
    ("sweep", "--lambdas", "", "--lambdas must list at least one value, got ''"),
    ("sweep", "--top-senses", "-1", "--top-senses must be >= 0, got -1"),
    ("sweep", "--cutoffs", "0", "--cutoffs must be >= 1, got 0"),
    ("sweep", "--depth", "0", "--depth must be >= 1, got 0"),
    ("train", "--corpus", "missing.txt", "--corpus must be an existing path, got missing.txt"),
    ("train", "--resume", "missing.txt", "--resume must be an existing path, got missing.txt"),
    ("rank", "--checkpoint", "missing.txt", "--checkpoint must be an existing path, got missing.txt"),
    ("rank", "--pairs", "missing.txt", "--pairs must be an existing path, got missing.txt"),
    ("eval", "--run", "missing.txt", "--run must be an existing path, got missing.txt"),
    ("eval", "--qrels", "missing.txt", "--qrels must be an existing path, got missing.txt"),
    ("bias", "--corpus", "missing.txt", "--corpus must be an existing path, got missing.txt"),
    ("senses", "--checkpoint", "missing.txt", "--checkpoint must be an existing path, got missing.txt"),
    ("sweep", "--queries", "missing.txt", "--queries must be an existing path, got missing.txt"),
    ("sweep", "--qrels", "missing.txt", "--qrels must be an existing path, got missing.txt"),
])
def test_a_rejected_option_reads_and_creates_nothing(pipeline, tmp_path, capsys, monkeypatch,
                                                     command, flag, value, message):
    monkeypatch.chdir(tmp_path)    # a relative input path resolves where nothing exists
    calls = []
    for name in ("load_collection", "load_checkpoint"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: calls.append(a) or real(*a))
    out = tmp_path / "new"
    argv, _ = _writing_commands(pipeline, out)[command]
    assert main([*argv, flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command,flag", [("train", "--resume"), ("rank", "--pairs"),
                                          ("senses", "--pairs"), ("sweep", "--pairs"),
                                          ("synth", "--config")])
def test_a_missing_optional_input_is_exit_2_naming_it(pipeline, tmp_path, capsys,
                                                      command, flag):
    missing = tmp_path / "missing.txt"
    out = tmp_path / "new"
    if command == "synth":
        argv = ["synth", "--out", str(out)]
    else:
        argv = _writing_commands(pipeline, out)[command][0]
    assert main([*argv, flag, str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


def test_star_import_covers_all():
    namespace = {}
    exec("from backrank import *", namespace)
    assert set(backrank.__all__) <= set(namespace)


def test_bench_workloads_run_correct_on_the_toy_collection():
    """bench/run.py drives the program through its CLI, checkpoints and
    parameters (it sums ``p.data`` of every value of ``parameters()``): each
    workload it benchmarks runs ``correct`` at the toy size, in a child
    process. bench/ is only read; its work directory is removed."""
    root = Path(__file__).resolve().parents[1]
    code = ("import json, sys; sys.path.insert(0, 'bench'); import run; "
            "print(json.dumps({n: run.run_workload(n, 1, 0.01, False, size='toy')['failures'] "
            "for n in ('train', 'sweep', 'audit')}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"train": [], "sweep": [], "audit": []}


def test_src_stays_within_its_line_cap():
    """src/ holds at most 2,700 lines (ROADMAP), counted as ``wc -l`` counts."""
    files = Path(backrank.__file__).parent.glob("*.py")
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    assert lines <= 2700, f"src/ holds {lines} lines, over its cap of 2,700"


def _defined_names(body):
    """The function, class and assigned names that a block of statements defines."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _private_definitions(tree):
    """Each private name (one leading underscore) a module defines: at module
    level, in a class body (methods and class attributes), or as an attribute
    assigned on ``self``; qualified by its class or by ``self.``."""
    scopes = [("", tree.body)] + [(f"{c.name}.", c.body) for c in ast.walk(tree)
                                  if isinstance(c, ast.ClassDef)]
    defined = [(prefix, d) for prefix, body in scopes for d in _defined_names(body)]
    defined += [("self.", n.attr) for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return [(prefix, d) for prefix, d in defined if d.startswith("_") and not d.startswith("__")]


def test_src_holds_no_dead_private_names_or_unused_imports():
    """No module of src/ defines a private name (a module-level function,
    class or constant, a method or class attribute, or a ``self._x``
    attribute) that no code in src/ reads, or imports a name it never reads.
    The package's re-exports and ``from __future__ import annotations`` are
    exempt."""
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8"))
             for f in Path(backrank.__file__).parent.glob("*.py")}
    reads = {name: {n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
             for name, tree in trees.items()}
    read_anywhere = set().union(*reads.values(), *(
        {n.attr for n in ast.walk(tree)
         if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)}
        for tree in trees.values()))
    dead = []
    for name, tree in sorted(trees.items()):
        dead += [f"{name}: private {prefix}{d} is never read"
                 for prefix, d in _private_definitions(tree) if d not in read_anywhere]
        if name == "__init__.py":
            continue
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                dead += [f"{name}: import {a.name} is never read" for a in stmt.names
                         if (a.asname or a.name.split(".")[0]) not in reads[name]]
    assert not dead


def test_src_forks_only_in_run_forked():
    """``os.fork(`` appears once in src/, inside ``parallel.run_forked``: a
    step that runs in parallel reuses that primitive rather than a copy."""
    src = Path(backrank.__file__).parent
    sites = [(f.name, n) for f in sorted(src.glob("*.py"))
             for n, line in enumerate(f.read_text(encoding="utf-8").splitlines(), 1)
             if "os.fork(" in line]
    tree = ast.parse((src / "parallel.py").read_text(encoding="utf-8"))
    [primitive] = [f for f in tree.body
                   if isinstance(f, ast.FunctionDef) and f.name == "run_forked"]
    assert len(sites) == 1, sites
    [(name, line)] = sites
    assert name == "parallel.py" and primitive.lineno < line <= primitive.end_lineno


def _sites(node, match, scope=""):
    """(qualified function name, line) of each node under node that ``match``
    accepts, named by its enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _sites(child, match, f"{scope}{child.name}.")
            continue
        if match(child):
            yield scope.rstrip("."), child.lineno
        yield from _sites(child, match, scope)


def _src_sites(match):
    """(file name, qualified function name, line) of each match in src/."""
    return [(f.name, scope, line) for f in sorted(Path(backrank.__file__).parent.glob("*.py"))
            for scope, line in _sites(ast.parse(f.read_text(encoding="utf-8")), match)]


def test_src_stores_parameter_data_only_where_the_buffer_is_built():
    """``x.data = ...`` appears in src/ only in ``Tensor.__init__`` and
    ``Backpack.__init__``: each parameter is a view of ``Backpack.flat`` for
    the model's life, and a later rebind would drop it silently out of
    training and out of every checkpoint."""
    stores = _src_sites(lambda n: isinstance(n, ast.Attribute) and n.attr == "data"
                        and isinstance(n.ctx, ast.Store))
    assert {(name, scope) for name, scope, _ in stores} == {
        ("numkernel.py", "Tensor.__init__"), ("backpack.py", "Backpack.__init__")}, stores


def test_src_composes_the_encoder_only_in_alpha():
    """``_embed(``, ``_sense_attention(`` and an encoder layer's ``.forward(``
    are called in src/ only inside ``ContextEncoder.alpha``, once each:
    training and ranking share that one composition, so the function
    training fits is the one ranking scores. (src/ calls no other
    ``.forward(``; ``Backpack.forward`` is for callers of the library.)"""
    calls = _src_sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                       and n.func.attr in ("_embed", "_sense_attention", "forward"))
    assert [(name, scope) for name, scope, _ in calls] == [
        ("backpack.py", "ContextEncoder.alpha")] * 3, calls


def _is_call(node, name):
    """Whether node calls ``name``, as a plain name or as an attribute."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def _calls_in_loops(name):
    """Each loop or comprehension in src/ that holds a call of ``name``."""
    repeated = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                ast.GeneratorExp)
    return _src_sites(lambda n: isinstance(n, repeated)
                      and any(_is_call(c, name) for c in ast.walk(n)))


def test_src_aggregates_every_weight_set_in_one_call():
    """``aggregate(`` is called in src/ once in each of ``Backpack.forward``
    and ``relevance_logits``, and never inside a loop or a comprehension:
    the weight sets reach it as one W x k matrix, so ``a @ s`` and the head
    run once per batch, whatever W is. There is one scoring path: the head's
    ``.logit(`` is called once, in ``relevance_logits``, and ``senses_for(``
    only there, in ``Backpack.forward`` and in ``senses.attribute_scores``,
    so training and ranking gather their senses alike."""
    calls = _src_sites(lambda n: _is_call(n, "aggregate"))
    assert sorted((name, scope) for name, scope, _ in calls) == [
        ("backpack.py", f"Backpack.{f}") for f in ("forward", "relevance_logits")], calls
    assert not _calls_in_loops("aggregate")
    heads = _src_sites(lambda n: _is_call(n, "logit"))
    assert [(name, scope) for name, scope, _ in heads] == [
        ("backpack.py", "Backpack.relevance_logits")], heads
    senses = _src_sites(lambda n: _is_call(n, "senses_for"))
    assert sorted((name, scope) for name, scope, _ in senses) == [
        ("backpack.py", "Backpack.forward"), ("backpack.py", "Backpack.relevance_logits"),
        ("senses.py", "attribute_scores")], senses


def test_src_checks_token_ids_only_in_pad():
    """The token-id range check (its message, ``out of range for``) appears
    in src/ once, in ``Backpack._pad``, and ``gather_rows`` nowhere: the
    model checks its ids where they enter it, and nothing below re-checks
    them."""
    checks = _src_sites(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                        and "out of range for" in n.value)
    assert [(name, scope) for name, scope, _ in checks] == [
        ("backpack.py", "Backpack._pad")], checks
    src = Path(backrank.__file__).parent
    assert not [f.name for f in src.glob("*.py") if "gather_rows" in f.read_text(encoding="utf-8")]


def test_src_turns_lambdas_into_weights_only_in_build_sense_map():
    """``attribute_scores(`` is called in src/ only in ``build_sense_map``
    and ``cmd_senses``, the out-of-vocabulary check (``term in vocab``) runs
    only in ``attribute_scores``, and no ``build_sense_map(`` call is inside
    a loop: rank, sweep and the library share one rule for weights from
    lambda, and a sweep scores the lexicon at most once."""
    scorers = _src_sites(lambda n: _is_call(n, "attribute_scores"))
    assert sorted((name, scope) for name, scope, _ in scorers) == [
        ("cli.py", "cmd_senses"), ("senses.py", "build_sense_map")], scorers
    oov = _src_sites(lambda n: isinstance(n, ast.Compare)
                     and any(isinstance(op, (ast.In, ast.NotIn)) for op in n.ops)
                     and any(getattr(c, "id", None) == "vocab" for c in n.comparators))
    assert {(name, scope) for name, scope, _ in oov} == {("senses.py", "attribute_scores")}, oov
    assert not _calls_in_loops("build_sense_map")


def test_src_retrieves_candidates_only_in_build_eval_set():
    """``bm25_retrieve(`` is called in src/ only in ``build_eval_set``:
    train, rank and sweep rerank candidate lists formed in one place."""
    sites = _src_sites(lambda n: _is_call(n, "bm25_retrieve"))
    assert [(name, scope) for name, scope, _ in sites] == [("corpus.py", "build_eval_set")], sites


def test_src_forks_only_in_the_block_drivers():
    """``run_forked(`` is called in src/ only in ``cmd_bias`` and in the two
    drivers that give each usable core one block of queries:
    ``ranker._in_query_blocks`` (rank and sweep, from retrieval on) and
    ``cli._effectiveness_by_run_block`` (eval, from the run's bytes on), once
    each. ``rank_all``, the run parser, and everything a block runs never
    fork again."""
    sites = _src_sites(lambda n: _is_call(n, "run_forked"))
    assert sorted((name, scope) for name, scope, _ in sites) == [
        ("cli.py", "_effectiveness_by_run_block"), ("cli.py", "cmd_bias"),
        ("ranker.py", "_in_query_blocks")], sites


@pytest.mark.parametrize("message", ["expected 6 fields", "bad rank", "bad score"])
def test_src_parses_run_lines_only_in_parse_ranking(message):
    """Each of the run parser's line messages is raised in src/ from one
    function, ``corpus.parse_ranking``: ``read_ranking`` and ``eval``'s run
    blocks check every line through that one loop, so no second run parser
    can drift from it."""
    sites = _src_sites(lambda n: isinstance(n, ast.Raise) and any(
        isinstance(c, ast.Constant) and isinstance(c.value, str) and c.value.startswith(message)
        for c in ast.walk(n)))
    assert [(name, scope) for name, scope, _ in sites] == [("corpus.py", "parse_ranking")], sites


def test_src_imports_form_no_cycle():
    """The graph of the package's relative imports is acyclic, so
    ``import backrank`` does not depend on the order in which ``__init__``
    imports the modules. ``from . import x`` is an edge to module x, or to
    ``__init__`` when no module is named x."""
    src = Path(backrank.__file__).parent
    modules = {f.stem for f in src.glob("*.py")}
    graph = {}
    for name in sorted(modules):
        edges = graph[name] = set()
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(a.name if a.name in modules else "__init__" for a in node.names)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as err:
        pytest.fail(f"src/ imports form a cycle: {' -> '.join(err.args[1])}")


def test_console_script_entry_point(pipeline, tmp_path):
    """The module form works as a subprocess and honours BACKRANK_LOG."""
    # The child imports the same package as this process, installed or not.
    import_root = str(Path(backrank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "backrank.cli", "synth", "--config",
         str(pipeline["cfg"]), "--out", str(tmp_path / "sub")],
        capture_output=True, text=True,
        env={"BACKRANK_LOG": "info", "PATH": "", "PYTHONPATH": import_root})
    assert proc.returncode == 0
    assert (tmp_path / "sub" / "corpus.tsv").exists()
    assert "wrote 96 docs" in proc.stderr    # info log enabled
