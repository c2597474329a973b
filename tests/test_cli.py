"""End-to-end command-line pipeline: files in, files out, exit codes."""

import csv
import json
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import backrank
from backrank import __version__, load_checkpoint, read_run
from backrank.cli import main
from backrank.ranker import SWEEP_COLUMNS

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
    assert "skew" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# rank


def test_rank_run_format_and_tag(pipeline):
    records = read_run(pipeline["run"])
    assert records
    assert all(r.tag == "backrank-s7" for r in records)   # training seed
    per_query = {}
    for r in records:
        per_query.setdefault(r.query_id, []).append(r)
    for recs in per_query.values():
        assert [r.rank for r in recs] == list(range(1, len(recs) + 1))
        scores = [r.score for r in recs]
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


def test_rank_rejects_bad_checkpoints(pipeline, tmp_path, capsys):
    args = ["--corpus", str(pipeline["data"] / "corpus.tsv"),
            "--queries", str(pipeline["data"] / "queries.tsv"),
            "--out", str(tmp_path / "x.txt"), "--depth", "8"]
    blob = pipeline["ckpt"].read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:20])
    assert main(["rank", "--checkpoint", str(cut), *args]) == 2
    assert str(cut) in capsys.readouterr().err
    # a format-1 header: the layout of checkpoints that still carried lm.w
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    old = json.dumps({**header, "format_version": 1}).encode("utf-8")
    v1 = tmp_path / "v1.ckpt"
    v1.write_bytes(blob[:8] + struct.pack("<I", len(old)) + old + blob[12 + hlen:])
    assert main(["rank", "--checkpoint", str(v1), *args]) == 2
    assert "format 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval / bias


def test_eval_non_finite_score_is_exit_2(pipeline, tmp_path, capsys):
    run = tmp_path / "run.txt"
    run.write_text("q0001 Q0 d000001 1 nan t\n")
    assert main(["eval", "--run", str(run),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(tmp_path / "e.csv")]) == 2
    assert f"{run}:1:" in capsys.readouterr().err


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


def test_eval_csv_matches_library(pipeline, tmp_path):
    from backrank import group_run, mean_metric, read_qrels
    out = tmp_path / "eval.csv"
    assert main(["eval", "--run", str(pipeline["run"]),
                 "--qrels", str(pipeline["data"] / "qrels.txt"),
                 "--out", str(out), "--cutoffs", "5,8"]) == 0
    header, rows, comment = read_csv(out)
    assert header == ["cutoff", "mrr", "ndcg"]
    assert [r["cutoff"] for r in rows] == ["5", "8"]
    grouped = group_run(read_run(pipeline["run"]))
    qrels = read_qrels(pipeline["data"] / "qrels.txt")
    for row in rows:
        k = int(row["cutoff"])
        assert float(row["mrr"]) == pytest.approx(
            mean_metric(grouped, qrels, "mrr", k), abs=5e-7)
        assert float(row["ndcg"]) == pytest.approx(
            mean_metric(grouped, qrels, "ndcg", k), abs=5e-7)
    assert comment.endswith("seed=- lambda=-")


def test_bias_csv_variants(pipeline, tmp_path):
    out = tmp_path / "bias.csv"
    assert main(["bias", "--run", str(pipeline["run"]),
                 "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--out", str(out), "--cutoffs", "5", "--variant", "both"]) == 0
    header, rows, _ = read_csv(out)
    assert header == ["variant", "cutoff", "rab", "arab"]
    assert [r["variant"] for r in rows] == ["tf", "bool"]
    assert all(float(r["arab"]) > 0.0 for r in rows)    # skewed corpus


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


def test_star_import_covers_all():
    namespace = {}
    exec("from backrank import *", namespace)
    assert set(backrank.__all__) <= set(namespace)


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
