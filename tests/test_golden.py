"""Golden outputs: the README walkthrough at 120 queries and ``--depth 20``,
at synth seeds 1 and 4, run twice. Every output file's sha256 must equal the
record in ``golden.json``, so every CLI output stays byte-identical across
changes and reruns.

A change that alters an output on purpose re-records the digests with
``PYTHONPATH=src python tests/test_golden.py`` and names each changed file
and the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from backrank.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (1, 4)
# manifest.json fields that hold paths, which differ from one directory to the next
PATH_FIELDS = ("config", "inputs", "outputs")
SYNTH_CFG = "skew = 0.9\nnum_queries = 120\n"
TRAIN = ["--seed", "1", "--lr", "0.015", "--senses", "4", "--embed-dim", "24",
         "--depth", "20"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_walkthrough(root: Path, seed: int) -> dict[str, str]:
    """The sha256 of each output of the walkthrough at one synth seed, by
    output name; the manifest is hashed without its path fields."""
    cfg, data, out = root / "skew.cfg", root / "data", root / "run1"
    root.mkdir()
    cfg.write_text(SYNTH_CFG)
    corpus, queries, qrels = (str(data / name)
                              for name in ("corpus.tsv", "queries.tsv", "qrels.txt"))
    coll = ["--corpus", corpus, "--queries", queries]
    ckpt, damped = str(out / "model.ckpt"), str(out / "damped.run")
    steps = [
        ["synth", "--config", str(cfg), "--seed", str(seed), "--out", str(data)],
        ["train", *coll, "--qrels", qrels, "--out", ckpt,
         "--loss-csv", str(out / "loss.csv"), "--epochs", "2", *TRAIN],
        ["train", *coll, "--qrels", qrels, "--resume", ckpt, "--out", str(out / "resumed.ckpt"),
         "--loss-csv", str(out / "resumed_loss.csv"), "--epochs", "1", *TRAIN],
        ["rank", "--checkpoint", ckpt, *coll, "--depth", "20",
         "--out", str(out / "baseline.run")],
        ["rank", "--checkpoint", ckpt, *coll, "--depth", "20", "--out", damped,
         "--lambda", "0.5", "--top-senses", "3"],
        ["eval", "--run", damped, "--qrels", qrels, "--out", str(out / "eval.csv")],
        ["bias", "--run", damped, "--corpus", corpus, "--variant", "both",
         "--out", str(out / "bias.csv")],
        ["senses", "--checkpoint", ckpt, "--out", str(out / "senses.csv")],
        ["sweep", "--checkpoint", ckpt, *coll, "--qrels", qrels, "--depth", "20",
         "--lambdas", "1.0,0.7,0.5", "--out", str(out / "sweep.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        assert main(["senses", "--checkpoint", ckpt]) == 0
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    for field in PATH_FIELDS:
        del manifest[field]
    digests = {f"data/{p.name}": _sha256(p.read_bytes())
               for p in sorted(data.iterdir()) if p.name != "manifest.json"}
    digests["data/manifest.json"] = _sha256(json.dumps(manifest, sort_keys=True).encode())
    digests.update((f"run1/{p.name}", _sha256(p.read_bytes())) for p in sorted(out.iterdir()))
    digests["senses table"] = _sha256(table.getvalue().encode())
    return digests


@pytest.mark.parametrize("seed", SEEDS)
def test_walkthrough_outputs_match_the_golden_digests(tmp_path, seed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[str(seed)]
    for attempt in ("first", "rerun"):
        assert run_walkthrough(tmp_path / attempt, seed) == golden, attempt


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {str(seed): run_walkthrough(Path(tmp) / str(seed), seed) for seed in SEEDS}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(map(len, record.values()))} digests in {GOLDEN}", file=sys.stderr)
