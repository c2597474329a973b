"""Model structure: sense table, contextualization, aggregation, checkpoints."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from backrank import backpack
from backrank import numkernel as nk
from backrank import (Backpack, BackpackConfig, DomainError, EvalSet, ParseError,
                      Qrels, SplitMix64, Tensor, Vocab, aggregate, load_checkpoint,
                      rank_all, save_checkpoint)
from helpers import forward_triple_loop, logits, rewrite_checkpoint_header


@pytest.fixture
def small_cfg():
    return BackpackConfig(vocab_size=12, embed_dim=8, num_senses=3,
                          sense_hidden=2, context_heads=2, max_seq_len=10)


@pytest.fixture
def model(small_cfg):
    return Backpack(small_cfg, seed=11)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    good = dict(vocab_size=10, embed_dim=8, num_senses=2, context_heads=2)
    BackpackConfig(**good)
    with pytest.raises(DomainError):
        BackpackConfig(**{**good, "embed_dim": 7})    # heads must divide dim
    with pytest.raises(DomainError):
        BackpackConfig(**{**good, "num_senses": 0})
    with pytest.raises(DomainError):
        BackpackConfig(**{**good, "sense_hidden": 0})
    with pytest.raises(DomainError):
        BackpackConfig(**{**good, "max_seq_len": 0})


# ---------------------------------------------------------------------------
# sense table


def test_senses_shape_and_determinism(model, small_cfg):
    s = model.senses.senses_for([[1, 4, 7]])[0]
    assert s.shape == (1, small_cfg.num_senses, 3, small_cfg.embed_dim)
    again = Backpack(small_cfg, seed=11).senses.senses_for([[1, 4, 7]])[0]
    assert np.array_equal(s, again)


def test_senses_are_non_contextual(model):
    """A token's sense vectors cannot depend on its neighbours."""
    a = model.senses.senses_for([[3, 5, 9]])[0][0, :, 1, :]
    b = model.senses.senses_for([[8, 5, 1]])[0][0, :, 1, :]
    assert np.array_equal(a, b)    # same length: bit-equal
    # different batch size hits a different matmul kernel; equal to precision
    alone = model.senses.senses_for([[5]])[0][0, :, 0, :]
    assert np.allclose(alone, a, atol=1e-14, rtol=0)


# ---------------------------------------------------------------------------
# contextualization weights


def test_alpha_is_row_normalized(model, small_cfg):
    alpha = model.context.alpha([[1, 2, 3, 4]], np.arange(4))[0][0]
    assert alpha.shape == (small_cfg.num_senses, 4, 4)
    assert np.all(alpha >= 0.0)
    assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)


def test_alpha_causal_mask(model):
    alpha = model.context.alpha([[1, 2, 3, 4]], np.arange(4))[0][0]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.all(alpha[:, i, j] < 1e-12)


def test_cached_causal_mask_cannot_be_written(model):
    """Every call of one length shares the n x n mask, so it is read-only:
    an in-place write raises and leaves the mask, and later alphas, as they were."""
    mask = backpack._causal_mask(4)
    assert mask is backpack._causal_mask(4) and not mask.flags.writeable
    assert mask.tolist() == [[0.0 if j <= i else -1e30 for j in range(4)] for i in range(4)]
    before = model.context.alpha([[1, 2, 3, 4]], np.arange(4))[0]
    for write in (lambda m: m.__iadd__(1.0), lambda m: m.__setitem__((0, 1), 0.0),
                  lambda m: np.exp(m, out=m)):
        with pytest.raises(ValueError, match="read-only"):
            write(mask)
    assert mask.tolist() == [[0.0 if j <= i else -1e30 for j in range(4)] for i in range(4)]
    assert np.array_equal(model.context.alpha([[1, 2, 3, 4]], np.arange(4))[0], before)


def test_token_validation(model):
    with pytest.raises(DomainError):
        model.forward([])          # no sequences
    with pytest.raises(DomainError):
        model.forward([[]])
    with pytest.raises(DomainError):
        model.forward([[99]])
    with pytest.raises(DomainError):
        model.forward([[1, 2], [1] * 11])    # max_seq_len is 10


# ---------------------------------------------------------------------------
# aggregation


def test_forward_matches_triple_loop(model):
    ids = [2, 7, 1, 9]
    got = model.forward([ids])[0]
    want = forward_triple_loop(model, ids)
    assert np.max(np.abs(got - want)) < 1e-12


def test_aggregate_all_ones_is_bit_identical(model):
    ids = [3, 6, 2]
    plain = model.forward([ids])
    ones = model.forward([ids], (1.0,) * 3)
    assert np.array_equal(plain, ones)
    # any weight sequence works, not only a tuple
    raw = model.forward([ids], [1.0, 1.0, 1.0])
    assert np.array_equal(plain, raw)


def test_forward_reweighted_none_is_forward(model):
    ids = [1, 2]
    assert np.array_equal(model.forward([ids], None),
                          model.forward([ids]))


def test_reweighting_scales_chosen_sense_contributions(model):
    """out' - out must equal (w_l - 1) times sense l's aggregated term."""
    ids = [4, 8, 5]
    alpha = model.context.alpha([ids], np.arange(3))[0][0]
    senses = model.senses.senses_for([ids])[0][0]
    contrib = np.einsum("lij,ljd->lid", alpha, senses)
    weights = (1.0, 0.25, 1.0)
    got = model.forward([ids], weights)[0]
    want = contrib[0] + 0.25 * contrib[1] + contrib[2]
    assert np.allclose(got, want, atol=1e-12)


def test_reweighting_composes_multiplicatively(model):
    ids = [2, 3]
    w1 = np.array([0.5, 0.8, 1.0])
    w2 = np.array([0.6, 1.0, 0.9])
    once = model.forward([ids], tuple(w1 * w2))[0]
    alpha = model.context.alpha([ids], np.arange(2))[0][0]
    senses = model.senses.senses_for([ids])[0][0]
    contrib = np.einsum("lij,ljd->lid", alpha, senses)
    twice = (contrib * (w1[:, None, None] * w2[:, None, None])).sum(axis=0)
    assert np.allclose(once, twice, atol=1e-12)


def test_aggregate_validates_weights(model):
    ids = [1, 2]
    with pytest.raises(DomainError):
        model.forward([ids], (1.0, 1.0))          # wrong length
    with pytest.raises(DomainError):
        model.forward([ids], (1.0, 0.0, 1.0))     # non-positive
    with pytest.raises(DomainError):
        aggregate(np.ones((2, 2)), np.ones((2, 2, 3)), np.ones((1, 2)))
    a, s = np.ones((1, 3, 1, 2)), np.ones((1, 3, 2, 4))
    for bad in ((1.0, 1.0, 1.0), np.ones((2, 2)), np.ones((1, 1, 3))):
        with pytest.raises(DomainError, match="must be a W x 3 matrix, got shape"):
            aggregate(a, s, bad)    # one set, not a W x k matrix, or one more axis
    for bad in ([[1.0, 1.0, 1.0], [1.0, 1.0]], "abc"):
        with pytest.raises(ValueError):    # numpy's: no matrix of numbers at all
            aggregate(a, s, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_aggregate_rejects_non_finite_weights(model, bad):
    """nan passes a check of w <= 0, and inf passes it too."""
    with pytest.raises(DomainError, match="finite"):
        model.forward([[1, 2]], (1.0, bad, 1.0))


# ---------------------------------------------------------------------------
# ranking head and packing


def test_pack_sequence_layout(model, small_cfg):
    seq = model.pack_sequence([1, 2], [5, 6, 7])
    assert seq == [1, 2, Vocab.SEP, 5, 6, 7]


def test_pack_sequence_truncates_doc_tail_first(model):
    # budget 10: query 4 + sep leaves 5 doc slots
    seq = model.pack_sequence([1, 2, 3, 4], [5] * 9)
    assert len(seq) == 10
    assert seq[:5] == [1, 2, 3, 4, 2]
    # oversized query: clipped to budget-1, no doc tokens survive
    seq = model.pack_sequence([1] * 12, [5, 6])
    assert len(seq) == 10
    assert seq[-1] == 2


def test_relevance_score_is_sigmoid_of_logit(model):
    """The score a ranking reports is the sigmoid of the relevance logit."""
    q, d = [1, 2], [5, 6, 7]
    z = logits(model, q, [d]).item()
    es = EvalSet({"q": q}, {"q": [("d", d)]}, Qrels({}), {})
    [(_, [ranked])] = rank_all(model, es, ((1.0,) * model.config.num_senses,))
    [s] = [s for _, s in ranked.items]
    assert 0.0 < s < 1.0
    assert s == pytest.approx(1.0 / (1.0 + np.exp(-z)), abs=1e-15)


@pytest.mark.parametrize("query", [[1, 2, 3], [1] * 12])    # the second is over-long
def test_relevance_logit_rows_match_single_documents(model, query):
    """Each row of a ragged batch equals its document scored alone, and a
    longer document added to the list moves no other row: padding cannot leak."""
    docs = [[4], [5, 6, 7], [8] * 20]    # length 1, middle, longer than the budget of 10
    batch = logits(model, query, docs)
    alone = np.array([logits(model, query, [d]).item() for d in docs])
    assert batch.shape == (3,)
    assert np.max(np.abs(batch - alone)) <= 1e-12
    shorter = logits(model, query, docs[:2])
    assert np.max(np.abs(batch[:2] - shorter)) <= 1e-12


def test_pad_builds_ragged_and_equal_length_batches_alike(model):
    """One id matrix, right-padded with 0, whatever the row lengths; every
    check names what it rejects."""
    ids = model._pad([(1, 2, 3), [4], np.array([5, 6])])
    assert ids.dtype == np.intp
    assert ids.tolist() == [[1, 2, 3], [4, 0, 0], [5, 6, 0]]
    assert model._pad([[7, 8], (9, 10)]).tolist() == [[7, 8], [9, 10]]
    for seqs, needle in (([], "at least one sequence"), ([[1], []], "non-empty"),
                         ([[1] * 11], "sequence length 11 exceeds max_seq_len 10")):
        with pytest.raises(DomainError, match=needle):
            model._pad(seqs)


def test_every_model_entry_point_names_the_first_id_outside_the_vocabulary(model):
    """Token ids are checked once, in ``_pad``, before any other use: an id
    that is not an integer is named, not truncated or parsed, and the range
    message names the first bad id in row-major order."""
    entry_points = (model.forward, lambda seqs: model.relevance_logits(seqs, np.ones((1, 3))))
    for seqs, needle in (([[1, 2], [3, 12, -1]], "row index 12 out of range for 12 rows"),
                         ([[-1]], "row index -1 out of range for 12 rows"),
                         ([[1.7, 2]], "token id 1.7 is not an integer"),
                         ([["3", 2]], "token id '3' is not an integer"),
                         ([[1], [2**64]], f"row index {2**64} out of range for 12 rows")):
        for call in entry_points:
            with pytest.raises(DomainError, match=needle):
                call(seqs)


def test_alpha_at_given_positions_equals_rows_of_the_full_alpha(model):
    ids = model._pad([[1, 2, 3, 4, 5], [6, 7], [8, 9, 10]])
    full = model.context.alpha(ids, np.arange(5))[0]
    last = np.array([[4], [1], [2]])
    rows = model.context.alpha(ids, last)[0]
    assert rows.shape == (3, 3, 1, 5)
    for b in range(3):
        assert np.max(np.abs(rows[b, :, 0] - full[b, :, last[b, 0]])) <= 1e-12
    assert np.all(rows[1, :, 0, 2:] == 0.0) and np.all(rows[2, :, 0, 3:] == 0.0)


def _random_list(rng, n_docs):
    query = [1 + rng.randint(11) for _ in range(1 + rng.randint(4))]
    docs = [[1 + rng.randint(11) for _ in range(1 + rng.randint(12))] for _ in range(n_docs)]
    return query, docs


def test_relevance_logits_pool_forward_at_each_last_position(model):
    """Row b of the pooled path is the head applied to forward's output at
    row b's last real position, with and without sense weights."""
    rng = SplitMix64(5)
    weight_sets = [None, (1.0, 1.0, 1.0), (0.3, 1.0, 0.3)]
    for _ in range(20):
        query, docs = _random_list(rng, 1 + rng.randint(6))
        seqs = [model.pack_sequence(query, d) for d in docs]
        last = [len(s) - 1 for s in seqs]
        zs = model.relevance_logits(seqs, [np.ones(3) if w is None else w for w in weight_sets])[0]
        assert zs.shape == (len(weight_sets), len(docs))
        for w, z in zip(weight_sets, zs):
            out = model.forward(seqs, w)
            want = model.head.logit(out[np.arange(len(seqs)), last][:, None])[0]
            assert np.max(np.abs(z - want)) <= 1e-12
        assert np.array_equal(zs[0], zs[1])    # None and (1, 1, 1) are one ones row


def test_rank_all_scores_the_sigmoid_of_the_logits_training_fits(small_cfg):
    """rank_all's scores are the sigmoid of relevance_logits under all-ones
    weights, bit for bit, on a ragged list and on a one-position model. The
    ragged batch a training step scores in one call agrees with them up to
    padding's rounding, and its closure returns one gradient entry per
    parameter value, at one to three encoder layers."""
    query, docs = _random_list(SplitMix64(9), 8)
    cands = [(f"d{i}", d) for i, d in enumerate(docs)]
    for layers, max_len in ((1, 10), (2, 10), (3, 10), (1, 1)):
        model = Backpack(dataclasses.replace(small_cfg, context_layers=layers,
                                             max_seq_len=max_len), seed=11)
        seqs = [model.pack_sequence(query, d) for d in docs]
        assert (len(set(map(len, seqs))) > 1) == (max_len > 1)    # ragged, or one position
        ones = np.ones((1, model.config.num_senses))
        alone = np.array([model.relevance_logits([s], ones)[0][0, 0] for s in seqs])
        [(_, [ranked])] = rank_all(model, EvalSet({"q": query}, {"q": cands}, Qrels({}), {}),
                                   ones)
        assert dict(ranked.items) == dict(zip((did for did, _ in cands),
                                              nk.sigmoid(alone).tolist()))
        z, back = model.relevance_logits(seqs, ones)
        assert np.max(np.abs(z[0] - alone)) <= 1e-12
        grad = back(np.ones_like(z))
        assert grad.shape == (sum(p.data.size for p in model.parameters().values()),)


def test_packed_length_is_the_length_pack_sequence_returns(model, small_cfg):
    rng = SplitMix64(8)
    for _ in range(300):
        q = [1 + rng.randint(11) for _ in range(rng.randint(14))]
        d = [1 + rng.randint(11) for _ in range(rng.randint(14))]
        n = model.packed_length(len(q), len(d))
        assert n == len(model.pack_sequence(q, d)) <= small_cfg.max_seq_len


def test_sense_map_changes_relevance(model):
    q, d = [1, 2], [5, 6, 7]
    plain = logits(model, q, [d]).item()
    damped = logits(model, q, [d], (0.2, 1.0, 1.0)).item()
    assert plain != damped


# ---------------------------------------------------------------------------
# parameter registry


def test_parameters_cover_all_components(model):
    params = model.parameters()
    prefixes = {name.split(".", 1)[0] for name in params}
    assert prefixes == {"sense", "ctx", "head"}
    assert "ctx.layer0.wq" in params
    assert all(isinstance(t, Tensor) for t in params.values())


# ---------------------------------------------------------------------------
# checkpoints


TOKENS = ["<pad>", "<unk>", "<sep>"] + [f"w{i}" for i in range(3, 12)]


def _header_end(blob):
    """Offset of the first value byte of a checkpoint."""
    return 12 + struct.unpack("<I", blob[8:12])[0]


def test_checkpoint_round_trip_bit_identical_scores(tmp_path, model, monkeypatch):
    """A reload draws no initial weights: it overwrites every parameter."""
    meta = {"seed": 11, "note": "unit"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, TOKENS, meta)

    def no_draw(self, shape, sigma=1.0):
        raise AssertionError("load_checkpoint drew initial weights")

    monkeypatch.setattr(SplitMix64, "normal_array", no_draw)
    back, tokens, got_meta = load_checkpoint(path)
    assert tokens == TOKENS
    assert got_meta == meta
    q, d = [1, 2, 3], [7, 8]
    assert logits(back, q, [d]).item() == logits(model, q, [d]).item()
    assert np.array_equal(back.forward([[1, 5, 9]]), model.forward([[1, 5, 9]]))
    for name, tensor in model.parameters().items():
        assert np.array_equal(back.parameters()[name].data, tensor.data)


def test_checkpoint_layout_and_determinism(tmp_path, model):
    """Header table in registry order, then exactly the <f8 values; two saves
    of one model are byte-identical."""
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model, TOKENS, {"seed": 11})
    save_checkpoint(b, model, TOKENS, {"seed": 11})
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    assert blob.startswith(b"BPCKPT1\n")
    start = _header_end(blob)
    header = json.loads(blob[12:start])
    params = model.parameters()
    assert header["format_version"] == 4
    assert header["tensors"] == [[n, list(t.data.shape)] for n, t in params.items()]
    assert blob[start:] == b"".join(t.data.astype("<f8").tobytes() for t in params.values())


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"this is not a checkpoint")
    with pytest.raises(ParseError):
        load_checkpoint(bad)


def test_checkpoint_non_finite_tensor_is_parse_error(tmp_path, model):
    name, tensor = sorted(model.parameters().items())[0]
    tensor.data[(0,) * len(tensor.data.shape)] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, model, TOKENS, {})
    with pytest.raises(ParseError, match="non-finite") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and repr(name) in str(err.value)


def test_checkpoint_truncated_in_every_region_is_parse_error(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, TOKENS, {"seed": 11})
    blob = path.read_bytes()
    start = _header_end(blob)
    cuts = {"empty": 0, "magic": 5, "length": 10, "header": (12 + start) // 2,
            "no values": start, "first value": start + 3, "last value": len(blob) - 4}
    for region, cut in cuts.items():
        short = tmp_path / f"cut_{cut}.ckpt"
        short.write_bytes(blob[:cut])
        with pytest.raises(ParseError) as err:
            load_checkpoint(short)
        assert str(short) in str(err.value), region


def test_checkpoint_trailing_bytes_are_parse_error(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, TOKENS, {})
    for extra in (b"\x00", b"\x00" * 8):
        long = tmp_path / f"long{len(extra)}.ckpt"
        long.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ParseError, match="value bytes") as err:
            load_checkpoint(long)
        assert str(long) in str(err.value)


def test_checkpoint_rejects_an_edited_tensor_table(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, TOKENS, {})
    edits = [
        lambda t: t[1:],                                     # an entry dropped
        lambda t: t[1:] + t[:1],                             # order changed
        lambda t: [["sense.basis", t[0][1]]] + t[1:],        # a name changed
        lambda t: [[t[0][0], t[0][1][::-1]]] + t[1:],        # a shape transposed
        lambda t: t + [["extra", [1]]],                      # an entry added
    ]
    for i, edit in enumerate(edits):
        bad = tmp_path / f"table{i}.ckpt"
        rewrite_checkpoint_header(path, bad, lambda h: {**h, "tensors": edit(h["tensors"])})
        with pytest.raises(ParseError, match="tensor table") as err:
            load_checkpoint(bad)
        assert str(bad) in str(err.value), i


def test_checkpoint_rejects_bad_headers(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, TOKENS, {})
    blob = path.read_bytes()
    cases = [
        ("format 1 is not supported", lambda h: {**h, "format_version": 1}),
        ("format 2 is not supported", lambda h: {**h, "format_version": 2}),
        ("format 3 is not supported", lambda h: {**h, "format_version": 3}),
        ("'config' is missing", lambda h: {k: v for k, v in h.items() if k != "config"}),
        ("'vocab' is missing", lambda h: {k: v for k, v in h.items() if k != "vocab"}),
        ("'meta' is missing", lambda h: {k: v for k, v in h.items() if k != "meta"}),
        ("'tensors' is missing", lambda h: {k: v for k, v in h.items() if k != "tensors"}),
        ("bad checkpoint config", lambda h: {**h, "config": {**h["config"], "causal": 1}}),
        ("bad checkpoint config: embed_dim must be an int, got 8.0",
         lambda h: {**h, "config": {**h["config"], "embed_dim": 8.0}}),
        ("bad checkpoint config: max_seq_len must be an int, got 10.5",
         lambda h: {**h, "config": {**h["config"], "max_seq_len": 10.5}}),
        ("bad checkpoint config: num_senses must be an int, got True",
         lambda h: {**h, "config": {**h["config"], "num_senses": True}}),
    ]
    for i, (needle, edit) in enumerate(cases):
        bad = tmp_path / f"bad{i}.ckpt"
        rewrite_checkpoint_header(path, bad, edit)
        with pytest.raises(ParseError, match=needle) as err:
            load_checkpoint(bad)
        assert str(bad) in str(err.value), needle
    bad = tmp_path / "not_json.ckpt"
    bad.write_bytes(blob[:12] + b"\xff" * 8 + blob[20:])
    with pytest.raises(ParseError, match="not JSON"):
        load_checkpoint(bad)


def test_checkpoint_rejects_a_bad_vocabulary(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, TOKENS, {})
    cases = [
        ("5 tokens for a config of 12", TOKENS[:5]),
        ("13 tokens for a config of 12", TOKENS + ["w12"]),
        ("a token is not a string", TOKENS[:-1] + [7]),
        ("reserved tokens", ["w0"] + TOKENS[1:]),
        ("unique", TOKENS[:-1] + ["w3"]),
    ]
    for i, (needle, vocab) in enumerate(cases):
        bad = tmp_path / f"vocab{i}.ckpt"
        rewrite_checkpoint_header(path, bad, lambda h: {**h, "vocab": vocab})
        with pytest.raises(ParseError, match=needle) as err:
            load_checkpoint(bad)
        assert str(err.value).startswith(f"{bad}: "), needle


def test_checkpoint_rejects_a_separator_the_vocab_does_not_hold(tmp_path, model):
    """Every model packs Vocab.SEP; a header that still names another
    separator is not a format-4 config."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, TOKENS, {})
    bad = tmp_path / "sep.ckpt"
    rewrite_checkpoint_header(path, bad,
                              lambda h: {**h, "config": {**h["config"], "sep_index": 7}})
    with pytest.raises(ParseError, match="sep_index") as err:
        load_checkpoint(bad)
    assert str(err.value).startswith(f"{bad}: bad checkpoint config: ")


def test_save_checkpoint_rejects_what_load_would_reject(tmp_path, model):
    """The vocabulary rules hold at save time too, before the file is opened."""
    cases = [
        ("2 tokens for a config of 12", model, ["a", "b"]),
        ("a token is not a string", model, TOKENS[:-1] + [7]),
        ("reserved tokens", model, ["w0"] + TOKENS[1:]),
        ("unique", model, TOKENS[:-1] + ["w3"]),
    ]
    for i, (needle, net, vocab) in enumerate(cases):
        path = tmp_path / f"save{i}.ckpt"
        with pytest.raises(DomainError, match=needle):
            save_checkpoint(path, net, vocab, {})
        assert not path.exists(), needle
