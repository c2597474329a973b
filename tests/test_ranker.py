"""Listwise training loop, ranking, and the lambda sweep."""

import os
import threading

import numpy as np
import pytest

from backrank import (Backpack, BackpackConfig, Collection, DomainError, EvalSet, Qrels,
                      ShapeError, SplitMix64, SynthConfig,
                      TrainConfig, TrainExample, Vocab,
                      bias_report, build_eval_set, build_sense_map,
                      build_train_examples, generate_synthetic,
                      listwise_loss, load_checkpoint, rank_all, save_checkpoint,
                      sweep_lambda, train)
from backrank import metrics, ranker
from backrank.backpack import ContextEncoder
from backrank.ranker import SWEEP_COLUMNS, rank_collection, sweep_collection
from backrank.senses import PolarityPair
from backrank import numkernel as nk
from helpers import (ScalarSplitMix64, Tape, assert_ranking_invariants, backward,
                     central_diff_error, effectiveness, forbid_fork, listwise_loss_chain, logits,
                     pin_cores, relevance_logit_chain, tracked)


ONES = (1.0, 1.0)    # tiny_model's identity weights: no sense scaled


@pytest.fixture
def tiny_model():
    cfg = BackpackConfig(vocab_size=30, embed_dim=8, num_senses=2,
                         sense_hidden=2, context_heads=2, max_seq_len=16)
    return Backpack(cfg, seed=3)


def make_example(rng, vocab_size=30, n_docs=4):
    q = tuple(3 + rng.randint(vocab_size - 3) for _ in range(3))
    docs = tuple(tuple(3 + rng.randint(vocab_size - 3) for _ in range(5))
                 for _ in range(n_docs))
    ids = tuple(f"d{i}" for i in range(n_docs))
    labels = (1.0,) + (0.0,) * (n_docs - 1)
    return TrainExample("q", q, ids, docs, labels)


# ---------------------------------------------------------------------------
# value types


def test_train_example_validation():
    with pytest.raises(DomainError):
        TrainExample("q", (1,), ("a",), ((1, 2),), (1.0,))           # 1 candidate
    with pytest.raises(DomainError):
        TrainExample("q", (1,), ("a", "b"), ((1,), (2,)), (0.0, 0.0))  # no positive
    with pytest.raises(DomainError, match="labels of query q must be finite"):
        TrainExample("q", (1,), ("a", "b"), ((1,), (2,)), (1.0, -1.0))
    with pytest.raises(DomainError):
        TrainExample("q", (1,), ("a", "b"), ((1,), (2,)), (1.0,))    # misaligned


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_train_example_rejects_non_finite_labels(bad):
    """nan passes both the >= 0 and the some-positive test when another label
    is positive; inf passes them too."""
    with pytest.raises(DomainError, match="labels of query q must be finite"):
        TrainExample("q", (1,), ("a", "b"), ((1,), (2,)), (1.0, bad))


def test_train_config_validation():
    TrainConfig(learning_rate=0.0)    # zero is allowed: a no-op run
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=-1e-3)
    # range() and the PRNG would fail on these only once training started
    for field, bad in (("epochs", 2.5), ("seed", 1.5), ("epochs", 2.0), ("seed", "1")):
        with pytest.raises(DomainError, match=f"^{field} must be .*int.*, got {bad!r}$"):
            TrainConfig(**{field: bad})
    # an int or a float, numpy's too: text fails here, not in math.isfinite, and so does a bool
    TrainConfig(learning_rate=1)
    TrainConfig(learning_rate=np.logspace(-3, -1, 3)[0])    # numpy's float64, a float
    with pytest.raises(DomainError, match="^learning_rate must be a finite number >= 0, "
                                          "got '0.1'$"):
        TrainConfig(learning_rate="0.1")
    with pytest.raises(DomainError, match="^learning_rate must be .*, got True$"):
        TrainConfig(learning_rate=True)


def test_eval_set_rejects_a_duplicate_candidate():
    """rank_all lists each candidate once: a list naming one twice stops here."""
    EvalSet({"q1": (3,)}, {"q1": [("a", (5,)), ("b", (5,))]}, Qrels({}), {})
    with pytest.raises(DomainError, match="query q1 lists a candidate document twice"):
        EvalSet({"q1": (3,)}, {"q1": [("a", (5,)), ("b", (6,)), ("a", (7,))]}, Qrels({}), {})


# ---------------------------------------------------------------------------
# loss


def test_listwise_loss_hand_value():
    # two equal scores, one positive label: -log(1/2)
    loss, _ = listwise_loss((1.0, 0.0), np.array([0.0, 0.0]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-15)


def test_listwise_loss_matches_manual_softmax():
    rng = SplitMix64(9)
    for _ in range(20):
        n = 2 + rng.randint(6)
        y = np.array([1.0] + [0.0] * (n - 1))
        z = rng.normal_array((n,))
        manual = -float(y @ (z - np.log(np.exp(z - z.max()).sum()) - z.max()))
        got, _ = listwise_loss(tuple(y), z)
        assert got == pytest.approx(manual, abs=1e-12)


def test_listwise_loss_validation():
    with pytest.raises(ShapeError):
        listwise_loss((1.0, 0.0), np.zeros(3))
    with pytest.raises(ShapeError):
        listwise_loss((1.0, 0.0), np.zeros((2, 2)))


def test_listwise_loss_gradient():
    y = (0.0, 1.0, 0.0)
    for seed in range(5):
        z = SplitMix64(seed).normal_array((3,))
        _, gz = listwise_loss(y, z)
        assert central_diff_error(lambda: listwise_loss(y, z)[0], z, gz) < 1e-8


# ---------------------------------------------------------------------------
# training loop


def test_train_reduces_loss(tiny_model):
    rng = SplitMix64(4)
    dataset = [make_example(rng) for _ in range(6)]
    _, history = train(dataset, TrainConfig(epochs=8, learning_rate=0.1, seed=0),
                       tiny_model)
    assert len(history) == 8 * len(dataset)
    first = sum(history[:6]) / 6
    last = sum(history[-6:]) / 6
    assert last < first * 0.8


def test_train_is_deterministic():
    def run():
        cfg = BackpackConfig(vocab_size=30, embed_dim=8, num_senses=2,
                             sense_hidden=2, context_heads=2, max_seq_len=16)
        model = Backpack(cfg, seed=3)
        rng = SplitMix64(4)
        dataset = [make_example(rng) for _ in range(4)]
        model, history = train(dataset, TrainConfig(epochs=2, learning_rate=0.05,
                                                    seed=7), model)
        return history, {n: t.data.copy() for n, t in model.parameters().items()}

    h1, p1 = run()
    h2, p2 = run()
    assert h1 == h2
    assert all(np.array_equal(p1[n], p2[n]) for n in p1)


def test_train_shuffles_as_the_scalar_oracle_stream(monkeypatch):
    """Three epochs over 400 examples draw 1,197 outputs, across a block edge."""
    rng = SplitMix64(4)
    dataset = [make_example(rng) for _ in range(400)]

    def run(cls):
        orders = []

        class Recording(cls):
            def shuffle(self, xs):
                super().shuffle(xs)
                orders.append(list(xs))

        monkeypatch.setattr(ranker, "SplitMix64", Recording)
        model = Backpack(BackpackConfig(vocab_size=30, embed_dim=8, num_senses=2,
                                        sense_hidden=2, context_heads=2, max_seq_len=16),
                         seed=3)
        _, history = train(dataset, TrainConfig(epochs=3, learning_rate=0.05, seed=7), model)
        return orders, history

    assert run(SplitMix64) == run(ScalarSplitMix64)


def test_each_example_takes_one_sgd_step_in_shuffle_order():
    """One epoch over 3 examples applies p - lr * g_i for each example in the
    SplitMix64(seed) shuffle order, g_i taken at the previous step's
    parameters."""
    def fresh():
        return Backpack(BackpackConfig(vocab_size=30, embed_dim=8, num_senses=2,
                                       sense_hidden=2, context_heads=2,
                                       max_seq_len=16), seed=3)

    rng = SplitMix64(4)
    dataset = [make_example(rng) for _ in range(3)]
    lr = 0.05
    order = [0, 1, 2]
    SplitMix64(0).shuffle(order)
    ref = fresh()
    params = ref.parameters()
    tensors = list(params.values())
    losses = []
    for idx in order:
        ex = dataset[idx]
        z, back = ref.relevance_logits([ref.pack_sequence(ex.query, d) for d in ex.docs],
                                       np.ones((1, 2)))
        loss, gz = listwise_loss(ex.labels, z[0])
        losses.append(loss)
        grads = np.split(back(gz[None]), np.cumsum([p.data.size for p in tensors])[:-1])
        for p, g in zip(tensors, grads):
            p.data = p.data - lr * g.reshape(p.data.shape)
    model, history = train(dataset, TrainConfig(epochs=1, learning_rate=lr, seed=0),
                           fresh())
    assert history == losses
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, params[name].data), name


def test_zero_learning_rate_changes_nothing(tiny_model):
    rng = SplitMix64(4)
    dataset = [make_example(rng) for _ in range(3)]
    before = {n: t.data.copy() for n, t in tiny_model.parameters().items()}
    _, history = train(dataset, TrainConfig(epochs=2, learning_rate=0.0, seed=0),
                       tiny_model)
    after = tiny_model.parameters()
    assert all(np.array_equal(before[n], after[n].data) for n in before)
    # same parameters every step: per-example losses repeat across epochs
    assert sorted(history[:3]) == sorted(history[3:])


def _assert_views_of_flat(model):
    """Every parameter's data is a row-major view of ``model.flat`` at its
    offset in registry order, and together they cover it."""
    offset = 0
    for name, p in model.parameters().items():
        assert np.shares_memory(p.data, model.flat), name
        assert p.data.ctypes.data == model.flat.ctypes.data + 8 * offset, name
        assert p.data.flags.c_contiguous, name
        offset += p.data.size
    assert offset == model.flat.size


def test_parameters_stay_views_of_one_buffer(tiny_model, tmp_path):
    """A new model, a trained one, a loaded one and a resumed one each keep
    every parameter a view of ``flat``, so a step and a checkpoint reach all
    of them; a checkpoint's value bytes are flat's."""
    rng = SplitMix64(4)
    dataset = [make_example(rng) for _ in range(3)]
    tokens = ["<pad>", "<unk>", "<sep>"] + [f"w{i}" for i in range(3, 30)]
    path = tmp_path / "model.ckpt"
    _assert_views_of_flat(tiny_model)
    before = tiny_model.flat.copy()
    model, _ = train(dataset, TrainConfig(epochs=1, learning_rate=0.05), tiny_model)
    _assert_views_of_flat(model)
    assert not np.array_equal(model.flat, before)
    for _resume in range(2):
        save_checkpoint(path, model, tokens)
        blob = path.read_bytes()
        assert blob[-8 * model.flat.size:] == model.flat.astype("<f8").tobytes()
        model, _, _ = load_checkpoint(path)
        _assert_views_of_flat(model)
        assert model.flat.tobytes() == blob[-8 * model.flat.size:]
        model, _ = train(dataset, TrainConfig(epochs=1, learning_rate=0.05), model)
        _assert_views_of_flat(model)


def test_listwise_gradient_through_ragged_batch():
    """The gradient of the listwise loss over one ragged 3-document batch
    (one document past the budget) matches central differences."""
    cfg = BackpackConfig(vocab_size=6, embed_dim=4, num_senses=2, sense_hidden=2,
                         context_heads=1, max_seq_len=6, head_hidden=3)
    model = Backpack(cfg, seed=4)
    q, docs, y = (1, 2), ((3,), (4, 5, 3), (5, 4, 3, 2, 1)), (0.0, 1.0, 0.0)
    seqs = [model.pack_sequence(q, d) for d in docs]
    z, back = model.relevance_logits(seqs, np.ones((1, 2)))
    params = list(model.parameters().values())
    grads = np.split(back(listwise_loss(y, z[0])[1][None]),
                     np.cumsum([p.data.size for p in params])[:-1])

    def loss():
        return listwise_loss(y, model.relevance_logits(seqs, np.ones((1, 2)))[0][0])[0]

    assert max(central_diff_error(loss, p.data, g) for p, g in zip(params, grads)) <= 1e-4


def test_train_rejects_empty_dataset(tiny_model):
    with pytest.raises(DomainError):
        train([], TrainConfig(), tiny_model)


# ---------------------------------------------------------------------------
# ranking


def _one_query_set(query, cands):
    return EvalSet({"q1": query}, {"q1": cands}, Qrels({}), {})


def test_rank_orders_by_score_then_id(tiny_model):
    cands = [("b", (5, 6)), ("a", (5, 6)), ("c", (9, 9))]
    [(qid, [ranked])] = rank_all(tiny_model, _one_query_set((3, 4), cands), (ONES,))
    assert qid == "q1" and len(ranked.items) == 3
    # identical token lists score identically; id breaks the tie
    pos_a, pos_b = ranked.doc_ids.index("a"), ranked.doc_ids.index("b")
    assert pos_a < pos_b
    scores = [s for _, s in ranked.items]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_rank_all_rejects_non_finite_logits(tiny_model, bad):
    """An infinite logit has a finite sigmoid (1 or 0), so only the logits
    show it."""
    tiny_model.head.b2.data[...] = bad
    with pytest.raises(DomainError, match="finite"):
        list(rank_all(tiny_model, _one_query_set((3, 4), [("a", (5, 6)), ("b", (7,))]),
                      (ONES,)))


def test_rank_requires_candidates():
    """An eval set holds a non-empty candidate list for every query."""
    with pytest.raises(DomainError):
        _one_query_set((3,), [])
    with pytest.raises(DomainError):
        EvalSet({"q1": (3,)}, {}, Qrels({}), {})


def test_rank_all_gives_one_list_per_sense_map(tiny_model):
    """Each map's list equals ranking under that map alone."""
    es = _one_query_set((3, 4), [("a", (5, 6)), ("b", (7, 8, 9)), ("c", (9, 9))])
    maps = (ONES, (0.2, 1.0), (1.0, 0.2))
    [(_, lists)] = rank_all(tiny_model, es, maps)
    assert len(lists) == 3
    for weights, got in zip(maps, lists):
        [(_, [alone])] = rank_all(tiny_model, es, (weights,))
        assert got == alone
    assert len({tuple(s for _, s in got.items) for got in lists}) == 3


def _log_calls(monkeypatch, cls, name, path, record=lambda *args: "-"):
    """Wrap cls.name so that each call, in this process or in a forked
    helper, appends a line to path: the caller's pid and record(*args).
    Calls counted in memory would miss the helpers' share."""
    real = getattr(cls, name)

    def logged(self, *args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {record(*args)}\n")
        return real(self, *args)

    monkeypatch.setattr(cls, name, logged)


def _logged(path):
    """(pid, record) of each logged call, in the order written."""
    if not path.exists():
        return []
    return [(int(pid), rec) for pid, rec in
            (line.split(" ", 1) for line in path.read_text().splitlines())]


def _ragged_set(model):
    """8 queries whose candidates pack to mixed lengths, with more pairs of
    one length (16, the budget) than one scoring call holds."""
    rng = SplitMix64(11)
    queries, cands = {}, {}
    for i in range(8):
        qid = f"q{i}"
        queries[qid] = tuple(3 + rng.randint(27) for _ in range(1 + i % 2))
        # every third document is truncated to the budget of 16, the rest are
        # short: ragged lists, and 40 pairs of length 16 across queries
        cands[qid] = [(f"d{j}", tuple(3 + rng.randint(27)
                                     for _ in range(20 if j % 3 == 0 else 2 + j % 2)))
                      for j in range(15)]
    packed = [len(model.pack_sequence(queries[q], d)) for q in cands for _, d in cands[q]]
    assert max(packed.count(n) for n in set(packed)) > 32 and len(set(packed)) > 3
    return EvalSet(queries, cands, Qrels({}), {})


def test_rank_all_logits_equal_each_pair_scored_alone(tiny_model):
    """Across queries whose candidates pack to mixed lengths, with more pairs
    of one length than one scoring call holds, every score is bit-identical
    to its pair scored alone: nothing else in a list moves it."""
    es = _ragged_set(tiny_model)
    weight_sets = (ONES, (1.0, 0.05), (0.3, 1.0))
    for qid, lists in rank_all(tiny_model, es, weight_sets):
        for weights, ranked in zip(weight_sets, lists):
            for did, score in ranked.items:
                doc = dict(es.candidates[qid])[did]
                alone = logits(tiny_model, es.queries[qid], [doc], weights)
                assert score == nk.sigmoid(alone).item()


def _random_eval_set(rng, permute=None):
    """Up to 4 queries of 1 to 12 candidates, each drawn from 4 token lists
    of 1 to 6 tokens, so that scores tie and lists pack to mixed lengths.
    Candidates are listed in an order unrelated to their ids; ``permute``,
    a SplitMix64, reorders each list once more."""
    pool = [tuple(3 + rng.randint(27) for _ in range(1 + rng.randint(6))) for _ in range(4)]
    queries, cands = {}, {}
    for q in range(1 + rng.randint(4)):
        queries[f"q{q}"] = tuple(3 + rng.randint(27) for _ in range(1 + rng.randint(3)))
        cands[f"q{q}"] = [(f"d{j}", pool[rng.randint(len(pool))])
                          for j in range(1 + rng.randint(12))]
        rng.shuffle(cands[f"q{q}"])
        if permute is not None:
            permute.shuffle(cands[f"q{q}"])
    return EvalSet(queries, cands, Qrels({}), {})


def test_rank_all_lists_hold_the_ranking_invariants(tiny_model):
    """On random eval sets, under 1 to 3 weight sets, every yielded list
    holds each candidate once, by finite score descending, ties in ascending
    doc id; permuting each query's candidates leaves every list equal."""
    choices = [ONES, (0.5, 0.5), (0.3, 1.0), (1.0, 0.05)]
    ties = moved = 0
    for seed in range(8):
        rng = SplitMix64(seed)
        weight_sets = rng.sample(choices, 1 + rng.randint(3))
        es = _random_eval_set(SplitMix64(seed))
        ranked = list(rank_all(tiny_model, es, weight_sets))
        for qid, lists in ranked:
            for r in lists:
                assert sorted(r.doc_ids) == sorted(did for did, _ in es.candidates[qid])
                assert_ranking_invariants(r)
                scores = [s for _, s in r.items]
                ties += len(scores) - len(set(scores))
        permuted = _random_eval_set(SplitMix64(seed), permute=SplitMix64(100 + seed))
        moved += permuted.candidates != es.candidates
        assert list(rank_all(tiny_model, permuted, weight_sets)) == ranked
    assert ties >= 10 and moved >= 6, (ties, moved)


def test_rank_all_packs_each_pair_once(tiny_model, monkeypatch, tmp_path):
    """Lengths come from packed_length; pack_sequence runs only when a pair
    is scored, once per pair, in this process however many cores it may use:
    rank_all forks nothing."""
    rng = SplitMix64(12)
    queries = {f"q{i}": tuple(3 + rng.randint(27) for _ in range(1 + i)) for i in range(3)}
    cands = {qid: [(f"d{j}", tuple(3 + rng.randint(27) for _ in range(1 + 4 * j)))
                   for j in range(5)] for qid in queries}
    pin_cores(monkeypatch, 2)
    log = tmp_path / "calls"
    _log_calls(monkeypatch, Backpack, "pack_sequence", log)
    list(rank_all(tiny_model, EvalSet(queries, cands, Qrels({}), {}), (ONES, (0.5, 1.0))))
    calls = _logged(log)
    assert len(calls) == 15
    assert {pid for pid, _ in calls} == {os.getpid()}


@pytest.mark.parametrize("layers", [1, 2])
def test_train_steps_are_bit_equal_to_the_reference_chain(layers):
    """20 SGD steps of train give the loss history and parameters of the same
    steps taken through the primitive reference chain, bit for bit."""
    cfg = BackpackConfig(vocab_size=30, embed_dim=8, num_senses=3, sense_hidden=2,
                         context_layers=layers, context_heads=2, max_seq_len=12)
    rng = SplitMix64(40 + layers)
    data = []
    for i in range(20):
        m = 2 + rng.randint(7)
        docs = tuple(tuple(3 + rng.randint(27) for _ in range(1 + rng.randint(14)))
                     for _ in range(m))                 # ragged, some over the budget
        labels = (1.0,) + tuple(float(rng.randint(3) == 0) for _ in range(m - 1))
        query = tuple(3 + rng.randint(27) for _ in range(1 + rng.randint(4)))
        data.append(TrainExample(f"q{i}", query, tuple(f"d{j}" for j in range(m)), docs, labels))
    model, history = train(data, TrainConfig(epochs=1, learning_rate=0.05, seed=6),
                           Backpack(cfg, seed=layers))
    ref = tracked(Backpack(cfg, seed=layers))
    params = list(ref.parameters().values())
    order = list(range(len(data)))
    SplitMix64(6).shuffle(order)
    want = []
    for i in order:
        with Tape() as tape:
            loss = listwise_loss_chain(data[i].labels,
                                       relevance_logit_chain(ref, data[i].query, data[i].docs))
        want.append(loss.item())
        for p, g in zip(params, backward(tape, loss, params)):
            p.data = p.data - 0.05 * g
    assert history == want
    for (name, got), p in zip(model.parameters().items(), params):
        assert got.data.tobytes() == p.data.tobytes(), name


SYNTH_ONES = (1.0,) * 4    # synth_setup's identity weights
SHE_HE = [PolarityPair("she", "he")]


@pytest.fixture(scope="module")
def synth_setup():
    cfg = SynthConfig(seed=2, num_queries=20, docs_per_query=8,
                      relevant_per_query=2, vocab_size=60)
    coll = generate_synthetic(cfg)
    vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
    mcfg = BackpackConfig(vocab_size=len(vocab), embed_dim=8, num_senses=4,
                          sense_hidden=2, context_heads=2, max_seq_len=24)
    model = Backpack(mcfg, seed=1)
    eval_set = build_eval_set(coll, vocab, candidate_depth=8)
    return model, vocab, coll, eval_set


def test_rank_all_covers_sorted_queries(synth_setup):
    model, _, _, eval_set = synth_setup
    ranked = dict((qid, rl) for qid, (rl,) in rank_all(model, eval_set, (SYNTH_ONES,)))
    assert list(ranked) == sorted(eval_set.queries)
    for qid, rl in ranked.items():
        assert rl.query_id == qid
        assert set(rl.doc_ids) == {d for d, _ in eval_set.candidates[qid]}


def test_sweep_identity_row_equals_direct_evaluation(synth_setup):
    """The lambda=1.0 sweep row must be bit-equal to an unmitigated eval."""
    model, vocab, _, eval_set = synth_setup
    maps = build_sense_map(model, SHE_HE, vocab, [1.0, 0.5], m=2)
    rows = sweep_lambda(model, eval_set, maps, cutoffs=(5,))
    assert len(rows) == 2
    assert set(rows[0]) == set(SWEEP_COLUMNS)

    ranked = {qid: rl.doc_ids for qid, (rl,) in rank_all(model, eval_set, (SYNTH_ONES,))}
    [report] = bias_report([ranked], eval_set.doc_tokens, cutoffs=(5,))
    base = rows[0]
    assert base["lambda"] == 1.0
    means = effectiveness(ranked, eval_set.qrels, (10,))
    assert base["mrr@10"] == means[("mrr", 10)]
    assert base["ndcg@10"] == means[("ndcg", 10)]
    assert base["rab_tf"] == report.mean_rab[("tf", 5)]
    assert base["arab_tf"] == report.mean_arab[("tf", 5)]
    assert base["rab_bool"] == report.mean_rab[("bool", 5)]
    assert base["arab_bool"] == report.mean_arab[("bool", 5)]


def test_sweep_rows_equal_rank_all_under_each_lambda(synth_setup):
    """Every row of a 3-lambda sweep is bit-equal to ranking the whole eval
    set under that lambda's sense map and evaluating it directly."""
    model, vocab, _, eval_set = synth_setup
    lambdas, cutoffs = [1.0, 0.6, 0.3], (3, 5)
    rows = sweep_lambda(model, eval_set, build_sense_map(model, SHE_HE, vocab, lambdas, m=2),
                        cutoffs=cutoffs)

    expected = []
    for lam in lambdas:
        [weights] = build_sense_map(model, SHE_HE, vocab, (lam,), m=2).values()
        ranked = {qid: rl.doc_ids for qid, (rl,) in rank_all(model, eval_set, (weights,))}
        means = effectiveness(ranked, eval_set.qrels, (10,))
        mrr, ndcg = means[("mrr", 10)], means[("ndcg", 10)]
        [report] = bias_report([ranked], eval_set.doc_tokens, cutoffs=cutoffs)
        for cutoff in cutoffs:
            expected.append({
                "lambda": lam, "mrr@10": mrr, "ndcg@10": ndcg,
                "rab_tf": report.mean_rab[("tf", cutoff)],
                "arab_tf": report.mean_arab[("tf", cutoff)],
                "rab_bool": report.mean_rab[("bool", cutoff)],
                "arab_bool": report.mean_arab[("bool", cutoff)],
                "cutoff": cutoff,
            })
    assert rows == expected
    assert len({(r["rab_tf"], r["arab_tf"]) for r in rows}) > 2   # the lambdas differ


def test_sweep_encodes_each_pair_once(synth_setup, monkeypatch, tmp_path):
    """The encoder's cost does not grow with the number of lambdas: its rows
    add up to the number of pairs, and 1 and 4 lambdas make the same calls,
    in the same order in one process, and as the same multiset of shapes
    when a helper ranks the second block of queries."""
    model, vocab, coll, eval_set = synth_setup
    log = tmp_path / "alpha"
    _log_calls(monkeypatch, ContextEncoder, "alpha", log,
               lambda ids, positions: "x".join(map(str, np.shape(ids))))
    for workers in (1, 2):
        pin_cores(monkeypatch, workers)
        per_sweep = []
        for lambdas in ([1.0], [1.0, 0.7, 0.5, 0.3]):
            sweep_collection(model, coll, vocab,
                             build_sense_map(model, SHE_HE, vocab, lambdas, m=2), (5,), 8)
            calls = _logged(log)
            log.unlink()
            assert len({pid for pid, _ in calls}) == workers
            per_sweep.append([tuple(map(int, shape.split("x"))) for _, shape in calls])
        assert sum(rows for rows, _ in per_sweep[0]) == sum(map(len, eval_set.candidates.values()))
        if workers == 1:
            assert per_sweep[0] == per_sweep[1]
        else:
            assert sorted(per_sweep[0]) == sorted(per_sweep[1])


def test_sweep_computes_each_gender_delta_once_across_lambdas(synth_setup, monkeypatch):
    """Three lambdas make as many gender-delta calls as one: each document's
    delta is computed once per variant per block of queries, for the whole
    sweep. Cutoff 8 reads every candidate, so each lambda's lists hold the
    same documents."""
    model, vocab, _, eval_set = synth_setup
    calls = []
    real = metrics._gender_delta
    monkeypatch.setattr(metrics, "_gender_delta",
                        lambda doc, variant: calls.append(variant) or real(doc, variant))
    per_sweep = []
    for lambdas in ((1.0,), (1.0, 0.7, 0.5)):
        calls.clear()
        sweep_lambda(model, eval_set, build_sense_map(model, SHE_HE, vocab, lambdas, m=2),
                     cutoffs=(3, 8))
        per_sweep.append(len(calls))
    assert per_sweep[0] == per_sweep[1] > 0


# ---------------------------------------------------------------------------
# query blocks: rank and sweep split their queries, from retrieval on


def test_rank_and_sweep_give_equal_bits_under_one_and_two_workers(synth_setup, monkeypatch,
                                                                  tmp_path):
    """Under two usable cores a forked helper ranks and scores the second
    block of queries, and rank_collection's lists and sweep_collection's rows
    are those of rank_all and sweep_lambda over the whole eval set in one
    process, bit for bit. Each pair is packed once, by one of the processes."""
    model, vocab, coll, eval_set = synth_setup
    maps = build_sense_map(model, SHE_HE, vocab, [1.0, 0.5], m=2)
    whole = [ranked for _, (ranked,) in rank_all(model, eval_set, (maps[0.5],))]
    rows = sweep_lambda(model, eval_set, maps, cutoffs=(3, 5))
    log = tmp_path / "calls"
    _log_calls(monkeypatch, Backpack, "pack_sequence", log)
    for workers in (1, 2):
        pin_cores(monkeypatch, workers)
        assert rank_collection(model, coll, vocab, maps[0.5], candidate_depth=8) == whole
        calls = _logged(log)
        log.unlink()
        assert len(calls) == sum(map(len, eval_set.candidates.values()))
        assert len({pid for pid, _ in calls}) == workers
        assert sweep_collection(model, coll, vocab, maps, (3, 5), candidate_depth=8) == rows
        log.unlink()


def _two_query_collection():
    """q1 retrieves d1 and d2, q2 retrieves d3 and d4; q2 also holds "zzz",
    the vocabulary's last id, so that a model one id short fails on q2's
    pairs alone. Under two workers q2 is the helper's block."""
    docs = {"d1": ["cat", "dog"], "d2": ["cat", "fish"], "d3": ["bird", "tree"],
            "d4": ["bird", "sun"], "d5": ["moon"], "d6": ["star"]}
    queries = {"q1": ["cat"], "q2": ["bird", "zzz"]}
    vocab = Vocab.build(list(docs.values()) + list(queries.values()))
    assert vocab.tokens[-1] == "zzz"
    return Collection(docs, queries), vocab


def _small_model(vocab_size):
    return Backpack(BackpackConfig(vocab_size=vocab_size, embed_dim=8, num_senses=2,
                                   sense_hidden=2, context_heads=2, max_seq_len=16), seed=3)


@pytest.mark.parametrize("workers", [1, 2])
def test_query_blocks_raise_a_helpers_error_with_its_message(monkeypatch, tmp_path, workers):
    """An id outside the vocabulary in the second block's query fails the
    helper that ranks it; this process ranks that block again and raises the
    same DomainError."""
    coll, vocab = _two_query_collection()
    bad = vocab.token_id("zzz")
    pin_cores(monkeypatch, workers)
    log = tmp_path / "calls"
    _log_calls(monkeypatch, Backpack, "relevance_logits", log,
               lambda seqs, *_: int(any(bad in seq for seq in seqs)))
    with pytest.raises(DomainError, match=f"^row index {bad} out of range for {bad} rows$"):
        rank_collection(_small_model(bad), coll, vocab, ONES, candidate_depth=5)
    failed = [pid for pid, hit in _logged(log) if hit == "1"]
    if workers == 1:
        assert failed == [os.getpid()]
    else:   # the helper hit it first, then this process did
        assert len(failed) == 2 and failed[0] != os.getpid() == failed[1]


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_query_blocks_reject_non_finite_logits_from_a_helper(monkeypatch, tmp_path, bad):
    """Non-finite logits that only the helper's block holds fail the whole
    call: the helper rejects them, and so does this process, ranking that
    block again."""
    coll, vocab = _two_query_collection()
    real = Backpack.relevance_logits
    q2 = vocab.token_id("bird")    # the first id of each of q2's sequences

    def spoiled(self, seqs, weights):
        out, back = real(self, seqs, weights)
        return (out + bad if seqs[0][0] == q2 else out), back

    monkeypatch.setattr(Backpack, "relevance_logits", spoiled)
    log = tmp_path / "calls"
    _log_calls(monkeypatch, Backpack, "relevance_logits", log,
               lambda seqs, *_: int(seqs[0][0] == q2))
    pin_cores(monkeypatch, 2)
    with pytest.raises(DomainError, match="^relevance logits must be finite$"):
        rank_collection(_small_model(len(vocab)), coll, vocab, ONES, candidate_depth=5)
    spoilt = [pid for pid, hit in _logged(log) if hit == "1"]
    assert len(spoilt) == 2 and spoilt[0] != os.getpid() == spoilt[1]


def test_query_blocks_fork_nothing_for_one_block(synth_setup, monkeypatch):
    """One usable core, or a collection of one query, makes one block, which
    this process ranks itself; a list is the same bits in any block. An
    empty eval set ranks to nothing, and sweep_lambda has no queries for it."""
    model, vocab, coll, eval_set = synth_setup
    forbid_fork(monkeypatch)
    empty = EvalSet({}, {}, Qrels({}), {})
    assert list(rank_all(model, empty, (SYNTH_ONES,))) == []
    with pytest.raises(DomainError, match="^no queries to evaluate$"):
        sweep_lambda(model, empty, {1.0: SYNTH_ONES}, (5,))
    pin_cores(monkeypatch, 1)
    lists = rank_collection(model, coll, vocab, SYNTH_ONES, candidate_depth=8)
    assert [ranked.query_id for ranked in lists] == sorted(eval_set.queries)
    pin_cores(monkeypatch, 2)
    alone = Collection(coll.docs, {"q0001": coll.queries["q0001"]})
    assert rank_collection(model, alone, vocab, SYNTH_ONES, candidate_depth=8) == lists[:1]


def test_query_blocks_fork_nothing_while_another_thread_runs(synth_setup, monkeypatch):
    """A forked child would inherit any lock another thread holds, so with a
    second thread alive every block is ranked in this process."""
    model, vocab, coll, _ = synth_setup
    pin_cores(monkeypatch, 1)
    alone = rank_collection(model, coll, vocab, SYNTH_ONES, candidate_depth=8)
    pin_cores(monkeypatch, 2)
    forbid_fork(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert rank_collection(model, coll, vocab, SYNTH_ONES, candidate_depth=8) == alone
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def test_query_blocks_run_a_block_here_when_fork_fails(synth_setup, monkeypatch):
    """A fork that fails costs time, not the call: the block it would have
    gone to is ranked in this process, to the same bits."""
    model, vocab, coll, _ = synth_setup
    pin_cores(monkeypatch, 1)
    alone = rank_collection(model, coll, vocab, SYNTH_ONES, candidate_depth=8)
    pin_cores(monkeypatch, 3)
    forks = []

    def failing_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert rank_collection(model, coll, vocab, SYNTH_ONES, candidate_depth=8) == alone
    assert len(forks) == 2


def test_sweep_suppression_changes_rankings(synth_setup):
    model, vocab, _, eval_set = synth_setup
    weights = build_sense_map(model, SHE_HE, vocab, (0.3,), m=2)[0.3]
    changed = sum([s for _, s in plain.items] != [s for _, s in damped.items]
                  for _, (plain, damped) in rank_all(model, eval_set, (SYNTH_ONES, weights)))
    assert changed > 0


def test_sweep_validates_lambdas(synth_setup):
    """A sweep's lambdas are checked where its weights are built, in
    ``build_sense_map``: one map per lambda, each in (0, 1]."""
    model, vocab, _, _ = synth_setup
    with pytest.raises(DomainError, match=r"lambdas must list at least one value, got \(\)"):
        build_sense_map(model, SHE_HE, vocab, [])
    with pytest.raises(DomainError, match=r"^lambda must be in \(0, 1\], got \(1.0, 0.0\)$"):
        build_sense_map(model, SHE_HE, vocab, [1.0, 0.0])
    # a repeated lambda would return, and write, each of its rows twice
    with pytest.raises(DomainError, match="lambdas must list each value once, got 0.5 more"):
        build_sense_map(model, SHE_HE, vocab, [0.5, 0.5])


@pytest.mark.parametrize("call", [lambda model, es: list(rank_all(model, es, [])),
                                  lambda model, es: sweep_lambda(model, es, {}, (10,))],
                         ids=["rank_all", "sweep_lambda"])
def test_no_weight_sets_is_an_error_naming_rank_all(synth_setup, monkeypatch, call):
    """No weight sets at all is rejected, by name, before any pair is packed;
    a sweep over no lambdas inherits the check."""
    model, _, _, eval_set = synth_setup
    monkeypatch.setattr(Backpack, "pack_sequence", lambda *a: pytest.fail("a pair was packed"))
    with pytest.raises(DomainError, match="^rank_all needs at least one weight set$"):
        call(model, eval_set)


def test_training_example_pipeline_end_to_end(synth_setup):
    """Queries gain effectiveness after a few epochs on their own corpus."""
    model, vocab, coll, eval_set = synth_setup
    examples = build_train_examples(coll, vocab, num_negatives=3, seed=2,
                                    candidate_depth=8)
    fresh = Backpack(model.config, seed=6)
    before = effectiveness({q: r.doc_ids for q, (r,) in rank_all(fresh, eval_set, (SYNTH_ONES,))},
                           eval_set.qrels, (10,))[("ndcg", 10)]
    fresh, _ = train(examples, TrainConfig(epochs=3, learning_rate=0.05, seed=2), fresh)
    after = effectiveness({q: r.doc_ids for q, (r,) in rank_all(fresh, eval_set, (SYNTH_ONES,))},
                          eval_set.qrels, (10,))[("ndcg", 10)]
    assert after > before
