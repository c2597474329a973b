"""Effectiveness and bias metrics against hand-worked and brute-force oracles."""

import logging
import math

import numpy as np
import pytest

from backrank import metrics
from backrank import (BiasReport, DomainError, Qrels, SplitMix64,
                      bias_report, mag_bool)
from backrank.metrics import FEMALE_TERMS, MALE_TERMS
from helpers import arab, effectiveness, mag_tf, mean_metric, mrr_at_k, ndcg_at_k, rab

# Two-document worked fixture. doc1 carries one female term twice (ln 2), doc2
# is gender-free, so RaB over both is ln(2)/2 and ARaB averages the two
# prefixes. Values recomputed by hand from the definitions. [DERIVED]
DOC1 = ["she", "she", "runs"]
DOC2 = ["the", "program", "ends"]
RAB2 = 0.34657359027997264
ARAB2 = 0.5198603854199589


def signed_bias(docs, variant="tf", t=None):
    """The signed (RaB, ARaB) at cutoff t (default: the list's length) that
    bias_report keeps for one query ranking the token lists docs."""
    ids = [f"d{i}" for i in range(len(docs))]
    t = len(docs) if t is None else t
    [report] = bias_report([{"q": ids}], dict(zip(ids, docs)), cutoffs=(t,))
    return report.per_query[(variant, t)][0]


# ---------------------------------------------------------------------------
# magnitudes


def test_mag_tf_log_counts():
    doc = ["she", "she", "she", "her", "x"]
    # ln(3) for she, ln(1)=0 for her
    assert mag_tf(doc, FEMALE_TERMS) == pytest.approx(math.log(3), abs=1e-15)
    assert mag_tf(doc, MALE_TERMS) == 0.0
    # a one-document list's RaB is its delta, female minus male magnitude
    assert signed_bias([doc])[0] == mag_tf(doc, FEMALE_TERMS)
    male = ["he", "he", "man", "him", "him", "him"]
    assert signed_bias([male])[0] == -mag_tf(male, MALE_TERMS)
    assert mag_tf(male, MALE_TERMS) == pytest.approx(math.log(2) + math.log(3), abs=1e-15)


def test_mag_tf_single_occurrence_is_zero():
    # log(count) form: a term seen once contributes log(1) = 0
    assert mag_tf(["she", "x"], FEMALE_TERMS) == 0.0
    assert signed_bias([["she", "x"]]) == (0.0, 0.0)
    assert signed_bias([["she", "x"]], variant="bool") == (1.0, 1.0)


def test_mag_bool():
    assert mag_bool(["he", "x"], MALE_TERMS) == 1
    assert mag_bool(["x", "y"], MALE_TERMS) == 0


# ---------------------------------------------------------------------------
# RaB / ARaB


def test_worked_fixture_values():
    docs = [DOC1, DOC2]
    assert signed_bias(docs, t=2) == (RAB2, ARAB2)
    assert (rab(docs, "tf", 2), arab(docs, "tf", 2)) == (RAB2, ARAB2)


WORDS = ["she", "he", "her", "him", "woman", "man", "alpha", "beta", "gamma"]


def random_docs(rng, max_docs):
    return [[WORDS[rng.randint(len(WORDS))] for _ in range(1 + rng.randint(10))]
            for _d in range(1 + rng.randint(max_docs))]


def test_rab_arab_match_naive_fold_on_random_lists():
    """bias_report's per-query values are bit-equal to the directly
    transcribed definitions."""
    rng = SplitMix64(77)
    for _ in range(200):
        docs = random_docs(rng, 8)
        t = 1 + rng.randint(len(docs))
        for variant in ("tf", "bool"):
            assert signed_bias(docs, variant, t) == (rab(docs, variant, t),
                                                     arab(docs, variant, t))


def random_run(rng, num_queries, max_docs, shared):
    """Ranked ids per query and their tokens. Shared runs draw every list
    from one pool of documents, so lists overlap as in a real run file."""
    ranked, tokens = {}, {}
    pool = [f"p{i}" for i in range(max_docs + 5)]
    for q in range(num_queries):
        docs = random_docs(rng, max_docs)
        if shared:
            ranked[f"q{q}"] = rng.sample(pool, len(docs))
            for did, doc in zip(ranked[f"q{q}"], docs):
                tokens.setdefault(did, doc)
        else:
            ranked[f"q{q}"] = [f"q{q}-d{i}" for i in range(len(docs))]
            tokens.update(zip(ranked[f"q{q}"], docs))
    return ranked, tokens


def test_bias_report_matches_naive_means_on_random_runs():
    """At every cutoff, including ones past a list's end, the per-query
    values are bit-equal to the naive signed ones in sorted query-id order,
    and the means to the mean of their absolute values, with disjoint lists
    and with lists that share documents."""
    rng = SplitMix64(91)
    cutoffs = (1, 3, 5, 40)
    for trial in range(400):
        ranked, tokens = random_run(rng, 1 + rng.randint(4), 45, shared=trial % 2 == 1)
        [report] = bias_report([ranked], tokens, cutoffs=cutoffs)
        for variant in ("tf", "bool"):
            for c in cutoffs:
                lists = [[tokens[d] for d in ranked[q]] for q in sorted(ranked)]
                signed = [(rab(docs, variant, min(c, len(docs))),
                           arab(docs, variant, min(c, len(docs)))) for docs in lists]
                assert report.per_query[(variant, c)] == signed
                rabs, arabs = zip(*signed)
                assert report.mean_rab[(variant, c)] == sum(map(abs, rabs)) / len(lists)
                assert report.mean_arab[(variant, c)] == sum(map(abs, arabs)) / len(lists)


def test_bias_report_computes_each_delta_once(monkeypatch):
    """One pass per list and variant: no more deltas than documents read."""
    calls = {"tf": 0, "bool": 0}
    real = metrics._gender_delta

    def counting(doc, variant):
        calls[variant] += 1
        return real(doc, variant)

    monkeypatch.setattr(metrics, "_gender_delta", counting)
    rng = SplitMix64(5)
    ranked, tokens = {}, {}
    for q in range(20):
        docs = random_docs(rng, 60)
        ranked[f"q{q}"] = [f"q{q}-d{i}" for i in range(len(docs))]
        tokens.update(zip(ranked[f"q{q}"], docs))
    cutoffs = (10, 20, 30, 40)
    bias_report([ranked], tokens, cutoffs=cutoffs)
    bound = sum(min(len(ids), max(cutoffs)) for ids in ranked.values())
    assert 0 < calls["tf"] <= bound
    assert 0 < calls["bool"] <= bound


def test_bias_report_computes_each_document_delta_once(monkeypatch):
    """Lists that share documents reuse one delta per (document, variant),
    and documents ranked only below the largest cutoff are never scored."""
    calls = []
    real = metrics._gender_delta

    def counting(doc, variant):
        calls.append((tuple(doc), variant))
        return real(doc, variant)

    monkeypatch.setattr(metrics, "_gender_delta", counting)
    rng = SplitMix64(8)
    ranked, tokens = random_run(rng, 30, 30, shared=True)
    tokens = {did: doc + [did] for did, doc in tokens.items()}    # tell documents apart
    cutoffs = (3, 10)
    bias_report([ranked], tokens, cutoffs=cutoffs)
    within = {tuple(tokens[d]) for ids in ranked.values() for d in ids[:max(cutoffs)]}
    assert len(within) < sum(min(len(ids), max(cutoffs)) for ids in ranked.values())
    assert sorted(calls) == sorted((doc, v) for doc in within for v in ("tf", "bool"))


def _reorderings(rng, ranked, count):
    """count rankings of ranked's documents: each list shuffled and cut,
    every other query dropped from the odd ones."""
    out = []
    for i in range(count):
        out.append({qid: rng.sample(ids, 1 + rng.randint(len(ids)))
                    for j, (qid, ids) in enumerate(sorted(ranked.items()))
                    if i % 2 == 0 or j % 2 == 0})
    return out


def test_bias_report_of_several_rankings_equals_each_alone():
    """One report per ranking, in order, each equal to that ranking's report
    on its own, bit for bit."""
    rng = SplitMix64(17)
    for trial in range(60):
        ranked, tokens = random_run(rng, 2 + rng.randint(4), 30, shared=trial % 2 == 0)
        rankings = [ranked] + _reorderings(rng, ranked, 3)
        reports = bias_report(rankings, tokens, cutoffs=(1, 4, 10))
        assert reports == [bias_report([r], tokens, cutoffs=(1, 4, 10))[0] for r in rankings]
        assert [r.num_queries for r in reports] == [len(r) for r in rankings]


def test_bias_report_computes_each_document_delta_once_across_rankings(monkeypatch):
    """Rankings that share documents reuse one delta per (document, variant):
    four reorderings cost as many delta calls as the documents they rank
    within the largest cutoff."""
    calls = []
    real = metrics._gender_delta

    def counting(doc, variant):
        calls.append((tuple(doc), variant))
        return real(doc, variant)

    monkeypatch.setattr(metrics, "_gender_delta", counting)
    rng = SplitMix64(19)
    ranked, tokens = random_run(rng, 20, 30, shared=True)
    tokens = {did: doc + [did] for did, doc in tokens.items()}    # tell documents apart
    rankings = _reorderings(rng, ranked, 4)
    cutoffs = (3, 10)
    bias_report(rankings, tokens, cutoffs=cutoffs)
    within = {tuple(tokens[d]) for r in rankings for ids in r.values() for d in ids[:10]}
    assert sorted(calls) == sorted((doc, v) for doc in within for v in ("tf", "bool"))


def test_cutoff_beyond_list_uses_prefix(caplog):
    docs = [DOC1]
    with caplog.at_level(logging.WARNING, logger="backrank.metrics"):
        assert signed_bias(docs, t=5) == signed_bias(docs, t=1)
    # one warning per report past the end, none within the list
    assert [r.getMessage() for r in caplog.records] == [
        "bias cutoff 5 exceeds the length of 1 of 1 lists (shortest 1); using their prefix"]


def test_cutoffs_past_list_ends_warn_once_per_cutoff(caplog):
    ranked = {f"q{q:02d}": [f"q{q:02d}-d{i}" for i in range(20)] for q in range(60)}
    tokens = {d: DOC2 for ids in ranked.values() for d in ids}
    with caplog.at_level(logging.WARNING, logger="backrank.metrics"):
        [report] = bias_report([ranked], tokens, cutoffs=(10, 20, 30, 40))
    assert [r.getMessage() for r in caplog.records] == [
        f"bias cutoff {c} exceeds the length of 60 of 60 lists (shortest 20); "
        "using their prefix" for c in (30, 40)]
    assert report.mean_arab[("tf", 40)] == report.mean_arab[("tf", 20)]
    caplog.clear()
    ranked = {f"q{n}": [f"q{n}-d{i}" for i in range(n)] for n in (35, 5, 25)}
    tokens = {d: DOC1 for ids in ranked.values() for d in ids}
    with caplog.at_level(logging.WARNING, logger="backrank.metrics"):
        bias_report([ranked], tokens, cutoffs=(30, 10))
    assert [r.getMessage() for r in caplog.records] == [
        "bias cutoff 30 exceeds the length of 2 of 3 lists (shortest 5); using their prefix",
        "bias cutoff 10 exceeds the length of 1 of 3 lists (shortest 5); using their prefix"]
    caplog.clear()
    # several rankings: each warns once per cutoff, in ranking order
    longer = {qid: ids + [f"{qid}-x{i}" for i in range(10)] for qid, ids in ranked.items()}
    tokens.update((d, DOC2) for ids in longer.values() for d in ids)
    with caplog.at_level(logging.WARNING, logger="backrank.metrics"):
        bias_report([ranked, longer, ranked], tokens, cutoffs=(30, 10))
    assert [r.getMessage() for r in caplog.records] == [
        "bias cutoff 30 exceeds the length of 2 of 3 lists (shortest 5); using their prefix",
        "bias cutoff 10 exceeds the length of 1 of 3 lists (shortest 5); using their prefix",
        "bias cutoff 30 exceeds the length of 1 of 3 lists (shortest 15); using their prefix",
        "bias cutoff 30 exceeds the length of 2 of 3 lists (shortest 5); using their prefix",
        "bias cutoff 10 exceeds the length of 1 of 3 lists (shortest 5); using their prefix"]


def test_rab_rejects_empty():
    with pytest.raises(DomainError):
        signed_bias([], t=1)
    with pytest.raises(DomainError):
        signed_bias([DOC1], t=0)


# ---------------------------------------------------------------------------
# MRR / NDCG


@pytest.fixture
def simple_qrels():
    return Qrels({("q1", "d1"): 1, ("q1", "d3"): 2, ("q2", "d9"): 1})


def one_query(order, qrels, k, qid="q1"):
    """(MRR@k, NDCG@k) that effectiveness reports for one query's ranking."""
    means = effectiveness({qid: order}, qrels, (k,))
    return means[("mrr", k)], means[("ndcg", k)]


def test_mrr_positions(simple_qrels):
    assert one_query(["d0", "d1", "d2"], simple_qrels, k=10)[0] == 0.5
    assert one_query(["d3"], simple_qrels, k=10)[0] == 1.0
    assert one_query(["d0", "d2"], simple_qrels, k=10)[0] == 0.0
    # beyond the cutoff does not count
    assert one_query(["d0", "d1"], simple_qrels, k=1)[0] == 0.0


def test_mrr_unknown_query_scores_zero(simple_qrels):
    assert one_query(["d1"], simple_qrels, k=10, qid="nope")[0] == 0.0


def test_ndcg_hand_value(simple_qrels):
    # ranking d1(g=1), d0(g=0), d3(g=2):
    #   dcg  = 1/log2(2) + 0 + 3/log2(4) = 1 + 1.5
    #   idcg = 3/log2(2) + 1/log2(3)
    got = one_query(["d1", "d0", "d3"], simple_qrels, k=10)[1]
    want = (1.0 + 1.5) / (3.0 + 1.0 / math.log2(3))
    assert got == pytest.approx(want, abs=1e-12)


def test_ndcg_perfect_is_one(simple_qrels):
    assert one_query(["d3", "d1"], simple_qrels, k=10)[1] == pytest.approx(1.0, abs=1e-12)
    # at the largest grade every DCG stays finite (three docs graded 1023 gave nan)
    top = Qrels({("q1", d): 1000 for d in ("d1", "d2", "d3")})
    assert one_query(["d1", "d2", "d3"], top, k=10) == (1.0, 1.0)


def test_mrr_ndcg_match_naive_on_random_lists():
    rng = SplitMix64(31)
    for trial in range(200):
        n = 2 + rng.randint(15)
        ids = [f"d{i}" for i in range(n)]
        grades = {("q", d): rng.randint(3) for d in ids}
        qr = Qrels(grades)
        order = list(ids)
        rng.shuffle(order)
        k = 1 + rng.randint(n)

        naive_mrr = 0.0
        for i, d in enumerate(order[:k]):
            if grades[("q", d)] > 0:
                naive_mrr = 1.0 / (i + 1)
                break
        dcg = sum((2.0 ** grades[("q", d)] - 1.0) / math.log2(i + 2)
                  for i, d in enumerate(order[:k]))
        best = sorted((g for (_q, _d), g in grades.items() if g > 0), reverse=True)
        idcg = sum((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(best[:k]))
        naive_ndcg = dcg / idcg if idcg > 0 else 0.0

        mrr, ndcg = one_query(order, qr, k, qid="q")
        assert mrr == naive_mrr
        assert ndcg == pytest.approx(naive_ndcg, abs=1e-12)


def test_effectiveness_sorted_order_and_errors(simple_qrels):
    # q1: first relevant at rank 2 -> 0.5; q2: rank 1 -> 1.0
    ranked = {"q2": ["d9"], "q1": ["d0", "d1"]}
    assert effectiveness(ranked, simple_qrels, (10,))[("mrr", 10)] == pytest.approx(0.75)
    with pytest.raises(DomainError):
        effectiveness({}, simple_qrels, (10,))
    with pytest.raises(DomainError, match="must be >= 1, got 0"):
        effectiveness({"nope": ["d1"]}, simple_qrels, (10, 0))
    # a repeated cutoff would be one mean under two names; none is no report
    with pytest.raises(DomainError, match="each value once, got 2 more than once"):
        effectiveness(ranked, simple_qrels, (2, 10, 2))
    with pytest.raises(DomainError, match="at least one value"):
        effectiveness(ranked, simple_qrels, ())
    # a float is not truncated to the cutoff below it, nor a string parsed
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(DomainError, match=f"cutoffs must be integers, got {bad!r}"):
            effectiveness(ranked, simple_qrels, (10, bad))
    assert (effectiveness(ranked, simple_qrels, (np.int64(10),))
            == effectiveness(ranked, simple_qrels, (10,)))


@pytest.mark.parametrize("metric,fn", [("mrr", mrr_at_k), ("ndcg", ndcg_at_k)])
def test_queries_absent_from_qrels_are_one_warning_and_score_0(simple_qrels, caplog,
                                                               metric, fn):
    ranked = {"q2": ["d9"], "zz": ["d1"], "q1": ["d3", "d1"], "aa": ["d9"], "mm": []}
    with caplog.at_level(logging.WARNING, logger="backrank.metrics"):
        got = effectiveness(ranked, simple_qrels, (10, 5))
    # one warning per call, whatever the number of metrics and cutoffs
    assert [r.getMessage() for r in caplog.records] == [
        "3 of 5 queries absent from qrels (first aa); scoring them 0"]
    # the absent queries count as 0 in the mean, as each metric scores them
    with caplog.at_level(logging.ERROR):
        for k in (10, 5):
            total = 0.0
            for qid in sorted(ranked):
                total += fn(qid, ranked[qid], simple_qrels, k)
            assert got[(metric, k)] == total / 5
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="backrank.metrics"):
        effectiveness({"q1": ["d1"], "q2": ["d9"]}, simple_qrels, (10,))
    assert caplog.records == []


def test_effectiveness_equals_oracle_means_bit_for_bit(caplog):
    """One walk per list gives every (metric, cutoff) mean bit-equal to one
    oracle walk per (metric, cutoff), on random runs with graded qrels 0-2,
    lists shorter than a cutoff, unsorted cutoffs, queries
    absent from qrels and queries with no relevant documents. The per-query
    pass over two rankings of one query set gives each ranking's values
    exactly as that ranking alone does."""
    rng = SplitMix64(2024)
    for trial in range(150):
        num_queries = 1 + rng.randint(6)
        ranked, grades = {}, {}
        for q in range(num_queries):
            qid = f"q{rng.randint(100):02d}"
            pool = [f"d{i}" for i in range(1 + rng.randint(25))]
            rng.shuffle(pool)
            ranked[qid] = pool[:rng.randint(len(pool) + 1)]
            kind = rng.randint(4)    # 0: absent from qrels, 1: no relevant doc
            if kind == 1:
                grades[(qid, pool[0])] = 0
            elif kind > 1:
                for did in pool:
                    grades[(qid, did)] = rng.randint(3)
        qrels = Qrels(grades)
        cutoffs = list(dict.fromkeys(1 + rng.randint(30) for _ in range(1 + rng.randint(5))))
        with caplog.at_level(logging.ERROR):
            got = effectiveness(ranked, qrels, cutoffs)
            want = {(metric, k): mean_metric(ranked, qrels, metric, k)
                    for k in cutoffs for metric in ("mrr", "ndcg")}
        assert got == want, (trial, cutoffs)
        assert all(type(v) is float for v in got.values())
        # several rankings of one query set in one pass: each as if alone
        reordered = {qid: SplitMix64(trial).sample(ids, len(ids)) for qid, ids in ranked.items()}
        per_ranking = [metrics.effectiveness_per_query([r], qrels, tuple(cutoffs))[0]
                       for r in (ranked, reordered)]
        assert metrics.effectiveness_per_query([ranked, reordered], qrels,
                                               tuple(cutoffs)) == per_ranking


# ---------------------------------------------------------------------------
# report and query filtering


def test_bias_report_gender_free_is_all_zero():
    ranked = {"q1": ["d1", "d2"], "q2": ["d2", "d1"]}
    docs = {"d1": ["alpha", "beta"], "d2": ["gamma", "alpha"]}
    [report] = bias_report([ranked], docs, cutoffs=(1, 2))
    assert len(report.mean_rab) == len(report.mean_arab) == 4
    assert set(report.mean_rab.values()) == set(report.mean_arab.values()) == {0.0}


def test_bias_report_absolute_vs_signed():
    # q1 leans female, q2 leans male, same strength: signed per-query values
    # cancel, the report's absolute means do not
    ranked = {"q1": ["df"], "q2": ["dm"]}
    docs = {"df": ["she", "she"], "dm": ["he", "he"]}
    [absr] = bias_report([ranked], docs, cutoffs=(1,))
    signed = [query_rab for query_rab, _arab in absr.per_query[("tf", 1)]]
    assert signed == [math.log(2), -math.log(2)]    # q1, q2
    assert sum(signed) / len(signed) == pytest.approx(0.0, abs=1e-15)
    assert absr.mean_rab[("tf", 1)] == pytest.approx(math.log(2), abs=1e-12)
    assert isinstance(absr, BiasReport)


def test_bias_report_validates():
    ranked = {"q1": ["d1"]}
    docs = {"d1": ["x"]}
    with pytest.raises(DomainError, match="must be >= 1, got 0"):
        bias_report([ranked], docs, cutoffs=(0,))
    # a repeated cutoff would make sweep_lambda write each of its rows twice
    with pytest.raises(DomainError, match="each value once, got 2 more than once"):
        bias_report([ranked], docs, cutoffs=(2, 2))
    with pytest.raises(DomainError, match="at least one value"):
        bias_report([ranked], docs, cutoffs=())
    for bad in (2.5, "2"):    # reported as cutoff 2, or accepted, before they were checked
        with pytest.raises(DomainError, match=f"cutoffs must be integers, got {bad!r}"):
            bias_report([ranked], docs, cutoffs=(bad,))
    with pytest.raises(DomainError):
        bias_report([ranked, {}], docs)
    with pytest.raises(DomainError):
        bias_report(ranked, docs)    # one ranking, not a sequence of them
    assert bias_report([], docs) == []


def test_qrels_api():
    qr = Qrels({("q", "a"): 2, ("q", "b"): 0})
    assert qr.grade("q", "a") == 2
    assert qr.grade("q", "missing") == 0
    assert qr.relevant("q") == {"a": 2}
    assert qr.has_query("q") and not qr.has_query("zz")
    for bad in (-1, 1001, 10 ** 30):
        with pytest.raises(DomainError, match="outside 0..1000"):
            Qrels({("q", "a"): bad})
    # a float grade is refused, not truncated; nan is a DomainError too
    for bad in (2.7, 2.0, float("nan"), np.float64(1.0), "2"):
        with pytest.raises(DomainError, match=r"grade .* for \(q, a\) is not an integer"):
            Qrels({("q", "a"): bad})
    qr = Qrels({("q", "a"): np.int64(3), ("q", "b"): np.uint8(1), ("q", "c"): True})
    assert [type(g) for _, g in qr.items()] == [int, int, int]
    assert qr.relevant("q") == {"a": 3, "b": 1, "c": 1}
