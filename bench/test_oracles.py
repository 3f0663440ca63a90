"""Tests of the benchmark's oracles: each agrees with an independent reference
and rejects a perturbed ranking, score or p-value.

    python3 -m pytest bench
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402


def _unit_rows(rng, n, d=8):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _naive_maxsim(q_rows, d_rows):
    return sum(max(float(np.dot(q, r)) for r in d_rows) for q in q_rows)


@pytest.fixture
def corpus():
    rng = np.random.default_rng(0)
    docs = [_unit_rows(rng, int(rng.integers(1, 7))) for _ in range(30)]
    ids = list(range(100, 130))
    return rng, ids, docs, oracles.PaddedDocs(ids, docs)


def test_maxsim_matches_a_naive_double_loop(corpus):
    rng, ids, docs, padded = corpus
    q = _unit_rows(rng, 5)
    got = padded.maxsim(q)
    want = [_naive_maxsim(q, d) for d in docs]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_padding_never_wins_a_max():
    # Every real similarity is negative, so a zero padding row would win if unmasked.
    docs = [np.array([[-1.0, 0.0]]), np.array([[-1.0, 0.0], [0.0, -1.0]])]
    padded = oracles.PaddedDocs([1, 2], docs)
    assert padded.maxsim(np.array([[1.0, 0.0]])).tolist() == [-1.0, 0.0]


def test_ranking_orders_by_score_then_ascending_id():
    ids = np.array([5, 3, 9, 1])
    scores = np.array([0.5, 0.9, 0.5, 0.1])
    assert oracles.ranking(ids, scores, 4) == [3, 5, 9, 1]
    assert oracles.ranking(ids, scores, 2) == [3, 5]


def test_ranking_check_accepts_the_oracle_and_rejects_perturbations(corpus):
    rng, ids, docs, padded = corpus
    scores = padded.maxsim(_unit_rows(rng, 4))
    top = oracles.ranking(padded.ids, scores, 10)
    by_id = dict(zip(ids, scores.tolist()))
    top_scores = [by_id[i] for i in top]
    assert oracles.ranking_mismatch(top, top_scores, padded.ids, scores, 10) is None

    swapped = top[:]
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert oracles.ranking_mismatch(swapped, None, padded.ids, scores, 10)
    outsider = next(i for i in ids if i not in top)
    assert oracles.ranking_mismatch(top[:-1] + [outsider], None, padded.ids, scores, 10)
    assert oracles.ranking_mismatch(top[:-1], None, padded.ids, scores, 10)
    assert oracles.ranking_mismatch(top[:-1] + [top[0]], None, padded.ids, scores, 10)
    bumped = top_scores[:]
    bumped[4] += 1e-6
    assert oracles.ranking_mismatch(top, bumped, padded.ids, scores, 10)


def test_ranking_check_tolerates_float_ties_but_not_id_order_on_exact_ties():
    ids = np.array([1, 2, 3])
    scores = np.array([0.7, 0.7 + 1e-15, 0.2])
    assert oracles.ranking_mismatch([1, 2, 3], None, ids, scores, 3) is None
    assert oracles.ranking_mismatch([2, 1, 3], None, ids, scores, 3) is None
    assert oracles.ranking_mismatch([2, 1, 3], [0.7, 0.7, 0.2], ids, np.array([0.7, 0.7, 0.2]), 3)


def test_ndcg_map_closed_form():
    assert oracles.ndcg_map([4, 2, 9], {4}, 5) == (1.0, 1.0)
    ndcg, ap = oracles.ndcg_map([1, 2, 4], {4}, 5)
    assert ndcg == pytest.approx(0.5) and ap == pytest.approx(1 / 3)
    assert oracles.ndcg_map([1, 2, 3, 4], {4}, 3) == (0.0, 0.0)
    ndcg, ap = oracles.ndcg_map([7, 1, 8], {7, 8}, 5)
    assert ndcg == pytest.approx((1 + 0.5) / (1 + 1 / math.log2(3)))
    assert ap == pytest.approx((1 + 2 / 3) / 2)
    # A perturbed ranking moves the value: the check can fail.
    assert oracles.ndcg_map([2, 4], {4}, 5) != oracles.ndcg_map([4, 2], {4}, 5)


def _brute_force_p(diffs):
    """Two-sided exact p by listing every sign pattern in Python."""
    d = [x for x in diffs if x != 0]
    a = sorted(abs(x) for x in d)
    rank = {v: (a.index(v) + 1 + len(a) - a[::-1].index(v)) / 2 for v in a}
    w = sum(rank[abs(x)] for x in d if x > 0)
    all_w = [sum(rank[abs(x)] for x, s in zip(d, signs) if s) for signs in itertools.product((0, 1), repeat=len(d))]
    tail = min(sum(v <= w for v in all_w), sum(v >= w for v in all_w))
    return min(1.0, 2 * tail / len(all_w))


def test_wilcoxon_exact_matches_listing_every_sign_pattern():
    rng = np.random.default_rng(1)
    for n in (5, 8, 11):
        a = rng.integers(0, 4, size=n) / 4.0  # coarse values give zero and tied differences
        b = rng.integers(0, 4, size=n) / 4.0
        if np.count_nonzero(a - b) < 1:
            continue
        stat, p, n_nz, method = oracles.wilcoxon(a.tolist(), b.tolist())
        assert method == "exact" and n_nz == np.count_nonzero(a - b)
        assert p == pytest.approx(_brute_force_p((a - b).tolist()), abs=1e-12)


def test_wilcoxon_known_values_and_perturbation():
    # All five differences positive: only 1 of 32 patterns is as extreme each side.
    stat, p, n, method = oracles.wilcoxon([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    assert (stat, p, n, method) == (0.0, 2 / 32, 5, "exact")
    _, p_flipped, _, _ = oracles.wilcoxon([1, 2, 3, 4, 0], [0, 0, 0, 0, 5])
    assert p_flipped != p


def test_wilcoxon_normal_branch_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2)
    a = rng.integers(0, 6, size=60) / 5.0
    b = rng.integers(0, 6, size=60) / 5.0
    stat, p, n, method = oracles.wilcoxon(a.tolist(), b.tolist())
    ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True, method="approx")
    assert method == "normal" and n > oracles.EXACT_MAX_N
    assert stat == pytest.approx(ref.statistic) and p == pytest.approx(ref.pvalue, rel=1e-9)


def test_glint_rank_agrees_with_the_oracle_and_a_perturbed_ranking_is_caught(corpus):
    scoring = pytest.importorskip("glint.scoring")
    from glint.embeddings import DocumentEmbedding, QueryEmbedding

    rng, ids, docs, _ = corpus
    index = [DocumentEmbedding(patches=d[:-1] if len(d) > 1 else d, global_vec=d[-1], page_id=i)
             for i, d in zip(ids, docs)]
    padded = oracles.PaddedDocs(ids, [oracles.doc_rows(x.patches, x.global_vec, True, True) for x in index])
    q = _unit_rows(rng, 4)
    emb = QueryEmbedding(tokens=q[:-1], global_vec=q[-1], query_id=0)
    got = scoring.rank(emb, index, 8)
    scores = padded.maxsim(oracles.query_rows(emb.tokens, emb.global_vec, True))
    assert oracles.ranking_mismatch(got.doc_ids, got.scores, padded.ids, scores, 8) is None
    assert oracles.ranking_mismatch(got.doc_ids[::-1], got.scores[::-1], padded.ids, scores, 8)


def test_benchmark_json_names_what_the_runner_prints():
    import run
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        [(name, unit) for name, unit, _, _ in run.PER_LAYER] + [("trace.overhead_ms", "ms")]
    )
