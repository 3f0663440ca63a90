"""Evaluation reports, ablation orchestration, and the cross-context and
pooling document assembly paths."""

import copy

import numpy as np
import pytest
from conftest import DescriptorDerived, forbid_descriptors

from glint.encoder import Encoder
from glint.errors import ConfigurationError
from glint.evaluation import (
    ABLATION_ROWS,
    EvalReport,
    QueryResult,
    compare_reports,
    encode_split_docs,
    evaluate,
    format_report_table,
    run_ablations,
)
from glint.scoring import ALL_ROWS, ScoringFlags, pool_patches


def _toy_report(variant="toy", with_local=True) -> EvalReport:
    results = [
        QueryResult(query_id=1, qtype="global", ranking=[1, 2], ndcg=1.0, map_=1.0),
        QueryResult(query_id=2, qtype="global", ranking=[2, 1], ndcg=0.5, map_=0.25),
    ]
    if with_local:
        results.append(
            QueryResult(query_id=3, qtype="local", ranking=[1, 2], ndcg=0.75, map_=0.5)
        )
    return EvalReport(variant=variant, split="test", k=5, results=results)


class TestEvalReport:
    def test_overall_is_the_mean_of_query_rows(self):
        rep = _toy_report()
        np.testing.assert_allclose(rep.overall["ndcg"], (1.0 + 0.5 + 0.75) / 3, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.overall["map"], (1.0 + 0.25 + 0.5) / 3, rtol=0, atol=1e-12)

    def test_qtype_means_recombine_to_overall(self):
        rep = _toy_report()
        by = rep.by_qtype()
        total = sum(stats["n"] for stats in by.values())
        recombined = sum(stats["ndcg"] * stats["n"] for stats in by.values()) / total
        np.testing.assert_allclose(recombined, rep.overall["ndcg"], rtol=0, atol=1e-12)

    def test_absent_qtype_is_absent_not_zero(self):
        rep = _toy_report(with_local=False)
        assert set(rep.by_qtype()) == {"global"}
        table = format_report_table([rep])
        assert table.splitlines()[-1].rstrip().endswith("-")

    def test_rows_and_delimited_output(self):
        rep = _toy_report()
        rows = rep.to_rows()
        as_dict = {(v, s, m): val for v, s, m, val in rows}
        assert as_dict[("toy", "test", "n_queries")] == 3.0
        assert as_dict[("toy", "test", "n_skipped")] == 0.0
        assert ("toy", "test", "ndcg@5:global") in as_dict
        assert ("toy", "test", "map@5:local") in as_dict
        text = rep.to_delimited()
        lines = text.strip().splitlines()
        assert lines[0] == "variant,split,metric,value"
        assert len(lines) == 1 + len(rows)

    def test_table_is_aligned_and_complete(self):
        table = format_report_table([_toy_report()])
        lines = table.splitlines()
        assert lines[0].split() == ["variant", "split", "n", "ndcg", "map", "ndcg:global", "ndcg:local"]
        assert "0.7500" in lines[2]  # overall ndcg and the local column


class TestEvaluate:
    def test_report_covers_every_split_query(self, trained_small, small_corpus):
        rep = evaluate(trained_small, small_corpus, split="test", k=3)
        assert rep.variant == "full"
        assert len(rep.results) == len(small_corpus.splits["test"].query_ids)
        assert not rep.skipped
        np.testing.assert_allclose(
            rep.overall["ndcg"], np.mean([r.ndcg for r in rep.results]), rtol=0, atol=1e-12
        )

    def test_rankings_cover_the_whole_split(self, trained_small, small_corpus):
        rep = evaluate(trained_small, small_corpus, split="test", k=3)
        split_pages = set(small_corpus.splits["test"].page_ids)
        for r in rep.results:
            assert set(r.ranking) == split_pages

    def test_queries_without_relevant_pages_are_skipped(self, trained_small, small_corpus):
        tweaked = copy.deepcopy(small_corpus)
        qid = tweaked.splits["test"].query_ids[0]
        tweaked.queries[qid].relevant_page_ids = []
        rep = evaluate(trained_small, tweaked, split="test", k=3)
        assert rep.skipped == [qid]
        assert all(r.query_id != qid for r in rep.results)

    def test_no_scorable_queries_is_an_error(self, trained_small, small_corpus):
        tweaked = copy.deepcopy(small_corpus)
        for qid in tweaked.splits["test"].query_ids:
            tweaked.queries[qid].relevant_page_ids = []
        with pytest.raises(ConfigurationError, match="no scorable"):
            evaluate(trained_small, tweaked, split="test", k=3)

    def test_contradictory_flags_rejected(self):
        with pytest.raises(ConfigurationError, match="zero document rows"):
            ScoringFlags(use_patches=False, use_doc_global=False)

    def test_deterministic(self, trained_small, small_corpus):
        a = evaluate(trained_small, small_corpus, split="test", k=3)
        b = evaluate(trained_small, small_corpus, split="test", k=3)
        assert [r.ndcg for r in a.results] == [r.ndcg for r in b.results]
        assert [r.ranking for r in a.results] == [r.ranking for r in b.results]


class TestEncodeSplitDocs:
    def test_unknown_split_rejected(self, trained_small, small_corpus):
        with pytest.raises(ConfigurationError, match="unknown split"):
            encode_split_docs(trained_small, small_corpus, "holdout")

    def test_cross_context_requires_descriptors(self, trained_small, small_corpus, monkeypatch):
        forbid_descriptors(monkeypatch)
        encode_split_docs(trained_small, small_corpus, "test")
        with pytest.raises(DescriptorDerived):
            encode_split_docs(trained_small, small_corpus, "test", cross_context=True)

    def test_cross_context_appends_descriptor_rows(self, trained_small, small_corpus):
        plain = encode_split_docs(trained_small, small_corpus, "test")
        crossed = encode_split_docs(trained_small, small_corpus, "test", cross_context=True)
        for base, cross in zip(plain, crossed):
            n_desc = len(small_corpus.descriptor(base.page_id))
            assert cross.patches.shape[0] == base.patches.shape[0] + n_desc
            np.testing.assert_array_equal(cross.patches[: base.patches.shape[0]], base.patches)
            np.testing.assert_array_equal(cross.global_vec, base.global_vec)

    def test_pooling_replaces_the_trained_global(self, trained_small, small_corpus):
        plain = encode_split_docs(trained_small, small_corpus, "test")
        pooled = encode_split_docs(trained_small, small_corpus, "test", pooling="mean")
        for base, pool in zip(plain, pooled):
            np.testing.assert_array_equal(pool.patches, base.patches)
            np.testing.assert_array_equal(pool.global_vec, pool_patches(base.patches, "mean"))
            assert not np.allclose(pool.global_vec, base.global_vec, atol=1e-6)

    def test_base_docs_are_reused_not_reencoded(self, trained_small, small_corpus):
        docs = encode_split_docs(trained_small, small_corpus, "test")
        reused = encode_split_docs(trained_small, small_corpus, "test", base_docs=docs)
        for a, b in zip(docs, reused):
            assert a.page_id == b.page_id
            np.testing.assert_array_equal(a.patches, b.patches)

    def test_missing_page_in_base_docs_rejected(self, trained_small, small_corpus):
        docs = encode_split_docs(trained_small, small_corpus, "test")
        with pytest.raises(ConfigurationError, match="missing from the index"):
            encode_split_docs(trained_small, small_corpus, "test", base_docs=docs[1:])


class TestCompareReports:
    def test_mismatched_query_sets_rejected(self):
        a = _toy_report()
        b = _toy_report()
        b.results = b.results[:-1]
        with pytest.raises(ValueError, match="different query sets"):
            compare_reports(a, b)

    def test_insufficient_data_is_recorded_not_raised(self):
        a = _toy_report("a")
        b = _toy_report("b")  # identical scores: zero differences everywhere
        record = compare_reports(a, b)
        assert record["pair"] == "a_vs_b"
        assert record["p_two_sided"] is None
        assert record["method"].startswith("insufficient-data")

    def test_significant_pairing(self):
        rng = np.random.default_rng(0)
        results_a, results_b = [], []
        for qid in range(12):
            base = float(rng.uniform(0.2, 0.7))
            results_a.append(QueryResult(qid, "global", [1], base + 0.1, base + 0.1))
            results_b.append(QueryResult(qid, "global", [1], base, base))
        a = EvalReport("a", "test", 5, results_a)
        b = EvalReport("b", "test", 5, results_b)
        record = compare_reports(a, b)
        assert record["method"] == "exact"
        assert record["n_pairs"] == 12
        assert record["p_two_sided"] < 0.01


class TestAblations:
    def test_row_catalog(self):
        assert len(ABLATION_ROWS) == 9
        assert ABLATION_ROWS[0] == "full"
        assert {"pool_mean", "pool_max", "pool_median"} < set(ABLATION_ROWS)

    def test_full_row_equals_plain_evaluation(self, trained_small, small_corpus):
        ab = run_ablations(small_corpus, {"full": trained_small}, split="test", k=3, rows=("full",))
        plain = evaluate(trained_small, small_corpus, split="test", k=3)
        assert [r.ndcg for r in ab.reports["full"].results] == [r.ndcg for r in plain.results]

    def test_subset_selection(self, trained_small, small_corpus):
        ab = run_ablations(
            small_corpus, {"full": trained_small}, split="test", k=3, rows=("full", "pool_mean")
        )
        assert list(ab.reports) == ["full", "pool_mean"]

    def test_unknown_rows_rejected(self, trained_small, small_corpus):
        with pytest.raises(ConfigurationError, match="unknown ablation rows"):
            run_ablations(small_corpus, {"full": trained_small}, rows=("full", "no_tables"))

    def test_missing_checkpoint_names_the_row(self, trained_small, small_corpus):
        with pytest.raises(ConfigurationError, match="'loss_no_global'"):
            run_ablations(small_corpus, {"full": trained_small}, split="test", rows=("loss_no_global",))

    def test_flag_rows_change_the_scores(self, trained_small, small_corpus):
        ab = run_ablations(
            small_corpus,
            {"full": trained_small},
            split="test",
            k=3,
            rows=("full", "no_patch_rows"),
        )
        full = ab.reports["full"].overall["ndcg"]
        gutted = ab.reports["no_patch_rows"].overall["ndcg"]
        assert full != gutted

    def test_significance_against_retrieval_only(self, trained_small, small_corpus):
        ab = run_ablations(
            small_corpus,
            {"full": trained_small, "retrieval_only": trained_small},
            split="test",
            k=3,
            rows=("full",),
        )
        assert len(ab.significance) == 1
        record = ab.significance[0]
        assert record["pair"] == "full_vs_retrieval_only"
        # Identical encoders give zero differences: the insufficient-data path.
        assert record["method"].startswith("insufficient-data")

    def test_each_checkpoint_encodes_its_pages_once(self, trained_small, small_corpus, monkeypatch):
        full, baseline = trained_small, Encoder(trained_small.config, trained_small.params)
        rows = ("full", "no_patch_rows", "pool_mean")
        fresh = {
            row: evaluate(full, small_corpus, split="test", k=3, flags=flags, pooling=pooling)
            for row, flags, pooling in (
                ("full", ALL_ROWS, None),
                ("no_patch_rows", ScoringFlags(use_patches=False), None),
                ("pool_mean", ALL_ROWS, "mean"),
            )
        }
        calls = []
        original = Encoder.encode_page
        monkeypatch.setattr(Encoder, "encode_page", lambda self, *a, **kw: calls.append(self) or original(self, *a, **kw))
        ab = run_ablations(small_corpus, {"full": full, "retrieval_only": baseline}, split="test", k=3, rows=rows)
        n_pages = len(small_corpus.splits["test"].page_ids)
        assert len(calls) == 2 * n_pages
        assert calls.count(full) == calls.count(baseline) == n_pages
        for row in rows:
            assert [r.ranking for r in ab.reports[row].results] == [r.ranking for r in fresh[row].results]
            assert [r.ndcg for r in ab.reports[row].results] == [r.ndcg for r in fresh[row].results]

    def test_report_table_and_rows(self, trained_small, small_corpus):
        ab = run_ablations(
            small_corpus, {"full": trained_small}, split="test", k=3, rows=("full", "pool_max")
        )
        table = ab.to_table()
        assert "full" in table and "pool_max" in table
        variants = {v for v, _, _, _ in ab.to_rows()}
        assert variants == {"full", "pool_max"}
        assert ab.to_delimited().startswith("variant,split,metric,value\n")
