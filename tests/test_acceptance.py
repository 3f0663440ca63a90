"""Acceptance checks for the whole retrieval stack.

Each class states one verifiable claim about the finished system: gradient
correctness against finite differences, closed-form loss values, scoring
against a literal double loop, metric and significance oracles, the
seed-averaged directional comparisons, descriptor purity (plain retrieval
derives no descriptor), and end-to-end reproducibility. The directional claims share one module-scoped
training matrix (three seeds on the default 200-page corpus) so the module
stays well inside its time budget.
"""

import dataclasses
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from conftest import (
    forbid_descriptors,
    small_corpus_config,
    small_encoder_config,
    small_trainer_config,
    unit_rows,
)

from glint.config import RunConfig
from glint.corpus import generate_corpus
from glint.embeddings import DocumentEmbedding, QueryEmbedding
from glint.encoder import Encoder
from glint.evaluation import encode_split_docs, evaluate
from glint.losses import (
    finite_diff_check,
    global_infonce,
    local_align,
    local_align_tie_exclusion,
    retrieval_infonce,
)
from glint.metrics import map_at_k, ndcg_at_k, spatial_entropy, wilcoxon_signed_rank
from glint.pipeline import run_eval, run_gen, run_index, run_train
from glint.scoring import ScoringFlags, maxsim_score
from glint.training import grad_check_encoder, train


class TestGradientCorrectness:
    """Analytic gradients match central finite differences, loss by loss and
    end-to-end through the encoder, with argmax-tie coordinates excluded."""

    def test_each_loss_in_isolation(self):
        start = time.monotonic()
        rng = np.random.default_rng(101)

        for _ in range(20):
            b, d = int(rng.integers(2, 6)), int(rng.integers(4, 9))
            report = finite_diff_check(
                lambda visual_globals, descriptor_globals: global_infonce(
                    visual_globals, descriptor_globals, tau=0.5
                ),
                {
                    "visual_globals": rng.normal(size=(b, d)),
                    "descriptor_globals": rng.normal(size=(b, d)),
                },
            )
            assert report.passed and report.tolerance == 1e-4, report.worst

        for _ in range(20):
            d = int(rng.integers(3, 8))
            inputs = {
                "patches": rng.normal(size=(int(rng.integers(1, 7)), d)),
                "descriptor_tokens": rng.normal(size=(int(rng.integers(1, 7)), d)),
            }
            exclude = local_align_tie_exclusion(**inputs)
            report = finite_diff_check(local_align, inputs, exclude=exclude)
            assert report.passed and report.tolerance == 1e-4, report.worst

        for _ in range(20):
            b = int(rng.integers(2, 7))
            report = finite_diff_check(
                lambda scores: retrieval_infonce(scores, tau=0.5),
                {"scores": rng.normal(size=(b, b))},
            )
            assert report.passed and report.tolerance == 1e-4, report.worst

        assert time.monotonic() - start < 60.0

    def test_end_to_end_through_a_tiny_encoder(self):
        start = time.monotonic()
        for seed in range(20):
            report = grad_check_encoder(seed=seed)
            assert report.passed, (seed, report.worst, report.max_rel_error)
            assert report.tolerance == 1e-3
            assert report.n_checked + report.n_excluded == 200
            assert report.n_checked > 0
        assert time.monotonic() - start < 60.0


class TestLossValueOracles:
    """Closed-form loss values on hand-checkable inputs."""

    def test_paired_identity_globals_at_unit_temperature(self):
        value = global_infonce(np.eye(2), np.eye(2), tau=1.0).value
        assert abs(value - 0.3133) <= 1e-4
        np.testing.assert_allclose(value, math.log1p(math.exp(-1.0)), rtol=0, atol=1e-12)

    def test_cold_temperature_separates_the_pairs_completely(self):
        # ln(1 + e^-50) underflows to exactly zero in float64.
        value = global_infonce(np.eye(2), np.eye(2), tau=0.02).value
        assert 0.0 <= value <= 1e-20

    def test_self_matched_descriptors_reach_the_lower_bound_exactly(self):
        for n in (1, 2, 5):
            rows = np.eye(5)[:n]
            assert local_align(rows, rows).value == -float(n)

    def test_indistinguishable_batch_costs_ln_of_batch_size(self):
        value = retrieval_infonce(np.ones((2, 2)), tau=1.0).value
        np.testing.assert_allclose(value, math.log(2.0), rtol=0, atol=1e-9)


def _naive_maxsim(q: QueryEmbedding, d: DocumentEmbedding) -> float:
    """Literal double loop over all query rows x document rows."""
    q_rows = list(q.tokens) + [q.global_vec]
    d_rows = list(d.patches) + [d.global_vec]
    total = 0.0
    for qr in q_rows:
        best = -math.inf
        for dr in d_rows:
            best = max(best, float(np.dot(qr, dr)))
        total += best
    return total


def _random_pair(rng, d=None):
    d = d if d is not None else int(rng.integers(2, 17))
    q = QueryEmbedding(
        tokens=unit_rows(rng.normal(size=(int(rng.integers(1, 9)), d))),
        global_vec=unit_rows(rng.normal(size=(1, d)))[0],
        query_id=0,
    )
    doc = DocumentEmbedding(
        patches=unit_rows(rng.normal(size=(int(rng.integers(1, 9)), d))),
        global_vec=unit_rows(rng.normal(size=(1, d)))[0],
        page_id=0,
    )
    return q, doc


class TestScoringAgainstNaiveOracle:
    def test_1000_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q, doc = _random_pair(rng)
            np.testing.assert_allclose(
                maxsim_score(q, doc), _naive_maxsim(q, doc), rtol=1e-6, atol=1e-6
            )


def _brute_ndcg(ranking, relevant, k):
    dcg = sum(1.0 / math.log2(p + 2) for p, pid in enumerate(ranking[:k]) if pid in relevant)
    ideal = sum(1.0 / math.log2(p + 2) for p in range(min(k, len(relevant))))
    return dcg / ideal


def _brute_map(ranking, relevant, k):
    hits, total = 0, 0.0
    for pos, pid in enumerate(ranking[:k], start=1):
        if pid in relevant:
            hits += 1
            total += hits / pos
    return total / min(len(relevant), k)


class TestRankingMetricOracles:
    def test_hand_computed_values(self):
        # Single relevant page at rank 2 of five: 1/log2(3).
        np.testing.assert_allclose(
            ndcg_at_k([7, 3, 9, 1, 4], {3}, k=5), 0.6309297535714575, rtol=0, atol=1e-9
        )
        # Hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6.
        np.testing.assert_allclose(
            map_at_k([4, 8, 6, 2], {4, 6}, k=5), 5.0 / 6.0, rtol=0, atol=1e-9
        )

    def test_500_random_instances_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 20))
            ranking = [int(x) for x in rng.permutation(20)[:n]]
            relevant = {int(x) for x in rng.choice(20, size=int(rng.integers(1, 8)), replace=False)}
            k = int(rng.integers(1, 10))
            np.testing.assert_allclose(
                ndcg_at_k(ranking, relevant, k), _brute_ndcg(ranking, relevant, k),
                rtol=0, atol=1e-12,
            )
            np.testing.assert_allclose(
                map_at_k(ranking, relevant, k), _brute_map(ranking, relevant, k),
                rtol=0, atol=1e-12,
            )


def _enumerated_wilcoxon(diffs):
    """Oracle: tie-averaged ranks of |d|, then all 2^n sign patterns."""
    n = len(diffs)
    abs_d = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: abs_d[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs_d[order[j + 1]] == abs_d[order[i]]:
            j += 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = (i + j + 2) / 2.0
        i = j + 1
    doubled = [int(round(2 * r)) for r in ranks]
    w_plus = sum(dr for dr, d in zip(doubled, diffs) if d > 0)
    w_minus = sum(dr for dr, d in zip(doubled, diffs) if d < 0)
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(dr for dr, s in zip(doubled, signs) if s)
        le += w <= w_plus
        ge += w >= w_plus
    return min(w_plus, w_minus) / 2.0, min(1.0, 2.0 * min(le, ge) / 2**n)


class TestSignificanceAgainstEnumeration:
    def test_200_random_paired_samples_across_all_small_sizes(self):
        rng = np.random.default_rng(13)
        for n in range(5, 13):  # 8 sizes x 25 samples = 200
            for _ in range(25):
                # Integer-valued baselines keep a - b exact in float, so the
                # intended |difference| ties survive the subtraction.
                b = [float(x) for x in rng.integers(0, 30, size=n)]
                a = [x + float(d) for x, d in zip(b, rng.integers(-4, 5, size=n))]
                diffs = [x - y for x, y in zip(a, b) if x != y]
                if len(diffs) < 5:
                    continue
                res = wilcoxon_signed_rank(a, b)
                stat, p = _enumerated_wilcoxon(diffs)
                assert res.method == "exact"
                assert res.statistic == stat
                assert res.p_two_sided == p


class TestSpatialEntropyOracle:
    def test_concentrated_layout_has_zero_entropy(self):
        points = [(0.1, 0.1)] * 6
        assert spatial_entropy(points, grid_size=4) == 0.0

    def test_uniform_two_by_two_layout_reaches_ln_4(self):
        points = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
        np.testing.assert_allclose(spatial_entropy(points, grid_size=2), math.log(4.0), rtol=0, atol=1e-9)

    def test_never_exceeds_the_support_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(1, 51))
            g = int(rng.integers(1, 9))
            points = [(float(x), float(y)) for x, y in rng.uniform(0.0, 1.0, size=(n, 2))]
            assert spatial_entropy(points, g) <= math.log(min(n, g * g)) + 1e-12


@pytest.fixture(scope="module")
def directional():
    """Three-seed training matrix on the default 200-page / 200-query corpus.

    For each seed: train the full loss and a retrieval-only twin, then score
    the test split with the plain rows, without patch rows, with frozen
    cross-context descriptor rows, and with each pooled stand-in for the
    trained global. Shared by every seed-averaged claim below.
    """
    seeds = (0, 1, 2)
    out = {
        "full_all": [], "full_glob": [], "ro_glob": [], "np_all": [], "frozen_all": [],
        "pool_all": {mode: [] for mode in ("mean", "max", "median")},
    }
    start = time.monotonic()
    for seed in seeds:
        cfg = RunConfig.directional(seed=seed)
        corpus = generate_corpus(cfg.corpus)
        enc_full = Encoder(cfg.encoder, train(corpus, cfg.encoder, cfg.trainer).params)
        ro_tcfg = dataclasses.replace(cfg.trainer, weight_global=0.0, weight_local=0.0)
        enc_ro = Encoder(cfg.encoder, train(corpus, cfg.encoder, ro_tcfg).params)

        docs = encode_split_docs(enc_full, corpus, "test")
        rep_full = evaluate(enc_full, corpus, split="test", k=5, base_docs=docs)
        rep_ro = evaluate(enc_ro, corpus, split="test", k=5, variant="retrieval_only")
        rep_np = evaluate(
            enc_full, corpus, split="test", k=5,
            flags=ScoringFlags(use_patches=False), variant="no_patch_rows", base_docs=docs,
        )
        rep_frozen = evaluate(
            enc_full, corpus, split="test", k=5, cross_context=True,
            variant="frozen_cross_context", base_docs=docs,
        )
        out["full_all"].append(rep_full.overall["ndcg"])
        out["full_glob"].append(rep_full.by_qtype()["global"]["ndcg"])
        out["ro_glob"].append(rep_ro.by_qtype()["global"]["ndcg"])
        out["np_all"].append(rep_np.overall["ndcg"])
        out["frozen_all"].append(rep_frozen.overall["ndcg"])
        for mode, vals in out["pool_all"].items():
            rep_pool = evaluate(
                enc_full, corpus, split="test", k=5,
                pooling=mode, variant=f"pool_{mode}", base_docs=docs,
            )
            vals.append(rep_pool.overall["ndcg"])

    out["elapsed"] = time.monotonic() - start
    out["pool_all"] = {mode: np.array(vals) for mode, vals in out["pool_all"].items()}
    for key in ("full_all", "full_glob", "ro_glob", "np_all", "frozen_all"):
        out[key] = np.array(out[key])
    return out


@pytest.mark.slow
class TestDirectionalComparisons:
    """Seed-averaged orderings the trained system must reproduce."""

    def test_runtime_within_budget(self, directional):
        assert directional["elapsed"] < 1800.0

    def test_global_queries_need_the_global_training_signal(self, directional):
        full, ro = directional["full_glob"], directional["ro_glob"]
        margin = float(full.mean() - ro.mean())
        assert margin > float(np.std(full, ddof=1)), (full.tolist(), ro.tolist())

    def test_dropping_patch_rows_collapses_retrieval(self, directional):
        drop = float(directional["full_all"].mean() - directional["np_all"].mean())
        assert drop >= 0.15, (directional["full_all"].tolist(), directional["np_all"].tolist())

    def test_every_pooled_global_trails_the_trained_one(self, directional):
        full = float(directional["full_all"].mean())
        for mode, vals in directional["pool_all"].items():
            assert float(vals.mean()) < full, (mode, vals.tolist(), full)


@pytest.mark.slow
class TestCrossContextSoftExpectation:
    def test_plain_scoring_vs_frozen_cross_context(self, directional):
        """Soft comparison: expected to win in at least 2 of 3 seeds, but the
        margin is small and seed-sensitive at this scale, so an unmet
        expectation is logged as a warning rather than failed."""
        full, frozen = directional["full_all"], directional["frozen_all"]
        assert full.shape == frozen.shape == (3,)
        assert np.all(np.isfinite(full)) and np.all(np.isfinite(frozen))
        wins = int(np.sum(full >= frozen))
        if wins < 2:
            warnings.warn(
                "soft expectation unmet: plain scoring beat frozen cross-context in "
                f"{wins}/3 seeds (plain={np.round(full, 3).tolist()}, "
                f"frozen={np.round(frozen, 3).tolist()})",
                UserWarning,
                stacklevel=1,
            )


class TestDescriptorFilePurity:
    """Descriptors are training/cross-context inputs only: plain evaluation
    never derives one, so forbidding generate_descriptor changes nothing."""

    def test_plain_evaluation_survives_descriptor_deletion(self, small_corpus, trained_small, monkeypatch):
        expected = evaluate(trained_small, small_corpus, split="test", k=3)
        forbid_descriptors(monkeypatch)
        report = evaluate(trained_small, small_corpus, split="test", k=3)
        assert report.results and not report.skipped
        assert report.to_delimited() == expected.to_delimited()
        assert [r.ranking for r in report.results] == [r.ranking for r in expected.results]


class TestEndToEndReproducibility:
    def test_two_identical_runs_produce_identical_artifacts(self, tmp_path):
        # Both runs execute sequentially in this process, so the thread
        # configuration is pinned by construction.
        cfg = RunConfig(
            corpus=small_corpus_config(),
            encoder=small_encoder_config(),
            trainer=small_trainer_config(),
            eval_k=3,
        )
        artifacts, reports = [], []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            corpus_path, ckpt, index = root / "corpus.jsonl", root / "model.ckpt", root / "pages.idx"
            run_gen(cfg, corpus_path)
            run_train(cfg, corpus_path, ckpt)
            run_index(ckpt, corpus_path, index)
            reports.append(run_eval(cfg, corpus_path, ckpt, index_path=index))
            artifacts.append(
                (corpus_path.read_bytes(), ckpt.read_bytes(), index.read_bytes())
            )
        assert artifacts[0][2] == artifacts[1][2]  # byte-identical index
        assert artifacts[0][0] == artifacts[1][0]
        assert artifacts[0][1] == artifacts[1][1]
        rep_a, rep_b = reports
        assert rep_a.to_delimited() == rep_b.to_delimited()
        assert [
            (r.query_id, r.ranking, r.ndcg, r.map_) for r in rep_a.results
        ] == [(r.query_id, r.ranking, r.ndcg, r.map_) for r in rep_b.results]
