"""MaxSim scoring, batch grids, ranking, and patch pooling."""

import numpy as np
import pytest

from glint.embeddings import DocumentEmbedding, QueryEmbedding, normalize_rows
from glint.encoder import EncoderConfig
from glint.errors import ConfigurationError, DimensionMismatchError
from glint.scoring import (
    ALL_ROWS,
    DocumentIndex,
    Ranking,
    ScoringFlags,
    bound_error,
    maxsim,
    maxsim_score,
    pad_rows,
    pool_patches,
    query_rows,
    rank,
)

#: Every flag setting that leaves at least one document row.
FLAG_ROWS = [
    ScoringFlags(use_query_global=qg, use_doc_global=dg, use_patches=p)
    for qg in (True, False)
    for dg in (True, False)
    for p in (True, False)
    if dg or p
]


def _query(tokens, global_vec, qid=0):
    return QueryEmbedding(tokens=np.asarray(tokens, float), global_vec=np.asarray(global_vec, float), query_id=qid)


def _doc(patches, global_vec, pid=0):
    return DocumentEmbedding(patches=np.asarray(patches, float), global_vec=np.asarray(global_vec, float), page_id=pid)


def _random_pair(rng, d=8, lq=None, ld=None, qid=0, pid=0):
    lq = lq or int(rng.integers(1, 9))
    ld = ld or int(rng.integers(1, 9))
    q = _query(normalize_rows(rng.normal(size=(lq, d))), rng.normal(size=d), qid)
    q.global_vec /= np.linalg.norm(q.global_vec)
    doc = _doc(normalize_rows(rng.normal(size=(ld, d))), rng.normal(size=d), pid)
    doc.global_vec /= np.linalg.norm(doc.global_vec)
    return q, doc


def naive_maxsim(q, d, flags=ALL_ROWS):
    """Double-loop oracle over the active row sets."""
    q_rows = [row for row in q.tokens]
    if flags.use_query_global:
        q_rows.append(q.global_vec)
    d_rows = []
    if flags.use_patches:
        d_rows.extend(row for row in d.patches)
    if flags.use_doc_global:
        d_rows.append(d.global_vec)
    total = 0.0
    for qr in q_rows:
        total += max(float(np.dot(qr, dr)) for dr in d_rows)
    return total


class TestMaxsimScore:
    def test_perfect_match(self):
        q = _query([[1, 0]], [0, 1])
        d = _doc([[1, 0]], [0, 1])
        assert maxsim_score(q, d) == 2.0

    def test_patches_only(self):
        q = _query([[1, 0]], [0, 1])
        d = _doc([[1, 0]], [0, 1])
        flags = ScoringFlags(use_query_global=False, use_doc_global=False)
        assert maxsim_score(q, d, flags) == 1.0

    def test_three_by_three_table(self):
        q = _query([[1, 0], [0, 1]], [0.6, 0.8])
        d = _doc([[0.8, 0.6], [0, 1]], [1, 0])
        np.testing.assert_allclose(maxsim_score(q, d), 2.96, atol=1e-12)

    def test_zero_doc_rows_rejected(self):
        q, d = _random_pair(np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            maxsim_score(q, d, ScoringFlags(use_doc_global=False, use_patches=False))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            q, d = _random_pair(rng)
            np.testing.assert_allclose(maxsim_score(q, d), naive_maxsim(q, d), atol=1e-10)

    def test_row_monotonicity(self):
        """Adding a document row never decreases the score."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            q, d = _random_pair(rng)
            extra = rng.normal(size=d.patches.shape[1])
            extra /= np.linalg.norm(extra)
            bigger = _doc(np.vstack([d.patches, extra]), d.global_vec, d.page_id)
            assert maxsim_score(q, bigger) >= maxsim_score(q, d) - 1e-12

    def test_global_contribution_additivity(self):
        """Full score = token-row maxima plus the query-global row's maximum."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            q, d = _random_pair(rng)
            full = maxsim_score(q, d)
            all_doc_rows = np.vstack([d.patches, d.global_vec[None, :]])
            qg_term = float(np.max(all_doc_rows @ q.global_vec))
            token_part = float(np.sum(np.max(q.tokens @ all_doc_rows.T, axis=1)))
            np.testing.assert_allclose(full, token_part + qg_term, atol=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            q, d = _random_pair(rng)
            s = maxsim_score(q, d)
            perm_d = _doc(d.patches[rng.permutation(d.patches.shape[0])], d.global_vec, d.page_id)
            perm_q = _query(q.tokens[rng.permutation(q.tokens.shape[0])], q.global_vec, q.query_id)
            np.testing.assert_allclose(maxsim_score(q, perm_d), s, atol=1e-9)
            np.testing.assert_allclose(maxsim_score(perm_q, d), s, atol=1e-9)

    def test_argmax_prefers_lowest_row_on_ties(self):
        q_rows = np.array([[1.0, 0.0]])
        d_rows = np.array([[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])  # rows 0 and 1 tie
        _, arg = maxsim(q_rows, d_rows)
        assert arg[0, 0] == 0


class TestRank:
    def test_single_doc(self):
        rng = np.random.default_rng(15)
        q, d = _random_pair(rng, pid=9)
        out = rank(q, [d], k=10)
        assert out.doc_ids == [9]

    def test_tie_breaks_by_ascending_page_id(self):
        q = _query([[1.0, 0.0]], [1.0, 0.0])
        d_hi = _doc([[1.0, 0.0]], [1.0, 0.0], pid=5)
        d_lo = _doc([[1.0, 0.0]], [1.0, 0.0], pid=2)
        out = rank(q, [d_hi, d_lo], k=2)
        assert out.doc_ids == [2, 5]
        assert out.scores[0] == out.scores[1]

    def test_agrees_with_full_sort_oracle(self):
        rng = np.random.default_rng(16)
        q = _random_pair(rng)[0]
        docs = [_random_pair(rng, pid=j)[1] for j in range(10)]
        out = rank(q, docs, k=5)
        oracle = sorted(((maxsim_score(q, d), d.page_id) for d in docs), key=lambda t: (-t[0], t[1]))
        assert out.doc_ids == [pid for _, pid in oracle[:5]]

    def test_k_below_one_rejected(self):
        rng = np.random.default_rng(17)
        q, d = _random_pair(rng)
        with pytest.raises(ValueError):
            rank(q, [d], k=0)

    def test_empty_index_rejected(self):
        q = _query([[1.0, 0.0]], [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            rank(q, [], k=1)

    def test_index_of_another_width_names_both_widths(self):
        q = _query([[1.0, 0.0]], [0.0, 1.0])
        d = _doc([[1.0, 0.0, 0.0]], [0.0, 1.0, 0.0])
        for index in ([d], DocumentIndex([d])):
            with pytest.raises(ConfigurationError, match="d=2 but the index holds d=3"):
                rank(q, index, k=1)

    def test_returns_ranking_type(self):
        rng = np.random.default_rng(18)
        q, d = _random_pair(rng)
        assert isinstance(rank(q, [d], k=1), Ranking)


def _active_doc_rows(d, flags):
    rows = ([d.patches] if flags.use_patches else []) + ([d.global_vec[None, :]] if flags.use_doc_global else [])
    return np.vstack(rows)


def _mixed_docs(rng, n=30, d=8):
    """Documents with 1 to 5 patch rows, page ids shuffled."""
    pids = rng.permutation(n) + 100
    return [_random_pair(rng, d=d, ld=int(rng.integers(1, 6)), pid=int(pids[j]))[1] for j in range(n)]


class TestMaxsimKernel:
    def test_stack_equals_per_document_loop_bit_for_bit(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            q_rows = normalize_rows(rng.normal(size=(int(rng.integers(1, 9)), 8)))
            d_rows = normalize_rows(rng.normal(size=(6 * 5, 8))).reshape(6, 5, 8)
            scores, arg = maxsim(q_rows, d_rows)
            assert scores.shape == (6,) and arg.shape == (6, q_rows.shape[0])
            for j in range(6):
                ref, ref_arg = maxsim(q_rows, d_rows[j][None])  # the document scored alone
                assert scores[j] == ref[0]
                np.testing.assert_array_equal(arg[j], ref_arg[0])
        # A stack of queries scores as one 2-D call per query, bit for bit.
        for n_q, l_q, n_d, l_d in ((20, 9, 32, 17), (12, 4, 32, 17), (3, 9, 5, 30), (1, 9, 4000, 17)):
            q_stack = normalize_rows(rng.normal(size=(n_q * l_q, 16))).reshape(n_q, l_q, 16)
            d_rows = normalize_rows(rng.normal(size=(n_d * l_d, 16))).reshape(n_d, l_d, 16)
            scores, arg = maxsim(q_stack, d_rows)
            assert scores.shape == (n_q, n_d) and arg.shape == (n_q, n_d, l_q)
            for i in range(n_q):
                ref, ref_arg = maxsim(q_stack[i], d_rows)
                np.testing.assert_array_equal(scores[i], ref)
                np.testing.assert_array_equal(arg[i], ref_arg)

    def test_a_patch_beats_the_global_row_on_an_exact_tie(self):
        q = _query([[1.0, 0.0]], [0.0, 1.0])
        d = _doc([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])  # patch 1 and the global row tie
        _, arg = maxsim(query_rows(q), _active_doc_rows(d, ALL_ROWS)[None])
        assert arg.tolist() == [[1, 0]]  # the patch, not the global row (index 2)


class TestDocumentIndex:
    def test_mixed_row_counts_rank_like_pairwise_scoring_under_every_flag_row(self):
        rng = np.random.default_rng(21)
        docs = _mixed_docs(rng)
        index = DocumentIndex(docs)
        for flags in FLAG_ROWS:
            for qid in range(5):
                q = _random_pair(rng, qid=qid)[0]
                out = rank(q, index, k=len(docs), flags=flags)
                pairwise = sorted(((maxsim_score(q, d, flags), d.page_id) for d in docs), key=lambda t: (-t[0], t[1]))
                assert out.doc_ids == [pid for _, pid in pairwise]
                assert out.scores == [s for s, _ in pairwise]  # exact, not approx
                q_rows = query_rows(q, flags)
                for d in docs:
                    assert maxsim_score(q, d, flags) == maxsim(q_rows, _active_doc_rows(d, flags)[None])[0][0]

    def test_plain_list_and_index_give_equal_rankings(self):
        rng = np.random.default_rng(22)
        docs = _mixed_docs(rng)
        index = DocumentIndex(docs)
        for flags in FLAG_ROWS:
            q = _random_pair(rng)[0]
            assert rank(q, docs, k=7, flags=flags) == rank(q, index, k=7, flags=flags)

    def test_documents_are_views_in_the_given_order(self):
        rng = np.random.default_rng(23)
        docs = _mixed_docs(rng, n=10)
        index = DocumentIndex(docs)
        assert len(index) == 10 and [d.page_id for d in index] == [d.page_id for d in docs]
        for src, view in zip(docs, index):
            np.testing.assert_array_equal(view.patches, src.patches)
            np.testing.assert_array_equal(view.global_vec, src.global_vec)
            assert not view.patches.flags.writeable and view.patches.base is view.global_vec.base

    def test_page_ids_are_the_documents_own_objects(self):
        rng = np.random.default_rng(24)
        docs = _mixed_docs(rng, n=6)
        for d in docs:
            d.page_id = int(d.page_id) + 10**6  # outside the small-int cache
        out = rank(_random_pair(rng)[0], docs, k=6)
        by_value = {d.page_id: d.page_id for d in docs}
        assert all(pid is by_value[pid] for pid in out.doc_ids)

    def test_one_page_index(self):
        rng = np.random.default_rng(25)
        q, d = _random_pair(rng, pid=3)
        out = rank(q, DocumentIndex([d]), k=1)
        assert out.doc_ids == [3] and out.scores == [maxsim_score(q, d)]

    def test_k_larger_than_the_index_returns_every_page(self):
        rng = np.random.default_rng(26)
        docs = _mixed_docs(rng, n=4)
        out = rank(_random_pair(rng)[0], DocumentIndex(docs), k=50)
        assert sorted(out.doc_ids) == sorted(d.page_id for d in docs)
        assert out.scores == sorted(out.scores, reverse=True)

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(27)
        docs = [_random_pair(rng, d=8)[1], _random_pair(rng, d=4)[1]]
        with pytest.raises(DimensionMismatchError):
            DocumentIndex(docs)


class TestTileBoundaries:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_a_document_scores_alone_as_inside_the_index_at_every_tile_column(self, n):
        rng = np.random.default_rng(40 + n)
        docs = [_random_pair(rng, d=16, ld=5, pid=j)[1] for j in range(n)]
        index = DocumentIndex(docs)
        for flags in FLAG_ROWS:
            q = _random_pair(rng, d=16, lq=7)[0]
            q_rows = query_rows(q, flags)
            stack = np.stack([_active_doc_rows(d, flags) for d in docs])
            in_index = index.scores(q_rows, flags)
            in_stack, arg = maxsim(q_rows, stack)
            for j, d in enumerate(docs):
                alone, alone_arg = maxsim(q_rows, stack[j][None])
                assert in_index[j] == in_stack[j] == alone[0] == maxsim_score(q, d, flags)
                np.testing.assert_array_equal(arg[j], alone_arg[0])

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_mixed_row_counts_score_as_their_own_rows_at_every_tile_column(self, n):
        rng = np.random.default_rng(50 + n)
        docs = _mixed_docs(rng, n=n, d=16)
        index = DocumentIndex(docs)
        for flags in FLAG_ROWS:
            q_rows = query_rows(_random_pair(rng, d=16, lq=7)[0], flags)
            own = [_active_doc_rows(d, flags) for d in docs]
            stack = np.empty((n, max(len(rows) for rows in own), 16))
            for dst, rows in zip(stack, own):
                pad_rows(dst, rows)
            in_index = index.scores(q_rows, flags)
            in_stack, arg = maxsim(q_rows, stack)
            for j, rows in enumerate(own):
                alone, alone_arg = maxsim(q_rows, rows[None])
                assert in_index[j] == in_stack[j] == alone[0]
                np.testing.assert_array_equal(arg[j], alone_arg[0])
                assert (arg[j] < len(rows)).all()
            full = np.lexsort((np.asarray(index.page_ids), -in_index))
            for k in {1, 5, n}:
                top, top_scores = index.top(q_rows, k, flags)
                np.testing.assert_array_equal(top, full[:k])
                assert top_scores.tobytes() == in_index[full[:k]].tobytes()

    def test_search_shape_matches_the_naive_loop_at_every_query_length(self):
        rng = np.random.default_rng(47)
        docs = [_random_pair(rng, d=32, ld=16, pid=j)[1] for j in range(65)]
        index = DocumentIndex(docs)
        for lq in range(1, EncoderConfig().max_seq + 1):
            flags = FLAG_ROWS[lq % len(FLAG_ROWS)]
            q = _random_pair(rng, d=32, lq=lq)[0]
            scores = index.scores(query_rows(q, flags), flags)
            for j in (0, 63, 64):  # first and last column of a tile, first of the next
                assert abs(scores[j] - naive_maxsim(q, docs[j], flags)) <= 1e-12


class TestTop:
    def test_partial_selection_equals_the_full_sort_for_every_k(self):
        rng = np.random.default_rng(48)
        docs = _mixed_docs(rng, n=40)
        q = _random_pair(rng)[0]
        best = max(docs, key=lambda d: (maxsim_score(q, d), -d.page_id))
        # Exact ties planted as duplicated pages: the best page three more
        # times (a tie at the top straddles k = 1..4) and ten others once each.
        dups = [_doc(best.patches, best.global_vec, pid=900 + j) for j in range(3)]
        dups += [_doc(d.patches, d.global_vec, pid=1000 + j) for j, d in enumerate(docs[::4])]
        index = DocumentIndex([docs[j] if j < len(docs) else dups[j - len(docs)]
                               for j in rng.permutation(len(docs) + len(dups))])
        for flags in FLAG_ROWS:
            q_rows = query_rows(q, flags)
            scores = index.scores(q_rows, flags)
            full = np.lexsort((np.asarray(index.page_ids), -scores))
            for k in range(1, len(index) + 5):
                top, top_scores = index.top(q_rows, k, flags)
                np.testing.assert_array_equal(top, full[:k])
                assert top_scores.tobytes() == scores[full[:k]].tobytes()


def _near_tie_docs(rng, hub, deltas, first_pid):
    """Copies of hub with every row moved by about delta and renormalized."""
    out = []
    for j, delta in enumerate(deltas):
        patches = normalize_rows(hub.patches + delta * rng.normal(size=hub.patches.shape))
        global_vec = normalize_rows((hub.global_vec + delta * rng.normal(size=hub.global_vec.shape))[None])[0]
        out.append(_doc(patches, global_vec, pid=first_pid + j))
    return out


class TestBoundPass:
    """top() below the index size: float32 candidates, exact float64 scores."""

    def test_rank_equals_the_full_exact_sort_for_every_k(self):
        rng = np.random.default_rng(60)
        reorders = 0
        for trial in range(3):
            docs = _mixed_docs(rng, n=150, d=16)  # 1..5 patch rows: five blocks, some over one tile
            hub = docs[int(rng.integers(len(docs)))]
            near = _near_tie_docs(rng, hub, [1e-9, 1e-8, 1e-7, 1e-6] * 3, first_pid=2000)
            dups = [_doc(d.patches, d.global_vec, pid=3000 + j) for j, d in enumerate([hub, hub] + docs[:20])]
            pool = docs + near + dups
            index = DocumentIndex([pool[j] for j in rng.permutation(len(pool))])
            ids = np.asarray(index.page_ids)
            for flags in FLAG_ROWS:
                # Query rows near the hub's rows put the near-ties at the top.
                hub_rows = _active_doc_rows(hub, flags)
                tokens = normalize_rows(hub_rows[rng.integers(len(hub_rows), size=6)] + 0.05 * rng.normal(size=(6, 16)))
                q = _query(tokens, normalize_rows(rng.normal(size=(1, 16)))[0], qid=trial)
                q_rows = query_rows(q, flags)
                scores = index.scores(q_rows, flags)
                approx = index.approx_scores(q_rows, flags)
                full = np.lexsort((ids, -scores))
                reorders += int(np.any(np.lexsort((ids, -approx)) != full))
                for k in range(1, len(index) + 5):
                    out = rank(q, index, k=k, flags=flags)
                    assert out.doc_ids == [index.page_ids[i] for i in full[:k]]
                    assert np.asarray(out.scores).tobytes() == scores[full[:k]].tobytes()
        assert reorders > 0  # the float32 pass does misorder near-ties

    def test_approx_is_within_the_bound(self):
        rng = np.random.default_rng(61)
        u = 2.0**-24
        for l_q in (1, 2, 9, EncoderConfig().max_seq, EncoderConfig().max_seq + 1):
            for dim in (4, 32):
                # Rows that are not unit-norm, some long, some short.
                docs = [
                    _doc(rng.normal(size=(n, dim)) * rng.uniform(0.01, 30, size=(n, 1)),
                         rng.normal(size=dim) * rng.uniform(0.01, 30), pid=j)
                    for j, n in enumerate(rng.integers(1, 6, size=90))
                ]
                index = DocumentIndex(docs)
                d_max = max(np.linalg.norm(_active_doc_rows(d, ALL_ROWS), axis=1).max() for d in docs)
                np.testing.assert_allclose(index.norm_max, d_max, rtol=1e-12)
                for flags in FLAG_ROWS[::2]:
                    q_rows = rng.normal(size=(l_q, dim)) * rng.uniform(0.01, 30, size=(l_q, 1))
                    eps = bound_error(q_rows, index.norm_max)
                    scale = np.linalg.norm(q_rows, axis=1).max() * index.norm_max
                    gamma = dim * u / (1 - dim * u)
                    assert eps >= l_q * scale * ((1 + u) ** 2 * gamma + 2 * u + u * u) + l_q * 1e-12
                    gap = np.abs(index.approx_scores(q_rows, flags) - index.scores(q_rows, flags))
                    assert gap.max() <= eps
                    assert gap.max() > 0  # float32 rows, not the exact scores

    def test_the_float32_copy_is_built_by_the_first_partial_top(self):
        rng = np.random.default_rng(65)
        index = DocumentIndex(_mixed_docs(rng, n=70))
        q_rows = query_rows(_random_pair(rng)[0])
        index.scores(q_rows)
        index.top(q_rows, len(index))  # the full scan evaluation takes
        assert "_tiles32" not in vars(index) and "norm_max" not in vars(index)
        index.top(q_rows, 5)
        tiles32 = vars(index)["_tiles32"]
        assert "norm_max" in vars(index) and not tiles32.flags.writeable
        np.testing.assert_array_equal(tiles32, index._tiles.astype(np.float32))

    def test_rows_beyond_float32_range_take_the_full_scan(self):
        rng = np.random.default_rng(62)
        docs = [_random_pair(rng, pid=j)[1] for j in range(70)]
        for d in docs:
            d.patches = d.patches * 1e20
            d.global_vec = d.global_vec * 1e20
        index = DocumentIndex(docs)
        q_rows = query_rows(_random_pair(rng)[0]) * 1e20
        assert bound_error(q_rows, index.norm_max) == np.inf
        scores = index.scores(q_rows)
        full = np.lexsort((np.asarray(index.page_ids), -scores))
        top, top_scores = index.top(q_rows, 5)
        np.testing.assert_array_equal(top, full[:5])
        np.testing.assert_array_equal(top_scores, scores[full[:5]])


class TestNonFiniteRows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_index_refuses_a_non_finite_row_naming_the_page(self, bad):
        rng = np.random.default_rng(63)
        docs = _mixed_docs(rng, n=12)
        docs[7].patches[0, 1] = bad
        with pytest.raises(ValueError, match=f"page {docs[7].page_id} has a non-finite row"):
            DocumentIndex(docs)
        docs[7].patches[0, 1] = 0.0
        docs[7].global_vec[2] = bad
        with pytest.raises(ValueError, match=f"page {docs[7].page_id} has a non-finite row"):
            DocumentIndex(docs)

    @pytest.mark.parametrize("k", [1, 12])
    def test_rank_refuses_a_non_finite_query_row(self, k):
        rng = np.random.default_rng(64)
        index = DocumentIndex(_mixed_docs(rng, n=12))
        q = _random_pair(rng)[0]
        q.tokens[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rank(q, index, k=k)


class TestPoolPatches:
    def test_mean(self):
        out = pool_patches(np.array([[1.0, 0.0], [0.0, 1.0]]), "mean")
        np.testing.assert_allclose(out, [0.70710678, 0.70710678])

    def test_max(self):
        out = pool_patches(np.array([[1.0, 0.0], [0.0, 1.0]]), "max")
        np.testing.assert_allclose(out, [0.70710678, 0.70710678])

    def test_median_odd_count(self):
        out = pool_patches(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]), "median")
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_median_even_count_averages_midpoints(self):
        out = pool_patches(np.array([[0.0, 1.0], [4.0, 1.0]]), "median")
        np.testing.assert_allclose(out, np.array([2.0, 1.0]) / np.sqrt(5.0))

    def test_output_unit_norm(self):
        rng = np.random.default_rng(19)
        for mode in ("mean", "max", "median"):
            out = pool_patches(rng.normal(size=(7, 5)), mode)
            np.testing.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            pool_patches(np.ones((2, 2)), "sum")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            pool_patches(np.empty((0, 4)), "mean")
