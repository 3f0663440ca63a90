"""Independent reference computations the benchmark checks glint's outputs against.

Nothing here imports glint: MaxSim, ranking order, nDCG/MAP and the Wilcoxon
p-value are re-derived from their definitions, with different arithmetic
(one padded GEMM instead of a per-document loop, closed forms instead of
running sums, sign enumeration instead of subset-sum counting), so a shared
bug cannot make both sides agree.
"""

from __future__ import annotations

import math

import numpy as np

#: Absolute tolerance on scores and p-values. Scores are sums of at most a few
#: dozen float64 cosines, so summation-order differences stay near 1e-15.
TOL = 1e-9

#: Largest n_nonzero for which the p-value is computed by enumerating 2^n signs.
EXACT_MAX_N = 20


# ----- row sets -----


def pooled(patches: np.ndarray, mode: str) -> np.ndarray:
    """The ablation table's patch-pooling baselines, re-derived: a column
    mean, max or median scaled to unit length."""
    reducer = {"mean": np.mean, "max": np.max, "median": np.median}[mode]
    v = reducer(np.asarray(patches, dtype=np.float64), axis=0)
    return v / np.sqrt(np.dot(v, v))


def query_rows(tokens: np.ndarray, global_vec: np.ndarray, use_query_global: bool) -> np.ndarray:
    return np.vstack([tokens, global_vec[None, :]]) if use_query_global else np.asarray(tokens)


def doc_rows(patches: np.ndarray, global_vec: np.ndarray, use_patches: bool, use_doc_global: bool) -> np.ndarray:
    parts = ([patches] if use_patches else []) + ([global_vec[None, :]] if use_doc_global else [])
    return np.vstack(parts)


class PaddedDocs:
    """Document row sets padded to one (n_docs, max_rows, d) tensor plus a mask."""

    def __init__(self, ids: list[int], rows: list[np.ndarray]):
        if len(ids) != len(rows) or not rows:
            raise ValueError("PaddedDocs needs one nonempty row set per id")
        n, r, d = len(rows), max(m.shape[0] for m in rows), rows[0].shape[1]
        self.ids = np.asarray(ids, dtype=np.int64)
        self.values = np.zeros((n, r, d), dtype=np.float64)
        self.mask = np.zeros((n, r), dtype=bool)
        for i, m in enumerate(rows):
            self.values[i, : m.shape[0]] = m
            self.mask[i, : m.shape[0]] = True

    def maxsim(self, q_rows: np.ndarray) -> np.ndarray:
        """Brute-force MaxSim of one query against every document: for each
        query row the best active document row, summed over query rows."""
        n, r, d = self.values.shape
        sims = (self.values.reshape(n * r, d) @ np.asarray(q_rows).T).reshape(n, r, -1)
        sims = np.where(self.mask[:, :, None], sims, -np.inf)
        return sims.max(axis=1).sum(axis=1)


# ----- rankings -----


def ranking(ids: np.ndarray, scores: np.ndarray, k: int) -> list[int]:
    """Top-k ids by descending score, ties broken by ascending id."""
    order = np.lexsort((ids, -scores))
    return [int(ids[i]) for i in order[:k]]


def ranking_mismatch(got_ids: list[int], got_scores: list[float] | None, ids: np.ndarray,
                     scores: np.ndarray, k: int) -> str | None:
    """Why a returned top-k list disagrees with the oracle scores, or None.

    Position by position the returned id must be the oracle's, except where
    the two candidates' oracle scores lie within TOL (a tie that float
    summation order may decide either way); exactly equal returned scores
    must be in ascending id order. Returned scores must match within TOL.
    """
    want = ranking(ids, scores, k)
    if len(got_ids) != len(want):
        return f"returned {len(got_ids)} ids, expected {len(want)}"
    if len(set(got_ids)) != len(got_ids):
        return "duplicate ids in ranking"
    by_id = dict(zip(ids.tolist(), scores.tolist()))
    for pos, (g, w) in enumerate(zip(got_ids, want)):
        if g not in by_id:
            return f"position {pos}: unknown id {g}"
        if g != w and abs(by_id[g] - by_id[w]) > TOL:
            return f"position {pos}: id {g} (score {by_id[g]:.12g}) where oracle has {w} ({by_id[w]:.12g})"
    if got_scores is not None:
        if len(got_scores) != len(got_ids):
            return "score list length differs from id list"
        for pos, (g, s) in enumerate(zip(got_ids, got_scores)):
            if abs(s - by_id[g]) > TOL:
                return f"position {pos}: score {s!r} for id {g}, oracle {by_id[g]!r}"
        for pos in range(len(got_ids) - 1):
            if got_scores[pos] == got_scores[pos + 1] and got_ids[pos] > got_ids[pos + 1]:
                return f"positions {pos}-{pos + 1}: tied scores not in ascending id order"
    return None


# ----- ranking metrics -----


def ndcg_map(ranked: list[int], relevant: set[int], k: int) -> tuple[float, float]:
    """Binary-gain nDCG@k and MAP@k in closed form from the 1-based ranks of
    the relevant pages found in the top k."""
    ranks = sorted(i + 1 for i, doc in enumerate(ranked[:k]) if doc in relevant)
    m = min(len(relevant), k)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, m + 1))
    ndcg = sum(1.0 / math.log2(r + 1) for r in ranks) / ideal
    ap = sum(j / r for j, r in enumerate(ranks, start=1)) / m
    return ndcg, ap


# ----- Wilcoxon signed-rank -----


def _doubled_ranks(abs_diffs: list[float]) -> list[int]:
    """2 x (rank of |d| among all, ties averaged), so half ranks stay integer."""
    out = []
    for a in abs_diffs:
        below = sum(1 for b in abs_diffs if b < a)
        equal = sum(1 for b in abs_diffs if b == a)
        out.append(2 * below + equal + 1)  # 2 * (below + (equal + 1) / 2)
    return out


def wilcoxon(scores_a: list[float], scores_b: list[float]) -> tuple[float, float, int, str]:
    """(statistic min(W+, W-), two-sided p, n_nonzero, method) on paired scores.

    Zero differences are dropped. For n_nonzero <= EXACT_MAX_N the p-value
    counts, over all 2^n sign assignments, those whose W+ is at least as
    extreme as the observed one; beyond that it is the normal approximation
    with tie and continuity corrections.
    """
    diffs = [float(a) - float(b) for a, b in zip(scores_a, scores_b)]
    diffs = [d for d in diffs if d != 0.0]
    n = len(diffs)
    if n < 1:
        raise ValueError("no nonzero differences")
    ranks2 = _doubled_ranks([abs(d) for d in diffs])
    w2 = sum(r for r, d in zip(ranks2, diffs) if d > 0)
    total2 = sum(ranks2)
    statistic = min(w2, total2 - w2) / 2.0
    if n <= EXACT_MAX_N:
        patterns = np.arange(2**n, dtype=np.int64)
        w_all = np.zeros(2**n, dtype=np.int64)
        for i, r in enumerate(ranks2):
            w_all += ((patterns >> i) & 1) * r
        tail = min(int(np.sum(w_all <= w2)), int(np.sum(w_all >= w2)))
        return statistic, min(1.0, 2.0 * tail / 2**n), n, "exact"
    ties: dict[int, int] = {}
    for r in ranks2:
        ties[r] = ties.get(r, 0) + 1
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - sum(t**3 - t for t in ties.values()) / 48.0
    delta = w2 / 2.0 - mean
    z = 0.0 if delta == 0 else (abs(delta) - 0.5) / math.sqrt(var)
    return statistic, min(1.0, math.erfc(abs(z) / math.sqrt(2.0))), n, "normal"
