"""Late-interaction (MaxSim) scoring, the stacked document index, ranking, pooling.

The relevance of a document to a query is the sum, over active query rows, of
the maximum dot product against any active document row. With all flags on the
row sets are (tokens + query global) x (patches + document global). Flags
exist so scoring ablations (drop patches / drop either global) reuse one code
path. Inputs are assumed row-normalized, so dot products are cosines.

Every MaxSim in the package goes through one kernel, `maxsim`, which scores a
query, or a stack of equally long queries, against a stack of equally long
documents with one batched matmul.
`DocumentIndex` keeps documents in that form: one contiguous
(n_L, L + 1, d) block per distinct patch count L, patches first and the global
row last, so a flag setting is a slice of the block. numpy runs the same 2-D
product on every slice of a stack, so a document's score does not depend on
which other documents share its block: pairwise, batch and ranked scores are
bit-identical by construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .embeddings import DocumentEmbedding, QueryEmbedding, l2_normalize
from .errors import ConfigurationError, DimensionMismatchError


@dataclass(frozen=True)
class ScoringFlags:
    """Which rows participate in MaxSim. Query tokens are always active."""

    use_query_global: bool = True
    use_doc_global: bool = True
    use_patches: bool = True

    def validate(self) -> None:
        if not self.use_patches and not self.use_doc_global:
            raise ConfigurationError(
                "scoring flags leave zero document rows (patches and doc global both disabled)"
            )


ALL_ROWS = ScoringFlags()


@dataclass
class ScoreMatrix:
    """Query-by-document relevance grid with aligned id lists."""

    values: np.ndarray  # (B_q, B_d)
    query_ids: list
    doc_ids: list

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.query_ids), len(self.doc_ids)):
            raise ConfigurationError(
                f"ScoreMatrix shape {self.values.shape} does not match "
                f"{len(self.query_ids)} query ids x {len(self.doc_ids)} doc ids"
            )


@dataclass
class Ranking:
    """Top-k result list for one query: doc ids by descending score, ties by ascending id."""

    query_id: int | str
    doc_ids: list
    scores: list = field(default_factory=list)


def query_rows(q: QueryEmbedding, flags: ScoringFlags = ALL_ROWS) -> np.ndarray:
    """Stack the active query rows: tokens first, global last."""
    if flags.use_query_global:
        return np.vstack([q.tokens, q.global_vec[None, :]])
    return q.tokens


def maxsim(q_rows: np.ndarray, d_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MaxSim of one query, or a stack of equally long queries, against a
    stack of documents with equal row counts.

    q_rows is (L_q, d) or (n_q, L_q, d) and d_rows is (n_d, L_d, d). Returns
    the scores, shape (n_d,) or (n_q, n_d), and per query, document and
    query row the index of the best document row, shape (n_d, L_q) or
    (n_q, n_d, L_q). np.argmax takes the lowest index on ties; each pair's
    maxima are summed in fixed query-row order. Every (query, document) pair
    is its own slice of one stacked matmul, so a stack of queries scores
    bit-identically to one call per query.
    """
    sims = q_rows[..., None, :, :] @ d_rows.transpose(0, 2, 1)
    arg = np.argmax(sims, axis=-1)
    best = np.take_along_axis(sims, arg[..., None], axis=-1)[..., 0]
    return np.sum(best, axis=-1), arg


class DocumentIndex(Sequence[DocumentEmbedding]):
    """Immutable document set stored for the MaxSim kernel.

    Holds one read-only (n_L, L + 1, d) block per distinct patch count L,
    with each document's patches first and its global row last. The
    documents it yields are views into those blocks, in the order given.
    """

    def __init__(self, docs: Iterable[DocumentEmbedding]):
        docs = list(docs)
        groups: dict[int, list[int]] = {}
        for pos, doc in enumerate(docs):
            groups.setdefault(doc.patches.shape[0], []).append(pos)
        dim = docs[0].global_vec.shape[0] if docs else 0
        self._page_ids = tuple(doc.page_id for doc in docs)
        self._id_keys = np.asarray(self._page_ids)
        self._docs: list[DocumentEmbedding | None] = [None] * len(docs)
        self._blocks = []
        for n_rows, positions in groups.items():
            block = np.empty((len(positions), n_rows + 1, dim), dtype=np.float64)
            for slot, pos in enumerate(positions):
                if docs[pos].global_vec.shape[0] != dim:
                    raise DimensionMismatchError(
                        f"DocumentIndex: page {docs[pos].page_id} has d={docs[pos].global_vec.shape[0]}, "
                        f"expected {dim}"
                    )
                block[slot, :-1] = docs[pos].patches
                block[slot, -1] = docs[pos].global_vec
            block.flags.writeable = False
            for slot, pos in enumerate(positions):
                self._docs[pos] = DocumentEmbedding(
                    patches=block[slot, :-1], global_vec=block[slot, -1], page_id=self._page_ids[pos]
                )
            self._blocks.append((np.asarray(positions, dtype=np.intp), block))

    def __len__(self) -> int:
        return len(self._docs)

    def __getitem__(self, i):
        return self._docs[i]

    @property
    def page_ids(self) -> tuple:
        """The documents' page ids, in order (the documents' own objects)."""
        return self._page_ids

    def scores(self, q_rows: np.ndarray, flags: ScoringFlags = ALL_ROWS) -> np.ndarray:
        """MaxSim of the query rows against every document, in index order."""
        flags.validate()
        if flags.use_patches and flags.use_doc_global:
            rows = slice(None)
        elif flags.use_patches:
            rows = slice(None, -1)
        else:
            rows = slice(-1, None)
        out = np.empty(len(self), dtype=np.float64)
        for positions, block in self._blocks:
            out[positions], _ = maxsim(q_rows, block[:, rows])
        return out

    def top(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Positions of the k best scores, descending; ties by ascending page id."""
        return np.lexsort((self._id_keys, -scores))[:k]


def maxsim_score(
    q: QueryEmbedding,
    d: DocumentEmbedding,
    flags: ScoringFlags = ALL_ROWS,
) -> float:
    """Late-interaction relevance of document d to query q under the given flags."""
    return float(DocumentIndex([d]).scores(query_rows(q, flags), flags)[0])


def score_batch(
    queries: list[QueryEmbedding],
    docs: Sequence[DocumentEmbedding],
    flags: ScoringFlags = ALL_ROWS,
) -> ScoreMatrix:
    """Pairwise MaxSim grid. Each entry comes from the same kernel as
    maxsim_score, so the matrix equals pairwise calls bit-for-bit."""
    if not queries or not docs:
        raise ConfigurationError("score_batch: empty query or document list")
    index = docs if isinstance(docs, DocumentIndex) else DocumentIndex(docs)
    values = np.vstack([index.scores(query_rows(q, flags), flags) for q in queries])
    return ScoreMatrix(values=values, query_ids=[q.query_id for q in queries], doc_ids=list(index.page_ids))


def rank(
    q: QueryEmbedding,
    index: Sequence[DocumentEmbedding],
    k: int,
    flags: ScoringFlags = ALL_ROWS,
) -> Ranking:
    """Top-min(k, |index|) documents by maxsim_score; ties broken by ascending page id.

    A plain list is stacked into a DocumentIndex first; callers ranking many
    queries against one list should build the DocumentIndex once.
    """
    if k < 1:
        raise ValueError(f"rank: k must be >= 1, got {k}")
    if not index:
        raise ConfigurationError("rank: empty document index")
    q_dim, d_dim = q.global_vec.shape[0], index[0].global_vec.shape[0]
    if q_dim != d_dim:
        raise ConfigurationError(
            f"rank: query rows have d={q_dim} but the index holds d={d_dim}; "
            "were the index and the query encoded by different checkpoints?"
        )
    if not isinstance(index, DocumentIndex):
        index = DocumentIndex(index)
    scores = index.scores(query_rows(q, flags), flags)
    top = index.top(scores, k)
    page_ids = index.page_ids
    return Ranking(query_id=q.query_id, doc_ids=[page_ids[i] for i in top], scores=scores[top].tolist())


def pool_patches(patches: np.ndarray, mode: str) -> np.ndarray:
    """Collapse a patch matrix to one L2-normalized vector.

    mode: "mean" (column average), "max" (column-wise maximum), or "median"
    (column-wise median, even counts averaged). These are the deterministic
    stand-ins that the ablation table substitutes for the trained global row.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[0] < 1:
        raise ConfigurationError(f"pool_patches: expected a nonempty matrix, got shape {patches.shape}")
    if mode == "mean":
        pooled = np.mean(patches, axis=0)
    elif mode == "max":
        pooled = np.max(patches, axis=0)
    elif mode == "median":
        pooled = np.median(patches, axis=0)
    else:
        raise ConfigurationError(f"pool_patches: unknown mode {mode!r}")
    return l2_normalize(pooled)
