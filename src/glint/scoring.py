"""Late-interaction (MaxSim) scoring, the tiled document index, ranking, pooling.

The relevance of a document to a query is the sum, over active query rows, of
the maximum dot product against any active document row. With all flags on the
row sets are (tokens + query global) x (patches + document global). Flags
exist so scoring ablations (drop patches / drop either global) reuse one code
path. Inputs are assumed row-normalized, so dot products are cosines.

Every MaxSim in the package runs one product, `_sims`, on documents held in
tiles of `_TILE` documents: a stack of documents with R rows each is a
(n_tiles, R, _TILE, d) array, zero-padded to a whole tile, so document c of
tile t has rows `tiles[t, :, c]`. The product scores every query row against
one row of all 64 documents of a tile at once, and every slice of it has the
same shape, (L_q, d) @ (d, _TILE), whatever the number of documents; numpy
runs the same 2-D product on every slice, so a document's score does not
depend on which other documents share its tiles. The row maxima are then
taken elementwise over contiguous 64-wide slabs, and the query rows are added
strictly one after another, never in an order numpy picks from the array's
shape. So pairwise, ranked and training-grid scores are bit-identical by
construction. The width is fixed, not a setting: n documents score
ceil(n / 64) * 64 slots.

Documents with fewer rows than their stack (cross-context rows vary with the
descriptor) are padded by `pad_rows`, which repeats their last row. A repeated
row changes no maximum, and np.argmax takes the first row equal to the
maximum, so the padding changes no score, argmax or gradient.

Ranking the top k of an index below its size (`search`) first scores every
document from a float32 copy of the tiles, which is cheaper and within a
proven bound ε of the exact score, then scores only the documents that could
still be in the top k with the exact kernel. Every returned score comes from
that kernel, so it is the score a full scan gives, bit for bit. Rankings of
the whole index (evaluation, training, ablations) take the full scan.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

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


#: Documents per tile; fixed so that every product slice has one shape.
_TILE = 64


def pad_rows(dst: np.ndarray, rows: np.ndarray) -> None:
    """Copy a document's rows into the first rows of dst and fill the rest of
    dst with copies of its last row. This is how every stack of documents
    with unequal row counts is laid out. A maximum over rows is unchanged by
    a repeated row, and np.argmax takes the first row equal to the maximum,
    which is never a copy, so scores, argmaxes and gradients are those of the
    document's own rows."""
    dst[: len(rows)] = rows
    dst[len(rows) :] = rows[-1]


def _tile(d_rows: np.ndarray) -> np.ndarray:
    """Copy an (n, R, d) stack into zero-padded (ceil(n / _TILE), R, _TILE, d) tiles."""
    n, n_rows, dim = d_rows.shape
    tiles = np.zeros((-(-n // _TILE), n_rows, _TILE, dim), dtype=np.float64)
    slots = np.arange(n)
    tiles[slots // _TILE, :, slots % _TILE] = d_rows
    return tiles


def _sims(q_rows: np.ndarray, tiles: np.ndarray) -> np.ndarray:
    """Every query row against every row of every tiled document:
    (..., n_tiles, R, L_q, _TILE), one (L_q, d) @ (d, _TILE) slice per tile row."""
    return q_rows[..., None, None, :, :] @ tiles.swapaxes(-1, -2)


def _row_sum(best: np.ndarray) -> np.ndarray:
    """Add the (..., L_q, _TILE) row maxima over the query rows strictly in
    order, whatever the shape (np.sum picks its order from the shape)."""
    total = best[..., 0, :].copy()
    for i in range(1, best.shape[-2]):
        total += best[..., i, :]
    return total


def maxsim(q_rows: np.ndarray, d_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MaxSim of one query, or a stack of equally long queries, against a
    stack of documents, those with fewer rows padded by pad_rows.

    q_rows is (L_q, d) or (n_q, L_q, d) and d_rows is (n_d, L_d, d). Returns
    the scores, shape (n_d,) or (n_q, n_d), and per query, document and
    query row the index of the best document row, shape (n_d, L_q) or
    (n_q, n_d, L_q). np.argmax takes the lowest index on ties. The stack is
    tiled on entry and scored like a DocumentIndex, so a document scores
    bit-identically alone, in any stack and in an index, and a stack of
    queries bit-identically to one call per query.
    """
    n_d = d_rows.shape[0]
    sims = _sims(q_rows, _tile(d_rows))
    best = np.maximum.reduce(sims, axis=-3)
    # The first row equal to the maximum, which is np.argmax's choice; numpy
    # copies the reduced axis last, and a boolean array is an eighth the bytes.
    arg = np.argmax(sims == best[..., None, :, :], axis=-3).swapaxes(-1, -2)
    scores = _row_sum(best)
    lead = scores.shape[:-2]
    return (
        scores.reshape(lead + (-1,))[..., :n_d],
        arg.reshape(lead + (-1, arg.shape[-1]))[..., :n_d, :],
    )


def _active_rows(flags: ScoringFlags) -> slice:
    """The slice of a tile's row axis (patches, then the global row) that flags keep."""
    flags.validate()
    if flags.use_patches and flags.use_doc_global:
        return slice(None)
    if flags.use_patches:
        return slice(None, -1)
    return slice(-1, None)


#: float32 unit roundoff.
_U32 = 2.0**-24


def bound_error(q_rows: np.ndarray, d_norm_max: float) -> float:
    """ε: how far DocumentIndex.approx_scores can be from scores() for these
    query rows against document rows no longer than d_norm_max.

    Rounding q and d to float32 moves a dot product by at most
    (2u + u²)·|q|·|d|, and a float32 dot product of length d, in any summation
    order and with FMA, errs by at most γ_d·Σ|q_i·d_i| <= γ_d·(1+u)²·|q|·|d|,
    with u = 2⁻²⁴ and γ_d = d·u / (1 − d·u). A row maximum moves no more
    than its entries, and L_q of them are added. The last term covers the
    float64 rounding of both scores. Returns inf when a product could leave
    float32 range, where no bound holds.
    """
    n_q, dim = q_rows.shape
    scale = float(np.sqrt(np.max(np.einsum("ij,ij->i", q_rows, q_rows)))) * d_norm_max
    if not scale < 1e30:
        return np.inf
    gamma = dim * _U32 / (1 - dim * _U32)
    return n_q * scale * ((1 + _U32) ** 2 * gamma + 2 * _U32 + _U32 * _U32) + n_q * 1e-12 * max(1.0, scale)


class DocumentIndex(Sequence[DocumentEmbedding]):
    """Immutable document set stored for the MaxSim kernel.

    Holds one read-only (n_tiles, R + 1, _TILE, d) tiles array, R being the
    largest patch count: the documents in the order given, 64 to a tile,
    zero-padded to a whole tile, each with its patches first, padded to R by
    pad_rows, and its global row last. Document j, with t, c = divmod(j, 64),
    is the view `tiles[t, :L, c]` (its own L patches) and `tiles[t, -1, c]`
    (global row), and a flag setting is a slice of the row axis. Scoring
    costs ceil(n / 64) * 64 slots of R + 1 rows.

    top() with k below the index size also reads a read-only float32 copy of
    the tiles (half their bytes), to pick the candidates it scores exactly,
    and the largest row norm, for the bound on that pass; both are built on
    first use. Every row must be finite.
    """

    def __init__(self, docs: Iterable[DocumentEmbedding]):
        docs = list(docs)
        dim = docs[0].global_vec.shape[0] if docs else 0
        n_rows = max((doc.patches.shape[0] for doc in docs), default=0)
        self._page_ids = tuple(doc.page_id for doc in docs)
        self._id_keys = np.asarray(self._page_ids)
        self._tiles = tiles = np.zeros((-(-len(docs) // _TILE), n_rows + 1, _TILE, dim), dtype=np.float64)
        for j, doc in enumerate(docs):
            if doc.global_vec.shape[0] != dim:
                raise DimensionMismatchError(
                    f"DocumentIndex: page {doc.page_id} has d={doc.global_vec.shape[0]}, expected {dim}"
                )
            t, c = divmod(j, _TILE)
            pad_rows(tiles[t, :-1, c], doc.patches)
            tiles[t, -1, c] = doc.global_vec
        if not np.isfinite(tiles).all():
            bad = np.argmin(np.isfinite(tiles).all(axis=(1, 3)).reshape(-1))
            raise ValueError(f"DocumentIndex: page {self._page_ids[bad]} has a non-finite row")
        tiles.flags.writeable = False
        self._docs = []
        for j, doc in enumerate(docs):
            t, c = divmod(j, _TILE)
            self._docs.append(
                DocumentEmbedding(patches=tiles[t, : len(doc.patches), c], global_vec=tiles[t, -1, c], page_id=doc.page_id)
            )

    def __len__(self) -> int:
        return len(self._docs)

    def __getitem__(self, i):
        return self._docs[i]

    @property
    def page_ids(self) -> tuple:
        """The documents' page ids, in order (the documents' own objects)."""
        return self._page_ids

    @cached_property
    def norm_max(self) -> float:
        """The largest norm of any document row."""
        return float(np.sqrt(np.max(np.einsum("trcd,trcd->trc", self._tiles, self._tiles), initial=0.0)))

    @cached_property
    def _tiles32(self) -> np.ndarray:
        tiles32 = self._tiles.astype(np.float32)
        tiles32.flags.writeable = False
        return tiles32

    def scores(self, q_rows: np.ndarray, flags: ScoringFlags = ALL_ROWS) -> np.ndarray:
        """MaxSim of the query rows against every document, in index order."""
        best = np.maximum.reduce(_sims(q_rows, self._tiles[:, _active_rows(flags)]), axis=-3)
        return _row_sum(best).reshape(-1)[: len(self)]

    def approx_scores(self, q_rows: np.ndarray, flags: ScoringFlags = ALL_ROWS) -> np.ndarray:
        """MaxSim of the query rows against every document, in index order,
        from the float32 rows: one (R * 64, d) @ (d, L_q) product per tile,
        the row maxima over R, then the query rows added in float64. Within
        bound_error(q_rows, norm_max) of scores(), and not bit-stable."""
        tiles32 = self._tiles32[:, _active_rows(flags)]
        n_tiles, n_rows = tiles32.shape[:2]
        q32 = np.ascontiguousarray(q_rows.T, dtype=np.float32)
        sims = tiles32.reshape(n_tiles, n_rows * _TILE, -1) @ q32
        best = np.maximum.reduce(sims.reshape(n_tiles, n_rows, -1), axis=1)
        return best.reshape(n_tiles * _TILE, -1)[: len(self)] @ np.ones(q32.shape[1])

    def top(self, q_rows: np.ndarray, k: int, flags: ScoringFlags = ALL_ROWS) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the k best documents, descending by score, ties by
        ascending page id, and their scores, each bit-identical to scores().

        For k >= len(self), or query rows whose products with the documents'
        could leave float32 range, every document is scored and sorted. Else
        approx_scores picks the candidates: a_k being the k-th best approximate
        score, the k documents scoring at least a_k approximately score at
        least a_k - ε exactly, so every document in the exact top k, and every
        exact tie at its edge, scores at least a_k - 2ε approximately. Only
        those are scored by the exact kernel, gathered into fresh tiles, and
        sorted. The query rows must be finite.
        """
        if not np.isfinite(q_rows).all():
            raise ValueError("DocumentIndex.top: the query has a non-finite row")
        n = len(self)
        eps = bound_error(q_rows, self.norm_max) if k < n else np.inf
        if eps == np.inf:
            scores = self.scores(q_rows, flags)
            order = np.lexsort((self._id_keys, -scores))[:k]
            return order, scores[order]
        approx = self.approx_scores(q_rows, flags)
        found = np.flatnonzero(approx >= np.partition(approx, n - k)[n - k] - 2 * eps)
        t, c = np.divmod(found, _TILE)
        best = np.maximum.reduce(_sims(q_rows, _tile(self._tiles[t, _active_rows(flags), c])), axis=-3)
        exact = _row_sum(best).reshape(-1)[: found.size]
        order = np.lexsort((self._id_keys[found], -exact))[:k]
        return found[order], exact[order]


def maxsim_score(
    q: QueryEmbedding,
    d: DocumentEmbedding,
    flags: ScoringFlags = ALL_ROWS,
) -> float:
    """Late-interaction relevance of document d to query q under the given flags."""
    return float(DocumentIndex([d]).scores(query_rows(q, flags), flags)[0])


def rank(
    q: QueryEmbedding,
    index: Sequence[DocumentEmbedding],
    k: int,
    flags: ScoringFlags = ALL_ROWS,
) -> Ranking:
    """Top-min(k, |index|) documents by maxsim_score; ties broken by ascending page id.

    A plain list is stacked into a DocumentIndex first; callers ranking many
    queries against one list should build the DocumentIndex once. Below the
    index size, DocumentIndex.top scores only the candidates of a float32
    pass exactly; the ids and scores are those of a full scan, bit for bit.
    A query with a non-finite row is refused (ValueError).
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
    top, scores = index.top(query_rows(q, flags), k, flags)
    page_ids = index.page_ids
    return Ranking(query_id=q.query_id, doc_ids=[page_ids[i] for i in top], scores=scores.tolist())


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
