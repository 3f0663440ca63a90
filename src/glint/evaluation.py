"""Evaluation harness: per-query metrics, reports, and ablation orchestration.

An EvalReport is the unit of output everywhere: one (variant, split) pair with
per-query nDCG@k / MAP@k rows and overall and per-qtype means. An
AblationReport holds one per row, plus the optional significance record.
Reports render both as an aligned human-readable table and as delimited
(variant, split, metric, value) rows.

Ablations mirror the scoring and training switch structure: three scoring-flag
rows and three pooling rows reuse the base checkpoint, while loss-ablation
rows require their own trained checkpoints.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .embeddings import DocumentEmbedding
from .encoder import Encoder
from .errors import ConfigurationError, InsufficientDataError
from .metrics import map_at_k, mean_of, ndcg_at_k, wilcoxon_signed_rank
from .scoring import ALL_ROWS, DocumentIndex, ScoringFlags, pool_patches, rank


@dataclass
class QueryResult:
    query_id: int
    qtype: str
    ranking: list[int]
    ndcg: float
    map_: float


@dataclass
class EvalReport:
    variant: str
    split: str
    k: int
    results: list[QueryResult]
    skipped: list[int] = field(default_factory=list)

    @property
    def overall(self) -> dict[str, float]:
        return {
            "ndcg": mean_of([r.ndcg for r in self.results]),
            "map": mean_of([r.map_ for r in self.results]),
        }

    def by_qtype(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for qtype in ("global", "local"):
            rs = [r for r in self.results if r.qtype == qtype]
            if rs:  # an absent qtype is absent, not zero
                out[qtype] = {
                    "ndcg": mean_of([r.ndcg for r in rs]),
                    "map": mean_of([r.map_ for r in rs]),
                    "n": len(rs),
                }
        return out

    def ndcg_by_query(self) -> dict[int, float]:
        return {r.query_id: r.ndcg for r in self.results}

    def to_rows(self) -> list[tuple[str, str, str, float]]:
        """Machine-readable rows: (variant, split, metric, value)."""
        rows = [
            (self.variant, self.split, f"ndcg@{self.k}", self.overall["ndcg"]),
            (self.variant, self.split, f"map@{self.k}", self.overall["map"]),
            (self.variant, self.split, "n_queries", float(len(self.results))),
            (self.variant, self.split, "n_skipped", float(len(self.skipped))),
        ]
        for qtype, stats in sorted(self.by_qtype().items()):
            rows.append((self.variant, self.split, f"ndcg@{self.k}:{qtype}", stats["ndcg"]))
            rows.append((self.variant, self.split, f"map@{self.k}:{qtype}", stats["map"]))
        return rows

    def to_delimited(self) -> str:
        return _delimited(self.to_rows())


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned table with one line per report plus per-qtype columns."""
    headers = ["variant", "split", "n", "ndcg", "map", "ndcg:global", "ndcg:local"]
    lines = [headers]
    for rep in reports:
        by = rep.by_qtype()
        lines.append(
            [
                rep.variant,
                rep.split,
                str(len(rep.results)),
                f"{rep.overall['ndcg']:.4f}",
                f"{rep.overall['map']:.4f}",
                f"{by['global']['ndcg']:.4f}" if "global" in by else "-",
                f"{by['local']['ndcg']:.4f}" if "local" in by else "-",
            ]
        )
    widths = [max(len(row[i]) for row in lines) for i in range(len(headers))]
    out = []
    for i, row in enumerate(lines):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def _delimited(rows: list[tuple[str, str, str, float]]) -> str:
    """Render (variant, split, metric, value) rows as CSV with a header line."""
    lines = ["variant,split,metric,value\n"]
    lines.extend(f"{variant},{split},{metric},{value:.10g}\n" for variant, split, metric, value in rows)
    return "".join(lines)


def encode_split_docs(
    encoder: Encoder,
    corpus: Corpus,
    split: str,
    cross_context: bool = False,
    pooling: str | None = None,
    base_docs: Sequence[DocumentEmbedding] | None = None,
) -> list[DocumentEmbedding]:
    """Build scoring-ready document embeddings for one split's pages.

    Pages are encoded fresh unless `base_docs` supplies them (e.g. loaded
    from a persisted index). cross_context appends each page's contextualized
    descriptor token states as extra document rows. pooling replaces the
    trained global vector with a patch-pooling baseline.
    """
    if split not in corpus.splits:
        raise ConfigurationError(f"unknown split {split!r}")
    by_id = None
    if base_docs is not None:
        by_id = {d.page_id: d for d in base_docs}
    docs = []
    for pid in corpus.splits[split].page_ids:
        if by_id is not None:
            if pid not in by_id:
                raise ConfigurationError(f"page {pid} of split {split!r} is missing from the index")
            doc = by_id[pid]
        else:
            doc = encoder.encode_page(corpus.patch_features(pid), pid)
        patches = doc.patches
        if cross_context:
            desc_rows, _ = encoder.forward_tokens(corpus.descriptor(pid))
            patches = np.vstack([patches, desc_rows[:-1]])
        global_vec = pool_patches(doc.patches, pooling) if pooling is not None else doc.global_vec
        docs.append(DocumentEmbedding(patches=patches, global_vec=global_vec, page_id=pid))
    return docs


def evaluate(
    encoder: Encoder,
    corpus: Corpus,
    split: str = "test",
    k: int = 5,
    flags: ScoringFlags = ALL_ROWS,
    variant: str = "full",
    pooling: str | None = None,
    cross_context: bool = False,
    base_docs: Sequence[DocumentEmbedding] | None = None,
) -> EvalReport:
    """Rank every query of the split against the split's pages and score it."""
    docs = DocumentIndex(
        encode_split_docs(encoder, corpus, split, cross_context=cross_context, pooling=pooling, base_docs=base_docs)
    )
    results: list[QueryResult] = []
    skipped: list[int] = []
    for qid in corpus.splits[split].query_ids:
        q = corpus.queries[qid]
        relevant = set(q.relevant_page_ids)
        if not relevant:
            skipped.append(qid)
            continue
        emb = encoder.encode_query(q.tokens, qid)
        ranking = rank(emb, docs, k=len(docs), flags=flags)
        results.append(
            QueryResult(
                query_id=qid,
                qtype=q.qtype,
                ranking=ranking.doc_ids,
                ndcg=ndcg_at_k(ranking.doc_ids, relevant, k),
                map_=map_at_k(ranking.doc_ids, relevant, k),
            )
        )
    if not results:
        raise ConfigurationError(f"split {split!r} has no scorable queries")
    return EvalReport(variant=variant, split=split, k=k, results=results, skipped=skipped)


def compare_reports(report_a: EvalReport, report_b: EvalReport) -> dict:
    """Paired Wilcoxon significance record on per-query nDCG differences."""
    a = report_a.ndcg_by_query()
    b = report_b.ndcg_by_query()
    if set(a) != set(b):
        raise ValueError("reports cover different query sets; cannot pair")
    qids = sorted(a)
    record = {"pair": f"{report_a.variant}_vs_{report_b.variant}", "n_pairs": len(qids)}
    try:
        res = wilcoxon_signed_rank([a[q] for q in qids], [b[q] for q in qids])
        record.update(
            statistic=res.statistic, p_two_sided=res.p_two_sided,
            n_nonzero=res.n_nonzero, method=res.method,
        )
    except InsufficientDataError as exc:
        record.update(statistic=None, p_two_sided=None, method=f"insufficient-data: {exc}")
    return record


#: Ablation rows in emission order, each with the checkpoint it scores with,
#: its scoring flags and its page-global pooling: the full model, three
#: scoring-flag rows, two loss-trained rows, three pooling baselines.
_ROWS = {
    "full": ("full", ALL_ROWS, None),
    "no_patch_rows": ("full", ScoringFlags(use_patches=False), None),
    "no_query_global": ("full", ScoringFlags(use_query_global=False), None),
    "no_doc_global": ("full", ScoringFlags(use_doc_global=False), None),
    "loss_no_global": ("loss_no_global", ALL_ROWS, None),
    "loss_no_local": ("loss_no_local", ALL_ROWS, None),
    "pool_mean": ("full", ALL_ROWS, "mean"),
    "pool_max": ("full", ALL_ROWS, "max"),
    "pool_median": ("full", ALL_ROWS, "median"),
}
ABLATION_ROWS = tuple(_ROWS)


@dataclass
class AblationReport:
    reports: dict[str, EvalReport]
    significance: list[dict] = field(default_factory=list)

    def to_table(self) -> str:
        text = format_report_table(list(self.reports.values()))
        for rec in self.significance:
            if rec.get("p_two_sided") is not None:
                text += (
                    f"\n{rec['pair']}: W={rec['statistic']:.1f} "
                    f"p={rec['p_two_sided']:.4g} ({rec['method']}, n={rec['n_nonzero']})"
                )
            else:
                text += f"\n{rec['pair']}: {rec['method']}"
        return text

    def to_rows(self) -> list[tuple[str, str, str, float]]:
        rows = []
        for rep in self.reports.values():
            rows.extend(rep.to_rows())
        return rows

    def to_delimited(self) -> str:
        return _delimited(self.to_rows())


def run_ablations(
    corpus: Corpus,
    encoders: dict[str, Encoder],
    split: str = "test",
    k: int = 5,
    rows: tuple[str, ...] | list[str] | None = None,
) -> AblationReport:
    """Produce one EvalReport per requested ablation row.

    `encoders` maps checkpoint roles to loaded encoders: "full" is required
    by flag and pooling rows, "loss_no_global"/"loss_no_local" by the loss
    rows, and an optional "retrieval_only" enables the significance record
    comparing the full model against retrieval-only training. Each
    checkpoint's split pages are encoded once and shared by its rows.
    """
    selected = tuple(rows) if rows is not None else ABLATION_ROWS
    unknown = [r for r in selected if r not in ABLATION_ROWS]
    if unknown:
        raise ConfigurationError(f"unknown ablation rows: {unknown}")

    pages: dict[str, list[DocumentEmbedding]] = {}  # each checkpoint's split pages, encoded once

    def pages_of(key: str) -> list[DocumentEmbedding]:
        if key not in pages:
            pages[key] = encode_split_docs(encoders[key], corpus, split)
        return pages[key]

    reports: dict[str, EvalReport] = {}
    for row in selected:
        key, flags, pooling = _ROWS[row]
        if key not in encoders:
            raise ConfigurationError(f"ablation row {row!r} requires checkpoint {key!r}")
        reports[row] = evaluate(
            encoders[key], corpus, split=split, k=k, flags=flags, variant=row,
            pooling=pooling, base_docs=pages_of(key),
        )

    significance: list[dict] = []
    if "retrieval_only" in encoders and "full" in reports:
        baseline = evaluate(
            encoders["retrieval_only"], corpus, split=split, k=k, variant="retrieval_only",
            base_docs=pages_of("retrieval_only"),
        )
        significance.append(compare_reports(reports["full"], baseline))
    return AblationReport(reports=reports, significance=significance)
