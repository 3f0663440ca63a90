"""Deterministic synthetic corpus of layout-structured pages.

The generator manufactures the failure mode this retriever exists to fix:
for every layout-oriented ("global") query there is a distractor page that
shares content tokens with the relevant page but arranges its regions
differently, so content matching alone cannot separate them.

Construction is twin-based: each global query pair comes from two pages with
the same region types and near-identical content bags placed in different
grid cells. Each twin is the other's distractor, and both are training
positives, so in-batch collisions force the model to learn placement.
Content-oriented ("local") queries target pages by their content tokens,
exercising patch-level matching instead.

Token id space (grid R×C): region types 0..4, then row / column / height /
width structural tokens, then a shared content pool. Content ids recur
across pages — and therefore across splits, so token embeddings trained on
one split carry over to the others — but each page's headline token quad
(the tokens content queries draw from) overlaps any other page's content
in at most two ids, which keeps every content query decisive for its host.
Descriptors use only structural ids; queries mix structural and content ids.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import ConfigurationError

SCHEMA_VERSION = 1
REGION_TYPES = ("text", "table", "figure", "list", "header")
SKETCH_DIM = 64
_HASH_MULT = 2654435761  # Knuth multiplicative hash constant


@dataclass(frozen=True)
class TokenLayout:
    """Derived token-id offsets for a given grid size."""

    n_rows: int
    n_cols: int

    @property
    def row_base(self) -> int:
        return len(REGION_TYPES)

    @property
    def col_base(self) -> int:
        return self.row_base + self.n_rows

    @property
    def hgt_base(self) -> int:
        return self.col_base + self.n_cols

    @property
    def wid_base(self) -> int:
        return self.hgt_base + self.n_rows

    @property
    def content_base(self) -> int:
        return self.wid_base + self.n_cols

    def row_token(self, r: int) -> int:
        return self.row_base + r

    def col_token(self, c: int) -> int:
        return self.col_base + c

    def hgt_token(self, h: int) -> int:
        return self.hgt_base + (h - 1)

    def wid_token(self, w: int) -> int:
        return self.wid_base + (w - 1)


@dataclass
class CorpusConfig:
    n_pages: int = 200
    n_queries: int = 200
    grid_rows: int = 4
    grid_cols: int = 4
    vocab_size: int = 2048
    tokens_per_group: int = 8
    local_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_pages < 10 or self.n_queries < 10:
            raise ConfigurationError(
                f"corpus below minimum size: n_pages={self.n_pages}, "
                f"n_queries={self.n_queries} (need >= 10 each)"
            )
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ConfigurationError("grid must be at least 2x2")
        if not (0.0 <= self.local_fraction <= 1.0):
            raise ConfigurationError("local_fraction must be in [0, 1]")
        if self.tokens_per_group < 4:
            raise ConfigurationError("tokens_per_group must be >= 4")

    @property
    def token_layout(self) -> TokenLayout:
        return TokenLayout(self.grid_rows, self.grid_cols)


@dataclass
class Region:
    region_type: str
    row: int
    col: int
    height: int
    width: int
    content_tokens: list[int]
    word_count: int

    def cells(self) -> set[tuple[int, int]]:
        return {
            (r, c)
            for r in range(self.row, self.row + self.height)
            for c in range(self.col, self.col + self.width)
        }


@dataclass
class PageSpec:
    page_id: int
    n_rows: int
    n_cols: int
    regions: list[Region]

    def validate(self) -> None:
        if not self.regions:
            raise ConfigurationError(f"page {self.page_id} has no regions")
        covered: set[tuple[int, int]] = set()
        for reg in self.regions:
            if reg.region_type not in REGION_TYPES:
                raise ConfigurationError(f"page {self.page_id}: unknown region type {reg.region_type!r}")
            if reg.word_count < 0:
                raise ConfigurationError(f"page {self.page_id}: negative word_count")
            cells = reg.cells()
            if not cells:
                raise ConfigurationError(f"page {self.page_id}: empty region span")
            if any(r < 0 or r >= self.n_rows or c < 0 or c >= self.n_cols for r, c in cells):
                raise ConfigurationError(f"page {self.page_id}: region outside grid")
            if covered & cells:
                raise ConfigurationError(f"page {self.page_id}: overlapping region spans")
            covered |= cells

    def content_token_set(self) -> set[int]:
        return {t for reg in self.regions for t in reg.content_tokens}


@dataclass
class QuerySpec:
    query_id: int
    tokens: list[int]
    qtype: str  # "local" | "global"
    relevant_page_ids: list[int]
    distractor_page_ids: list[int] = field(default_factory=list)


@dataclass
class Split:
    page_ids: list[int]
    query_ids: list[int]


@dataclass
class Corpus:
    config: CorpusConfig
    pages: dict[int, PageSpec]
    queries: dict[int, QuerySpec]
    splits: dict[str, Split]
    _feature_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def patch_features(self, page_id: int) -> np.ndarray:
        if page_id not in self._feature_cache:
            self._feature_cache[page_id] = render_patch_features(self.pages[page_id])
        return self._feature_cache[page_id]

    def descriptor(self, page_id: int) -> list[int]:
        return generate_descriptor(self.pages[page_id])


def patch_feature_dim() -> int:
    return len(REGION_TYPES) + SKETCH_DIM + 2


def render_patch_features(page: PageSpec) -> np.ndarray:
    """One feature row per grid cell, row-major.

    Each row concatenates the covering region's type one-hot, a bag-of-tokens
    hash sketch of that region's content, and the cell's normalized center
    coordinates. Empty cells get zero type/sketch blocks but keep coordinates.
    """
    n_cells = page.n_rows * page.n_cols
    feats = np.zeros((n_cells, patch_feature_dim()), dtype=np.float64)
    owner: dict[tuple[int, int], Region] = {}
    for reg in page.regions:
        for cell in reg.cells():
            owner[cell] = reg
    for r in range(page.n_rows):
        for c in range(page.n_cols):
            i = r * page.n_cols + c
            reg = owner.get((r, c))
            if reg is not None:
                feats[i, REGION_TYPES.index(reg.region_type)] = 1.0
                for tok in reg.content_tokens:
                    bucket = (tok * _HASH_MULT) % (2**32) % SKETCH_DIM
                    feats[i, len(REGION_TYPES) + bucket] += 1.0
            feats[i, -2] = (r + 0.5) / page.n_rows
            feats[i, -1] = (c + 0.5) / page.n_cols
    return feats


def generate_descriptor(page: PageSpec) -> list[int]:
    """Canonical structure-only token sequence: regions in reading order,
    each as (type, row, col, height, width) tokens. No content ids.

    Non-overlapping regions have distinct (row, col) anchors, so equal
    arrangements give equal sequences and different ones differ."""
    layout = TokenLayout(page.n_rows, page.n_cols)
    tokens: list[int] = []
    for reg in sorted(page.regions, key=lambda r: (r.row, r.col)):
        tokens.extend(
            [
                REGION_TYPES.index(reg.region_type),
                layout.row_token(reg.row),
                layout.col_token(reg.col),
                layout.hgt_token(reg.height),
                layout.wid_token(reg.width),
            ]
        )
    return tokens


def layout_features(page: PageSpec) -> dict[str, int]:
    counts = {t: 0 for t in REGION_TYPES}
    for reg in page.regions:
        counts[reg.region_type] += 1
    return {
        "n_text": counts["text"],
        "n_image": counts["figure"],
        "n_list": counts["list"],
        "n_words": sum(r.word_count for r in page.regions),
        "n_visual_elements": counts["figure"] + counts["table"],
    }


# ----- generation -----

_WORD_RANGES = {"text": (20, 60), "header": (2, 8), "list": (10, 30), "table": (4, 20), "figure": (0, 4)}


def _sample_word_count(rng: np.random.Generator, region_type: str) -> int:
    lo, hi = _WORD_RANGES[region_type]
    return int(rng.integers(lo, hi + 1))


def _sample_span(rng: np.random.Generator, cfg: CorpusConfig) -> tuple[int, int, int, int]:
    h = int(rng.integers(1, 3))
    w = int(rng.integers(1, 3))
    r = int(rng.integers(0, cfg.grid_rows - h + 1))
    c = int(rng.integers(0, cfg.grid_cols - w + 1))
    return r, c, h, w


def _sample_disjoint_spans(rng: np.random.Generator, cfg: CorpusConfig, n: int) -> list[tuple[int, int, int, int]]:
    for _ in range(1000):
        spans = [_sample_span(rng, cfg) for _ in range(n)]
        cells: set[tuple[int, int]] = set()
        ok = True
        for r, c, h, w in spans:
            span_cells = {(rr, cc) for rr in range(r, r + h) for cc in range(c, c + w)}
            if cells & span_cells:
                ok = False
                break
            cells |= span_cells
        if ok:
            return spans
    raise ConfigurationError(f"could not place {n} disjoint regions on a {cfg.grid_rows}x{cfg.grid_cols} grid")


def _anchor_tokens(spans, layout: TokenLayout) -> set[int]:
    toks: set[int] = set()
    for r, c, _h, _w in spans:
        toks.add(layout.row_token(r))
        toks.add(layout.col_token(c))
    return toks


def _pattern_tokens(types: list[int], spans, layout: TokenLayout) -> list[int]:
    tokens: list[int] = []
    for t, (r, c, _h, _w) in zip(types, spans):
        tokens.extend([t, layout.row_token(r), layout.col_token(c)])
    return tokens


def parse_pattern(tokens: list[int], layout: TokenLayout) -> list[tuple[int, int, int]]:
    """Extract (type, row, col) clauses from a global query's structural tokens."""
    clauses: list[tuple[int, int, int]] = []
    cur_type = cur_row = cur_col = None
    row_base, col_base, hgt_base, content_base = layout.row_base, layout.col_base, layout.hgt_base, layout.content_base
    for t in tokens:
        if t >= content_base:
            continue
        if t < row_base:
            if cur_type is not None:
                clauses.append((cur_type, cur_row, cur_col))
            cur_type, cur_row, cur_col = t, None, None
        elif t < col_base:
            cur_row = t - row_base
        elif t < hgt_base:
            cur_col = t - col_base
    if cur_type is not None:
        clauses.append((cur_type, cur_row, cur_col))
    return clauses


def pattern_satisfied(page: PageSpec, clauses: list[tuple[int, int, int]]) -> bool:
    """True when every clause has a region of that type anchored at (row, col)."""
    anchors = {(REGION_TYPES.index(r.region_type), r.row, r.col) for r in page.regions}
    return all(clause in anchors for clause in clauses)


class _OverlapIndex:
    """The generator's overlap rule, held as two sets of sorted 3-id tuples.

    A new group is admitted when its headline quad (first four ids) shares at
    most two ids with every earlier page's content, and every earlier quad
    shares at most two ids with the whole group. Two id sets share three ids
    exactly when some 3-id subset of one lies in the other, so the rule is
    two set lookups per draw instead of a scan over every earlier page.
    """

    def __init__(self) -> None:
        self.page_triples: set[tuple[int, ...]] = set()  # every 3 ids some page holds
        self.quad_triples: set[tuple[int, ...]] = set()  # every 3 ids of some headline quad

    def add_page(self, content: Iterable[int]) -> None:
        self.page_triples.update(combinations(sorted(content), 3))

    def add_quad(self, quad: Iterable[int]) -> None:
        self.quad_triples.update(combinations(sorted(quad), 3))

    def admits(self, grp: list[int]) -> bool:
        """grp holds distinct ids; its first four are the headline quad."""
        quad_triples, grp_triples = combinations(sorted(grp[:4]), 3), combinations(sorted(grp), 3)
        return self.page_triples.isdisjoint(quad_triples) and self.quad_triples.isdisjoint(grp_triples)


@dataclass
class _Cluster:
    """A split-atomic unit: pages that must stay together with their queries."""

    kind: str  # "pair" | "local" | "background"
    page_ids: list[int]
    query_ids: list[int]


def generate_corpus(config: CorpusConfig) -> Corpus:
    """Deterministically build pages, queries, and splits."""
    cfg = config
    layout = cfg.token_layout
    rng = np.random.default_rng(cfg.seed)

    n_local = int(round(cfg.n_queries * cfg.local_fraction))
    n_global = cfg.n_queries - n_local
    n_pairs = (n_global + 1) // 2
    n_background = cfg.n_pages - 2 * n_pairs
    if n_background < 0:
        raise ConfigurationError(
            f"n_pages={cfg.n_pages} too small for {n_global} global queries "
            f"(need {2 * n_pairs} twin pages)"
        )
    if n_local > 0 and n_background == 0:
        raise ConfigurationError("local queries requested but no pages left to host them")

    # Content ids are drawn from at most SKETCH_DIM consecutive ids. Small
    # enough that every id recurs across many pages (so held-out splits
    # exercise embeddings the training split actually trained), and because
    # the sketch multiplier is odd, `t * mult mod 64` permutes any 64
    # consecutive ids — each pool token owns a distinct sketch bucket.
    pool_size = min(SKETCH_DIM, cfg.vocab_size - layout.content_base)
    if pool_size < 3 * cfg.tokens_per_group:
        raise ConfigurationError(
            f"vocab too small: content pool has {pool_size} ids, "
            f"need at least {3 * cfg.tokens_per_group}"
        )

    overlap = _OverlapIndex()  # the content of every page built so far, and every headline quad
    content_base = layout.content_base

    def draw_group() -> list[int]:
        """Sample a content group whose leading quad stays decisive.

        The first four tokens are the ones queries will cite, so they must
        overlap every existing page's content — and every existing quad must
        overlap this whole group — in at most two ids.
        """
        for _ in range(200):
            grp = [content_base + int(i) for i in rng.choice(pool_size, size=cfg.tokens_per_group, replace=False)]
            if overlap.admits(grp):
                return grp
        if pool_size == SKETCH_DIM:
            advice = (
                f"the pool is capped at SKETCH_DIM={SKETCH_DIM} ids whatever vocab_size is, "
                "which holds about 450 pages at the default settings; reduce n_pages"
            )
        else:
            advice = f"increase vocab_size (the pool grows to at most SKETCH_DIM={SKETCH_DIM} ids) or reduce n_pages"
        raise ConfigurationError(
            f"content pool of {pool_size} ids too small to keep query token sets distinct "
            f"for n_pages={cfg.n_pages}; {advice}"
        )

    pages: dict[int, PageSpec] = {}
    queries: dict[int, QuerySpec] = {}
    clusters: list[_Cluster] = []
    next_page = 0
    next_query = 0

    # Twin pairs: same types and content core, different placement. The
    # retry loop additionally guarantees each twin's anchor-token bag misses
    # at least one anchor token of the other's placement, so the structural
    # query tokens discriminate even under bag-of-tokens matching.
    global_left = n_global
    for _ in range(n_pairs):
        types = [int(t) for t in rng.choice(len(REGION_TYPES), size=2, replace=False)]
        for _attempt in range(1000):
            spans_a = _sample_disjoint_spans(rng, cfg, 2)
            spans_b = _sample_disjoint_spans(rng, cfg, 2)
            bag_a = _anchor_tokens(spans_a, layout)
            bag_b = _anchor_tokens(spans_b, layout)
            if (bag_a - bag_b) and (bag_b - bag_a):
                break
        else:  # pragma: no cover - 4x4 grids never exhaust 1000 attempts
            raise ConfigurationError("could not construct twin placements")

        grp = draw_group()
        core = grp[:4]
        extras = grp[4:]
        pair_pages = []
        for which, spans in enumerate((spans_a, spans_b)):
            regions = []
            for k, (t, (r, c, h, w)) in enumerate(zip(types, spans)):
                content = core[2 * k : 2 * k + 2]
                if extras:
                    content = content + [extras[(2 * which + k) % len(extras)]]
                regions.append(
                    Region(
                        region_type=REGION_TYPES[t],
                        row=r,
                        col=c,
                        height=h,
                        width=w,
                        content_tokens=content,
                        word_count=_sample_word_count(rng, REGION_TYPES[t]),
                    )
                )
            page = PageSpec(page_id=next_page, n_rows=cfg.grid_rows, n_cols=cfg.grid_cols, regions=regions)
            pages[next_page] = page
            pair_pages.append(page)
            overlap.add_page(page.content_token_set())
            next_page += 1
        overlap.add_quad(core)

        qids = []
        for which, spans in enumerate((spans_a, spans_b)):
            if global_left == 0:
                break
            content_pick = [core[int(i)] for i in rng.choice(4, size=2, replace=False)]
            tokens = _pattern_tokens(types, spans, layout) + content_pick
            relevant = pair_pages[which].page_id
            distractor = pair_pages[1 - which].page_id
            queries[next_query] = QuerySpec(
                query_id=next_query,
                tokens=tokens,
                qtype="global",
                relevant_page_ids=[relevant],
                distractor_page_ids=[distractor],
            )
            qids.append(next_query)
            next_query += 1
            global_left -= 1
        clusters.append(_Cluster("pair", [p.page_id for p in pair_pages], qids))

    # Background pages. Local queries are assigned round-robin and sample
    # tokens from the host page's first region, whose quad no other page
    # covers beyond two ids.
    background_ids = []
    for _ in range(n_background):
        grp = draw_group()
        n_regions = int(rng.integers(1, 5))
        spans = _sample_disjoint_spans(rng, cfg, n_regions)
        regions = []
        for k, (r, c, h, w) in enumerate(spans):
            rtype = REGION_TYPES[int(rng.integers(0, len(REGION_TYPES)))]
            n_tok = 4 if k == 0 else int(rng.integers(2, 4))
            start = (4 + (k - 1) * 2) if k > 0 else 0
            toks = [grp[(start + i) % cfg.tokens_per_group] for i in range(n_tok)]
            regions.append(
                Region(
                    region_type=rtype,
                    row=r,
                    col=c,
                    height=h,
                    width=w,
                    content_tokens=toks,
                    word_count=_sample_word_count(rng, rtype),
                )
            )
        page = PageSpec(page_id=next_page, n_rows=cfg.grid_rows, n_cols=cfg.grid_cols, regions=regions)
        pages[next_page] = page
        background_ids.append(next_page)
        overlap.add_page(page.content_token_set())
        overlap.add_quad(grp[:4])
        next_page += 1

    bg_queries: dict[int, list[int]] = {pid: [] for pid in background_ids}
    for i in range(n_local):
        host = pages[background_ids[i % len(background_ids)]]
        pool = host.regions[0].content_tokens
        n_tok = min(3, len(pool))
        tokens = [pool[int(j)] for j in rng.choice(len(pool), size=n_tok, replace=False)]
        queries[next_query] = QuerySpec(
            query_id=next_query,
            tokens=tokens,
            qtype="local",
            relevant_page_ids=[host.page_id],
        )
        bg_queries[host.page_id].append(next_query)
        next_query += 1
    for pid in background_ids:
        kind = "local" if bg_queries[pid] else "background"
        clusters.append(_Cluster(kind, [pid], bg_queries[pid]))

    corpus = Corpus(config=cfg, pages=pages, queries=queries, splits=_split_clusters(rng, clusters))
    validate_corpus(corpus)
    return corpus


def _take(rng: np.random.Generator, items: list[_Cluster], frac: float) -> tuple[list, list]:
    if not items:
        return [], []
    order = [items[int(i)] for i in rng.permutation(len(items))]
    n = max(1, int(round(frac * len(items)))) if len(items) >= 2 else 0
    return order[:n], order[n:]


def _split_clusters(rng: np.random.Generator, clusters: list[_Cluster]) -> dict[str, Split]:
    """Group-atomic stratified 70/15/15 split.

    Stratifying by cluster kind keeps global-query pairs and local-query
    hosts represented in dev and test, so per-qtype metrics are defined.
    """
    test: list[_Cluster] = []
    dev: list[_Cluster] = []
    train: list[_Cluster] = []
    for kind in ("pair", "local", "background"):
        stratum = [c for c in clusters if c.kind == kind]
        t, rest = _take(rng, stratum, 0.15)
        d, tr = _take(rng, rest, 0.15 / 0.85)
        test += t
        dev += d
        train += tr
    if not train or not any(c.query_ids for c in train):
        raise ConfigurationError("corpus too small to form a train split with queries")

    def pack(cs: list[_Cluster]) -> Split:
        return Split(
            page_ids=sorted(pid for c in cs for pid in c.page_ids),
            query_ids=sorted(qid for c in cs for qid in c.query_ids),
        )

    return {"train": pack(train), "dev": pack(dev), "test": pack(test)}


# ----- validation -----


def validate_corpus(corpus: Corpus) -> None:
    """Re-check every constructive guarantee; raises ConfigurationError."""
    layout = corpus.config.token_layout
    for page in corpus.pages.values():
        page.validate()

    content = {pid: page.content_token_set() for pid, page in corpus.pages.items()}
    pages_with: dict[int, list[int]] = {}  # content token -> the pages holding it, in page order
    for pid, page_content in content.items():
        for t in page_content:
            pages_with.setdefault(t, []).append(pid)
    for q in corpus.queries.values():
        if not q.relevant_page_ids:
            raise ConfigurationError(f"query {q.query_id} has no relevant pages")
        for pid in q.relevant_page_ids + q.distractor_page_ids:
            if pid not in corpus.pages:
                raise ConfigurationError(f"query {q.query_id} references missing page {pid}")
        if q.qtype == "global":
            clauses = parse_pattern(q.tokens, layout)
            q_content = {t for t in q.tokens if t >= layout.content_base}
            for pid in q.relevant_page_ids:
                if not pattern_satisfied(corpus.pages[pid], clauses):
                    raise ConfigurationError(
                        f"global query {q.query_id}: relevant page {pid} fails its own pattern"
                    )
            for pid in q.distractor_page_ids:
                if pattern_satisfied(corpus.pages[pid], clauses):
                    raise ConfigurationError(
                        f"global query {q.query_id}: distractor {pid} satisfies the pattern"
                    )
                if not (q_content & content[pid]):
                    raise ConfigurationError(
                        f"global query {q.query_id}: distractor {pid} shares no content token"
                    )
        elif q.qtype == "local":
            toks = set(q.tokens)
            host = q.relevant_page_ids[0]
            if not toks <= content[host]:
                raise ConfigurationError(
                    f"local query {q.query_id}: host page {host} lacks some query tokens"
                )
            # A page covering every query token holds the query's rarest one.
            candidates = min((pages_with[t] for t in toks), key=len, default=content)
            for pid in candidates:
                if pid not in q.relevant_page_ids and toks <= content[pid]:
                    raise ConfigurationError(
                        f"local query {q.query_id}: page {pid} also covers all query tokens"
                    )
        else:
            raise ConfigurationError(f"query {q.query_id}: unknown qtype {q.qtype!r}")

    seen_pages: set[int] = set()
    seen_queries: set[int] = set()
    for name, split in corpus.splits.items():
        missing = [f"page {p!r}" for p in split.page_ids if p not in corpus.pages]
        missing += [f"query {q!r}" for q in split.query_ids if q not in corpus.queries]
        if missing:
            raise ConfigurationError(f"split {name} names missing {', '.join(missing)}")
        if seen_pages & set(split.page_ids) or seen_queries & set(split.query_ids):
            raise ConfigurationError(f"split {name} overlaps another split")
        seen_pages |= set(split.page_ids)
        seen_queries |= set(split.query_ids)
        in_split = set(split.page_ids)
        for qid in split.query_ids:
            q = corpus.queries[qid]
            if any(pid not in in_split for pid in q.relevant_page_ids + q.distractor_page_ids):
                raise ConfigurationError(f"query {qid} references pages outside split {name}")


# ----- serialization -----


def save_corpus(corpus: Corpus, path) -> None:
    """Write config, pages, queries and splits to `path`, one JSON record per
    line. Descriptors are derived from the pages, so they are not stored."""
    lines = [
        json.dumps(
            {"kind": "header", "schema_version": SCHEMA_VERSION, "config": asdict(corpus.config)},
            sort_keys=True,
        )
    ]
    for pid in sorted(corpus.pages):
        page = corpus.pages[pid]
        lines.append(
            json.dumps(
                {
                    "kind": "page",
                    "page_id": page.page_id,
                    "n_rows": page.n_rows,
                    "n_cols": page.n_cols,
                    "regions": [asdict(r) for r in page.regions],
                },
                sort_keys=True,
            )
        )
    for qid in sorted(corpus.queries):
        q = corpus.queries[qid]
        lines.append(json.dumps({"kind": "query", **asdict(q)}, sort_keys=True))
    for name in ("train", "dev", "test"):
        if name in corpus.splits:
            s = corpus.splits[name]
            lines.append(
                json.dumps(
                    {"kind": "split", "name": name, "page_ids": s.page_ids, "query_ids": s.query_ids},
                    sort_keys=True,
                )
            )
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _parse_lines(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}:{i + 1}: invalid record: {exc}") from exc
            if not isinstance(records[-1], dict):
                raise ConfigurationError(f"{path}:{i + 1}: invalid record: not a JSON object")
    if not records or records[0].get("kind") != "header":
        raise ConfigurationError(f"{path}: missing header record")
    if records[0].get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported schema_version {records[0].get('schema_version')!r}"
        )
    return records


@contextmanager
def _record_errors(path: Path, what: str) -> Iterator[None]:
    """Report any fault in `what` (a record, or the whole corpus) as a
    configuration error naming the file, missing or wrong-typed fields included."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ConfigurationError(f"{path}: {what} is missing field {exc}") from exc
    except TypeError as exc:
        raise ConfigurationError(f"{path}: malformed {what}: {exc}") from exc


def load_corpus(path) -> Corpus:
    """Load and validate a corpus written by save_corpus."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"corpus file not found: {path}")
    records = _parse_lines(path)
    with _record_errors(path, "header record"):
        config = CorpusConfig(**records[0]["config"])
    pages: dict[int, PageSpec] = {}
    queries: dict[int, QuerySpec] = {}
    splits: dict[str, Split] = {}
    for rec in records[1:]:
        kind = rec.get("kind")
        with _record_errors(path, f"{kind} record"):
            if kind == "page":
                pid = rec["page_id"]
                if type(pid) is not int or not 0 <= pid < 2**64:
                    raise ConfigurationError(
                        f"page record with page_id {pid!r}: a page id must be an integer in [0, 2**64)"
                    )
                regions = [Region(**r) for r in rec["regions"]]
                pages[pid] = PageSpec(
                    page_id=pid, n_rows=rec["n_rows"], n_cols=rec["n_cols"], regions=regions
                )
            elif kind == "query":
                queries[rec["query_id"]] = QuerySpec(
                    query_id=rec["query_id"],
                    tokens=rec["tokens"],
                    qtype=rec["qtype"],
                    relevant_page_ids=rec["relevant_page_ids"],
                    distractor_page_ids=rec.get("distractor_page_ids", []),
                )
            elif kind == "split":
                splits[rec["name"]] = Split(page_ids=rec["page_ids"], query_ids=rec["query_ids"])
            else:
                raise ConfigurationError(f"unknown record kind {kind!r}")

    corpus = Corpus(config=config, pages=pages, queries=queries, splits=splits)
    with _record_errors(path, "corpus"):
        validate_corpus(corpus)
    return corpus
