"""The benchmark's three workloads, each a set-up, a repeatable round and a check.

A round is a whole unit of user-visible work with a fixed number of
operations, so `attempted` and `failed` are whole multiples of it:

- train:  gen -> train -> index -> eval on the default 200-page corpus
          (4 operations per round);
- search: a closed loop of 50 corpus queries, encode_query + rank, against a
          ~4 000-page index built and loaded in set-up (50 operations);
- ablate: `glint ablate` over seven rows plus the Wilcoxon baseline on the
          train split of a 400-page corpus (8 operations per round).

Each round returns `work` (units of work done: training samples, queries,
(row, query) pairs), `busy_s` (the seconds that work took) and `op_s` (the
wall time of each operation whose latency is reported: a pipeline, a query,
an ablation table). run.py turns those into the end-to-end metrics, and
info() adds each workload's own figures.

check() compares every round's outputs with the oracles in oracles.py and
returns a list of failures; an empty list means the outputs are correct.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from pathlib import Path

import numpy as np

import oracles
from glint import corpus as gcorpus
from glint import encoder as gencoder
from glint import index_store, pipeline, scoring
from glint.config import RunConfig
from glint.corpus import CorpusConfig
from glint.errors import ConfigurationError, InsufficientDataError, IntegrityError, TrainingDivergedError
from glint.training import TrainerConfig

#: Failures of the program that count as a failed operation; anything else
#: is a fault of the benchmark and ends the run.
PROGRAM_ERRORS = (ConfigurationError, InsufficientDataError, IntegrityError, TrainingDivergedError)

#: Pages per seeded corpus in search and ablate. generate_corpus cannot build
#: much more than ~450 pages, so the search index stacks several corpora.
CORPUS_PAGES = 400

#: The checkpoints that search and ablate train in set-up: one epoch with a
#: short warm-up moves the weights off their initialisation, so full and
#: retrieval_only rank some queries differently, and keeps set-up short.
SETUP_TRAINER = TrainerConfig(epochs=1, warmup_steps=5)


def _load_encoder(path) -> gencoder.Encoder:
    cfg, params, _ = gencoder.load_checkpoint(path)
    return gencoder.Encoder(cfg, params)


def _unit_norm_failures(docs, what: str) -> list[str]:
    rows = np.vstack([np.vstack([d.patches, d.global_vec[None, :]]) for d in docs])
    worst = float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)))
    return [] if worst <= oracles.TOL else [f"{what}: a row read back has |norm - 1| = {worst:.3g}"]


def _oracle_eval(corpus, split: str, docs_by_id, encoder, k: int, flags=(True, True, True), pooling=None) -> dict:
    """Oracle scores, full-length ranking, nDCG@k and MAP@k for every query of
    a split that has relevant pages. flags = (use_query_global,
    use_doc_global, use_patches); pooling replaces the document global row."""
    use_qg, use_dg, use_p = flags
    ids = list(corpus.splits[split].page_ids)
    rows = []
    for pid in ids:
        d = docs_by_id[pid]
        g = oracles.pooled(d.patches, pooling) if pooling else d.global_vec
        rows.append(oracles.doc_rows(d.patches, g, use_p, use_dg))
    padded = oracles.PaddedDocs(ids, rows)
    out = {}
    for qid in corpus.splits[split].query_ids:
        q = corpus.queries[qid]
        if not q.relevant_page_ids:
            continue
        emb = encoder.encode_query(q.tokens, qid)
        scores = padded.maxsim(oracles.query_rows(emb.tokens, emb.global_vec, use_qg))
        ranked = oracles.ranking(padded.ids, scores, len(ids))
        out[qid] = (padded.ids, scores, oracles.ndcg_map(ranked, set(q.relevant_page_ids), k))
    return out


def _report_failures(report, oracle: dict, where: str) -> list[str]:
    """Check an EvalReport's full-length rankings and per-query nDCG/MAP."""
    if [r.query_id for r in report.results] != list(oracle):
        return [f"{where}: results do not cover the split's scorable queries in order"]
    failures = []
    for res in report.results:
        ids, scores, (ndcg, ap) = oracle[res.query_id]
        why = oracles.ranking_mismatch(res.ranking, None, ids, scores, len(ids))
        if why:
            failures.append(f"{where} query {res.query_id}: {why}")
        if abs(res.ndcg - ndcg) > oracles.TOL or abs(res.map_ - ap) > oracles.TOL:
            failures.append(
                f"{where} query {res.query_id}: ndcg/map {res.ndcg!r}/{res.map_!r}, closed form {ndcg!r}/{ap!r}"
            )
    return failures


def _wilcoxon_failures(significance: list[dict], ndcg_a: dict, ndcg_b: dict, where: str) -> list[str]:
    """Check the full-vs-retrieval_only record against sign enumeration."""
    if len(significance) != 1:
        return [f"{where}: expected one significance record, got {len(significance)}"]
    rec, qids = significance[0], sorted(ndcg_a)
    a, b = [ndcg_a[q] for q in qids], [ndcg_b[q] for q in qids]
    if sum(x != y for x, y in zip(a, b)) < 5:  # glint reports too few pairs as insufficient data
        ok = rec.get("p_two_sided") is None and str(rec.get("method")).startswith("insufficient-data")
        return [] if ok else [f"{where}: wilcoxon {rec} on fewer than 5 nonzero differences"]
    stat, p, n, method = oracles.wilcoxon(a, b)
    got = (rec.get("statistic"), rec.get("p_two_sided"), rec.get("n_nonzero"), rec.get("method"))
    if (got[2], got[3]) != (n, method) or abs(got[0] - stat) > oracles.TOL or abs(got[1] - p) > oracles.TOL:
        return [f"{where}: wilcoxon {got}, oracle {(stat, p, n, method)}"]
    return []


class Train:
    """The user's gen -> train -> index -> eval path with the `full` variant."""

    name = "train"
    ops_per_round = 4
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.config = RunConfig().with_seed(seed)
        self.workdir = workdir
        self._rounds = itertools.count()

    def setup(self) -> dict:
        return {}

    def round(self, i: int) -> dict:
        d = self.workdir / f"round{next(self._rounds)}"
        d.mkdir()
        corpus, ckpt, idx = d / "corpus.jsonl", d / "full.ckpt", d / "full.idx"
        t0 = time.perf_counter()
        n_train = pipeline.run_gen(self.config, corpus)["splits"]["train"]
        t1 = time.perf_counter()
        summary = pipeline.run_train(self.config, corpus, ckpt, variant="full")
        t2 = time.perf_counter()
        pipeline.run_index(ckpt, corpus, idx)
        report = pipeline.run_eval(self.config, corpus, ckpt, idx)
        t3 = time.perf_counter()
        return {"dir": d, "n_train": n_train, "summary": summary, "report": report,
                "work": self._derived(n_train, summary)[2], "busy_s": t2 - t1, "op_s": [t3 - t0]}

    def _derived(self, n: int, summary: dict) -> tuple[int, int, int]:
        """(epochs run, steps, samples) the trainer must have done, from the
        train split's query count n, the batch size and the epochs;
        singleton batches are skipped."""
        bs = self.config.trainer.batch_size
        early = summary["early_stopped_epoch"]
        epochs = self.config.trainer.epochs if early is None else early + 1
        batches = [min(bs, n - lo) for lo in range(0, n, bs)]
        batches = [b for b in batches if b >= 2]
        return epochs, epochs * len(batches), epochs * sum(batches)

    def info(self, records: list[dict]) -> dict:
        return {"train_samples_per_s": float(np.median([r["work"] / r["busy_s"] for r in records])),
                "pipeline_s": float(np.median([r["op_s"][0] for r in records])),
                "rounds": len(records)}

    def check(self, records: list[dict]) -> list[str]:
        failures = []
        for i, rec in enumerate(records):
            where = f"round {i}"
            epochs, steps, _ = self._derived(rec["n_train"], rec["summary"])
            if rec["summary"]["steps_trained"] != steps:
                failures.append(f"{where}: steps_trained {rec['summary']['steps_trained']}, derived {steps}")
            log = json.loads(Path(rec["summary"]["log"]).read_text())
            if len(log["epochs"]) != epochs:
                failures.append(f"{where}: log has {len(log['epochs'])} epochs, expected {epochs}")
            by_epoch = {}
            for s in log["steps"]:
                by_epoch.setdefault(s["epoch"], []).append(s["loss"])
            first, last = min(by_epoch), max(by_epoch)
            if not np.mean(by_epoch[last]) < np.mean(by_epoch[first]):
                failures.append(f"{where}: last-epoch mean loss is not below the first epoch's")
            corpus = gcorpus.load_corpus(rec["dir"] / "corpus.jsonl")
            docs = index_store.read_index(rec["dir"] / "full.idx")
            failures += _unit_norm_failures(docs, where)
            encoder = _load_encoder(rec["dir"] / "full.ckpt")
            oracle = _oracle_eval(corpus, self.config.eval_split, {d.page_id: d for d in docs}, encoder,
                                  self.config.eval_k)
            failures += _report_failures(rec["report"], oracle, f"{where} eval")
        return failures


class Search:
    """A closed loop of queries against a multi-corpus index, one client."""

    name = "search"
    n_corpora = 10
    n_queries = 200  # served in blocks of ops_per_round; p95 then has 10 samples beyond it
    ops_per_round = 50
    min_rounds = n_queries // ops_per_round
    k = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> dict:
        base = RunConfig(corpus=CorpusConfig(n_pages=CORPUS_PAGES, n_queries=CORPUS_PAGES),
                         trainer=SETUP_TRAINER).with_seed(self.seed)
        path, ckpt = self.workdir / "corpus0.jsonl", self.workdir / "full.ckpt"
        pipeline.run_gen(base, path)
        pipeline.run_train(base, path, ckpt, variant="full")
        self.encoder = _load_encoder(ckpt)
        corpora = [gcorpus.load_corpus(path)] + [
            gcorpus.generate_corpus(dataclasses.replace(base.corpus, seed=self.seed * self.n_corpora + i))
            for i in range(1, self.n_corpora)
        ]
        # Page ids are renumbered by a per-corpus offset so they stay unique.
        t0 = time.perf_counter()
        self.docs, queries, offset = [], [], 0
        for ci, c in enumerate(corpora):
            for pid in sorted(c.pages):
                self.docs.append(self.encoder.encode_page(c.patch_features(pid), offset + pid))
            queries += [(f"{ci}:{qid}", q.tokens) for qid, q in sorted(c.queries.items())]
            offset += max(c.pages) + 1
        t1 = time.perf_counter()
        self.index_path = self.workdir / "search.idx"
        index_store.write_index(self.docs, self.index_path)
        t2 = time.perf_counter()
        self.index = index_store.read_index(self.index_path)
        t3 = time.perf_counter()
        pick = np.random.default_rng(self.seed).choice(len(queries), size=self.n_queries, replace=False)
        self.queries = [queries[int(i)] for i in pick]
        return {
            "index_pages": len(self.docs),
            "index_pages_per_s": len(self.docs) / (t1 - t0),
            "index_write_ms": (t2 - t1) * 1e3,
            "index_load_ms": (t3 - t2) * 1e3,
            "index_bytes": self.index_path.stat().st_size,
        }

    def round(self, i: int) -> dict:
        block = i % self.min_rounds * self.ops_per_round
        latencies, results = [], []
        t_round = time.perf_counter()
        for qid, tokens in self.queries[block : block + self.ops_per_round]:
            t0 = time.perf_counter()
            emb = self.encoder.encode_query(tokens, qid)
            ranking = scoring.rank(emb, self.index, self.k)
            latencies.append(time.perf_counter() - t0)
            results.append((emb, ranking))
        return {"results": results, "work": len(results), "busy_s": time.perf_counter() - t_round,
                "op_s": latencies}

    def info(self, records: list[dict]) -> dict:
        lat = np.array([x for r in records for x in r["op_s"]])
        return {"search_qps": float(np.median([r["work"] / r["busy_s"] for r in records])),
                "search_p50_ms": float(np.percentile(lat, 50)) * 1e3,
                "search_p95_ms": float(np.percentile(lat, 95)) * 1e3,
                "queries": len(lat)}

    def check(self, records: list[dict]) -> list[str]:
        failures = _unit_norm_failures(self.index, "index")
        for a, b in zip(self.docs, self.index):
            if a.page_id != b.page_id or not (np.array_equal(a.patches, b.patches)
                                              and np.array_equal(a.global_vec, b.global_vec)):
                failures.append(f"index page {a.page_id}: read back differs from what was written")
                break
        padded = oracles.PaddedDocs([d.page_id for d in self.index],
                                    [oracles.doc_rows(d.patches, d.global_vec, True, True) for d in self.index])
        for i, rec in enumerate(records):
            for emb, r in rec["results"]:
                q_rows = oracles.query_rows(emb.tokens, emb.global_vec, True)
                why = oracles.ranking_mismatch(r.doc_ids, r.scores, padded.ids, padded.maxsim(q_rows), self.k)
                if why:
                    failures.append(f"round {i} query {r.query_id}: {why}")
                if max(r.scores) > q_rows.shape[0] + oracles.TOL:
                    failures.append(f"round {i} query {r.query_id}: score above its {q_rows.shape[0]} rows")
        return failures


class Ablate:
    """`glint ablate`: seven rows and the Wilcoxon record on one corpus."""

    name = "ablate"
    rows = ("full", "no_patch_rows", "no_query_global", "no_doc_global", "pool_mean", "pool_max", "pool_median")
    #: (use_query_global, use_doc_global, use_patches) per flag row.
    flags = {"no_patch_rows": (True, True, False), "no_query_global": (False, True, True),
             "no_doc_global": (True, False, True)}
    ops_per_round = len(rows) + 1
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.config = RunConfig(
            corpus=CorpusConfig(n_pages=CORPUS_PAGES, n_queries=CORPUS_PAGES),
            trainer=SETUP_TRAINER,
            eval_split="train",
            ablation_rows=list(self.rows),
        ).with_seed(seed)
        self.workdir = workdir

    def setup(self) -> dict:
        self.corpus_path = self.workdir / "corpus.jsonl"
        pipeline.run_gen(self.config, self.corpus_path)
        for variant in ("full", "retrieval_only"):
            pipeline.run_train(self.config, self.corpus_path, self.workdir / f"{variant}.ckpt", variant=variant)
        return {}

    def round(self, i: int) -> dict:
        t0 = time.perf_counter()
        report = pipeline.run_ablate(self.config, self.corpus_path, self.workdir)
        dt = time.perf_counter() - t0
        # Each row and the retrieval_only baseline rank every split query once.
        pairs = len(report.reports["full"].results) * self.ops_per_round
        return {"report": report, "work": pairs, "busy_s": dt, "op_s": [dt]}

    def info(self, records: list[dict]) -> dict:
        return {"eval_queries_per_s": float(np.median([r["work"] / r["busy_s"] for r in records])),
                "table_s": float(np.median([r["op_s"][0] for r in records])),
                "rounds": len(records)}

    def check(self, records: list[dict]) -> list[str]:
        corpus = gcorpus.load_corpus(self.corpus_path)
        split = corpus.splits[self.config.eval_split]
        encoders = {v: _load_encoder(self.workdir / f"{v}.ckpt") for v in ("full", "retrieval_only")}
        docs = {v: {pid: e.encode_page(corpus.patch_features(pid), pid) for pid in split.page_ids}
                for v, e in encoders.items()}
        k, name = self.config.eval_k, self.config.eval_split
        oracle = {row: _oracle_eval(corpus, name, docs["full"], encoders["full"], k,
                                    flags=self.flags.get(row, (True, True, True)),
                                    pooling=row.removeprefix("pool_") if row.startswith("pool_") else None)
                  for row in self.rows}
        baseline = _oracle_eval(corpus, name, docs["retrieval_only"], encoders["retrieval_only"], k)
        full_ndcg = {qid: v[2][0] for qid, v in oracle["full"].items()}
        base_ndcg = {qid: v[2][0] for qid, v in baseline.items()}
        failures = []
        for i, rec in enumerate(records):
            report = rec["report"]
            if list(report.reports) != list(self.rows):
                failures.append(f"round {i}: rows {list(report.reports)}")
                continue
            for row in self.rows:
                failures += _report_failures(report.reports[row], oracle[row], f"round {i} {row}")
            failures += _wilcoxon_failures(report.significance, full_ndcg, base_ndcg, f"round {i}")
        return failures


WORKLOADS = {w.name: w for w in (Train, Search, Ablate)}
