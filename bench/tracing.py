"""Spans around the calls into glint's public functions, recorded from outside.

Tracer.install() replaces each traced function with a timing wrapper: on its
class for methods, and for module functions in every loaded glint module
that bound the original with `from .x import f`. uninstall() puts the
originals back. Spans stay in memory as (name, start, end, parent) tuples;
self time is a span's duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute path, span name). Only public entry points are wrapped;
# config, cli, embeddings and errors only parse, hold or raise.
TARGETS = (
    ("glint.corpus", "generate_corpus", "corpus.generate"),
    ("glint.corpus", "load_corpus", "corpus.load"),
    ("glint.encoder", "Encoder.forward_patches", "encoder.forward_patches"),
    ("glint.encoder", "Encoder.forward_tokens", "encoder.forward_tokens"),
    ("glint.encoder", "Encoder.backward", "encoder.backward"),
    ("glint.encoder", "Encoder.encode_page", "encoder.encode_page"),
    ("glint.encoder", "Encoder.encode_query", "encoder.encode_query"),
    ("glint.encoder", "save_checkpoint", "encoder.save_checkpoint"),
    ("glint.encoder", "load_checkpoint", "encoder.load_checkpoint"),
    ("glint.training", "train", "training.train"),
    ("glint.training", "AdamW.step", "training.adamw"),
    ("glint.losses", "retrieval_infonce", "losses.retrieval_infonce"),
    ("glint.losses", "global_infonce", "losses.global_infonce"),
    ("glint.losses", "local_align", "losses.local_align"),
    ("glint.scoring", "rank", "scoring.rank"),
    ("glint.scoring", "pool_patches", "scoring.pool_patches"),
    ("glint.index_store", "write_index", "index_store.write"),
    ("glint.index_store", "read_index", "index_store.read"),
    ("glint.evaluation", "encode_split_docs", "evaluation.encode_split_docs"),
    ("glint.evaluation", "evaluate", "evaluation.evaluate"),
    ("glint.metrics", "ndcg_at_k", "metrics.ndcg"),
    ("glint.metrics", "map_at_k", "metrics.map"),
    ("glint.metrics", "wilcoxon_signed_rank", "metrics.wilcoxon"),
    ("glint.pipeline", "run_gen", "pipeline.run_gen"),
    ("glint.pipeline", "run_train", "pipeline.run_train"),
    ("glint.pipeline", "run_index", "pipeline.run_index"),
    ("glint.pipeline", "run_eval", "pipeline.run_eval"),
    ("glint.pipeline", "run_ablate", "pipeline.run_ablate"),
)


class _RankWork:
    """(document rows scored, float64 bytes read) of one rank() call,
    computed from its input shapes: every active query and document row is
    read once. Callers rank many queries against one document list, so the
    row count of the last list is kept (with the list itself, so the
    identity test cannot match a new list at a reused address)."""

    def __init__(self):
        self._index, self._flags, self._rows = None, None, 0

    def __call__(self, args, kwargs) -> tuple[int, int]:
        q, index = args[0], args[1]
        flags = kwargs.get("flags", args[3] if len(args) > 3 else None)
        use_patches = flags is None or flags.use_patches
        use_doc_global = flags is None or flags.use_doc_global
        if index is not self._index or flags != self._flags:
            self._index, self._flags = index, flags
            self._rows = sum((d.patches.shape[0] if use_patches else 0) + use_doc_global for d in index)
        q_rows = q.tokens.shape[0] + (flags is None or flags.use_query_global)
        return self._rows, (self._rows + q_rows) * q.tokens.shape[1] * 8


def _retrieval_batch(args, kwargs) -> tuple[int]:
    """Training samples in one step: retrieval_infonce takes the (b, b) grid."""
    return (int(args[0].shape[0]),)


def _path_bytes(args, kwargs) -> tuple[int]:
    """Size of the file written (write_index(docs, path)) or read (read_index(path))."""
    return (os.path.getsize(args[-1]),)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # Counters computed at a boundary from a successful call's arguments:
        # (span, counter names, function returning one value per name).
        self._counters = (
            ("scoring.rank", ("scoring.rank.doc_rows", "scoring.rank.bytes"), _RankWork()),
            ("losses.retrieval_infonce", ("training.samples",), _retrieval_batch),
            ("index_store.write", ("index_store.bytes",), _path_bytes),
            ("index_store.read", ("index_store.bytes",), _path_bytes),
        )

    # ----- recording -----

    def _wrap(self, span: str, fn):
        counters = [(names, f) for s, names, f in self._counters if s == span]
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append((span, time.perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = spans[idx][:2] + (time.perf_counter(),) + spans[idx][3:]
            for names, f in counters:
                for name, value in zip(names, f(args, kwargs)):
                    counts[name] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "glint" or n.startswith("glint."))]
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # ----- aggregation -----

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (children subtracted)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += (end - start) * 1e3
            agg["self_ms"] += (end - start - child[i]) * 1e3
        return out

    def span_records(self) -> list[list]:
        return [[name, start, end, parent] for name, start, end, parent in self.spans]
