"""Training loop: batched triple encoding, joint loss, manual backprop, AdamW.

Each step encodes a batch of (query, page, descriptor) triples, builds the
in-batch MaxSim score grid, evaluates the losses of nonzero weight, routes
their gradients back through the argmax structure into the encoder, and
applies a decoupled-weight-decay update with linear warmup. Dev nDCG@5 is
evaluated per epoch for early stopping.

The same forward/backward step code powers grad_check_encoder, which verifies
the entire analytic gradient chain against central finite differences.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .atomic import write_atomic
from .corpus import Corpus
from .encoder import Encoder, EncoderConfig, init_params, param_spec, zero_grads
from .errors import ConfigurationError, TrainingDivergedError
from .evaluation import evaluate
from .losses import (
    DEFAULT_TAU,
    FiniteDiffReport,
    LossValue,
    global_infonce,
    local_align,
    retrieval_infonce,
    scale_loss,
)
from .scoring import maxsim, pad_rows


@dataclass
class TrainerConfig:
    """Optimization hyperparameters (the desk-scale profile).

    Retrieval InfoNCE at temperature `tau` is always on; the global and local
    losses run, with the descriptors they need, only when their weight is
    nonzero, so a zero weight is how the ablation variants switch one off.
    """

    batch_size: int = 32
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    warmup_steps: int = 100
    epochs: int = 6
    tau: float = DEFAULT_TAU
    weight_global: float = 1.0
    weight_local: float = 1.0
    early_stop_patience: int = 5
    seed: int = 0
    #: Train with descriptor token rows concatenated to document rows (the
    #: cross-context fine-tuned variant; normally paired with retrieval-only).
    cross_context: bool = False
    eval_k: int = 5

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigurationError(f"batch_size must be >= 2, got {self.batch_size}")
        for name in ("learning_rate", "tau"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails both comparisons
                raise ConfigurationError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("weight_decay", "weight_global", "weight_local"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        if self.warmup_steps < 0 or self.epochs < 0:
            raise ConfigurationError("warmup_steps and epochs must be non-negative")
        if self.eval_k < 1 or self.early_stop_patience < 0:
            raise ConfigurationError("eval_k must be >= 1 and early_stop_patience non-negative")

    def needs_descriptors(self) -> bool:
        return self.weight_global > 0 or self.weight_local > 0 or self.cross_context


@dataclass
class TrainingLog:
    """Per-step loss records and per-epoch dev metrics."""

    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    early_stopped_epoch: int | None = None
    best_epoch: int | None = None
    best_dev_ndcg: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def save(self, path) -> None:
        write_atomic(path, (self.to_json() + "\n").encode("utf-8"))


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    log: TrainingLog
    steps_trained: int


@dataclass
class TrainSample:
    query_id: int
    query_tokens: list[int]
    page_id: int
    page_features: np.ndarray
    descriptor_tokens: list[int] | None = None


class AdamW:
    """Adam with decoupled weight decay, beta=(0.9, 0.999), eps=1e-8."""

    def __init__(self, config: EncoderConfig, weight_decay: float):
        self.m = zero_grads(config)
        self.v = zero_grads(config)
        self.t = 0
        self.weight_decay = weight_decay
        self._order = [name for name, _ in param_spec(config)]

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g, and
        # p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * p), each
        # written into the moments, `update` or `tmp`.
        for name in self._order:
            g, m, v, param = grads[name], self.m[name], self.v[name], params[name]
            tmp = g * (1.0 - b1)
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            update = m / bc1
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            update /= tmp
            np.multiply(param, self.weight_decay, out=tmp)
            update += tmp
            update *= lr
            param -= update


def warmup_lr(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear ramp from 0 to base_lr over warmup_steps (step is 0-based)."""
    if warmup_steps <= 0:
        return base_lr
    return base_lr * min(1.0, (step + 1) / warmup_steps)


# ----- one batch, forward and backward -----


class _Stream:
    """One input stream of a batch (queries, pages or descriptors), encoded as
    one stack per sequence length in order of first appearance.

    Holds, per stack, its batch positions, output rows (B, L + 1, d), backward
    cache and a zeroed d(loss)/d(rows) array. out[i] and grad[i] are sample
    i's rows and gradient, views into its stack's arrays.

    A stream takes exactly one backward, which releases each stack's cache
    as its encoder backward reads it: the caches are most of a batch's
    memory, and none of them lives into the next batch's forward.
    """

    def __init__(self, forward, seqs: list):
        by_len: dict[int, list[int]] = {}
        for i, s in enumerate(seqs):
            by_len.setdefault(len(s), []).append(i)
        self.idx = list(by_len.values())
        self.ys, self.caches, self.grads = [], [], []
        self.out: list[np.ndarray] = [None] * len(seqs)
        self.grad: list[np.ndarray] = [None] * len(seqs)
        for idx in self.idx:
            y, cache = forward(np.stack([seqs[i] for i in idx]))
            d_y = np.zeros_like(y)
            for k, i in enumerate(idx):
                self.out[i], self.grad[i] = y[k], d_y[k]
            self.ys.append(y)
            self.caches.append(cache)
            self.grads.append(d_y)

    def backward(self, encoder: Encoder, grads: dict[str, np.ndarray]) -> None:
        for k, d_y in enumerate(self.grads):
            cache, self.caches[k] = self.caches[k], None
            encoder.backward(cache, d_y, grads)


@dataclass
class _BatchForward:
    """Everything the backward pass and the grad checker need from one batch.

    A forward takes exactly one backward (_backward_batch), which releases
    the encoder caches its streams hold; the rows, scores and loss values
    stay readable. doc_stack holds every document's MaxSim rows, padded by
    pad_rows to the longest, so one maxsim call per query stack scores the
    whole grid.
    """

    q: _Stream
    d: _Stream
    g: _Stream | None  # descriptors, when a loss needs them
    doc_stack: np.ndarray  # (b, R, d) MaxSim document rows (incl. cross-context), padded by pad_rows
    scores: np.ndarray
    pair_args: list[np.ndarray]  # [t]: (n_q, b, L_q) argmax of query stack t vs doc_stack
    parts: dict[str, LossValue | None]
    value: float
    signature: tuple
    local_values: list[LossValue] | None


def _forward_batch(encoder: Encoder, batch: list[TrainSample], cfg: TrainerConfig) -> _BatchForward:
    b = len(batch)
    q = _Stream(encoder.forward_tokens, [s.query_tokens for s in batch])
    d = _Stream(encoder.forward_patches, [s.page_features for s in batch])

    g = None
    if cfg.needs_descriptors():
        g = _Stream(encoder.forward_tokens, [s.descriptor_tokens for s in batch])

    # Every document in one stack, as long as the longest (cross-context rows
    # vary); one MaxSim call per query stack.
    sig_parts = []
    d_rows = [np.vstack([y, g.out[j][:-1]]) for j, y in enumerate(d.out)] if cfg.cross_context else d.out
    doc_stack = np.empty((b, max(len(rows) for rows in d_rows), d_rows[0].shape[1]))
    for dst, rows in zip(doc_stack, d_rows):
        pad_rows(dst, rows)
    scores = np.empty((b, b), dtype=np.float64)
    pair_args = []
    for idx, y in zip(q.idx, q.ys):
        scores[idx], arg = maxsim(y, doc_stack)
        pair_args.append(arg)
        sig_parts.append(arg.tobytes())
    retrieval_part = retrieval_infonce(scores, cfg.tau)

    global_part = None
    if cfg.weight_global > 0:
        gv = np.vstack([y[-1] for y in d.out])
        gd = np.vstack([y[-1] for y in g.out])
        global_part = scale_loss(global_infonce(gv, gd, cfg.tau), cfg.weight_global)

    local_part = None
    local_values = None
    if cfg.weight_local > 0:
        local_values = []
        acc = 0.0
        for i in range(b):
            lv = scale_loss(local_align(d.out[i][:-1], g.out[i][:-1]), cfg.weight_local / b)
            local_values.append(lv)
            acc += lv.value
            sig_parts.append(("local", i) + lv.tie_rows)
        local_part = LossValue(value=acc)  # gradients stay per-sample in local_values

    parts = {"global": global_part, "local": local_part, "retrieval": retrieval_part}
    value = sum(p.value for p in parts.values() if p is not None)
    return _BatchForward(
        q=q, d=d, g=g, doc_stack=doc_stack, scores=scores, pair_args=pair_args,
        parts=parts, value=value, signature=tuple(sig_parts), local_values=local_values,
    )


def _route_retrieval(fwd: _BatchForward, w: np.ndarray) -> np.ndarray:
    """Route d(loss)/d(scores) = w back through the MaxSim argmax.

    Adds d(loss)/d(query rows) into the query stream's gradient arrays and
    returns d(loss)/d(document rows), shaped like the document stack. Each
    query row receives the document rows it matched, weighted by w; each
    matched document row receives the weighted query row. No argmax lands on
    a padded row, so their gradient stays zero. One gather and one
    scatter-add per query stack.
    """
    stack = fwd.doc_stack
    n_d, L_d, dim = stack.shape
    doc = np.arange(n_d)[:, None]
    d_doc = np.zeros_like(stack)
    for idx, y, d_y, arg in zip(fwd.q.idx, fwd.q.ys, fwd.q.grads, fwd.pair_args):
        n_q, L_q = y.shape[:2]
        wq = w[idx]  # (n_q, n_d)
        # The gathered rows die before the scatter allocates its own.
        d_y += (wq[:, None, :] @ stack[doc, arg].reshape(n_q, n_d, L_q * dim)).reshape(n_q, L_q, dim)
        # Scalar positions in the flattened stack: numpy's add.at is several
        # times faster on 1-D indices and values than on rows.
        pos = (((doc * L_d + arg) * dim)[..., None] + np.arange(dim)).ravel()
        np.add.at(d_doc.reshape(-1), pos, (wq[:, :, None, None] * y[:, None]).ravel())
    return d_doc


def _backward_batch(
    encoder: Encoder,
    batch: list[TrainSample],
    cfg: TrainerConfig,
    fwd: _BatchForward,
    grads: dict[str, np.ndarray],
) -> None:
    d_page = fwd.d.grad
    d_doc = _route_retrieval(fwd, fwd.parts["retrieval"].gradients["scores"])
    for j, page in enumerate(d_page):
        page += d_doc[j, : len(page)]
        if cfg.cross_context:
            tokens = fwd.g.grad[j][:-1]
            tokens += d_doc[j, len(page) : len(page) + len(tokens)]

    if cfg.weight_global > 0:
        gpart = fwd.parts["global"]
        for i in range(len(batch)):
            d_page[i][-1] += gpart.gradients["visual_globals"][i]
            fwd.g.grad[i][-1] += gpart.gradients["descriptor_globals"][i]

    if cfg.weight_local > 0:
        for i, lv in enumerate(fwd.local_values):
            d_page[i][:-1] += lv.gradients["patches"]
            fwd.g.grad[i][:-1] += lv.gradients["descriptor_tokens"]

    # One backward per stack, in a fixed order for bit-reproducible accumulation.
    for stream in (fwd.q, fwd.d, fwd.g):
        if stream is not None:
            stream.backward(encoder, grads)


# ----- the training loop -----


def _make_samples(corpus: Corpus, query_ids: list[int], need_desc: bool) -> list[TrainSample]:
    samples = []
    for qid in query_ids:
        q = corpus.queries[qid]
        page_id = q.relevant_page_ids[0]
        samples.append(
            TrainSample(
                query_id=qid,
                query_tokens=q.tokens,
                page_id=page_id,
                page_features=corpus.patch_features(page_id),
                descriptor_tokens=corpus.descriptor(page_id) if need_desc else None,
            )
        )
    return samples


def _dev_ndcg(encoder: Encoder, corpus: Corpus, k: int) -> float:
    """Mean nDCG@k over the dev split (normal scoring, no descriptors)."""
    return evaluate(encoder, corpus, split="dev", k=k).overall["ndcg"]


def train(
    corpus: Corpus,
    encoder_config: EncoderConfig,
    trainer_config: TrainerConfig,
    initial_params: dict[str, np.ndarray] | None = None,
    start_step: int = 0,
) -> TrainResult:
    """Train the encoder on the corpus train split; early-stop on dev nDCG@5.

    Returns the parameters of the best dev epoch (or the initial parameters if
    epochs == 0). Fully deterministic given configs and seeds.
    """
    if "train" not in corpus.splits or "dev" not in corpus.splits:
        raise ConfigurationError("corpus must provide train and dev splits")
    params = (
        {k: v.copy() for k, v in initial_params.items()}
        if initial_params is not None
        else init_params(encoder_config)
    )
    encoder = Encoder(encoder_config, params)
    optimizer = AdamW(encoder_config, trainer_config.weight_decay)
    rng = np.random.default_rng(trainer_config.seed)
    log = TrainingLog()

    train_qids = list(corpus.splits["train"].query_ids)
    if not train_qids:
        raise ConfigurationError("train split has no queries")
    if not any(corpus.queries[qid].relevant_page_ids for qid in corpus.splits["dev"].query_ids):
        raise ConfigurationError("dev split has no scorable queries, so early stopping has no dev nDCG")
    samples = _make_samples(corpus, train_qids, trainer_config.needs_descriptors())

    best_ndcg = -np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    best_epoch = None
    stale = 0
    step = start_step

    for epoch in range(trainer_config.epochs):
        order = rng.permutation(len(samples))
        for lo in range(0, len(samples), trainer_config.batch_size):
            batch = [samples[i] for i in order[lo : lo + trainer_config.batch_size]]
            if len(batch) < 2:
                continue  # a singleton batch has no in-batch negatives
            fwd = _forward_batch(encoder, batch, trainer_config)
            if not np.isfinite(fwd.value):
                diag = {
                    "step": step,
                    "epoch": epoch,
                    "loss_components": {
                        k: (None if v is None else v.value) for k, v in fwd.parts.items()
                    },
                    "max_abs_param": max(float(np.max(np.abs(v))) for v in params.values()),
                    "batch_query_ids": [s.query_id for s in batch],
                }
                raise TrainingDivergedError(f"non-finite loss at step {step}", diag, log)
            grads = zero_grads(encoder_config)
            _backward_batch(encoder, batch, trainer_config, fwd, grads)
            lr = warmup_lr(trainer_config.learning_rate, step, trainer_config.warmup_steps)
            optimizer.step(params, grads, lr)
            log.steps.append(
                {
                    "step": step,
                    "epoch": epoch,
                    "lr": lr,
                    "loss": fwd.value,
                    "loss_global": None if fwd.parts["global"] is None else fwd.parts["global"].value,
                    "loss_local": None if fwd.parts["local"] is None else fwd.parts["local"].value,
                    "loss_retrieval": fwd.parts["retrieval"].value,
                }
            )
            step += 1

        dev = _dev_ndcg(encoder, corpus, trainer_config.eval_k)
        improved = dev > best_ndcg + 1e-12
        log.epochs.append({"epoch": epoch, "dev_ndcg": dev, "improved": improved})
        if improved:
            best_ndcg = dev
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if trainer_config.early_stop_patience and stale >= trainer_config.early_stop_patience:
                log.early_stopped_epoch = epoch
                break

    log.best_epoch = best_epoch
    log.best_dev_ndcg = None if best_epoch is None else float(best_ndcg)
    return TrainResult(params=best_params, log=log, steps_trained=step)


# ----- end-to-end gradient verification -----


def _tiny_config(seed: int) -> EncoderConfig:
    return EncoderConfig(
        model_dim=12,
        retrieval_dim=6,
        layers=1,
        heads=2,
        vocab_size=40,
        max_seq=12,
        patch_feature_dim=9,
        ff_dim=24,
        seed=seed,
    )


def _tiny_batch(rng: np.random.Generator, config: EncoderConfig, b: int = 2) -> list[TrainSample]:
    samples = []
    for i in range(b):
        q_len = int(rng.integers(2, 5))
        d_len = int(rng.integers(3, 7))
        g_len = int(rng.integers(2, 6))
        samples.append(
            TrainSample(
                query_id=i,
                query_tokens=rng.integers(0, config.vocab_size, size=q_len).tolist(),
                page_id=i,
                page_features=rng.normal(0.0, 1.0, size=(d_len, config.patch_feature_dim)),
                descriptor_tokens=rng.integers(0, config.vocab_size, size=g_len).tolist(),
            )
        )
    return samples


def grad_check_encoder(
    seed: int = 0,
    epsilon: float = 1e-5,
    n_coords: int = 200,
    tolerance: float = 1e-3,
    trainer_config: TrainerConfig | None = None,
    batch: list[TrainSample] | None = None,
) -> FiniteDiffReport:
    """Verify the full analytic gradient chain on a tiny random batch.

    Compares backprop against central differences for a random subset of at
    least `n_coords` parameter coordinates. A coordinate is excluded (and
    counted) when the two perturbed evaluations disagree on any argmax
    structure: the loss is only subdifferentiable across such a boundary.
    A hand-built `batch` (sized for the tiny config) can replace the random
    one, e.g. to place the check at an engineered argmax tie.
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ValueError(f"grad_check_encoder: epsilon {epsilon} outside [1e-6, 1e-3]")
    config = _tiny_config(seed)
    tcfg = trainer_config or TrainerConfig(tau=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    if batch is None:
        batch = _tiny_batch(rng, config)

    params = init_params(config)
    encoder = Encoder(config, params)
    fwd = _forward_batch(encoder, batch, tcfg)
    grads = zero_grads(config)
    _backward_batch(encoder, batch, tcfg, fwd, grads)

    coords: list[tuple[str, tuple]] = []
    for name, shape in param_spec(config):
        for idx in np.ndindex(shape):
            coords.append((name, idx))
    take = min(n_coords, len(coords))
    chosen = rng.choice(len(coords), size=take, replace=False)

    def value_and_sig(p: dict[str, np.ndarray]) -> tuple[float, tuple]:
        f = _forward_batch(Encoder(config, p), batch, tcfg)
        return f.value, f.signature

    max_rel = 0.0
    worst = None
    n_checked = 0
    n_excluded = 0
    work = copy.deepcopy(params)
    for ci in chosen:
        name, idx = coords[int(ci)]
        orig = work[name][idx]
        work[name][idx] = orig + epsilon
        f_plus, sig_plus = value_and_sig(work)
        work[name][idx] = orig - epsilon
        f_minus, sig_minus = value_and_sig(work)
        work[name][idx] = orig
        if sig_plus != sig_minus:
            n_excluded += 1
            continue
        numeric = (f_plus - f_minus) / (2 * epsilon)
        analytic = float(grads[name][idx])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        n_checked += 1
        if rel > max_rel:
            max_rel = rel
            worst = (name, idx, analytic, numeric)
    return FiniteDiffReport(
        max_rel_error=max_rel,
        n_checked=n_checked,
        n_excluded=n_excluded,
        tolerance=tolerance,
        passed=max_rel < tolerance,
        worst=worst,
    )
