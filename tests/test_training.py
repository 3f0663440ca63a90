"""Trainer configuration, optimizer semantics, the training loop, and the
end-to-end gradient check."""

import copy
import weakref

import numpy as np
import pytest
from conftest import (
    DescriptorDerived,
    forbid_descriptors,
    small_corpus_config,
    small_encoder_config,
    small_trainer_config,
)

from glint.corpus import generate_corpus
from glint.encoder import Encoder, init_params, zero_grads
from glint.errors import ConfigurationError, TrainingDivergedError
from glint.losses import LossValue
from glint.metrics import ndcg_at_k
from glint.scoring import maxsim, rank
from glint.training import (
    AdamW,
    TrainerConfig,
    TrainSample,
    _backward_batch,
    _dev_ndcg,
    _forward_batch,
    _make_samples,
    _route_retrieval,
    _tiny_batch,
    _tiny_config,
    grad_check_encoder,
    train,
    warmup_lr,
)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(batch_size=1)
        with pytest.raises(ConfigurationError):
            TrainerConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainerConfig(tau=-0.1)
        with pytest.raises(ConfigurationError):
            TrainerConfig(weight_decay=-1e-4)
        nan, inf = float("nan"), float("inf")
        for name, bad in [
            ("learning_rate", nan), ("learning_rate", inf), ("tau", nan), ("tau", inf),
            ("weight_decay", nan), ("weight_decay", inf),
            ("weight_global", -1.0), ("weight_global", nan), ("weight_global", inf),
            ("weight_local", -1.0), ("weight_local", nan), ("weight_local", inf),
        ]:
            with pytest.raises(ConfigurationError, match=name):
                TrainerConfig(**{name: bad})
        TrainerConfig(weight_global=0.0, weight_local=0.0)  # a zero weight switches a loss off
        with pytest.raises(ConfigurationError, match="eval_k"):
            TrainerConfig(eval_k=0)
        with pytest.raises(ConfigurationError, match="early_stop_patience"):
            TrainerConfig(early_stop_patience=-1)

    def test_descriptor_requirements(self):
        assert TrainerConfig().needs_descriptors()
        assert not TrainerConfig(weight_global=0.0, weight_local=0.0).needs_descriptors()
        assert TrainerConfig(weight_local=0.0).needs_descriptors()
        assert TrainerConfig(weight_global=0.0).needs_descriptors()
        assert TrainerConfig(
            weight_global=0.0, weight_local=0.0, cross_context=True
        ).needs_descriptors()


class TestWarmup:
    def test_linear_ramp(self):
        assert warmup_lr(1.0, 0, 100) == 0.01
        assert warmup_lr(1.0, 49, 100) == 0.5
        assert warmup_lr(1.0, 99, 100) == 1.0
        assert warmup_lr(1.0, 500, 100) == 1.0

    def test_disabled_warmup(self):
        assert warmup_lr(0.3, 0, 0) == 0.3


class TestAdamW:
    def test_decay_is_decoupled(self):
        # With zero gradients the update is pure multiplicative shrinkage:
        # the decay term never enters the moment estimates.
        cfg = _tiny_config(0)
        params = init_params(cfg)
        before = {k: v.copy() for k, v in params.items()}
        opt = AdamW(cfg, weight_decay=0.1)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        opt.step(params, grads, lr=0.5)
        for name, arr in params.items():
            np.testing.assert_allclose(arr, before[name] * (1.0 - 0.5 * 0.1), rtol=1e-15)

    def test_zero_decay_zero_grads_is_identity(self):
        cfg = _tiny_config(0)
        params = init_params(cfg)
        before = {k: v.copy() for k, v in params.items()}
        AdamW(cfg, weight_decay=0.0).step(params, grads={k: np.zeros_like(v) for k, v in params.items()}, lr=0.5)
        for name in params:
            np.testing.assert_array_equal(params[name], before[name])

    def test_first_step_moves_against_the_gradient(self):
        cfg = _tiny_config(0)
        params = init_params(cfg)
        before = params["global_token"].copy()
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["global_token"][:] = 1.0
        AdamW(cfg, weight_decay=0.0).step(params, grads, lr=0.01)
        # Bias-corrected first step has magnitude ~lr in every coordinate.
        np.testing.assert_allclose(params["global_token"], before - 0.01, rtol=0, atol=1e-8)


    @pytest.mark.parametrize("seed", range(3))
    def test_step_equals_the_textbook_update_bit_for_bit(self, seed):
        # The in-place step against its one-expression form, over several
        # steps so the moments and bias corrections carry state.
        rng = np.random.default_rng(seed)
        cfg = _tiny_config(seed)
        params = {k: v + rng.normal(size=v.shape) for k, v in init_params(cfg).items()}
        want = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v_ = {k: np.zeros_like(v) for k, v in params.items()}
        opt = AdamW(cfg, weight_decay=0.05)
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 5):
            grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 2) for k, v in params.items()}
            lr = float(rng.uniform(1e-4, 1e-1))
            opt.step(params, grads, lr)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v_[k] = b2 * v_[k] + (1.0 - b2) * (g * g)
                update = (m[k] / bc1) / (np.sqrt(v_[k] / bc2) + eps)
                want[k] -= lr * (update + 0.05 * want[k])
            for k in params:
                assert np.array_equal(params[k], want[k]), k
                assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v_[k]), k


class TestTrainLoop:
    def test_loss_decreases(self, small_corpus):
        result = train(small_corpus, small_encoder_config(), small_trainer_config(epochs=5))
        by_epoch: dict[int, list[float]] = {}
        for rec in result.log.steps:
            by_epoch.setdefault(rec["epoch"], []).append(rec["loss"])
        epochs = sorted(by_epoch)
        assert np.mean(by_epoch[epochs[-1]]) < np.mean(by_epoch[epochs[0]])

    def test_training_is_bit_reproducible(self, small_corpus):
        a = train(small_corpus, small_encoder_config(), small_trainer_config(epochs=2))
        b = train(small_corpus, small_encoder_config(), small_trainer_config(epochs=2))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert a.log.to_json() == b.log.to_json()
        assert a.steps_trained == b.steps_trained

    def test_resume_continues_the_step_counter(self, small_corpus):
        first = train(small_corpus, small_encoder_config(), small_trainer_config(epochs=2))
        resumed = train(
            small_corpus,
            small_encoder_config(),
            small_trainer_config(epochs=1),
            initial_params=first.params,
            start_step=first.steps_trained,
        )
        assert resumed.log.steps[0]["step"] == first.steps_trained
        assert resumed.steps_trained > first.steps_trained

    def test_zero_epochs_returns_initial_params(self, small_corpus):
        ecfg = small_encoder_config()
        result = train(small_corpus, ecfg, small_trainer_config(epochs=0))
        assert result.steps_trained == 0
        assert result.log.best_epoch is None
        fresh = init_params(ecfg)
        for name in fresh:
            np.testing.assert_array_equal(result.params[name], fresh[name])

    def test_missing_dev_split_rejected(self, small_corpus):
        broken = copy.deepcopy(small_corpus)
        del broken.splits["dev"]
        with pytest.raises(ConfigurationError, match="train and dev"):
            train(broken, small_encoder_config(), small_trainer_config())

    def test_descriptor_losses_require_descriptors(self, small_corpus, monkeypatch):
        forbid_descriptors(monkeypatch)
        with pytest.raises(DescriptorDerived):
            train(small_corpus, small_encoder_config(), small_trainer_config())

    def test_retrieval_only_trains_without_descriptors(self, small_corpus, monkeypatch):
        tcfg = small_trainer_config(epochs=1, weight_global=0.0, weight_local=0.0)
        expected = train(small_corpus, small_encoder_config(), tcfg)
        forbid_descriptors(monkeypatch)
        result = train(small_corpus, small_encoder_config(), tcfg)
        assert result.steps_trained == expected.steps_trained > 0
        for name, value in expected.params.items():
            np.testing.assert_array_equal(result.params[name], value)

    def test_divergence_raises_with_diagnostics_and_partial_log(self, small_corpus):
        # Bounded losses cannot overflow on their own; an absurd decay spiral
        # drives the parameters to non-finite territory within a few steps.
        tcfg = small_trainer_config(
            epochs=40, learning_rate=1e30, weight_decay=1.0, warmup_steps=0
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as excinfo:
            train(small_corpus, small_encoder_config(), tcfg)
        err = excinfo.value
        assert err.diagnostics["step"] == len(err.partial_log.steps)
        assert err.partial_log.steps, "steps before the divergence should be preserved"
        assert "loss_components" in err.diagnostics

    def test_no_cache_outlives_its_backward(self, small_corpus, monkeypatch):
        # Every array an encoder forward caches for backward, apart from the
        # output rows and the parameters it reads, is dead when the next
        # batch's forward starts.
        run_stack, forward_batch = Encoder._run_stack, _forward_batch
        cached: list[weakref.ref] = []
        alive_at_forward: list[int] = []

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (dict, list, tuple)):
                for item in obj.values() if isinstance(obj, dict) else obj:
                    yield from arrays(item)

        def recording_run_stack(self, x0, provenance):
            y, cache = run_stack(self, x0, provenance)
            params = {id(v) for v in self.params.values()}
            cached.extend(weakref.ref(a) for a in arrays(cache) if a is not y and id(a) not in params)
            return y, cache

        def checking_forward_batch(*args):
            alive_at_forward.append(sum(ref() is not None for ref in cached))
            return forward_batch(*args)

        monkeypatch.setattr(Encoder, "_run_stack", recording_run_stack)
        monkeypatch.setattr("glint.training._forward_batch", checking_forward_batch)
        result = train(small_corpus, small_encoder_config(), small_trainer_config())
        assert result.steps_trained >= 3 and len(alive_at_forward) == result.steps_trained
        assert len(cached) > 0
        assert alive_at_forward == [0] * result.steps_trained

    def test_log_serializes_to_json(self, small_corpus, tmp_path):
        result = train(small_corpus, small_encoder_config(), small_trainer_config(epochs=1))
        out = tmp_path / "log.json"
        result.log.save(out)
        import json

        parsed = json.loads(out.read_text())
        assert parsed["steps"][0]["step"] == 0
        assert len(parsed["epochs"]) == 1


def _pair_layout(fwd, cross_context):
    """Per-sample document rows, unpadded, and per-pair argmax, read from the
    one document stack; checks that the stack pads each document with copies
    of its own last row."""
    d_rows, argmax = {}, {}
    for j, y in enumerate(fwd.d.out):
        rows = np.vstack([y, fwd.g.out[j][:-1]]) if cross_context else y
        np.testing.assert_array_equal(fwd.doc_stack[j, : len(rows)], rows)
        assert (fwd.doc_stack[j, len(rows) :] == rows[-1]).all()
        d_rows[j] = rows
    for idx, arg in zip(fwd.q.idx, fwd.pair_args):
        for a, i in enumerate(idx):
            for j in d_rows:
                argmax[i, j] = arg[a, j]
    return d_rows, argmax


def _assert_grid_matches_pair_loop(fwd, b, cross_context):
    d_rows, argmax = _pair_layout(fwd, cross_context)
    for i in range(b):
        for j in range(b):
            score, arg = maxsim(fwd.q.out[i], d_rows[j][None])  # the pair scored alone
            assert fwd.scores[i, j] == score[0]
            np.testing.assert_array_equal(argmax[i, j], arg[0])
            assert (argmax[i, j] < len(d_rows[j])).all()


def _mixes_row_counts(fwd, cross_context):
    return len({len(rows) for rows in _pair_layout(fwd, cross_context)[0].values()}) > 1


class TestScoreGrid:
    @pytest.mark.parametrize("cross_context", [False, True])
    def test_tiny_batch_grid_equals_a_per_pair_loop(self, cross_context):
        cfg = _tiny_config(0)
        tcfg = TrainerConfig(tau=0.5, seed=0, cross_context=cross_context)
        batch = _tiny_batch(np.random.default_rng(5), cfg, b=6)
        fwd = _forward_batch(Encoder(cfg, init_params(cfg)), batch, tcfg)
        assert _mixes_row_counts(fwd, cross_context)
        assert any(len(idx) > 1 for idx in fwd.q.idx)  # several queries per stack
        _assert_grid_matches_pair_loop(fwd, 6, cross_context)

    @pytest.mark.parametrize("cross_context", [False, True])
    def test_corpus_batch_grid_equals_a_per_pair_loop(self, small_corpus, cross_context):
        cfg = small_encoder_config()
        qids = small_corpus.splits["train"].query_ids[:8]
        batch = _make_samples(small_corpus, qids, need_desc=True)
        fwd = _forward_batch(Encoder(cfg, init_params(cfg)), batch, small_trainer_config(cross_context=cross_context))
        _assert_grid_matches_pair_loop(fwd, 8, cross_context)


class TestRetrievalRouting:
    @pytest.mark.parametrize("cross_context", [False, True])
    def test_stacked_routing_equals_the_per_pair_loop(self, cross_context):
        cfg = _tiny_config(0)
        tcfg = TrainerConfig(tau=0.5, seed=0, cross_context=cross_context)
        b = 6
        fwd = _forward_batch(Encoder(cfg, init_params(cfg)), _tiny_batch(np.random.default_rng(5), cfg, b=b), tcfg)
        assert _mixes_row_counts(fwd, cross_context)
        assert any(len(idx) > 1 for idx in fwd.q.idx)  # several queries per stack
        w = np.random.default_rng(9).normal(size=(b, b))
        w[0, 1] = w[3, :] = w[:, 4] = 0.0
        # The per-pair loop the stacked routing replaced.
        d_rows, argmax = _pair_layout(fwd, cross_context)
        d_q = [np.zeros_like(y) for y in fwd.q.out]
        d_doc = {j: np.zeros_like(r) for j, r in d_rows.items()}
        for i in range(b):
            for j in range(b):
                if w[i, j] == 0.0:
                    continue
                arg = argmax[i, j]
                d_q[i] += w[i, j] * d_rows[j][arg]
                np.add.at(d_doc[j], arg, w[i, j] * fwd.q.out[i])
        got = _route_retrieval(fwd, w)
        for i in range(b):
            np.testing.assert_allclose(fwd.q.grad[i], d_q[i], rtol=0, atol=1e-12)
        for j in range(b):
            np.testing.assert_allclose(got[j, : len(d_rows[j])], d_doc[j], rtol=0, atol=1e-12)
        assert not d_q[3].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_padded_rows_get_no_gradient(self, seed):
        cfg = _tiny_config(seed)
        tcfg = TrainerConfig(tau=0.5, seed=seed, cross_context=True)
        b = 6
        fwd = _forward_batch(Encoder(cfg, init_params(cfg)), _tiny_batch(np.random.default_rng(seed), cfg, b=b), tcfg)
        d_rows, _ = _pair_layout(fwd, cross_context=True)
        assert _mixes_row_counts(fwd, cross_context=True)
        got = _route_retrieval(fwd, np.ones((b, b)))  # every pair routes
        for j, rows in d_rows.items():
            assert got[j, : len(rows)].any()
            assert not got[j, len(rows) :].any()


class TestDevNdcg:
    def test_equals_the_mean_of_top_k_ndcg_over_dev_queries(self, trained_small, small_corpus):
        split = small_corpus.splits["dev"]
        docs = [trained_small.encode_page(small_corpus.patch_features(pid), pid) for pid in split.page_ids]
        vals = []
        for qid in split.query_ids:
            q = small_corpus.queries[qid]
            top = rank(trained_small.encode_query(q.tokens, qid), docs, 3)
            vals.append(ndcg_at_k(top.doc_ids, set(q.relevant_page_ids), 3))
        assert _dev_ndcg(trained_small, small_corpus, 3) == float(np.mean(vals))

    def test_is_zero_without_dev_queries(self, trained_small, small_corpus):
        tweaked = copy.deepcopy(small_corpus)
        tweaked.splits["dev"].query_ids = []
        assert _dev_ndcg(trained_small, tweaked, 3) == 0.0


def _cosine_global_infonce(gv, gd, tau):
    """The global loss as it was written on cosines: rows normalized inside
    the loss, with the normalization Jacobian chained into the gradients."""
    gv_n = np.linalg.norm(gv, axis=1, keepdims=True)
    gd_n = np.linalg.norm(gd, axis=1, keepdims=True)
    gv_u, gd_u = gv / gv_n, gd / gd_n
    cos = gv_u @ gd_u.T
    logits = cos / tau
    m = logits.max(axis=1, keepdims=True)
    z = np.exp(logits - m).sum(axis=1, keepdims=True)
    b = len(gv)
    value = float(-np.mean(np.diag(logits) - (m + np.log(z)).ravel()))
    dcos = -(np.eye(b) - np.exp(logits - m) / z) / (b * tau)
    row_dots = np.sum(dcos * cos, axis=1, keepdims=True)
    col_dots = np.sum(dcos * cos, axis=0)[:, None]
    return LossValue(value, {
        "visual_globals": (dcos @ gd_u - row_dots * gv_u) / gv_n,
        "descriptor_globals": (dcos.T @ gv_u - col_dots * gd_u) / gd_n,
    })


def _cosine_local_align(patches, desc, tie_tol=1e-9):
    """The local loss as it was written on cosines (see _cosine_global_infonce)."""
    p_n = np.linalg.norm(patches, axis=1, keepdims=True)
    e_n = np.linalg.norm(desc, axis=1, keepdims=True)
    p_u, e_u = patches / p_n, desc / e_n
    cos = p_u @ e_u.T
    best = np.argmax(cos, axis=1)
    c = cos[np.arange(len(patches)), best][:, None]
    top2 = np.sort(cos, axis=1)[:, -2:]
    ties = tuple(int(k) for k in np.nonzero(top2[:, 1] - top2[:, 0] < tie_tol)[0]) if cos.shape[1] > 1 else ()
    d_e = np.zeros_like(desc)
    np.add.at(d_e, best, -(p_u - c * e_u[best]) / e_n[best])
    return LossValue(float(-c.sum()), {"patches": -(e_u[best] - c * p_u) / p_n, "descriptor_tokens": d_e}, ties)


class TestLossesTakeUnitRows:
    def test_one_step_equals_the_cosine_losses(self, small_corpus, monkeypatch):
        # The encoder emits unit rows and projects the radial part out of
        # every row gradient, so normalizing again inside the losses changes
        # the step only by rounding.
        cfg, tcfg = small_encoder_config(), small_trainer_config()
        assert tcfg.weight_global > 0 and tcfg.weight_local > 0
        encoder = Encoder(cfg, init_params(cfg))
        batch = _make_samples(small_corpus, small_corpus.splits["train"].query_ids[: tcfg.batch_size], need_desc=True)

        def step():
            fwd = _forward_batch(encoder, batch, tcfg)
            grads = zero_grads(cfg)
            _backward_batch(encoder, batch, tcfg, fwd, grads)
            return fwd.value, grads

        value, grads = step()
        monkeypatch.setattr("glint.training.global_infonce", _cosine_global_infonce)
        monkeypatch.setattr("glint.training.local_align", _cosine_local_align)
        oracle_value, oracle_grads = step()
        assert value == oracle_value
        for name, g in oracle_grads.items():
            scale = 1.0 if name.endswith("attn_k_b") else float(np.max(np.abs(g)))
            assert np.max(np.abs(grads[name] - g)) <= 1e-12 * scale, name


class TestGradCheck:
    def test_analytic_chain_matches_finite_differences(self):
        report = grad_check_encoder(seed=0)
        assert report.passed, report.worst
        assert report.n_checked + report.n_excluded == 200
        assert report.max_rel_error < 1e-3

    def test_epsilon_range_enforced(self):
        for eps in (1e-7, 1e-2):
            with pytest.raises(ValueError):
                grad_check_encoder(seed=0, epsilon=eps)

    def test_argmax_boundary_coordinates_are_excluded(self):
        # Pin the batch to an argmax tie: interpolate document features
        # between two endpoints whose batch signatures differ and bisect to
        # the boundary. There, parameter nudges flip the argmax and the
        # checker must skip those coordinates rather than compare garbage.
        cfg = _tiny_config(0)
        tcfg = TrainerConfig(tau=0.5, seed=0)
        rng = np.random.default_rng(12)
        feats_a = rng.normal(size=(4, cfg.patch_feature_dim))
        feats_b = rng.normal(size=(4, cfg.patch_feature_dim))
        other = rng.normal(size=(3, cfg.patch_feature_dim))
        enc = Encoder(cfg, init_params(cfg))

        def batch_for(lam: float) -> list[TrainSample]:
            blend = (1.0 - lam) * feats_a + lam * feats_b
            return [
                TrainSample(0, [1, 2, 3], 0, blend, descriptor_tokens=[4, 5]),
                TrainSample(1, [6, 7], 1, other, descriptor_tokens=[8, 9, 10]),
            ]

        def signature(lam: float) -> tuple:
            return _forward_batch(enc, batch_for(lam), tcfg).signature

        start = signature(0.0)
        assert signature(1.0) != start, "endpoints must disagree for a boundary to exist"
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if signature(mid) == start:
                lo = mid
            else:
                hi = mid

        report = grad_check_encoder(seed=0, batch=batch_for(lo))
        assert report.n_excluded > 0
        assert report.passed, report.worst
        assert report.n_checked + report.n_excluded == 200

    @pytest.mark.parametrize(
        "overrides", [{}, {"cross_context": True}], ids=["default", "cross"]
    )
    def test_finite_differences_reach_stacks_of_several_sequences(self, overrides):
        # Six samples over three query, four page and four descriptor
        # lengths: every stream encodes at least one stack with B > 1.
        batch = _tiny_batch(np.random.default_rng(0), _tiny_config(0), b=6)
        for lengths in ([len(s.query_tokens) for s in batch], [len(s.page_features) for s in batch],
                        [len(s.descriptor_tokens) for s in batch]):
            assert len(set(lengths)) < len(lengths)
        tcfg = TrainerConfig(tau=0.5, seed=0, **overrides)
        report = grad_check_encoder(seed=0, batch=batch, trainer_config=tcfg)
        assert report.passed, report.worst
        assert report.n_checked >= 150
