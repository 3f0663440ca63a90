"""Encoder shapes, weight sharing, determinism, and checkpoint integrity."""

import re
import struct

import numpy as np
import pytest
from conftest import MALFORMED_CHECKPOINT_HEADERS, write_malformed_checkpoint

from glint.encoder import (
    _GELU_C0,
    _GELU_C1,
    _LN_EPS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Encoder,
    EncoderConfig,
    init_params,
    load_checkpoint,
    param_spec,
    _gelu_backward,
    _gelu_forward,
    _gelu_output,
    _ln_backward,
    _ln_forward,
    _ln_output,
    save_checkpoint,
    zero_grads,
)
from glint.errors import ConfigurationError, IntegrityError


def _cfg(**overrides) -> EncoderConfig:
    base = dict(
        model_dim=12,
        retrieval_dim=6,
        layers=1,
        heads=2,
        vocab_size=40,
        max_seq=12,
        patch_feature_dim=9,
        seed=0,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def _features(rng, rows, cfg):
    return rng.normal(size=(rows, cfg.patch_feature_dim))


class TestConfig:
    def test_ff_dim_defaults_to_four_times_model_dim(self):
        assert _cfg().ff_dim == 48
        assert _cfg(ff_dim=20).ff_dim == 20

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            _cfg(model_dim=10, heads=4)

    def test_retrieval_dim_bounded_by_model_dim(self):
        with pytest.raises(ConfigurationError):
            _cfg(retrieval_dim=13)

    def test_positive_integers_enforced(self):
        with pytest.raises(ConfigurationError):
            _cfg(layers=0)
        with pytest.raises(ConfigurationError):
            _cfg(vocab_size=-5)


class TestParams:
    def test_spec_order_starts_with_input_tables(self):
        names = [name for name, _ in param_spec(_cfg())]
        assert names[:5] == ["tok_emb", "patch_proj_w", "patch_proj_b", "pos_emb", "global_token"]
        assert names[-2:] == ["head_w", "head_b"]

    def test_init_is_seeded_and_structured(self):
        cfg = _cfg()
        a = init_params(cfg)
        b = init_params(cfg)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert np.all(a["layer0.ln1_g"] == 1.0)
        assert np.all(a["layer0.attn_q_b"] == 0.0)
        c = init_params(_cfg(seed=1))
        assert not np.array_equal(a["tok_emb"], c["tok_emb"])

    def test_missing_or_misshapen_params_rejected(self):
        cfg = _cfg()
        params = init_params(cfg)
        partial = {k: v for k, v in params.items() if k != "head_w"}
        with pytest.raises(ConfigurationError):
            Encoder(cfg, partial)
        bad = dict(params)
        bad["head_w"] = np.zeros((3, 3))
        with pytest.raises(ConfigurationError):
            Encoder(cfg, bad)

    def test_separate_text_global_adds_a_parameter(self):
        names = [name for name, _ in param_spec(_cfg(share_global_token=False))]
        assert "global_token_text" in names
        assert "global_token_text" not in [n for n, _ in param_spec(_cfg())]


class TestEncodeShapes:
    def test_page_embedding_shapes_and_norms(self):
        rng = np.random.default_rng(0)
        cfg = _cfg()
        enc = Encoder.initialize(cfg)
        emb = enc.encode_page(_features(rng, 5, cfg), page_id=7)
        assert emb.patches.shape == (5, cfg.retrieval_dim)
        assert emb.global_vec.shape == (cfg.retrieval_dim,)
        assert emb.page_id == 7
        np.testing.assert_allclose(np.linalg.norm(emb.patches, axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(emb.global_vec), 1.0, rtol=0, atol=1e-12)

    def test_query_embedding_shapes_and_norms(self):
        enc = Encoder.initialize(_cfg())
        emb = enc.encode_query([3, 1, 8], query_id="q0")
        assert emb.tokens.shape == (3, 6)
        assert emb.query_id == "q0"
        np.testing.assert_allclose(np.linalg.norm(emb.tokens, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_encoding_is_deterministic(self):
        rng = np.random.default_rng(1)
        cfg = _cfg()
        feats = _features(rng, 4, cfg)
        a = Encoder.initialize(cfg).encode_page(feats, 0)
        b = Encoder.initialize(cfg).encode_page(feats, 0)
        np.testing.assert_array_equal(a.patches, b.patches)
        np.testing.assert_array_equal(a.global_vec, b.global_vec)

    def test_patch_order_changes_the_global_row(self):
        # Position embeddings make the sequence order observable.
        rng = np.random.default_rng(2)
        cfg = _cfg()
        enc = Encoder.initialize(cfg)
        feats = _features(rng, 4, cfg)
        fwd = enc.encode_page(feats, 0)
        rev = enc.encode_page(feats[::-1], 0)
        assert not np.allclose(fwd.global_vec, rev.global_vec, atol=1e-6)

    def test_sequence_length_capped(self):
        cfg = _cfg()
        enc = Encoder.initialize(cfg)
        enc.encode_query(list(range(cfg.max_seq - 1)), query_id="fits")
        with pytest.raises(ConfigurationError):
            enc.encode_query(list(range(cfg.max_seq)), query_id="overflows")

    def test_unknown_token_ids_rejected(self):
        enc = Encoder.initialize(_cfg())
        with pytest.raises(ValueError):
            enc.encode_query([0, 40], query_id="q")
        with pytest.raises(ValueError):
            enc.encode_query([-1], query_id="q")
        with pytest.raises(ValueError):
            enc.encode_query([], query_id="q")

    def test_patch_feature_width_checked(self):
        enc = Encoder.initialize(_cfg())
        with pytest.raises(ConfigurationError):
            enc.encode_page(np.zeros((3, 8)), page_id=0)


class TestStackedEncoding:
    """A (B, ...) stack runs every sequence through the same per-slice
    arithmetic as encoding it alone, and its backward is the sum of the
    per-sequence backwards."""

    def test_stacked_patches_equal_one_sequence_bit_for_bit(self):
        rng = np.random.default_rng(6)
        cfg = _cfg()
        enc = Encoder.initialize(cfg)
        feats = rng.normal(size=(5, 4, cfg.patch_feature_dim))
        stacked, _ = enc.forward_patches(feats)
        assert stacked.shape == (5, 5, cfg.retrieval_dim)
        for k in range(5):
            alone, _ = enc.forward_patches(feats[k])
            np.testing.assert_array_equal(stacked[k], alone)

    @pytest.mark.parametrize("share", [True, False])
    def test_stacked_tokens_equal_one_sequence_bit_for_bit(self, share):
        # share=False runs the text stream on its own global_token_text.
        rng = np.random.default_rng(7)
        cfg = _cfg(share_global_token=share)
        enc = Encoder.initialize(cfg)
        ids = rng.integers(0, cfg.vocab_size, size=(6, 3))
        stacked, _ = enc.forward_tokens(ids)
        assert stacked.shape == (6, 4, cfg.retrieval_dim)
        for k in range(6):
            alone, _ = enc.forward_tokens(ids[k].tolist())
            np.testing.assert_array_equal(stacked[k], alone)
            emb = enc.encode_query(ids[k].tolist(), query_id=k)
            np.testing.assert_array_equal(emb.tokens, stacked[k, :-1])
            np.testing.assert_array_equal(emb.global_vec, stacked[k, -1])

    @pytest.mark.parametrize("kind", ["patches", "tokens"])
    def test_stacked_backward_is_the_sum_of_per_sequence_backwards(self, kind):
        rng = np.random.default_rng(8)
        cfg = _cfg(share_global_token=False)
        enc = Encoder.initialize(cfg)
        if kind == "patches":
            inputs, forward = rng.normal(size=(4, 5, cfg.patch_feature_dim)), enc.forward_patches
        else:
            # Repeated ids exercise the scatter-add into tok_emb.
            inputs, forward = rng.integers(0, 8, size=(4, 5)), enc.forward_tokens
        y, cache = forward(inputs)
        d_y = rng.normal(size=y.shape)
        stacked = zero_grads(cfg)
        enc.backward(cache, d_y, stacked)
        summed = zero_grads(cfg)
        for k in range(4):
            _, c = forward(inputs[k])
            enc.backward(c, d_y[k], summed)
        assert np.abs(summed["head_w"]).max() > 0
        for name, ref in summed.items():
            diff = np.abs(stacked[name] - ref).max()
            if name.endswith("attn_k_b"):
                # Softmax ignores a shift shared by every key: analytically zero.
                assert np.abs(ref).max() < 1e-14 and np.abs(stacked[name]).max() < 1e-14, name
            else:
                assert diff <= 1e-12 * np.abs(ref).max(), (name, diff)

    def test_backward_consumes_the_layer_caches(self):
        enc = Encoder.initialize(_cfg())
        y, cache = enc.forward_tokens(np.arange(5))
        enc.backward(cache, np.ones_like(y), zero_grads(enc.config))
        assert cache["layers"] == []

    def test_rows_at_max_seq_encode_and_one_more_is_refused(self):
        cfg = _cfg()
        enc = Encoder.initialize(cfg)
        fits = cfg.max_seq - 1  # content rows; the global row makes max_seq
        assert enc.forward_tokens(list(range(fits)))[0].shape[0] == cfg.max_seq
        assert enc.forward_tokens(np.zeros((3, fits), dtype=int))[0].shape[1] == cfg.max_seq
        assert enc.forward_patches(np.zeros((fits, 9)))[0].shape[0] == cfg.max_seq
        assert enc.forward_patches(np.zeros((3, fits, 9)))[0].shape[1] == cfg.max_seq
        for too_long in (
            lambda: enc.forward_tokens(list(range(fits + 1))),
            lambda: enc.forward_tokens(np.zeros((3, fits + 1), dtype=int)),
            lambda: enc.forward_patches(np.zeros((fits + 1, 9))),
            lambda: enc.forward_patches(np.zeros((3, fits + 1, 9))),
        ):
            with pytest.raises(ConfigurationError, match="max_seq"):
                too_long()

    def test_ragged_empty_and_unknown_token_stacks_rejected(self):
        enc = Encoder.initialize(_cfg())
        for bad in ([[1, 2], [3]], [[]], np.zeros((0, 3), dtype=int), np.zeros((2, 0), dtype=int), []):
            with pytest.raises(ValueError, match="token sequence must be a nonempty"):
                enc.forward_tokens(bad)
        with pytest.raises(ValueError, match=r"unknown token id\(s\) \[40\]"):
            enc.forward_tokens([[1, 2], [3, 40]])
        with pytest.raises(ConfigurationError):
            enc.forward_patches(np.zeros((0, 3, 9)))


class TestGlobalTokenSharing:
    def test_text_global_is_independent_when_unshared(self):
        rng = np.random.default_rng(3)
        cfg = _cfg(share_global_token=False)
        enc = Encoder.initialize(cfg)
        feats = _features(rng, 3, cfg)
        page_before = enc.encode_page(feats, 0)
        query_before = enc.encode_query([1, 2], query_id="q")
        # A non-uniform bump: layer norm makes constant shifts invisible.
        bump = np.zeros(cfg.model_dim)
        bump[0] = 0.2
        enc.params["global_token_text"] = enc.params["global_token_text"] + bump
        page_after = enc.encode_page(feats, 0)
        query_after = enc.encode_query([1, 2], query_id="q")
        np.testing.assert_array_equal(page_after.patches, page_before.patches)
        np.testing.assert_array_equal(page_after.global_vec, page_before.global_vec)
        assert not np.allclose(query_after.global_vec, query_before.global_vec, atol=1e-9)

    def test_shared_global_couples_both_streams(self):
        rng = np.random.default_rng(4)
        cfg = _cfg()
        enc = Encoder.initialize(cfg)
        feats = _features(rng, 3, cfg)
        page_before = enc.encode_page(feats, 0)
        bump = np.zeros(cfg.model_dim)
        bump[0] = 0.2
        enc.params["global_token"] = enc.params["global_token"] + bump
        page_after = enc.encode_page(feats, 0)
        assert not np.allclose(page_after.global_vec, page_before.global_vec, atol=1e-9)


class TestCheckpoints:
    def test_round_trip_quantizes_to_float32(self, tmp_path):
        cfg = _cfg()
        params = init_params(cfg)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, cfg, params, steps_trained=17)
        loaded_cfg, loaded, steps = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert steps == 17
        for name in params:
            expected = params[name].astype("<f4").astype(np.float64)
            np.testing.assert_array_equal(loaded[name], expected)

    def test_second_save_is_byte_identical(self, tmp_path):
        cfg = _cfg()
        params = init_params(cfg)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, cfg, params, steps_trained=5)
        save_checkpoint(p2, cfg, params, steps_trained=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, _cfg(), init_params(_cfg()))
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(IntegrityError, match="not a"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, _cfg(), init_params(_cfg()))
        blob = path.read_bytes()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 99) + blob[8:])
        with pytest.raises(IntegrityError, match="version"):
            load_checkpoint(path)

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, _cfg(), init_params(_cfg()))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_payload_detected(self, tmp_path):
        # Re-sign a cut payload so the CRC passes and the structural check fires.
        import zlib

        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, _cfg(), init_params(_cfg()))
        blob = path.read_bytes()
        payload = blob[8:-4]
        cut = payload[: len(payload) - 10]
        path.write_bytes(blob[:8] + cut + struct.pack("<I", zlib.crc32(cut) & 0xFFFFFFFF))
        with pytest.raises(IntegrityError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path):
        import zlib

        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, _cfg(), init_params(_cfg()))
        blob = path.read_bytes()
        padded = blob[8:-4] + b"\x00\x00\x00\x00"
        path.write_bytes(blob[:8] + padded + struct.pack("<I", zlib.crc32(padded) & 0xFFFFFFFF))
        with pytest.raises(IntegrityError, match="trailing"):
            load_checkpoint(path)

    def test_file_of_magic_version_and_crc_alone_is_an_integrity_error(self, tmp_path):
        # The CRC of an empty payload is 0, so the checksum passes; the header
        # length the payload must start with is missing.
        path = tmp_path / "tiny.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 0))
        with pytest.raises(IntegrityError, match=re.escape(f"{path}: checkpoint truncated to 12 bytes")):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", MALFORMED_CHECKPOINT_HEADERS)
    def test_malformed_steps_trained_is_an_integrity_error(self, tmp_path, edit):
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        save_checkpoint(good, _cfg(), init_params(_cfg()), steps_trained=4)
        write_malformed_checkpoint(good, bad, edit)
        with pytest.raises(IntegrityError, match=re.escape(f"{bad}: malformed checkpoint header")):
            load_checkpoint(bad)

    def test_misshapen_param_refused_at_save(self, tmp_path):
        cfg = _cfg()
        params = init_params(cfg)
        params["head_b"] = np.zeros(3)
        with pytest.raises(ConfigurationError):
            save_checkpoint(tmp_path / "enc.ckpt", cfg, params)

    def test_loaded_params_drive_the_encoder(self, tmp_path):
        rng = np.random.default_rng(5)
        cfg = _cfg()
        enc = Encoder.initialize(cfg)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, cfg, enc.params)
        loaded_cfg, loaded_params, _ = load_checkpoint(path)
        reloaded = Encoder(loaded_cfg, loaded_params)
        feats = _features(rng, 4, cfg)
        a = enc.encode_page(feats, 0)
        b = reloaded.encode_page(feats, 0)
        # float32 quantization moves rows a little, but not far.
        np.testing.assert_allclose(b.patches, a.patches, rtol=0, atol=1e-5)


# ----- kernels against their one-expression textbook forms -----


def _ln_forward_textbook(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g, b)


def _ln_backward_textbook(dout, cache):
    xhat, inv, g, _ = cache
    xhat, inv = xhat.reshape(-1, xhat.shape[-1]), inv.reshape(-1, 1)
    dg = (dout * xhat).sum(axis=0)
    db = dout.sum(axis=0)
    dxhat = dout * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _gelu_forward_textbook(u):
    t = np.tanh(_GELU_C0 * (u + _GELU_C1 * (u * u * u)))
    return 0.5 * u * (1.0 + t), t


def _gelu_backward_textbook(da, u, t):
    dtanh_du = (1.0 - t * t) * _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * u * u)
    return da * (0.5 * (1.0 + t) + 0.5 * u * dtanh_du)


_STACKS = [(1, 9), (1, 17), (32, 17)]


class TestKernelsEqualTextbookForms:
    """The in-place kernels keep every bit of the expressions they replace,
    and backward rebuilds the outputs it does not cache to the forward's bits."""

    @pytest.mark.parametrize("B, n", _STACKS)
    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm_forward_and_backward(self, B, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(B, n, 64)) * rng.uniform(0.1, 10.0)
        g, b = rng.normal(size=64), rng.normal(size=64)
        out, cache = _ln_forward(x.copy(), g, b)
        want, want_cache = _ln_forward_textbook(x, g, b)
        assert np.array_equal(out, want)
        for got, ref in zip(cache, want_cache):
            assert np.array_equal(got, ref)
        assert np.array_equal(_ln_output(cache), out)
        dout = rng.normal(size=(B * n, 64))
        for got, ref in zip(_ln_backward(dout, cache), _ln_backward_textbook(dout, want_cache)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("B, n", _STACKS)
    @pytest.mark.parametrize("seed", range(5))
    def test_gelu_forward_and_backward(self, B, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(B, n, 256)) * 3.0
        a, t = _gelu_forward(u)
        want_a, want_t = _gelu_forward_textbook(u)
        assert np.array_equal(a, want_a) and np.array_equal(t, want_t)
        rows, da = u.reshape(-1, 256), rng.normal(size=(B * n, 256))
        t_rows = t.reshape(-1, 256)
        assert np.array_equal(_gelu_output(u, t), a)
        assert np.array_equal(_gelu_output(rows, t_rows), a.reshape(-1, 256))  # as backward rebuilds it
        assert np.array_equal(_gelu_backward(da, rows, t_rows), _gelu_backward_textbook(da, rows, t_rows))

    def test_kernels_leave_their_inputs_alone(self):
        rng = np.random.default_rng(0)
        x, g, b = rng.normal(size=(4, 5, 64)), rng.normal(size=64), rng.normal(size=64)
        u, dout, da = rng.normal(size=(20, 256)), rng.normal(size=(20, 64)), rng.normal(size=(20, 256))
        before = [a.copy() for a in (x, g, b, u, dout, da)]
        _, cache = _ln_forward(x, g, b)
        xhat, inv = cache[0].copy(), cache[1].copy()
        _ln_backward(dout, cache)
        _ln_output(cache)
        _, t = _gelu_forward(u)
        t_before = t.copy()
        _gelu_backward(da, u, t)
        _gelu_output(u, t)
        for got, ref in zip((x, g, b, u, dout, da), before):
            assert np.array_equal(got, ref)
        assert np.array_equal(cache[0], xhat) and np.array_equal(cache[1], inv) and np.array_equal(t, t_before)
