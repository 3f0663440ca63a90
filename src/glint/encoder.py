"""A small transformer encoder with hand-derived backpropagation.

One encoder backbone serves two input kinds: page patches (projected feature
rows) and tokens (embedding lookups), which carry both queries and layout
descriptors. Every input gets the shared trainable global token appended as
its final position, is contextualized by pre-norm self-attention layers,
projected to the retrieval dimension, and row-normalized.

Every forward runs on a stack of B equal-length sequences: `forward_tokens`
takes one token sequence or a (B, L) id array, `forward_patches` one (P, F)
feature matrix or a (B, P, F) stack, and a single sequence is the stack with
B = 1. Each sequence's matmuls run as their own slices of numpy's stacked
matmul, so a sequence encodes to the same bits alone or in any stack; the
training step groups each stream of a batch by length and encodes one stack
per length. `backward` takes the stack's output gradient and forms each
weight gradient in one GEMM over all B * (L + 1) rows.

Gradients are computed analytically (no autograd); the training module's
gradient checker verifies them end-to-end against central finite differences.

The kernels write into their own buffers (`out=`, `+=`) instead of
allocating a temporary per operator. The in-place rule: the same ufuncs run
in the same order on the same operands as the one-expression textbook form,
only the destinations change, so every row and gradient keeps its bits.
Swapping the operands of one `+` or `*` is allowed (IEEE addition and
multiplication commute); regrouping is not. `mean` and `np.linalg.norm`
become the `np.add.reduce` they call inside. The tests hold each kernel to
its textbook form with `np.array_equal`.

Checkpoints are a versioned binary format: magic "GDFT", format version, a
JSON header with the encoder config, the parameter tensors in declaration
order as little-endian float32, and a trailing CRC32 of the payload.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .embeddings import DocumentEmbedding, QueryEmbedding
from .errors import ConfigurationError, IntegrityError

CHECKPOINT_MAGIC = b"GDFT"
CHECKPOINT_VERSION = 1

_LN_EPS = 1e-5
_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715


@dataclass
class EncoderConfig:
    """Architecture hyperparameters; defaults are the desk-scale profile."""

    model_dim: int = 64
    retrieval_dim: int = 32
    layers: int = 2
    heads: int = 4
    vocab_size: int = 2048
    max_seq: int = 64
    patch_feature_dim: int = 71
    ff_dim: int | None = None
    seed: int = 0
    share_global_token: bool = True

    def __post_init__(self):
        if self.ff_dim is None:
            self.ff_dim = 4 * self.model_dim
        counts = {
            "model_dim": self.model_dim,
            "retrieval_dim": self.retrieval_dim,
            "layers": self.layers,
            "heads": self.heads,
            "vocab_size": self.vocab_size,
            "max_seq": self.max_seq,
            "patch_feature_dim": self.patch_feature_dim,
            "ff_dim": self.ff_dim,
        }
        for name, value in counts.items():
            if int(value) != value or value < 1:
                raise ConfigurationError(f"EncoderConfig.{name} must be a positive integer, got {value}")
        if self.model_dim % self.heads != 0:
            raise ConfigurationError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )
        if self.retrieval_dim > self.model_dim:
            raise ConfigurationError(
                f"retrieval_dim {self.retrieval_dim} exceeds model_dim {self.model_dim}"
            )


def param_spec(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) declaration order; fixes init, checkpoint, and
    optimizer iteration order."""
    m, d, ff = config.model_dim, config.retrieval_dim, config.ff_dim
    spec: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (config.vocab_size, m)),
        ("patch_proj_w", (config.patch_feature_dim, m)),
        ("patch_proj_b", (m,)),
        ("pos_emb", (config.max_seq, m)),
        ("global_token", (m,)),
    ]
    if not config.share_global_token:
        spec.append(("global_token_text", (m,)))
    for i in range(config.layers):
        p = f"layer{i}."
        spec.extend(
            [
                (p + "ln1_g", (m,)),
                (p + "ln1_b", (m,)),
                (p + "attn_q_w", (m, m)),
                (p + "attn_q_b", (m,)),
                (p + "attn_k_w", (m, m)),
                (p + "attn_k_b", (m,)),
                (p + "attn_v_w", (m, m)),
                (p + "attn_v_b", (m,)),
                (p + "attn_o_w", (m, m)),
                (p + "attn_o_b", (m,)),
                (p + "ln2_g", (m,)),
                (p + "ln2_b", (m,)),
                (p + "ff_w1", (m, ff)),
                (p + "ff_b1", (ff,)),
                (p + "ff_w2", (ff, m)),
                (p + "ff_b2", (m,)),
            ]
        )
    spec.extend(
        [
            ("final_ln_g", (m,)),
            ("final_ln_b", (m,)),
            ("head_w", (m, d)),
            ("head_b", (d,)),
        ]
    )
    return spec


def init_params(config: EncoderConfig) -> dict[str, np.ndarray]:
    """Seeded initialization in declaration order: N(0, 0.02) weights, zero
    biases, unit layer-norm gains."""
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_spec(config):
        base = name.rsplit(".", 1)[-1]
        if base.endswith("_g"):
            params[name] = np.ones(shape, dtype=np.float64)
        elif base.endswith("_b") or base == "head_b":
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            params[name] = rng.normal(0.0, 0.02, size=shape)
    return params


def zero_grads(config: EncoderConfig) -> dict[str, np.ndarray]:
    return {name: np.zeros(shape, dtype=np.float64) for name, shape in param_spec(config)}


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    width = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= width
    xhat = x - mu
    out = xhat * xhat
    inv = np.add.reduce(out, axis=-1, keepdims=True)
    inv /= width
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, g, out=out)
    out += b
    return out, (xhat, inv, g)


def _rows(a: np.ndarray) -> np.ndarray:
    """All rows of a stack as one (B * n, width) matrix."""
    return a.reshape(-1, a.shape[-1])


def _ln_backward(dout: np.ndarray, cache):
    """Backward of _ln_forward over a stack, taking and returning (B * n, width) rows."""
    xhat, inv, g = cache
    xhat, inv = _rows(xhat), _rows(inv)
    width = xhat.shape[-1]
    tmp = dout * xhat
    dg = np.add.reduce(tmp, axis=0)
    db = np.add.reduce(dout, axis=0)
    dx = dout * g  # dxhat, turned into dx in place
    mean_dxhat = np.add.reduce(dx, axis=-1, keepdims=True)
    mean_dxhat /= width
    np.multiply(dx, xhat, out=tmp)
    mean_dxhat_xhat = np.add.reduce(tmp, axis=-1, keepdims=True)
    mean_dxhat_xhat /= width
    dx -= mean_dxhat
    np.multiply(xhat, mean_dxhat_xhat, out=tmp)
    dx -= tmp
    dx *= inv
    return dx, dg, db


def _gelu_forward(u: np.ndarray):
    """tanh(C0 * (u + C1 * u^3)) and 0.5 * u * (1 + tanh), in two buffers."""
    t = u * u
    t *= u  # u**3 calls pow() per element
    t *= _GELU_C1
    t += u
    t *= _GELU_C0
    np.tanh(t, out=t)
    a = 0.5 * u
    a *= 1.0 + t
    return a, t


def _gelu_backward(da: np.ndarray, u: np.ndarray, t: np.ndarray):
    """da * (0.5 * (1 + t) + 0.5 * u * dtanh_du), in two buffers."""
    dtanh_du = t * t
    np.subtract(1.0, dtanh_du, out=dtanh_du)
    dtanh_du *= _GELU_C0
    poly = u * (3.0 * _GELU_C1)
    poly *= u
    poly += 1.0
    dtanh_du *= poly
    tail = np.multiply(u, 0.5, out=poly)
    tail *= dtanh_du
    du = np.add(t, 1.0, out=dtanh_du)
    du *= 0.5
    du += tail
    du *= da
    return du


class Encoder:
    """Config + parameters with forward/backward passes and the public
    encode_page / encode_query API.

    Weight sharing across inputs is structural: patches, queries and
    descriptors run the same parameter dict through the same forward code.
    """

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        expected = dict(param_spec(config))
        missing = set(expected) - set(params)
        if missing:
            raise ConfigurationError(f"Encoder params missing {sorted(missing)}")
        for name, shape in expected.items():
            if tuple(params[name].shape) != shape:
                raise ConfigurationError(
                    f"Encoder param {name}: shape {params[name].shape}, expected {shape}"
                )
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: EncoderConfig) -> "Encoder":
        return cls(config, init_params(config))

    # ----- input embedding -----

    def _token_rows(self, token_ids) -> tuple[np.ndarray, np.ndarray, bool]:
        """(embedded rows (B, L, m), ids (B, L), whether the input was one 1-D sequence)."""
        try:
            ids = np.asarray(token_ids, dtype=np.int64)
        except ValueError:  # ragged nested lists
            ids = None
        if ids is None or ids.ndim not in (1, 2) or ids.size < 1:
            got = "a ragged list" if ids is None else f"shape {ids.shape}"
            raise ValueError(
                f"token sequence must be a nonempty 1-D list or an equal-length (B, L) array, got {got}"
            )
        if np.any(ids < 0) or np.any(ids >= self.config.vocab_size):
            bad = ids[(ids < 0) | (ids >= self.config.vocab_size)]
            raise ValueError(f"unknown token id(s) {bad.tolist()} (vocab_size {self.config.vocab_size})")
        single = ids.ndim == 1
        ids = np.atleast_2d(ids)
        return self.params["tok_emb"][ids], ids, single

    def _patch_rows(self, features) -> tuple[np.ndarray, np.ndarray, bool]:
        """(projected rows (B, P, m), features (B, P, F), whether the input was one matrix)."""
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim not in (2, 3) or 0 in feats.shape[:-1]:
            raise ConfigurationError(
                f"patch features must be a nonempty (P, F) matrix or (B, P, F) stack, got shape {feats.shape}"
            )
        if feats.shape[-1] != self.config.patch_feature_dim:
            raise ConfigurationError(
                f"patch feature width {feats.shape[-1]} != configured {self.config.patch_feature_dim}"
            )
        single = feats.ndim == 2
        if single:
            feats = feats[None]
        x0 = feats @ self.params["patch_proj_w"]
        x0 += self.params["patch_proj_b"]
        return x0, feats, single

    # ----- transformer stack -----

    def _run_stack(self, x0: np.ndarray, provenance: dict) -> tuple[np.ndarray, dict]:
        """Encode a (B, L, m) stack of content rows; returns rows (B, L + 1, d)."""
        cfg, p = self.config, self.params
        B, n, m = x0.shape[0], x0.shape[1] + 1, cfg.model_dim
        if n > cfg.max_seq:
            raise ConfigurationError(f"sequence of {n} rows exceeds max_seq {cfg.max_seq}")
        shared = provenance["kind"] == "patches" or cfg.share_global_token
        global_name = "global_token" if shared else "global_token_text"
        x = np.empty((B, n, m))
        x[:, : n - 1] = x0
        x[:, n - 1] = p[global_name]
        x += p["pos_emb"][:n]

        heads, dh = cfg.heads, m // cfg.heads
        scale = 1.0 / np.sqrt(dh)
        h = x
        layer_caches = []
        for i in range(cfg.layers):
            pre = f"layer{i}."
            ln1_out, ln1_c = _ln_forward(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
            q = ln1_out @ p[pre + "attn_q_w"]
            q += p[pre + "attn_q_b"]
            k = ln1_out @ p[pre + "attn_k_w"]
            k += p[pre + "attn_k_b"]
            v = ln1_out @ p[pre + "attn_v_w"]
            v += p[pre + "attn_v_b"]
            qh = q.reshape(B, n, heads, dh).transpose(0, 2, 1, 3)
            kh = k.reshape(B, n, heads, dh).transpose(0, 2, 1, 3)
            vh = v.reshape(B, n, heads, dh).transpose(0, 2, 1, 3)
            att = qh @ kh.swapaxes(-1, -2)  # logits, turned into the softmax in place
            att *= scale
            att -= np.maximum.reduce(att, axis=-1, keepdims=True)
            np.exp(att, out=att)
            att /= np.add.reduce(att, axis=-1, keepdims=True)
            ctx = (att @ vh).transpose(0, 2, 1, 3).reshape(B, n, m)
            h1 = ctx @ p[pre + "attn_o_w"]
            h1 += h
            h1 += p[pre + "attn_o_b"]
            ln2_out, ln2_c = _ln_forward(h1, p[pre + "ln2_g"], p[pre + "ln2_b"])
            u = ln2_out @ p[pre + "ff_w1"]
            u += p[pre + "ff_b1"]
            a, t = _gelu_forward(u)
            h = a @ p[pre + "ff_w2"]
            h += h1
            h += p[pre + "ff_b2"]
            layer_caches.append(
                {"ln1_out": ln1_out, "ln1_c": ln1_c, "qh": qh, "kh": kh, "vh": vh,
                 "att": att, "ctx": ctx, "ln2_out": ln2_out, "ln2_c": ln2_c,
                 "u": u, "t": t, "a": a}
            )

        lnf_out, lnf_c = _ln_forward(h, p["final_ln_g"], p["final_ln_b"])
        y = lnf_out @ p["head_w"]  # z, divided by its row norms in place
        y += p["head_b"]
        safe = np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True))
        safe[safe <= 1e-12] = 1.0
        y /= safe
        cache = {
            "layers": layer_caches,
            "lnf_out": lnf_out,
            "lnf_c": lnf_c,
            "y": y,
            "norms": safe,
            "global_name": global_name,
            **provenance,
        }
        return y, cache

    def forward_tokens(self, token_ids) -> tuple[np.ndarray, dict]:
        """Encode one token sequence, returning (rows (L+1, d), backward cache),
        or a (B, L) id array, returning (rows (B, L+1, d), backward cache)."""
        x0, ids, single = self._token_rows(token_ids)
        y, cache = self._run_stack(x0, {"kind": "tokens", "ids": ids})
        return (y[0] if single else y), cache

    def forward_patches(self, features: np.ndarray) -> tuple[np.ndarray, dict]:
        """Encode one (P, F) patch-feature matrix, returning (rows (P+1, d),
        backward cache), or a (B, P, F) stack, returning (rows (B, P+1, d), backward cache)."""
        x0, feats, single = self._patch_rows(features)
        y, cache = self._run_stack(x0, {"kind": "patches", "feats": feats})
        return (y[0] if single else y), cache

    def backward(self, cache: dict, d_y: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        """Accumulate d(loss)/d(params) into grads given d(loss)/d(output rows),
        shaped like the rows the forward returned."""
        cfg, p = self.config, self.params
        y, norms = cache["y"], cache["norms"]
        d_y = np.reshape(d_y, y.shape)
        # Every gradient below is held as (B * n, width) rows, so each matmul
        # is one GEMM over the whole stack.
        dz = d_y * y
        radial = np.add.reduce(dz, axis=-1, keepdims=True)
        np.multiply(y, radial, out=dz)
        np.subtract(d_y, dz, out=dz)
        dz /= norms
        dz = _rows(dz)
        B, n, m = y.shape[0], y.shape[1], cfg.model_dim
        heads, dh = cfg.heads, m // cfg.heads
        scale = 1.0 / np.sqrt(dh)

        grads["head_w"] += _rows(cache["lnf_out"]).T @ dz
        grads["head_b"] += dz.sum(axis=0)
        dlnf_out = dz @ p["head_w"].T
        dh_res, dgf, dbf = _ln_backward(dlnf_out, cache["lnf_c"])
        grads["final_ln_g"] += dgf
        grads["final_ln_b"] += dbf

        d_hidden = dh_res
        for i in reversed(range(cfg.layers)):
            pre = f"layer{i}."
            lc = cache["layers"][i]
            # feed-forward block: h = h1 + gelu(ln2(h1) @ w1 + b1) @ w2 + b2
            dff = d_hidden
            grads[pre + "ff_w2"] += _rows(lc["a"]).T @ dff
            grads[pre + "ff_b2"] += dff.sum(axis=0)
            da = dff @ p[pre + "ff_w2"].T
            du = _gelu_backward(da, _rows(lc["u"]), _rows(lc["t"]))
            grads[pre + "ff_w1"] += _rows(lc["ln2_out"]).T @ du
            grads[pre + "ff_b1"] += du.sum(axis=0)
            dln2_out = du @ p[pre + "ff_w1"].T
            dh1_ln, dg2, db2 = _ln_backward(dln2_out, lc["ln2_c"])
            grads[pre + "ln2_g"] += dg2
            grads[pre + "ln2_b"] += db2
            dh1 = dh1_ln
            dh1 += d_hidden
            # attention block: h1 = h + (att @ v) @ wo + bo
            dattn = dh1
            grads[pre + "attn_o_w"] += _rows(lc["ctx"]).T @ dattn
            grads[pre + "attn_o_b"] += dattn.sum(axis=0)
            dctx = (dattn @ p[pre + "attn_o_w"].T).reshape(B, n, heads, dh).transpose(0, 2, 1, 3)
            datt = dctx @ lc["vh"].swapaxes(-1, -2)
            dvh = lc["att"].swapaxes(-1, -2) @ dctx
            dlogits = datt  # scaled in place: datt -> d(logits) -> d(qh @ kh^T)
            datt_att = datt * lc["att"]
            dlogits -= np.add.reduce(datt_att, axis=-1, keepdims=True)
            dlogits *= lc["att"]
            dlogits *= scale
            dqh = dlogits @ lc["kh"]
            dkh = dlogits.swapaxes(-1, -2) @ lc["qh"]
            dq = dqh.transpose(0, 2, 1, 3).reshape(B * n, m)
            dk = dkh.transpose(0, 2, 1, 3).reshape(B * n, m)
            dv = dvh.transpose(0, 2, 1, 3).reshape(B * n, m)
            ln1_rows = _rows(lc["ln1_out"])
            grads[pre + "attn_q_w"] += ln1_rows.T @ dq
            grads[pre + "attn_q_b"] += dq.sum(axis=0)
            grads[pre + "attn_k_w"] += ln1_rows.T @ dk
            grads[pre + "attn_k_b"] += dk.sum(axis=0)
            grads[pre + "attn_v_w"] += ln1_rows.T @ dv
            grads[pre + "attn_v_b"] += dv.sum(axis=0)
            dln1_out = dq @ p[pre + "attn_q_w"].T
            dln1_out += dk @ p[pre + "attn_k_w"].T
            dln1_out += dv @ p[pre + "attn_v_w"].T
            dh_ln, dg1, db1 = _ln_backward(dln1_out, lc["ln1_c"])
            grads[pre + "ln1_g"] += dg1
            grads[pre + "ln1_b"] += db1
            dh_ln += dh1
            d_hidden = dh_ln

        d_hidden = d_hidden.reshape(B, n, m)
        grads["pos_emb"][:n] += d_hidden.sum(axis=0)
        grads[cache["global_name"]] += d_hidden[:, n - 1].sum(axis=0)
        d_content = _rows(d_hidden[:, : n - 1])
        if cache["kind"] == "tokens":
            np.add.at(grads["tok_emb"], cache["ids"].ravel(), d_content)
        else:
            grads["patch_proj_w"] += _rows(cache["feats"]).T @ d_content
            grads["patch_proj_b"] += d_content.sum(axis=0)

    # ----- public embedding API -----

    def encode_page(self, page_features: np.ndarray, page_id: int) -> DocumentEmbedding:
        """Patch rows + appended global token -> DocumentEmbedding."""
        y, _ = self.forward_patches(page_features)
        return DocumentEmbedding(patches=y[:-1], global_vec=y[-1], page_id=page_id)

    def encode_query(self, token_ids, query_id) -> QueryEmbedding:
        """Token rows + appended global token -> QueryEmbedding."""
        y, _ = self.forward_tokens(token_ids)
        return QueryEmbedding(tokens=y[:-1], global_vec=y[-1], query_id=query_id)


# ----- checkpoint persistence -----


def save_checkpoint(
    path,
    config: EncoderConfig,
    params: dict[str, np.ndarray],
    steps_trained: int = 0,
) -> None:
    """Write a GDFT checkpoint: header JSON + float32 tensors + CRC32."""
    header = json.dumps(
        {"encoder": asdict(config), "steps_trained": int(steps_trained)},
        sort_keys=True,
    ).encode("utf-8")
    chunks = [struct.pack("<I", len(header)), header]
    for name, shape in param_spec(config):
        arr = params[name]
        if tuple(arr.shape) != shape:
            raise ConfigurationError(f"checkpoint: param {name} has shape {arr.shape}, expected {shape}")
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    payload = b"".join(chunks)
    blob = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + payload
    blob += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    write_atomic(path, blob)


def load_checkpoint(path) -> tuple[EncoderConfig, dict[str, np.ndarray], int]:
    """Read and validate a GDFT checkpoint; returns (config, params, steps_trained)."""
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise ConfigurationError(f"checkpoint file not found: {path}") from exc
    if blob[:4] != CHECKPOINT_MAGIC:
        raise IntegrityError(f"{path}: not a GDFT checkpoint")
    if len(blob) < 16:  # magic, version, header length and CRC
        raise IntegrityError(f"{path}: checkpoint truncated to {len(blob)} bytes")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise IntegrityError(f"{path}: unsupported checkpoint version {version}")
    payload, (crc,) = blob[8:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise IntegrityError(f"{path}: checkpoint checksum mismatch")
    (header_len,) = struct.unpack("<I", payload[:4])
    try:
        header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
        config = EncoderConfig(**header["encoder"])
        steps_trained = header["steps_trained"]
        if type(steps_trained) is not int or steps_trained < 0:
            raise TypeError(f"steps_trained {steps_trained!r} is not a count")
    except (ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"{path}: malformed checkpoint header ({exc})") from exc
    offset = 4 + header_len
    params: dict[str, np.ndarray] = {}
    for name, shape in param_spec(config):
        count = int(np.prod(shape))
        raw = payload[offset : offset + 4 * count]
        if len(raw) != 4 * count:
            raise IntegrityError(f"{path}: checkpoint truncated at parameter {name}")
        params[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
        offset += 4 * count
    if offset != len(payload):
        raise IntegrityError(f"{path}: {len(payload) - offset} trailing bytes after parameters")
    return config, params, steps_trained
