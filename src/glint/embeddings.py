"""Embedding containers and L2 normalization.

Embedding vectors are plain float64 numpy arrays of length d (the retrieval
dimension). Every embedding row emitted by the encoder is L2-normalized, so
the dot products used by late-interaction scoring are cosines and live on the
same scale as the contrastive-loss logits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorWarning, DimensionMismatchError

#: Norms below this are treated as zero (direction undefined).
NORM_EPS = 1e-12

#: Norms within this of 1.0 are treated as exactly 1.0. Dividing an
#: already-unit vector by its recomputed norm (1 +/- a few ulps) would only
#: inject rounding noise; snapping instead makes normalization exactly
#: idempotent. The window is far below every tolerance used elsewhere.
UNIT_TOL = 1e-13


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||_2, or v unchanged (with a warning) if ||v|| <= 1e-12.

    A dead vector must not abort batch scoring, so the degenerate case is a
    warning rather than an error. Vectors whose norm is already within
    UNIT_TOL of 1 are returned unchanged, so re-normalizing a normalized
    vector is a bit-exact no-op.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= NORM_EPS:
        warnings.warn("l2_normalize: zero-norm vector left unchanged", DegenerateVectorWarning)
        return v
    if abs(norm - 1.0) <= UNIT_TOL:
        return v
    return v / norm


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a matrix; zero rows pass through with a warning.

    Rows already at unit norm (within UNIT_TOL) divide by exactly 1.0, so the
    same idempotence guarantee as l2_normalize holds row-wise.
    """
    mat = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if np.any(norms <= NORM_EPS):
        warnings.warn("normalize_rows: zero-norm row left unchanged", DegenerateVectorWarning)
    safe = np.where((norms <= NORM_EPS) | (np.abs(norms - 1.0) <= UNIT_TOL), 1.0, norms)
    return mat / safe


def _check_rows(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise DimensionMismatchError(f"{name}: expected a nonempty 2-D matrix, got shape {mat.shape}")
    return mat


@dataclass
class DocumentEmbedding:
    """Multi-vector page representation: one row per patch plus one global row."""

    patches: np.ndarray  # (L_d, d)
    global_vec: np.ndarray  # (d,)
    page_id: int

    def __post_init__(self):
        self.patches = _check_rows("DocumentEmbedding.patches", self.patches)
        self.global_vec = np.asarray(self.global_vec, dtype=np.float64)
        if self.global_vec.shape != (self.patches.shape[1],):
            raise DimensionMismatchError(
                f"DocumentEmbedding: global {self.global_vec.shape} vs patches {self.patches.shape}"
            )


@dataclass
class QueryEmbedding:
    """Multi-vector query representation: one row per token plus one global row."""

    tokens: np.ndarray  # (L_q, d)
    global_vec: np.ndarray  # (d,)
    query_id: int | str

    def __post_init__(self):
        self.tokens = _check_rows("QueryEmbedding.tokens", self.tokens)
        self.global_vec = np.asarray(self.global_vec, dtype=np.float64)
        if self.global_vec.shape != (self.tokens.shape[1],):
            raise DimensionMismatchError(
                f"QueryEmbedding: global {self.global_vec.shape} vs tokens {self.tokens.shape}"
            )

