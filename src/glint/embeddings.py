"""The two embedding containers: a page's rows and a query's rows.

Rows are float64 arrays of length d (the retrieval dimension), held as given.
The encoder alone normalizes them: every row it emits is a unit row, so the
dot products of scoring and of the losses are cosines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def _check_rows(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ConfigurationError(f"{name}: expected a nonempty 2-D matrix, got shape {mat.shape}")
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
            raise ConfigurationError(
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
            raise ConfigurationError(
                f"QueryEmbedding: global {self.global_vec.shape} vs tokens {self.tokens.shape}"
            )

