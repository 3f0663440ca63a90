"""Vector primitives: normalization and containers."""

import numpy as np
import pytest

from glint.embeddings import (
    DegenerateVectorWarning,
    DocumentEmbedding,
    QueryEmbedding,
    l2_normalize,
    normalize_rows,
)
from glint.errors import DimensionMismatchError


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_all_ones(self):
        np.testing.assert_allclose(l2_normalize(np.ones(4)), [0.5, 0.5, 0.5, 0.5])

    def test_zero_vector_passes_through_with_warning(self):
        with pytest.warns(DegenerateVectorWarning):
            out = l2_normalize(np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 10))
            once = l2_normalize(v)
            np.testing.assert_array_equal(l2_normalize(once), once)


class TestNormalizeRows:
    def test_unit_rows(self):
        rng = np.random.default_rng(3)
        out = normalize_rows(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row_warns(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(DegenerateVectorWarning):
            out = normalize_rows(mat)
        np.testing.assert_array_equal(out[1], [0.0, 0.0])


class TestContainers:
    def test_document_global_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            DocumentEmbedding(patches=np.ones((2, 4)), global_vec=np.ones(3), page_id=0)

    def test_query_tokens_must_be_2d(self):
        with pytest.raises(DimensionMismatchError):
            QueryEmbedding(tokens=np.ones(4), global_vec=np.ones(4), query_id=0)

    def test_float64_coercion(self):
        d = DocumentEmbedding(patches=np.ones((2, 3), dtype=np.float32), global_vec=np.ones(3), page_id=1)
        assert d.patches.dtype == np.float64
        assert d.global_vec.dtype == np.float64
