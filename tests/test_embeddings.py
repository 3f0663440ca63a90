"""The embedding containers: shape checks and float64 coercion."""

import numpy as np
import pytest

from glint.embeddings import DocumentEmbedding, QueryEmbedding
from glint.errors import ConfigurationError


class TestContainers:
    def test_document_global_shape_checked(self):
        with pytest.raises(ConfigurationError):
            DocumentEmbedding(patches=np.ones((2, 4)), global_vec=np.ones(3), page_id=0)

    def test_query_tokens_must_be_2d(self):
        with pytest.raises(ConfigurationError):
            QueryEmbedding(tokens=np.ones(4), global_vec=np.ones(4), query_id=0)

    def test_float64_coercion(self):
        d = DocumentEmbedding(patches=np.ones((2, 3), dtype=np.float32), global_vec=np.ones(3), page_id=1)
        assert d.patches.dtype == np.float64
        assert d.global_vec.dtype == np.float64
