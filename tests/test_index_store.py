"""Binary index round-trips and corruption detection."""

import struct
import zlib

import numpy as np
import pytest
from conftest import unit_rows

from glint.embeddings import DocumentEmbedding
from glint.errors import IntegrityError
from glint.index_store import INDEX_MAGIC, read_index, write_index
from glint.scoring import _TILE, DocumentIndex


def _random_docs(seed=0, n=5, d=8):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        patches = unit_rows(rng.normal(size=(int(rng.integers(1, 6)), d)))
        global_vec = unit_rows(rng.normal(size=(1, d)))[0]
        docs.append(DocumentEmbedding(patches=patches, global_vec=global_vec, page_id=100 + i))
    return docs


def _resign(blob: bytes) -> bytes:
    """Recompute the trailing CRC so only the structural damage is visible."""
    return blob + struct.pack("<I", zlib.crc32(blob))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        docs = _random_docs()
        path = tmp_path / "pages.idx"
        write_index(docs, path)
        loaded = read_index(path)
        assert len(loaded) == len(docs)
        for a, b in zip(docs, loaded):
            assert a.page_id == b.page_id
            np.testing.assert_array_equal(a.patches, b.patches)
            np.testing.assert_array_equal(a.global_vec, b.global_vec)

    def test_rewrite_is_byte_identical(self, tmp_path):
        docs = _random_docs()
        p1, p2, p3 = tmp_path / "a.idx", tmp_path / "b.idx", tmp_path / "c.idx"
        write_index(docs, p1)
        write_index(docs, p2)
        assert p1.read_bytes() == p2.read_bytes()
        write_index(read_index(p1), p3)  # a loaded index writes back the same file
        assert p3.read_bytes() == p1.read_bytes()

    def test_documents_are_views_into_contiguous_blocks(self, tmp_path):
        docs = _random_docs(n=70)
        path = tmp_path / "pages.idx"
        write_index(docs, path)
        loaded = read_index(path)
        assert isinstance(loaded, DocumentIndex)
        # One (n_tiles, R + 1, _TILE, d) tiles array for the index, R being
        # the largest patch count: a document's rows run down the row axis,
        # padded to R with copies of its last patch row, its global row last.
        owner = loaded[0].patches.base
        counts = [len(doc.patches) for doc in docs]
        assert len(set(counts)) > 1
        assert owner.shape == (2, max(counts) + 1, _TILE, 8)
        assert owner.flags.c_contiguous and not owner.flags.writeable
        for j, doc in enumerate(loaded):
            t, c = divmod(j, _TILE)
            assert doc.patches.base is owner and doc.global_vec.base is owner
            assert not doc.patches.flags.writeable
            assert doc.patches.shape == docs[j].patches.shape
            assert doc.patches.strides == owner.strides[1::2]
            assert doc.patches.__array_interface__["data"][0] == owner[t, 0, c].__array_interface__["data"][0]
            assert doc.global_vec.__array_interface__["data"][0] == owner[t, -1, c].__array_interface__["data"][0]
            assert (owner[t, counts[j] : -1, c] == docs[j].patches[-1]).all()

    def test_empty_index(self, tmp_path):
        path = tmp_path / "empty.idx"
        write_index([], path)
        assert len(read_index(path)) == 0


class TestWriteValidation:
    def test_non_unit_patch_rejected(self, tmp_path):
        docs = _random_docs()
        docs[2].patches[0] *= 1.5
        with pytest.raises(ValueError, match="not unit-norm"):
            write_index(docs, tmp_path / "x.idx")

    def test_non_unit_global_rejected(self, tmp_path):
        docs = _random_docs()
        docs[0].global_vec = docs[0].global_vec * 0.2
        with pytest.raises(ValueError, match="global"):
            write_index(docs, tmp_path / "x.idx")

    def test_mixed_dimensions_rejected(self, tmp_path):
        docs = _random_docs(d=8) + _random_docs(seed=1, n=1, d=4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            write_index(docs, tmp_path / "x.idx")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, tmp_path, bad):
        docs = _random_docs()
        docs[3].patches[0, 0] = bad
        with pytest.raises(ValueError, match="page 103 patches: 1 rows are not unit-norm"):
            write_index(docs, tmp_path / "x.idx")

    def test_failed_write_leaves_no_file(self, tmp_path):
        docs = _random_docs()
        docs[0].patches[0] *= 2.0
        path = tmp_path / "x.idx"
        with pytest.raises(ValueError):
            write_index(docs, path)
        assert not path.exists()


class TestReadValidation:
    @pytest.fixture()
    def index_path(self, tmp_path):
        path = tmp_path / "pages.idx"
        write_index(_random_docs(), path)
        return path

    def test_bad_magic(self, index_path):
        blob = index_path.read_bytes()
        index_path.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(IntegrityError, match="magic"):
            read_index(index_path)

    def test_flipped_byte_fails_checksum(self, index_path):
        blob = bytearray(index_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        index_path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            read_index(index_path)

    def test_unsupported_version(self, index_path):
        blob = bytearray(index_path.read_bytes())[:-4]
        struct.pack_into("<I", blob, 4, 99)
        index_path.write_bytes(_resign(bytes(blob)))
        with pytest.raises(IntegrityError, match="version"):
            read_index(index_path)

    def test_truncated_record(self, index_path):
        payload = index_path.read_bytes()[:-4]
        index_path.write_bytes(_resign(payload[:-40]))
        with pytest.raises(IntegrityError, match="truncated"):
            read_index(index_path)

    def test_trailing_garbage(self, index_path):
        payload = index_path.read_bytes()[:-4]
        index_path.write_bytes(_resign(payload + b"\x00" * 8))
        with pytest.raises(IntegrityError, match="trailing"):
            read_index(index_path)

    def test_non_finite_row_is_an_integrity_error_naming_the_page(self, index_path):
        blob = bytearray(index_path.read_bytes()[:-4])
        struct.pack_into("<d", blob, 16 + 12, np.nan)  # the first page's first patch value
        index_path.write_bytes(_resign(bytes(blob)))
        with pytest.raises(IntegrityError, match="page 100 has a non-finite row"):
            read_index(index_path)

    def test_record_without_patch_rows_is_an_integrity_error(self, tmp_path):
        d = 8
        blob = INDEX_MAGIC + struct.pack("<III", 1, d, 1) + struct.pack("<QI", 7, 0)
        blob += np.eye(d)[0].astype("<f8").tobytes()  # the global row only
        path = tmp_path / "no_patches.idx"
        path.write_bytes(_resign(blob))
        with pytest.raises(IntegrityError, match="page 7 has no patch rows"):
            read_index(path)

    def test_too_short_file(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(INDEX_MAGIC + b"\x00\x00")
        with pytest.raises(IntegrityError, match="too short"):
            read_index(path)
