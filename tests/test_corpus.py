"""Corpus generation: determinism, constructive guarantees, and the file format."""

import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from conftest import MALFORMED_CORPORA, forbid_descriptors, small_corpus_config, write_malformed_corpus
from hypothesis import event, given, settings
from hypothesis import strategies as st

from glint.corpus import (
    _OverlapIndex,
    REGION_TYPES,
    SKETCH_DIM,
    CorpusConfig,
    PageSpec,
    Region,
    TokenLayout,
    generate_corpus,
    generate_descriptor,
    layout_features,
    load_corpus,
    parse_pattern,
    patch_feature_dim,
    pattern_satisfied,
    render_patch_features,
    save_corpus,
    validate_corpus,
)
from glint.errors import ConfigurationError

_HASH_MULT = 2654435761


def _arrangement_key(page: PageSpec) -> tuple:
    """Layout identity: the multiset of (type, row, col, height, width)."""
    return tuple(sorted((r.region_type, r.row, r.col, r.height, r.width) for r in page.regions))


def _page_2x2() -> PageSpec:
    layout = TokenLayout(2, 2)
    return PageSpec(
        page_id=0,
        n_rows=2,
        n_cols=2,
        regions=[
            Region("figure", 1, 0, 1, 1, [layout.content_base], word_count=5),
            Region("text", 0, 0, 1, 1, [layout.content_base + 1], word_count=10),
        ],
    )


class TestConfigValidation:
    def test_minimum_sizes(self):
        with pytest.raises(ConfigurationError):
            CorpusConfig(n_pages=5, n_queries=40)
        with pytest.raises(ConfigurationError):
            CorpusConfig(n_pages=40, n_queries=5)

    def test_grid_and_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            CorpusConfig(grid_rows=1)
        with pytest.raises(ConfigurationError):
            CorpusConfig(local_fraction=1.5)
        with pytest.raises(ConfigurationError):
            CorpusConfig(tokens_per_group=3)

    def test_content_pool_cap_is_named_not_vocab_size(self):
        # The pool never exceeds SKETCH_DIM ids, so a larger vocabulary cannot help.
        with pytest.raises(ConfigurationError) as err:
            generate_corpus(CorpusConfig(n_pages=500, vocab_size=8192))
        assert "SKETCH_DIM" in str(err.value) and "450" in str(err.value)
        assert "increase vocab_size" not in str(err.value)

    def test_vocab_must_cover_the_content_pool(self):
        # 4x4 structural ids end at 21; a pool below 3 groups is refused.
        with pytest.raises(ConfigurationError, match="vocab too small"):
            generate_corpus(small_corpus_config(vocab_size=44))


class TestTokenLayout:
    def test_offsets_partition_the_id_space(self):
        layout = TokenLayout(4, 4)
        assert layout.row_base == 5
        assert layout.col_base == 9
        assert layout.hgt_base == 13
        assert layout.wid_base == 17
        assert layout.content_base == 21

    def test_sketch_hash_is_injective_on_the_pool(self):
        base = TokenLayout(4, 4).content_base
        buckets = {(t * _HASH_MULT) % (2**32) % SKETCH_DIM for t in range(base, base + SKETCH_DIM)}
        assert len(buckets) == SKETCH_DIM


class TestGeneration:
    def test_determinism_is_byte_exact(self, tmp_path):
        cfg = small_corpus_config()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(generate_corpus(cfg), a)
        save_corpus(generate_corpus(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_corpus(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(generate_corpus(small_corpus_config(seed=3)), a)
        save_corpus(generate_corpus(small_corpus_config(seed=4)), b)
        assert a.read_bytes() != b.read_bytes()

    def test_requested_counts_are_met(self, small_corpus):
        cfg = small_corpus.config
        assert len(small_corpus.pages) == cfg.n_pages
        assert len(small_corpus.queries) == cfg.n_queries
        n_local = sum(1 for q in small_corpus.queries.values() if q.qtype == "local")
        assert n_local == round(cfg.n_queries * cfg.local_fraction)

    def test_referential_integrity(self, small_corpus):
        for q in small_corpus.queries.values():
            assert q.relevant_page_ids
            for pid in q.relevant_page_ids + q.distractor_page_ids:
                assert pid in small_corpus.pages

    def test_global_queries_separate_twin_from_distractor(self, small_corpus):
        layout = small_corpus.config.token_layout
        n_checked = 0
        for q in small_corpus.queries.values():
            if q.qtype != "global":
                continue
            clauses = parse_pattern(q.tokens, layout)
            assert clauses, "global query carries no structural clauses"
            for pid in q.relevant_page_ids:
                assert pattern_satisfied(small_corpus.pages[pid], clauses)
            for pid in q.distractor_page_ids:
                distractor = small_corpus.pages[pid]
                assert not pattern_satisfied(distractor, clauses)
                q_content = {t for t in q.tokens if t >= layout.content_base}
                assert q_content & distractor.content_token_set()
            n_checked += 1
        assert n_checked > 0

    def test_local_queries_are_decisive(self, small_corpus):
        n_checked = 0
        for q in small_corpus.queries.values():
            if q.qtype != "local":
                continue
            toks = set(q.tokens)
            host = q.relevant_page_ids[0]
            assert toks <= small_corpus.pages[host].content_token_set()
            for pid, page in small_corpus.pages.items():
                if pid != host:
                    assert not toks <= page.content_token_set()
            n_checked += 1
        assert n_checked > 0

    def test_content_tokens_recur_across_pages(self, small_corpus):
        # The shared pool keeps every content id in circulation, so held-out
        # pages reuse ids that the train split already exercises.
        layout = small_corpus.config.token_layout
        train = set()
        for pid in small_corpus.splits["train"].page_ids:
            train |= small_corpus.pages[pid].content_token_set()
        test_tokens = set()
        for pid in small_corpus.splits["test"].page_ids:
            test_tokens |= small_corpus.pages[pid].content_token_set()
        assert all(t >= layout.content_base for t in train | test_tokens)
        overlap = len(test_tokens & train) / len(test_tokens)
        assert overlap > 0.9

    def test_splits_partition_pages_and_queries(self, small_corpus):
        page_ids = [pid for s in small_corpus.splits.values() for pid in s.page_ids]
        query_ids = [qid for s in small_corpus.splits.values() for qid in s.query_ids]
        assert sorted(page_ids) == sorted(small_corpus.pages)
        assert sorted(query_ids) == sorted(small_corpus.queries)

    def test_split_queries_stay_inside_their_split(self, small_corpus):
        for split in small_corpus.splits.values():
            in_split = set(split.page_ids)
            for qid in split.query_ids:
                q = small_corpus.queries[qid]
                assert set(q.relevant_page_ids + q.distractor_page_ids) <= in_split

    def test_every_split_has_both_query_types(self, small_corpus):
        for name, split in small_corpus.splits.items():
            qtypes = {small_corpus.queries[qid].qtype for qid in split.query_ids}
            assert qtypes == {"local", "global"}, f"split {name} has {qtypes}"

    @pytest.mark.parametrize("config, digest", [
        # The benchmark's 400-page corpora: search's corpus 0 (seed 1) and
        # three of the nine it stacks on it (seeds 11-13), which reject many
        # draws on the way to 400 pages.
        (dict(n_pages=400, n_queries=400, seed=1), "4410a684b7f86f65e468497c41a89b7250e70acb6e4d8ea79d9de85b2139309b"),
        (dict(n_pages=400, n_queries=400, seed=11), "328f87ba5ad6492e2e93fca8194e90548cc7b9cd32429f31ea70eee78340dbcb"),
        (dict(n_pages=400, n_queries=400, seed=12), "4c5f3f02ab70f4bfe917c8ed34a8cd1c64ec52683e21275f94bdd59a7feb9740"),
        (dict(n_pages=400, n_queries=400, seed=13), "7e5429d1fc864460a6bfd5bae1f9f034466dd1e066850b7a411d3764cec71274"),
        # The default 200-page config.
        (dict(seed=0), "d2a70c07014b9f297a1e841b26ed0479ecc0e74a3c1fbcdb7b425e60bf7d87d8"),
        (dict(seed=1), "3cb76ca718d1526aa02df81e0f65039e8196659207f9d7a6301376a4a99c3fad"),
        (dict(seed=2), "7c462d94e3b3e91bfcc9ff84aa4819963c239c0eee3908f7711f6af7b7be7303"),
        # Near the ~450-page ceiling of the 64-id content pool.
        (dict(n_pages=450, n_queries=450, seed=1), "eccbdb4231c3357e015a0860a3a4f3042d490dd80fcd8d0ba1b84f3a28be57b8"),
    ], ids=lambda v: "-".join(f"{k}{x}" for k, x in v.items()) if isinstance(v, dict) else "sha256")
    def test_save_corpus_bytes_are_pinned(self, tmp_path, config, digest):
        # Corpus bytes come from the seeded generator and json alone, not BLAS,
        # so these digests hold on any host.
        path = tmp_path / "corpus.jsonl"
        save_corpus(generate_corpus(CorpusConfig(**config)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _admitted_by_pairwise_scan(pages: list[set[int]], quads: list[set[int]], grp: list[int]) -> bool:
    """The overlap rule as a scan over every earlier page and quad."""
    quad, full = set(grp[:4]), set(grp)
    return all(len(quad & s) <= 2 for s in pages) and all(len(q & full) <= 2 for q in quads)


@st.composite
def _overlap_histories(draw):
    """(pages' content sets, headline quads, candidate groups) over a pool of
    fewer than 64 ids, in the shapes generate_corpus builds."""
    tokens_per_group = draw(st.sampled_from([4, 6, 8]))
    pool_size = draw(st.integers(tokens_per_group, 63))
    ids = st.integers(0, pool_size - 1)
    pages = draw(st.lists(st.sets(ids, max_size=tokens_per_group), max_size=40))
    quads = draw(st.lists(st.sets(ids, min_size=4, max_size=4), max_size=40))
    groups = draw(st.lists(
        st.lists(ids, min_size=tokens_per_group, max_size=tokens_per_group, unique=True), min_size=1, max_size=20))
    return pages, quads, groups


class TestOverlapIndex:
    @settings(max_examples=300, deadline=None)
    @given(_overlap_histories())
    def test_admits_exactly_what_the_pairwise_scan_admits(self, history):
        pages, quads, groups = history
        index = _OverlapIndex()
        for content in pages:
            index.add_page(content)
        for quad in quads:
            index.add_quad(quad)
        for grp in groups:
            expected = _admitted_by_pairwise_scan(pages, quads, grp)
            event("admitted" if expected else "rejected")
            assert index.admits(grp) == expected

    def test_hand_cases(self):
        index = _OverlapIndex()
        index.add_page({1, 2, 3, 9})
        index.add_quad([20, 21, 22, 23])
        assert index.admits([1, 2, 4, 5, 6, 7])  # quad shares two ids with the page
        assert not index.admits([3, 1, 2, 5, 6, 7])  # three, in any order
        assert index.admits([5, 6, 7, 8, 1, 2, 3, 9])  # the page's ids outside the quad are free
        assert index.admits([5, 6, 7, 8, 20, 21])  # an earlier quad shares two ids with the group
        assert not index.admits([5, 6, 7, 8, 20, 21, 23])  # three, outside the new quad
        assert index.admits([2, 3, 4, 5]) and _OverlapIndex().admits([1, 2, 3, 4])


class TestDescriptors:
    def test_structure_only(self, small_corpus):
        layout = small_corpus.config.token_layout
        for pid in small_corpus.pages:
            tokens = small_corpus.descriptor(pid)
            assert tokens
            assert all(t < layout.content_base for t in tokens)

    def test_injective_in_both_directions(self, small_corpus):
        arrangement_to_desc = {}
        desc_to_arrangement = {}
        for pid, page in small_corpus.pages.items():
            desc = tuple(small_corpus.descriptor(pid))
            key = _arrangement_key(page)
            assert arrangement_to_desc.setdefault(key, desc) == desc
            assert desc_to_arrangement.setdefault(desc, key) == key

    def test_bijection_on_every_small_arrangement(self):
        # Every set of at most two disjoint typed regions with 1-2 x 1-2 spans
        # on a 3x3 grid. Each region carries a content id, which must never
        # reach the descriptor, and region order must not matter.
        layout = TokenLayout(3, 3)
        spans = [(r, c, h, w) for h in (1, 2) for w in (1, 2) for r in range(4 - h) for c in range(4 - w)]
        typed = [(t, span) for t in REGION_TYPES for span in spans]

        def region(k, typed_span):
            t, (r, c, h, w) = typed_span
            return Region(t, r, c, h, w, [layout.content_base + k], word_count=1)

        desc_to_arrangement = {}
        for n in (1, 2):
            for combo in itertools.combinations(typed, n):
                regions = [region(k, ts) for k, ts in enumerate(combo)]
                page = PageSpec(page_id=0, n_rows=3, n_cols=3, regions=regions)
                try:
                    page.validate()
                except ConfigurationError:
                    continue  # overlapping spans
                desc = generate_descriptor(page)
                assert all(t < layout.content_base for t in desc)
                assert generate_descriptor(PageSpec(0, 3, 3, regions[::-1])) == desc
                key = _arrangement_key(page)
                assert desc_to_arrangement.setdefault(tuple(desc), key) == key
        assert len(desc_to_arrangement) == 5125

    def test_reading_order_and_token_sequence(self):
        # Regions are serialized sorted by (row, col), five tokens each.
        assert generate_descriptor(_page_2x2()) == [0, 5, 7, 9, 11, 2, 6, 7, 9, 11]


class TestPatternParsing:
    def test_round_trip_with_content_interleaved(self):
        layout = TokenLayout(2, 2)
        tokens = [0, 5, 7, 13, 2, 6, 7]
        assert parse_pattern(tokens, layout) == [(0, 0, 0), (2, 1, 0)]

    def test_satisfaction_against_a_page(self):
        page = _page_2x2()
        assert pattern_satisfied(page, [(0, 0, 0)])
        assert pattern_satisfied(page, [(2, 1, 0), (0, 0, 0)])
        assert not pattern_satisfied(page, [(0, 1, 1)])


class TestPatchFeatures:
    def test_feature_dim(self):
        assert patch_feature_dim() == len(REGION_TYPES) + SKETCH_DIM + 2 == 71

    def test_hand_built_cell_rows(self):
        page = _page_2x2()
        feats = render_patch_features(page)
        assert feats.shape == (4, 71)
        # Cell (0, 0): text region, one content token, centered coordinates.
        tok = page.regions[1].content_tokens[0]
        bucket = (tok * _HASH_MULT) % (2**32) % SKETCH_DIM
        row = np.zeros(71)
        row[REGION_TYPES.index("text")] = 1.0
        row[len(REGION_TYPES) + bucket] = 1.0
        row[-2:] = [0.25, 0.25]
        np.testing.assert_array_equal(feats[0], row)
        # Cell (0, 1) is empty: zero type and sketch blocks, coordinates kept.
        empty = np.zeros(71)
        empty[-2:] = [0.25, 0.75]
        np.testing.assert_array_equal(feats[1], empty)

    def test_sketch_counts_multiplicity(self):
        layout = TokenLayout(2, 2)
        tok = layout.content_base
        page = PageSpec(0, 2, 2, [Region("table", 0, 0, 1, 1, [tok, tok], word_count=4)])
        feats = render_patch_features(page)
        bucket = (tok * _HASH_MULT) % (2**32) % SKETCH_DIM
        assert feats[0, len(REGION_TYPES) + bucket] == 2.0

    def test_corpus_cache_returns_consistent_shapes(self, small_corpus):
        pid = next(iter(small_corpus.pages))
        feats = small_corpus.patch_features(pid)
        cfg = small_corpus.config
        assert feats.shape == (cfg.grid_rows * cfg.grid_cols, patch_feature_dim())
        assert small_corpus.patch_features(pid) is feats


class TestLayoutFeatures:
    def test_hand_counts(self):
        page = PageSpec(
            0,
            4,
            4,
            [
                Region("text", 0, 0, 1, 1, [30], word_count=10),
                Region("text", 1, 0, 1, 1, [31], word_count=15),
                Region("figure", 2, 0, 1, 1, [32], word_count=5),
            ],
        )
        assert layout_features(page) == {
            "n_text": 2,
            "n_image": 1,
            "n_list": 0,
            "n_words": 30,
            "n_visual_elements": 1,
        }


class TestPageValidation:
    def test_overlapping_regions_rejected(self):
        page = PageSpec(
            0, 2, 2,
            [
                Region("text", 0, 0, 2, 1, [21], word_count=1),
                Region("table", 1, 0, 1, 1, [22], word_count=1),
            ],
        )
        with pytest.raises(ConfigurationError, match="overlapping"):
            page.validate()

    def test_region_outside_grid_rejected(self):
        page = PageSpec(0, 2, 2, [Region("text", 1, 1, 2, 1, [21], word_count=1)])
        with pytest.raises(ConfigurationError, match="outside"):
            page.validate()

    def test_unknown_region_type_rejected(self):
        page = PageSpec(0, 2, 2, [Region("banner", 0, 0, 1, 1, [21], word_count=1)])
        with pytest.raises(ConfigurationError, match="unknown region type"):
            page.validate()


class TestValidateCorpus:
    def test_unknown_qtype_detected(self, small_corpus):
        import copy

        broken = copy.deepcopy(small_corpus)
        qid = next(iter(broken.queries))
        broken.queries[qid].qtype = "fuzzy"
        with pytest.raises(ConfigurationError, match="unknown qtype"):
            validate_corpus(broken)

    def test_foreign_local_token_detected(self, small_corpus):
        import copy

        broken = copy.deepcopy(small_corpus)
        q = next(q for q in broken.queries.values() if q.qtype == "local")
        q.tokens = list(q.tokens) + [broken.config.vocab_size - 1]
        with pytest.raises(ConfigurationError, match="lacks some query tokens"):
            validate_corpus(broken)


    def test_local_query_covered_by_another_page_names_the_first_such_page(self, small_corpus):
        import copy

        broken = copy.deepcopy(small_corpus)
        q = next(q for q in broken.queries.values() if q.qtype == "local")
        others = [pid for pid in broken.pages if pid not in q.relevant_page_ids]
        for pid in (others[-1], others[0]):  # the later page first: the message follows page order
            broken.pages[pid].regions[0].content_tokens += list(q.tokens)
        with pytest.raises(
            ConfigurationError, match=f"local query {q.query_id}: page {others[0]} also covers all query tokens"
        ):
            validate_corpus(broken)

    def test_local_query_without_tokens_is_covered_by_every_page(self, small_corpus):
        import copy

        broken = copy.deepcopy(small_corpus)
        q = next(q for q in broken.queries.values() if q.qtype == "local")
        q.tokens = []
        first_other = next(pid for pid in broken.pages if pid not in q.relevant_page_ids)
        with pytest.raises(ConfigurationError, match=f"page {first_other} also covers all query tokens"):
            validate_corpus(broken)


class TestSerialization:
    def test_round_trip_preserves_everything(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        loaded = load_corpus(path)
        assert loaded.config == small_corpus.config
        assert set(loaded.pages) == set(small_corpus.pages)
        for pid in small_corpus.pages:
            assert loaded.pages[pid] == small_corpus.pages[pid]
        assert loaded.queries == small_corpus.queries
        assert loaded.splits == small_corpus.splits

    def test_load_without_descriptors_leaves_them_unread(self, small_corpus, tmp_path, monkeypatch):
        # Loading derives no descriptor, and a descriptor file left next to
        # the corpus by an older version is never read.
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        (tmp_path / "corpus.desc.jsonl").write_text("not a descriptor file\n")
        forbid_descriptors(monkeypatch)
        loaded = load_corpus(path)
        assert loaded.pages == small_corpus.pages

    def test_save_writes_one_file(self, small_corpus, tmp_path):
        save_corpus(small_corpus, tmp_path / "corpus.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl")

    def test_invalid_json_reported_with_line(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        lines = path.read_text().splitlines()
        for bad in ("{broken", "[1, 2]"):
            lines[3] = bad
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigurationError, match=":4: invalid record"):
                load_corpus(path)

    def test_missing_header_rejected(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_corpus(path)

    def test_wrong_schema_version_rejected(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"schema_version": 1', '"schema_version": 9')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="schema_version"):
            load_corpus(path)

    def test_unknown_record_kind_rejected(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        with open(path, "a") as fh:
            fh.write('{"kind": "blob"}\n')
        with pytest.raises(ConfigurationError, match="unknown record kind"):
            load_corpus(path)

    def test_malformed_page_record_names_file_and_kind(self, small_corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        lines = path.read_text().splitlines()
        page = json.loads(lines[1])
        no_regions = {k: v for k, v in page.items() if k != "regions"}
        page["regions"][0]["colour"] = "red"
        for rec, message in (
            (no_regions, "page record is missing field 'regions'"),
            (page, "malformed page record: .*'colour'"),
        ):
            lines[1] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigurationError, match=r"corpus\.jsonl: " + message):
                load_corpus(path)

    @pytest.mark.parametrize("edit, message", MALFORMED_CORPORA)
    def test_malformed_corpus_is_a_configuration_error_naming_the_file(
        self, small_corpus, tmp_path, edit, message
    ):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        save_corpus(small_corpus, good)
        write_malformed_corpus(good, bad, edit)
        with pytest.raises(ConfigurationError, match=re.escape(f"{bad}: {message}")):
            load_corpus(bad)

    @pytest.mark.parametrize("page_id", [-7, 2**64, 1.0, "3", True, None])
    def test_page_id_the_index_cannot_store_is_rejected(self, small_corpus, tmp_path, page_id):
        path = tmp_path / "corpus.jsonl"
        save_corpus(small_corpus, path)
        lines = path.read_text().splitlines()
        page = json.loads(lines[1])
        page["page_id"] = page_id
        lines[1] = json.dumps(page)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=r"page record with page_id .*integer in \[0, 2\*\*64\)"):
            load_corpus(path)
