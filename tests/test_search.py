import json

import numpy as np
import pytest

from layerpool.artifact import ArtifactCorruptError, ArtifactVersionError
from layerpool.autodiff import Rng
from layerpool.encoder import INFERENCE_CHUNK, EncoderConfig
from layerpool.search import (
    EmbeddingMatrix,
    brute_force_query,
    build_index,
    embed_corpus,
    evaluate_search,
    kmeans_fit,
    load_index,
    query,
    save_index,
)
from layerpool.trainer import TrainConfig, train


def random_matrix(m, d, seed=0):
    gen = Rng(seed).generator()
    return EmbeddingMatrix(vectors=gen.normal(size=(m, d)).astype(np.float32))


class TestEmbeddingMatrix:
    def test_zero_row_rejected(self):
        vecs = np.ones((3, 4), dtype=np.float32)
        vecs[1] = 0.0
        with pytest.raises(ValueError, match="row 1"):
            EmbeddingMatrix(vectors=vecs)

    def test_default_ids(self):
        m = random_matrix(5, 3)
        assert np.array_equal(m.ids, np.arange(5))


class TestKmeans:
    def test_k_equals_m_zero_inertia(self):
        gen = Rng(1).generator()
        x = gen.normal(size=(6, 3))
        centroids = kmeans_fit(x, 6, Rng(0))
        d2 = ((x[:, None] - centroids[None]) ** 2).sum(axis=2)
        assert d2.min(axis=1).max() < 1e-20

    def test_k_one_is_mean(self):
        gen = Rng(2).generator()
        x = gen.normal(size=(20, 4))
        centroids = kmeans_fit(x, 1, Rng(0))
        assert np.allclose(centroids[0], x.mean(axis=0), atol=1e-12)

    def test_two_separated_blobs(self):
        gen = Rng(3).generator()
        a = gen.normal(size=(30, 3)) * 0.05 + np.array([10.0, 0, 0])
        b = gen.normal(size=(30, 3)) * 0.05 - np.array([10.0, 0, 0])
        x = np.concatenate([a, b])
        centroids = kmeans_fit(x, 2, Rng(0))
        assign = ((x[:, None] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
        # brute-force check: membership splits exactly at the blob boundary
        assert len(set(assign[:30])) == 1 and len(set(assign[30:])) == 1
        assert assign[0] != assign[30]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.ones((3, 2)), 4, Rng(0))

    def test_inertia_non_increasing(self):
        gen = Rng(4).generator()
        x = gen.normal(size=(60, 5))
        inertias = []
        for iters in range(1, 8):
            c = kmeans_fit(x, 4, Rng(0), max_iters=iters)
            d2 = ((x[:, None] - c[None]) ** 2).sum(axis=2)
            inertias.append(d2.min(axis=1).sum())
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9


class TestBuildIndex:
    def test_single_list_holds_all(self):
        m = random_matrix(20, 4)
        index = build_index(m, 1, Rng(0))
        assert len(index.posting_ids[0]) == 20

    def test_partition_invariant(self):
        m = random_matrix(50, 6, seed=5)
        index = build_index(m, 5, Rng(0))
        all_ids = np.concatenate(index.posting_ids)
        assert len(all_ids) == 50
        assert len(set(all_ids.tolist())) == 50

    def test_rebuild_deterministic(self):
        m = random_matrix(30, 4, seed=6)
        a = build_index(m, 4, Rng(9))
        b = build_index(m, 4, Rng(9))
        assert np.array_equal(a.centroids, b.centroids)
        for pa, pb in zip(a.posting_ids, b.posting_ids):
            assert np.array_equal(pa, pb)


class TestQuery:
    def test_full_probe_equals_brute_force(self):
        gen = Rng(7).generator()
        for trial in range(10):
            m = random_matrix(int(gen.integers(20, 120)), 8, seed=trial)
            nlist = int(gen.integers(1, 9))
            index = build_index(m, nlist, Rng(trial))
            for _ in range(5):
                q = gen.normal(size=8)
                assert query(index, q, 10, nprobe=nlist) == brute_force_query(m, q, 10)

    def test_exact_hit_ranks_first(self):
        m = random_matrix(40, 6, seed=8)
        index = build_index(m, 4, Rng(0))
        target = m.vectors[17]
        results = query(index, target.astype(np.float64), 10, nprobe=4)
        assert results[0][0] == 17
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_planted_clusters_nprobe_one(self):
        gen = Rng(9).generator()
        centers = np.eye(3, 6) * 10
        rows = np.concatenate(
            [centers[c] + gen.normal(size=(20, 6)) * 0.05 for c in range(3)]
        ).astype(np.float32)
        m = EmbeddingMatrix(vectors=rows)
        index = build_index(m, 3, Rng(1))
        results = query(index, centers[1], 10, nprobe=1)
        members = set(range(20, 40))
        assert {i for i, _ in results} <= members

    def test_dimension_mismatch(self):
        index = build_index(random_matrix(10, 4), 2, Rng(0))
        with pytest.raises(ValueError, match="dim"):
            query(index, np.ones(5), 10, 1)

    def test_nprobe_range(self):
        index = build_index(random_matrix(10, 4), 2, Rng(0))
        with pytest.raises(ValueError, match="nprobe"):
            query(index, np.ones(4), 10, 3)

    def test_tie_break_by_ascending_id(self):
        vecs = np.tile(np.array([[1.0, 0.0]], dtype=np.float32), (5, 1))
        index = build_index(EmbeddingMatrix(vectors=vecs), 1, Rng(0))
        results = query(index, np.array([1.0, 0.0]), 5, 1)
        assert [i for i, _ in results] == [0, 1, 2, 3, 4]


class TestEvaluateSearch:
    def _planted_index(self):
        # orthogonal unit rows: query row i retrieves exactly row i first
        vecs = np.eye(12, dtype=np.float32)
        return build_index(EmbeddingMatrix(vectors=vecs), 1, Rng(0))

    def test_perfect_retrieval(self):
        index = self._planted_index()
        queries = np.eye(12)[:4]
        metrics = evaluate_search(index, queries, [0, 1, 2, 3], nprobe=1)
        assert metrics.mrr_at_10 == 1.0
        assert metrics.avg_retrieval_time_ms >= 0.0
        assert metrics.memory_usage_bytes == index.memory_bytes()

    def test_rank_three_reciprocal(self):
        # query closest to rows 0 > 1 > 2; gold is 2 -> 1/3
        vecs = np.array([[1, 0, 0], [0.9, 0.1, 0], [0.8, 0.2, 0]], dtype=np.float32)
        index = build_index(EmbeddingMatrix(vectors=vecs), 1, Rng(0))
        metrics = evaluate_search(index, np.array([[1.0, 0.0, 0.0]]), [2], nprobe=1)
        assert metrics.mrr_at_10 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_outside_top10_counts_zero(self):
        gen = Rng(11).generator()
        base = np.array([1.0, 0.0])
        # rows 0..10 ever closer to the query; gold row 11 is orthogonal
        rows = [np.array([1.0, 0.01 * (i + 1)]) for i in range(11)]
        rows.append(np.array([0.0, 1.0]))
        index = build_index(EmbeddingMatrix(vectors=np.array(rows, dtype=np.float32)),
                            1, Rng(0))
        metrics = evaluate_search(index, base[None, :], [11], nprobe=1)
        assert metrics.mrr_at_10 == 0.0

    def test_missing_gold_flagged_not_raised(self):
        index = self._planted_index()
        metrics = evaluate_search(index, np.eye(12)[:2], [0, 999], nprobe=1)
        assert metrics.missing_gold_ids == [999]
        assert metrics.mrr_at_10 == pytest.approx(0.5)

    def test_mrr_monotone_in_nprobe(self):
        m = random_matrix(200, 8, seed=12)
        index = build_index(m, 8, Rng(0))
        gen = Rng(13).generator()
        queries = m.vectors[:20].astype(np.float64) + gen.normal(size=(20, 8)) * 0.01
        gold = list(range(20))
        scores = [evaluate_search(index, queries, gold, nprobe=p).mrr_at_10
                  for p in (1, 2, 4, 8)]
        for a, b in zip(scores, scores[1:]):
            assert b >= a - 1e-12


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        m = random_matrix(40, 5, seed=14)
        index = build_index(m, 4, Rng(2))
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert np.array_equal(loaded.centroids, index.centroids)
        gen = Rng(15).generator()
        for _ in range(5):
            q = gen.normal(size=5)
            assert query(loaded, q, 10, 4) == query(index, q, 10, 4)

    @pytest.fixture
    def saved(self, tmp_path):
        save_index(build_index(random_matrix(40, 5, seed=14), 4, Rng(2)), tmp_path / "idx")
        return tmp_path / "idx"

    @staticmethod
    def edit_header(saved, edit):
        header = json.loads((saved / "header.json").read_text())
        edit(header)
        (saved / "header.json").write_text(json.dumps(header))

    @pytest.mark.parametrize("name, cut", [("centroids.f32", 1), ("posting_ids.u32", 4),
                                           ("posting_vectors.f32", 1),
                                           ("posting_vectors.f32", 5 * 4)])
    def test_truncated_file_rejected(self, saved, name, cut):
        victim = saved / name
        victim.write_bytes(victim.read_bytes()[:-cut])
        with pytest.raises(ArtifactCorruptError, match=name):
            load_index(saved)

    @pytest.mark.parametrize("key, value", [("version", 1), ("version", 3),
                                            ("version", None), ("format", "other")])
    def test_other_format_or_version_rejected(self, saved, key, value):
        self.edit_header(saved, lambda h: h.update({key: value}))
        with pytest.raises(ArtifactVersionError, match="version"):
            load_index(saved)

    def test_posting_sizes_must_sum_to_m(self, saved):
        def grow_first_list(h):
            h["meta"]["posting_sizes"][0] += 1

        self.edit_header(saved, grow_first_list)
        with pytest.raises(ArtifactCorruptError, match="posting_sizes"):
            load_index(saved)

    def test_posting_sizes_must_match_files(self, saved):
        # posting_sizes and the array shapes (m rows) agree with each other
        # but not with the files
        def grow_first_list(h):
            h["meta"]["posting_sizes"][0] += 1
            for entry in h["arrays"]:
                if entry["name"] != "centroids":
                    entry["shape"][0] += 1

        self.edit_header(saved, grow_first_list)
        with pytest.raises(ArtifactCorruptError, match="bytes"):
            load_index(saved)

    def test_unreadable_header_rejected(self, saved):
        (saved / "header.json").write_text("{nope")
        with pytest.raises(ArtifactCorruptError):
            load_index(saved)


@pytest.fixture(scope="module")
def checkpoint():
    corpus = [{"text": f"word{i} word{(i * 2) % 7}"} for i in range(8)]
    cfg = TrainConfig(
        objective="unsup", strategy="attn_cls_avg_concat", batch_size=4,
        epochs=1, seed=3,
        encoder=EncoderConfig(num_layers=2, hidden_dim=8, num_heads=2,
                              ffn_dim=16, max_seq_len=6, vocab_size=32,
                              dropout_p=0.1),
    )
    ckpt, _ = train(cfg, corpus)
    return ckpt


class TestEmbedCorpus:
    def test_rows_unit_norm(self, checkpoint):
        texts = ["word1 word2", "word3"]
        for mode in ("detached", "trained-pooler"):
            m = embed_corpus(checkpoint, texts, inference_pooling=mode)
            assert np.allclose(np.linalg.norm(m.vectors, axis=1), 1.0, atol=1e-6)

    def test_detached_invariant_to_pooler(self, checkpoint):
        texts = ["word1 word2", "word3 word4"]
        before = embed_corpus(checkpoint, texts, "detached").vectors.copy()
        saved = {k: v.data.copy() for k, v in checkpoint.params.items()}
        gen = Rng(99).generator()
        for k in checkpoint.params:
            if k.startswith("pooler."):
                checkpoint.params[k].data = gen.normal(size=saved[k].shape)
        after = embed_corpus(checkpoint, texts, "detached").vectors
        for k, v in saved.items():
            checkpoint.params[k].data = v
        assert np.array_equal(before, after)

    def test_trained_pooler_differs_from_detached(self, checkpoint):
        texts = ["word1 word2"]
        a = embed_corpus(checkpoint, texts, "detached").vectors
        b = embed_corpus(checkpoint, texts, "trained-pooler").vectors
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("mode", ["detached", "trained-pooler"])
    def test_chunked_like_separate_calls(self, checkpoint, mode):
        # outside training the encoder runs fixed chunks, so 130 texts give
        # exactly the rows of three separate calls on the same chunk bounds
        texts = [" ".join(f"word{(i * 3 + j) % 7}" for j in range(1 + i % 5))
                 for i in range(130)]
        whole = embed_corpus(checkpoint, texts, mode).vectors
        parts = [embed_corpus(checkpoint, texts[lo:lo + INFERENCE_CHUNK], mode).vectors
                 for lo in range(0, len(texts), INFERENCE_CHUNK)]
        assert len(parts) == 3
        assert np.array_equal(whole, np.concatenate(parts))

    def test_unknown_mode(self, checkpoint):
        with pytest.raises(ValueError, match="inference_pooling"):
            embed_corpus(checkpoint, ["word1"], "mean")
