import json
import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerpool import search
from layerpool.artifact import ArtifactCorruptError, ArtifactVersionError, write_dir
from layerpool.autodiff import NORM_FLOOR, Rng
from layerpool.encoder import INFERENCE_CHUNK, EncoderConfig
from layerpool.pooler import PoolStrategy, pool
from layerpool.search import (
    INDEX_FORMAT,
    INDEX_VERSION,
    EmbeddingMatrix,
    IvfIndex,
    _screen_margin,
    _sq_dists,
    _unit_query,
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


PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def random_matrix(m, d, seed=0):
    gen = Rng(seed).generator()
    return EmbeddingMatrix(vectors=gen.normal(size=(m, d)).astype(np.float32))


def full_probe(matrix, q, top_k):
    nlist = min(2, matrix.num_rows)
    return query(build_index(matrix, nlist, Rng(0)), q, top_k, nprobe=nlist)


def unit(row):
    norm = math.sqrt(sum(x * x for x in row))
    return [x / norm for x in row]


# unit rows whose normalization and every dot product between two of them are
# exact in binary: ±e_i and the sixteen (±1, ±1, ±1, ±1), each of norm 1 or 2
EXACT_ROWS = ([s * np.eye(4)[i] for i in range(4) for s in (1.0, -1.0)]
              + [np.array([(b >> j & 1) * 2.0 - 1.0 for j in range(4)]) for b in range(16)])


class TestEmbeddingMatrix:
    def test_zero_row_rejected(self):
        vecs = np.ones((3, 4), dtype=np.float32)
        vecs[1] = 0.0
        with pytest.raises(ValueError, match="row 1"):
            EmbeddingMatrix(vectors=vecs)

    def test_default_ids(self):
        # row i's id is i; no caller can set another
        m = random_matrix(5, 3)
        assert m.ids.dtype == np.uint32 and np.array_equal(m.ids, np.arange(5))
        with pytest.raises(TypeError):
            EmbeddingMatrix(vectors=m.vectors, ids=np.arange(5))

    def test_rows_normalized_once_in_float64(self):
        x = Rng(3).generator().normal(size=(6, 5)) * 7.0
        m = EmbeddingMatrix(vectors=x)
        expected = (x / np.linalg.norm(x, axis=1)[:, None]).astype(np.float32)
        assert m.vectors.tobytes() == expected.tobytes()
        assert m.ids.dtype == np.uint32 and m.ids.tolist() == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("vectors, match", [
        (np.ones(4), "2-D"),
        (np.ones((2, 3, 4)), "2-D"),
        (np.array([[1.0, np.nan], [1.0, 0.0]]), "finite"),
        (np.array([[1.0, 0.0], [-np.inf, 0.0]]), "finite"),
    ], ids=["1-d", "3-d", "nan", "inf"])
    def test_malformed_input_rejected(self, vectors, match):
        with pytest.raises(ValueError, match=match):
            EmbeddingMatrix(vectors=vectors)

    @pytest.mark.parametrize("row", [[1e-200, 2e-200], [1e200, 2e200], [5e-324, 1e-323],
                                     [1.7e308, 3.4e307], [3e-160, 4e-160]],
                             ids=["norm-underflow", "norm-overflow", "subnormal", "near-max",
                                  "subnormal-square"])
    def test_tiny_and_huge_rows_keep_their_direction(self, row):
        # a row's direction survives the float64 division only when its norm is
        # in [NORM_FLOOR, inf); these norms are 0, inf, or below NORM_FLOOR
        with pytest.raises(ValueError, match="embedding row 1 has norm"):
            EmbeddingMatrix(vectors=np.array([[3.0, 4.0], row]))


def reference_kmeans(x, k, rng, max_iters=25):
    """k-means as first written, one boolean mask per cluster and a fresh
    distance array per term: `kmeans_fit` must give its centroids bit for bit.
    Also returns the most clusters found empty in one Lloyd pass."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    gen = rng.child("kmeans").generator()
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[gen.integers(m)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centroids[i] = x[gen.integers(m)]
        else:
            centroids[i] = x[gen.choice(m, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centroids[i]) ** 2).sum(axis=1))
    most_empty = 0
    assign = np.full(m, -1)
    for _ in range(max_iters):
        dists = ((x * x).sum(1)[:, None] - 2.0 * (x @ centroids.T)
                 + (centroids * centroids).sum(1))
        new_assign = dists.argmin(axis=1)
        empty = 0
        for c in range(k):
            members = new_assign == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
            else:
                empty += 1
                farthest = dists[np.arange(m), new_assign].argmax()
                centroids[c] = x[farthest]
                new_assign[farthest] = c
        most_empty = max(most_empty, empty)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids, most_empty


def oracle_rows(seed, m, d, distinct=None):
    """m normal rows, or m draws from `distinct` normal rows."""
    gen = Rng(seed).generator()
    x = gen.normal(size=(distinct or m, d))
    return x[gen.integers(distinct, size=m)] if distinct else x


class TestKmeans:
    @pytest.mark.parametrize("m, d, k, distinct, iters", [
        (40, 3, 1, None, 25),
        (40, 3, 40, None, 25),
        # 3 distinct rows and k = 12: k-means++ never picks a row at distance
        # 0 while the total is positive, so after 3 picks the total is 0, the
        # duplicated centroids tie and the first Lloyd pass finds 9 clusters empty
        (12, 2, 12, 3, 25),
        # one row three times: the second pass finds cluster 0 empty and
        # re-seeds it with a row of cluster 1, whose mean must then leave it out
        (3, 2, 3, 1, 6),
        (300, 2, 260, None, 25),  # k > 255: the sort key is uint16
    ], ids=["k=1", "k=m", "duplicate-rows", "equal-rows", "k>255"])
    def test_matches_the_reference_bit_for_bit(self, m, d, k, distinct, iters):
        x = oracle_rows(m + k, m, d, distinct)
        expected, most_empty = reference_kmeans(x, k, Rng(7), iters)
        assert kmeans_fit(x, k, Rng(7), iters).tobytes() == expected.tobytes()
        if distinct:
            assert most_empty >= 2

    def test_random_shapes_match_the_reference_bit_for_bit(self):
        passes_with_empties = 0
        for seed in range(80):
            gen = Rng(seed).generator()
            m, d = int(gen.integers(1, 60)), int(gen.integers(1, 12))
            k, iters = int(gen.integers(1, m + 1)), int(gen.integers(1, 8))
            x = oracle_rows(seed, m, d, int(gen.integers(1, m + 1)) if seed % 3 == 0 else None)
            if seed % 5 == 0:
                x = np.asfortranarray(x)  # any layout, as callers may pass
            expected, most_empty = reference_kmeans(x, k, Rng(seed), iters)
            assert kmeans_fit(x, k, Rng(seed), iters).tobytes() == expected.tobytes(), seed
            passes_with_empties += most_empty > 0
        assert passes_with_empties > 0

    @pytest.mark.parametrize("m, d, k", [(1, 1, 1), (57, 5, 9), (2000, 16, 32)])
    def test_distances_have_the_reference_bits(self, m, d, k):
        x, c = oracle_rows(m, m, d), oracle_rows(k, k, d)
        expected = (x * x).sum(1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(1)
        assert _sq_dists(x, c, (x * x).sum(1)).tobytes() == expected.tobytes()

    def test_benchmark_shaped_build_matches_the_reference(self):
        # planted clusters on the unit sphere, as the served index holds
        gen = Rng(3).generator()
        x = gen.normal(size=(16, 16))[gen.integers(16, size=2000)]
        matrix = EmbeddingMatrix(vectors=x + 0.3 * gen.normal(size=x.shape))
        expected, _ = reference_kmeans(matrix.vectors, 32, Rng(5), 10)
        index = build_index(matrix, 32, Rng(5), 10)
        c = expected.astype(np.float32)
        assert index.centroids.tobytes() == c.tobytes()
        v, c = matrix.vectors.astype(np.float64), c.astype(np.float64)
        assign = ((v * v).sum(1)[:, None] - 2.0 * (v @ c.T) + (c * c).sum(1)).argmin(axis=1)
        order = np.argsort(assign, kind="stable")
        assert np.array_equal(index.ids, order)
        assert index.offsets.tolist() == [0, *np.cumsum(np.bincount(assign, minlength=32))]

    def test_max_iters_below_one(self):
        with pytest.raises(ValueError, match="max_iters"):
            kmeans_fit(Rng(1).generator().normal(size=(6, 3)), 2, Rng(0), max_iters=0)

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

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(ValueError, match=f"k={k} is below 1"):
            kmeans_fit(np.ones((3, 2)), k, Rng(0))

    def test_gemm_distances_pick_the_broadcast_argmin(self):
        for seed in range(5):
            gen = Rng(20 + seed).generator()
            x, c = gen.normal(size=(300, 8)), gen.normal(size=(16, 8))
            # the (m, k, d) broadcast form is the reference
            reference = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            dists = _sq_dists(x, c)
            assert dists.shape == (300, 16)
            assert np.allclose(dists, reference, rtol=0, atol=1e-12)
            assert np.array_equal(dists.argmin(axis=1), reference.argmin(axis=1))

    def test_fit_holds_two_full_size_arrays(self):
        # the float64 rows and one (m, k) distance buffer, here as large as
        # the rows; a seeding buffer kept alive, or a fresh distance array per
        # pass, would add another full-size array
        m, d = 4000, 16
        x = Rng(1).generator().normal(size=(m, d)).astype(np.float32)
        tracemalloc.start()
        try:
            kmeans_fit(x, d, Rng(2), max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m * d * 8, peak / (m * d * 8)

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

    def test_posting_lists_are_views_of_one_buffer(self):
        index = build_index(random_matrix(50, 6, seed=5), 5, Rng(0))
        for lists, whole in ((index.posting_ids, index.ids),
                             (np.split(index.vectors, index.offsets[1:-1]), index.vectors)):
            assert all(p.base is whole for p in lists)
            assert np.array_equal(np.concatenate(lists), whole)
        assert [len(p) for p in index.posting_ids] == np.diff(index.offsets).tolist()

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

    @PROPERTY
    @given(data=st.data())
    def test_full_probe_equals_brute_force_property(self, data):
        m = data.draw(st.integers(1, 40), label="m")
        d = data.draw(st.integers(1, 6), label="d")
        distinct = data.draw(hnp.arrays(np.float32, (data.draw(st.integers(1, m)), d),
                                        elements=st.floats(-3, 3, width=32)))
        distinct[~distinct.any(axis=1), 0] = 1.0
        # rows drawn with repetition from `distinct`, so duplicates are common
        rows = distinct[data.draw(st.lists(st.integers(0, len(distinct) - 1),
                                           min_size=m, max_size=m))]
        matrix = EmbeddingMatrix(vectors=rows)
        # float64 entries, subnormal ones included: both searches refuse a
        # query whose norm is below NORM_FLOOR
        q = data.draw(hnp.arrays(np.float64, d, elements=st.floats(-3, 3)), label="q")
        q[0] += not q.any()
        top_k = data.draw(st.integers(1, m + 2), label="top_k")
        if np.linalg.norm(q) < NORM_FLOOR:
            for search in (full_probe, brute_force_query):
                with pytest.raises(ValueError, match="query has norm"):
                    search(matrix, q, top_k)
            return
        expected = brute_force_query(matrix, q, top_k)
        assert len(expected) == min(top_k, m)
        for nlist in range(1, min(16, m) + 1):
            index = build_index(matrix, nlist, Rng(nlist))
            assert query(index, q, top_k, nprobe=nlist) == expected

    @PROPERTY
    @given(rows=st.lists(st.sampled_from(range(len(EXACT_ROWS))), min_size=1, max_size=30),
           q=st.sampled_from(range(len(EXACT_ROWS))), data=st.data())
    def test_ranking_matches_a_sorted_reference(self, rows, q, data):
        vectors = np.array([EXACT_ROWS[r] for r in rows])
        top_k = data.draw(st.integers(1, len(rows) + 2), label="top_k")
        matrix = EmbeddingMatrix(vectors=vectors)
        q_unit = unit(EXACT_ROWS[q].tolist())
        cosines = [sum(a * b for a, b in zip(unit(row), q_unit)) for row in vectors.tolist()]
        # ties rank by row number, which is the row's id
        ranked = sorted(zip(cosines, range(len(rows))), key=lambda ci: (-ci[0], ci[1]))[:top_k]
        expected = [(i, c) for c, i in ranked]
        assert brute_force_query(matrix, EXACT_ROWS[q], top_k) == expected
        assert full_probe(matrix, EXACT_ROWS[q], top_k) == expected

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

    @pytest.mark.parametrize("search", [full_probe, brute_force_query],
                             ids=["query", "brute_force_query"])
    @pytest.mark.parametrize("q, top_k, match", [
        (np.ones(5), 10, "dim"),
        (np.zeros(4), 10, "norm"),
        (np.array([1.0, np.nan, 0.0, 0.0]), 10, "norm"),
        (np.array([1.0, np.inf, 0.0, 0.0]), 10, "norm"),
        (np.ones(4), 0, "top_k"),
        (np.ones((2, 2)), 10, re.escape("query of shape (2, 2)")),
        (np.ones((1, 4)), 10, re.escape("query of shape (1, 4)")),
    ], ids=["dim", "zero", "nan", "inf", "top_k-0", "matrix-2x2", "matrix-1x4"])
    def test_both_searches_reject_a_bad_query(self, search, q, top_k, match):
        with pytest.raises(ValueError, match=match):
            search(random_matrix(10, 4), q, top_k)

    @pytest.mark.parametrize("search", [full_probe, brute_force_query],
                             ids=["query", "brute_force_query"])
    @pytest.mark.parametrize("q", [
        [1e-200, -2e-200, 5e-201, 0.0],
        [1e200, -2e200, 5e199, 0.0],
        [5e-324, -1e-323, 5e-324, 0.0],
        [2e-160, -4e-160, 1e-160, 0.0],
    ], ids=["norm-underflow", "norm-overflow", "subnormal", "subnormal-square"])
    def test_tiny_and_huge_queries_keep_their_direction(self, search, q):
        # a query's direction survives the float64 division only when its norm
        # is in [NORM_FLOOR, inf); these norms are 0, inf, or below NORM_FLOOR
        with pytest.raises(ValueError, match="query has norm"):
            search(random_matrix(10, 4, seed=3), np.array(q), 10)

    def test_nprobe_range(self):
        index = build_index(random_matrix(10, 4), 2, Rng(0))
        with pytest.raises(ValueError, match="nprobe"):
            query(index, np.ones(4), 10, 3)

    def test_tie_break_by_ascending_id(self):
        vecs = np.tile(np.array([[1.0, 0.0]], dtype=np.float32), (5, 1))
        index = build_index(EmbeddingMatrix(vectors=vecs), 1, Rng(0))
        results = query(index, np.array([1.0, 0.0]), 5, 1)
        assert [i for i, _ in results] == [0, 1, 2, 3, 4]

    def test_ties_break_by_id_across_posting_lists(self):
        # four equal cosines in two lists: the scan meets ids 0, 2, 1, 3
        rows = np.array([[1, -0.5], [1, 0.5], [1, -0.5], [1, 0.5]], dtype=np.float32)
        matrix = EmbeddingMatrix(vectors=rows)
        index = build_index(matrix, 2, Rng(0))
        scan_order = np.concatenate(index.posting_ids)
        assert not np.array_equal(scan_order, np.sort(scan_order))
        q = np.array([1.0, 0.0])
        assert [i for i, _ in query(index, q, 4, nprobe=2)] == [0, 1, 2, 3]
        assert [i for i, _ in brute_force_query(matrix, q, 4)] == [0, 1, 2, 3]


def scan_reference(vectors, ids, q, top_k):
    """The ranking with no float32 screen: a float64 einsum over every scanned
    row, then a (-cosine, id) lexsort."""
    q = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    sims = np.einsum("ij,j->i", vectors.astype(np.float64), q)
    order = np.lexsort((ids, -sims))[:top_k]
    return [(int(ids[i]), float(sims[i])) for i in order]


def near_ties(bases, picks, ulps):
    """Rows `bases[picks]` with each entry moved by `ulps` float32 ulps (2⁻²³ relative)."""
    return bases[picks].astype(np.float64) * (1.0 + np.asarray(ulps) * 2.0**-23)


class TestScreen:
    """`_rank` keeps only rows whose float32 score is near the k-th best; rows a few
    ulps apart are where float32 and float64 orders disagree."""

    @PROPERTY
    @given(data=st.data())
    def test_screened_searches_equal_a_full_float64_scan(self, data):
        d = data.draw(st.integers(1, 8), label="d")
        m = data.draw(st.integers(1, 40), label="m")
        bases = data.draw(hnp.arrays(np.float32, (data.draw(st.integers(1, 3)), d),
                                     elements=st.floats(-1, 1, width=32)), label="bases")
        bases[~bases.any(axis=1), 0] = 1.0
        picks = data.draw(st.lists(st.integers(0, len(bases) - 1), min_size=m, max_size=m))
        ulps = data.draw(hnp.arrays(np.int64, (m, d), elements=st.integers(-3, 3)))
        matrix = EmbeddingMatrix(vectors=near_ties(bases, picks, ulps))
        if data.draw(st.booleans(), label="q near a base"):
            q = near_ties(bases, data.draw(st.integers(0, len(bases) - 1)),
                          data.draw(hnp.arrays(np.int64, d, elements=st.integers(-3, 3))))
        else:
            # float32 entries: a nonzero q has a norm of at least 2**-149
            q = data.draw(hnp.arrays(np.float64, d, elements=st.floats(-1, 1, width=32)),
                          label="q")
            q[0] += not q.any()
        top_k = data.draw(st.integers(1, m + 3), label="top_k")
        # every list, or none, is long enough to be scanned in place
        in_place_rows = data.draw(st.sampled_from([0, 2**62]), label="SCAN_IN_PLACE_ROWS")
        with mock.patch.object(search, "SCAN_IN_PLACE_ROWS", in_place_rows):
            assert (brute_force_query(matrix, q, top_k)
                    == scan_reference(matrix.vectors, matrix.ids, q, top_k))

            # any assignment of rows to lists, empty lists included
            nlist = data.draw(st.integers(1, 6), label="nlist")
            assign = np.array(data.draw(st.lists(st.integers(0, nlist - 1), min_size=m,
                                                 max_size=m)), dtype=np.int64)
            order = np.argsort(assign, kind="stable")
            centroids = data.draw(hnp.arrays(np.float32, (nlist, d),
                                             elements=st.floats(-1, 1, width=32)))
            offsets = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=nlist))))
            index = IvfIndex(centroids, matrix.ids[order], matrix.vectors[order], offsets)
            q_unit = q / np.linalg.norm(q)
            probe_order = np.argsort(((centroids.astype(np.float64) - q_unit) ** 2).sum(axis=1),
                                     kind="stable")
            for nprobe in range(1, nlist + 1):
                probes = probe_order[:nprobe]
                scanned = [np.concatenate([lists[c] for c in probes]) for lists in
                           (np.split(index.vectors, index.offsets[1:-1]), index.posting_ids)]
                assert query(index, q, top_k, nprobe) == scan_reference(*scanned, q, top_k)

    def test_rows_a_float32_top_k_would_drop_are_found(self):
        gen = Rng(5).generator()
        dropped = 0
        for _ in range(20):
            base = gen.normal(size=(1, 64)).astype(np.float32)
            matrix = EmbeddingMatrix(vectors=near_ties(base, np.zeros(300, np.int64),
                                                       gen.integers(-3, 4, size=(300, 64))))
            q = near_ties(base, 0, gen.integers(-3, 4, size=64))
            expected = scan_reference(matrix.vectors, matrix.ids, q, 10)
            s32 = matrix.vectors @ (q / np.linalg.norm(q)).astype(np.float32)
            top32 = set(matrix.ids[np.lexsort((matrix.ids, -s32))[:10]].tolist())
            dropped += not {i for i, _ in expected} <= top32
            assert brute_force_query(matrix, q, 10) == expected
            assert query(build_index(matrix, 4, Rng(0)), q, 10, nprobe=4) == expected
        # the margin matters: the float32 top 10 alone misses exact hits here
        assert dropped >= 5

    @PROPERTY
    @given(data=st.data())
    def test_float32_threshold_keeps_the_float64_compare_rows(self, data):
        d = data.draw(st.integers(1, 64), label="d")
        m = data.draw(st.integers(2, 60), label="m")
        bases = data.draw(hnp.arrays(np.float32, (data.draw(st.integers(1, 3)), d),
                                     elements=st.floats(-1, 1, width=32)), label="bases")
        bases[~bases.any(axis=1), 0] = 1.0
        picks = data.draw(st.lists(st.integers(0, len(bases) - 1), min_size=m, max_size=m))
        ulps = data.draw(hnp.arrays(np.int64, (m + 1, d), elements=st.integers(-3, 3)))
        rows = EmbeddingMatrix(vectors=near_ties(bases, picks, ulps[:m]))
        q = _unit_query(near_ties(bases, data.draw(st.integers(0, len(bases) - 1)), ulps[m]),
                        d, 1)
        top_k = data.draw(st.integers(1, m - 1), label="top_k")
        s32 = rows.vectors @ q.astype(np.float32)
        s_k = float(np.partition(s32, m - top_k)[m - top_k])
        t = s_k - 2.0 * _screen_margin(d)
        keep = search._screen(s32, top_k, d)
        assert set(np.flatnonzero(s32 >= np.float64(t)).tolist()) <= set(keep.tolist())
        # any other kept row is the one float32 below the threshold
        extra = s32[keep][s32[keep] < t]
        assert np.all(np.nextafter(extra, np.float32(np.inf)) > t)

    def test_screen_threshold_is_cast_to_the_nearest_float32(self):
        # the rows at the float32 neighbours of t = s_k − 2ε, for thresholds
        # that round down and ones that round up: every row at or above t is
        # kept, and below t only the float32 that t rounds down to
        rounded = set()
        for d in range(1, 65):
            # s_k near 0 puts t among finer float32s, where it rounds either way
            for s_k in np.float32([0.5, -0.7, 0.0, 3e-5]):
                t = float(s_k) - 2.0 * _screen_margin(d)
                t32 = np.float32(t)
                rounded.add(float(t32) > t)
                below = t32 if float(t32) <= t else np.nextafter(t32, np.float32(-np.inf))
                above = np.nextafter(below, np.float32(np.inf))
                s32 = np.array([s_k, below, above, np.nextafter(below, np.float32(-np.inf))],
                               np.float32)
                expected = [0, 1, 2] if float(t32) <= t else [0, 2]
                assert search._screen(s32, 1, d).tolist() == expected, (d, s_k)
        assert rounded == {False, True}


def probe_index(centroids):
    """An index of the given centroids and no rows, enough for `_probes`."""
    nlist, d = centroids.shape
    return IvfIndex(centroids, np.zeros(0, np.uint32), np.zeros((0, d), np.float32),
                    np.zeros(nlist + 1, np.int64))


def difference_form_probes(centroids, q, nprobe):
    """The first nprobe lists by a stable argsort of the float64 difference form."""
    d2 = ((centroids.astype(np.float64) - q) ** 2).sum(axis=1)
    return sorted(np.argsort(d2, kind="stable")[:nprobe].tolist())


class TestProbes:
    """`_probes` scores ‖c‖² − 2c·q and rescores in difference form only the
    centroids within 2ε_p of the nprobe-th smallest score; centroids a few ulps
    apart, repeated, or far from unit norm are where the two forms disagree."""

    @PROPERTY
    @given(data=st.data())
    def test_probe_sets_equal_the_difference_form(self, data):
        d = data.draw(st.integers(1, 8), label="d")
        nlist = data.draw(st.integers(1, 12), label="nlist")
        bases = data.draw(hnp.arrays(np.float32, (data.draw(st.integers(1, 3)), d),
                                     elements=st.floats(-1, 1, width=32)), label="bases")
        picks = data.draw(st.lists(st.integers(0, len(bases) - 1),
                                   min_size=nlist, max_size=nlist), label="picks")
        # all-zero ulps repeat a base exactly; the lower list must win the tie
        ulps = data.draw(hnp.arrays(np.int64, (nlist, d), elements=st.integers(-3, 3)))
        # permuted and sign-flipped copies keep a base's norm, and near a query
        # of equal entries their distances tie but for rounding, at any scale
        perms = np.array([data.draw(st.permutations(range(d))) for _ in range(nlist)])
        signs = data.draw(hnp.arrays(np.int64, (nlist, d), elements=st.sampled_from([-1, 1])))
        rows = np.take_along_axis(near_ties(bases, picks, ulps) * signs, perms, axis=1)
        # norms from subnormal to near the float32 maximum
        scale = 2.0 ** data.draw(st.integers(-149, 127), label="log2 scale")
        centroids = (rows * scale).astype(np.float32)
        kind = data.draw(st.sampled_from(["near a centroid", "equal entries", "any"]),
                         label="q")
        if kind == "near a centroid":
            q = near_ties(centroids, data.draw(st.integers(0, nlist - 1)),
                          data.draw(hnp.arrays(np.int64, d, elements=st.integers(-3, 3))))
        elif kind == "equal entries":
            q = np.ones(d)
        else:
            q = data.draw(hnp.arrays(np.float64, d, elements=st.floats(-1, 1, width=32)),
                          label="q")
        q[0] += not q.any()
        q = _unit_query(q, d, 1)
        index = probe_index(centroids)
        for nprobe in range(1, nlist + 1):
            assert (search._probes(index, q, nprobe).tolist()
                    == difference_form_probes(centroids, q, nprobe))

    def test_both_branches_pick_the_difference_form_probes(self):
        gen = Rng(11).generator()
        bands = singles = 0
        for trial in range(300):
            d, nlist = int(gen.integers(1, 17)), int(gen.integers(2, 17))
            # permuted, sign-flipped copies of one row, each a few ulps off:
            # near a query of equal entries they tie but for rounding
            base = gen.uniform(-1, 1, size=d)
            rows = np.array([gen.permutation(base) * gen.choice([-1, 1], size=d)
                             for _ in range(nlist)])
            ulps = gen.integers(-1, 2, size=(nlist, d))
            centroids = (near_ties(rows, np.arange(nlist), ulps)
                         * 2.0 ** gen.integers(-149, 120)).astype(np.float32)
            q = _unit_query(np.ones(d) if trial % 2 else gen.normal(size=d), d, 1)
            index = probe_index(centroids)
            for nprobe in range(1, nlist):
                with mock.patch.object(search, "_sq_dist_to",
                                       wraps=search._sq_dist_to) as recheck:
                    probes = search._probes(index, q, nprobe)
                bands += recheck.call_count
                singles += not recheck.call_count
                assert probes.tolist() == difference_form_probes(centroids, q, nprobe)
        # the band is rescored in some cases and is the probe set in others
        assert bands and singles, (bands, singles)

    def test_repeated_centroids_go_to_the_lower_list(self):
        centroids = np.tile(np.array([[0.6, -0.8]], np.float32), (5, 1))
        index = probe_index(centroids)
        for nprobe in range(1, 6):
            probes = search._probes(index, np.array([1.0, 0.0]), nprobe)
            assert probes.tolist() == list(range(nprobe))

    def test_probes_allocate_less_than_one_centroid_array(self):
        gen = Rng(3).generator()
        index = probe_index(gen.normal(size=(64, 64)).astype(np.float32))
        q = _unit_query(gen.normal(size=64), 64, 1)
        search._probes(index, q, 8)  # the float64 centroids and norms are made once, here
        tracemalloc.start()
        try:
            search._probes(index, q, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < index.centroids64.nbytes, peak


def gather_reference_query(index, q, top_k, nprobe):
    """`query` as it was before long lists were scanned in place: the probed
    rows gathered with one take, screened in float32, the survivors ranked."""
    q = _unit_query(q, index.dim, top_k)
    probes = np.argsort(((index.centroids - q) ** 2).sum(axis=1), kind="stable")[:nprobe]
    starts, ends = index.offsets[probes], index.offsets[probes + 1]
    sizes = ends - starts
    rows = np.repeat(ends - np.cumsum(sizes), sizes)
    rows += np.arange(len(rows))
    vecs = index.vectors.take(rows, axis=0)
    n = len(vecs)
    if top_k < n:
        s32 = vecs @ q.astype(np.float32)
        s_k = float(np.partition(s32, n - top_k)[n - top_k])
        keep = np.flatnonzero(s32 >= np.float64(s_k - 2.0 * _screen_margin(len(q))))
        vecs, rows = vecs[keep], rows[keep]
    row_ids = index.ids.take(rows)
    sims = np.einsum("ij,j->i", vecs.astype(np.float64), q)
    order = np.lexsort((row_ids, -sims))[:top_k]
    return list(zip(row_ids[order].tolist(), sims[order].tolist()))


@pytest.fixture(scope="module")
def served():
    """A planted 20k x 64 index of 64 lists, as the benchmark serves, and 500
    queries near its rows."""
    gen = Rng(17).generator()
    x = gen.normal(size=(16, 64))[gen.integers(16, size=20000)]
    matrix = EmbeddingMatrix(vectors=x + 3.0 * gen.normal(size=x.shape))
    queries = matrix.vectors[gen.integers(20000, size=500)] + 0.1 * gen.normal(size=(500, 64))
    return build_index(matrix, 64, Rng(4), max_iters=5), queries


class TestServedIndex:
    @pytest.mark.parametrize("nprobe", [1, 8, 64])
    def test_queries_equal_the_gather_reference(self, served, nprobe):
        index, queries = served
        # the lists are long enough to be scanned in place
        assert np.diff(index.offsets).min() >= search.SCAN_IN_PLACE_ROWS
        for q in queries:
            assert query(index, q, 10, nprobe) == gather_reference_query(index, q, 10, nprobe)

    def test_query_copies_no_probed_list(self, served):
        index, queries = served
        query(index, queries[0], 10, 8)  # the float64 centroids are made once, here
        probes = search._probes(index, _unit_query(queries[1], 64, 10), 8)
        probed_bytes = 4 * 64 * int((index.offsets[probes + 1] - index.offsets[probes]).sum())
        tracemalloc.start()
        try:
            query(index, queries[1], 10, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < probed_bytes / 4, (peak, probed_bytes)


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
        assert 0.0 <= metrics.query_ms_p50 <= metrics.query_ms_p99
        assert metrics.memory_usage_bytes == index.memory_bytes()

    @pytest.mark.parametrize("nprobe, candidates", [(1, 2.0), (2, 4.0)])
    def test_candidates_and_imbalance(self, nprobe, candidates):
        # lists of 3 rows and 1 row: nlist·Σsᵢ²/m² = 2·(9 + 1)/16
        rows = np.array([[1, 0], [0.8, 0.6], [0.6, 0.8], [0, 1]], np.float32)
        index = IvfIndex(np.array([[1, 0.2], [0, 1]], np.float32), np.arange(4, dtype=np.uint32),
                         rows, np.array([0, 3, 4]))
        # one query probes the long list first, the other the short one
        metrics = evaluate_search(index, [[1.0, 0.1], [0.0, 1.0]], [0, 3], nprobe=nprobe)
        assert metrics.candidates_per_query == candidates
        assert metrics.imbalance_factor == 1.25
        assert metrics.mrr_at_10 == 1.0

    def test_empty_index_counts_no_candidates(self):
        index = IvfIndex(np.eye(2, dtype=np.float32), np.zeros(0, np.uint32),
                         np.zeros((0, 2), np.float32), np.zeros(3, np.int64))
        metrics = evaluate_search(index, [[1.0, 0.0]], [0], nprobe=2)
        assert (metrics.candidates_per_query, metrics.imbalance_factor) == (0.0, 1.0)
        assert metrics.mrr_at_10 == 0.0 and metrics.missing_gold_ids == [0]

    def test_one_query_call_per_query(self, monkeypatch):
        # each query is timed around the very search that is scored, and its
        # candidates are counted from that search's probes, not picked again
        index = self._planted_index()
        calls = Counter()

        def counting(name):
            original = getattr(search, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(search, name, wrapper)

        counting("_query")
        counting("_probes")
        metrics = evaluate_search(index, np.eye(12)[:5], [0, 1, 2, 3, 4], nprobe=1)
        assert calls == {"_query": 5, "_probes": 5}
        assert metrics.mrr_at_10 == 1.0
        assert metrics.candidates_per_query == 12.0

    @pytest.mark.parametrize("queries, gold", [(np.eye(12)[0], [0]),
                                               (np.ones((2, 2, 6)), [0, 1])],
                             ids=["1-d", "3-d"])
    def test_queries_not_a_matrix_rejected(self, queries, gold):
        # a 3-D array whose rows reshape to the index dim is not read as queries
        with pytest.raises(ValueError, match=re.escape(f"got shape {queries.shape}")):
            evaluate_search(self._planted_index(), queries, gold, nprobe=1)

    def test_zero_queries_rejected(self):
        with pytest.raises(ValueError, match="at least one query"):
            evaluate_search(self._planted_index(), np.zeros((0, 12)), [], nprobe=1)

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

    def test_gold_ids_outside_uint32_flagged_not_wrapped(self):
        # 2**32 would wrap to the indexed id 0
        metrics = evaluate_search(self._planted_index(), np.eye(12)[:2], [2**32, -1], nprobe=1)
        assert metrics.missing_gold_ids == [2**32, -1]
        assert metrics.mrr_at_10 == 0.0

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

    @pytest.mark.parametrize("name, cut", [("centroids.npy", 1), ("posting_ids.npy", 4),
                                           ("posting_vectors.npy", 1),
                                           ("posting_vectors.npy", 5 * 4)])
    def test_truncated_file_rejected(self, saved, name, cut):
        victim = saved / name
        victim.write_bytes(victim.read_bytes()[:-cut])
        with pytest.raises(ArtifactCorruptError, match=name):
            load_index(saved)

    @pytest.mark.parametrize("key, value", [("version", 1), ("version", 2), ("version", 4),
                                            ("version", None), ("format", "other")])
    def test_other_format_or_version_rejected(self, saved, key, value):
        self.edit_header(saved, lambda h: h.update({key: value}))
        with pytest.raises(ArtifactVersionError, match="version"):
            load_index(saved)

    def test_wrong_set_of_arrays_rejected(self, saved):
        def drop_ids(h):
            h["arrays"] = [a for a in h["arrays"] if a["name"] != "posting_ids"]

        self.edit_header(saved, drop_ids)
        with pytest.raises(ArtifactCorruptError, match="index arrays must be"):
            load_index(saved)

    def test_posting_sizes_must_sum_to_m(self, saved):
        def grow_first_list(h):
            h["meta"]["posting_sizes"][0] += 1

        self.edit_header(saved, grow_first_list)
        with pytest.raises(ArtifactCorruptError, match="posting_sizes"):
            load_index(saved)

    def test_posting_sizes_must_match_files(self, saved):
        # posting_sizes and a valid .npy member of m + 1 rows agree with each
        # other, but the member's bytes are not the ones the header hashed
        def grow_first_list(h):
            h["meta"]["posting_sizes"][0] += 1

        self.edit_header(saved, grow_first_list)
        vectors = np.load(saved / "posting_vectors.npy", allow_pickle=False)
        np.save(saved / "posting_vectors.npy", np.concatenate([vectors, vectors[:1]]))
        with pytest.raises(ArtifactCorruptError, match="sha256"):
            load_index(saved)

    @staticmethod
    def write_crafted(path, index, edit):
        """`index` written as a valid artifact (sha256 and all) after `edit`
        changes copies of its centroids and vectors."""
        centroids, vectors = index.centroids.copy(), index.vectors.copy()
        edit(centroids, vectors)
        write_dir(path, INDEX_FORMAT, INDEX_VERSION,
                  {"metric": "cosine", "posting_sizes": np.diff(index.offsets).tolist()},
                  {"centroids": centroids, "posting_ids": index.ids,
                   "posting_vectors": vectors})

    @pytest.mark.parametrize("edit, match", [
        (lambda c, v: c.__setitem__((1, 0), np.nan), "centroids"),
        (lambda c, v: c.__setitem__((3, 4), -np.inf), "centroids"),
        (lambda c, v: v.__setitem__((3, 1), np.nan), "row 3"),
        (lambda c, v: v.__setitem__((9, 0), np.inf), "row 9"),
        (lambda c, v: v.__setitem__(5, 0.0), "row 5"),
        (lambda c, v: v.__setitem__(7, v[7] * 2), "row 7"),
        (lambda c, v: v.__setitem__(8, v[8] * np.float32(1 + 2**-18)), "row 8"),
    ], ids=["nan-centroid", "inf-centroid", "nan-row", "inf-row", "zero-row", "long-row",
            "row-beyond-tolerance"])
    def test_crafted_index_breaking_the_screen_premise_rejected(self, tmp_path, edit, match):
        # the float32 screen is exact only for finite centroids and unit rows
        index = build_index(random_matrix(40, 5, seed=14), 4, Rng(2))
        self.write_crafted(tmp_path / "idx", index, edit)
        with pytest.raises(ArtifactCorruptError, match=match):
            load_index(tmp_path / "idx")

    def test_crafted_index_within_tolerance_loads(self, tmp_path):
        index = build_index(random_matrix(40, 5, seed=14), 4, Rng(2))
        self.write_crafted(tmp_path / "idx", index,
                           lambda c, v: v.__setitem__(8, v[8] * np.float32(1 + 2**-22)))
        loaded = load_index(tmp_path / "idx")
        assert np.array_equal(loaded.ids, index.ids)
        assert np.array_equal(loaded.offsets, index.offsets)

    def test_repeated_ids_rejected(self, tmp_path):
        # a valid artifact (sha256 and all) whose one list holds id 7 four
        # times; loaded, a query returned (7, 0.5) four times
        write_dir(tmp_path / "idx", INDEX_FORMAT, INDEX_VERSION,
                  {"metric": "cosine", "posting_sizes": [4]},
                  {"centroids": np.full((1, 4), 0.5, np.float32),
                   "posting_ids": np.full(4, 7, np.uint32),
                   "posting_vectors": np.eye(4, dtype=np.float32)})
        with pytest.raises(ArtifactCorruptError, match="posting_ids must be distinct"):
            load_index(tmp_path / "idx")

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
                              ffn_dim=16, max_seq_len=6, dropout_p=0.1),
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
        saved = {k: v.copy() for k, v in checkpoint.params.items()}
        gen = Rng(99).generator()
        for k in checkpoint.params:
            if k.startswith("pooler."):
                checkpoint.params[k] = gen.normal(size=saved[k].shape)
        after = embed_corpus(checkpoint, texts, "detached").vectors
        for k, v in saved.items():
            checkpoint.params[k] = v
        assert np.array_equal(before, after)

    def test_trained_pooler_differs_from_detached(self, checkpoint):
        texts = ["word1 word2"]
        a = embed_corpus(checkpoint, texts, "detached").vectors
        b = embed_corpus(checkpoint, texts, "trained-pooler").vectors
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("mode", ["detached", "trained-pooler"])
    def test_chunked_like_separate_calls(self, checkpoint, mode):
        # every text has at most 6 tokens, fewer than numpy's 8-term summation
        # blocks, so padded slots and other lists' rows add only exact zeros to
        # its sums, and its row gets the same bits in any encode call of two or
        # more lists: however encode_texts sorts and cuts 130 texts, or three
        # chunks of them, the rows are the same
        texts = [" ".join(f"word{(i * 3 + j) % 7}" for j in range(1 + i % 5))
                 for i in range(130)]
        whole = embed_corpus(checkpoint, texts, mode).vectors
        parts = [embed_corpus(checkpoint, texts[lo:lo + INFERENCE_CHUNK], mode).vectors
                 for lo in range(0, len(texts), INFERENCE_CHUNK)]
        assert len(parts) == 3
        assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("mode", ["detached", "trained-pooler"])
    def test_rows_are_pooled_over_norm_in_float32(self, checkpoint, mode):
        texts = ["word1 word2", "word3", "word4 word5 word6"]
        stacks = checkpoint.encoder().encode_texts(checkpoint.tokenizer(), texts)
        if mode == "detached":
            pooled = stacks.data[:, -1, 0]
        else:
            pooled = pool(stacks, checkpoint.constants(),
                          PoolStrategy(checkpoint.config.strategy),
                          checkpoint.config.norm_mode).data
        expected = (pooled / np.linalg.norm(pooled, axis=1)[:, None]).astype(np.float32)
        assert embed_corpus(checkpoint, texts, mode).vectors.tobytes() == expected.tobytes()

    def test_unknown_mode(self, checkpoint):
        with pytest.raises(ValueError, match="inference_pooling"):
            embed_corpus(checkpoint, ["word1"], "mean")
