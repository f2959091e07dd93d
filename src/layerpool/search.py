"""IVF-flat approximate nearest-neighbor search with k-means coarse quantization.

Cosine similarity is realized as inner product on unit-normalized float32
vectors, so centroid assignment by squared L2 and candidate scoring by dot
product induce the same ordering. The index is immutable after build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .artifact import ArtifactCorruptError, read_dir, write_dir
from .autodiff import Rng
from .pooler import PoolStrategy, pool
from .trainer import Checkpoint


@dataclass
class EmbeddingMatrix:
    """Dense row-per-sentence embedding store, float32, no zero rows."""

    vectors: np.ndarray = field(repr=False)
    ids: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        norms = np.linalg.norm(self.vectors, axis=1)
        bad = np.nonzero(norms == 0.0)[0]
        if bad.size:
            raise ValueError(f"zero-norm embedding at row {int(bad[0])}")
        if self.ids is None:
            self.ids = np.arange(self.vectors.shape[0], dtype=np.uint32)
        else:
            self.ids = np.asarray(self.ids, dtype=np.uint32)

    @property
    def num_rows(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def embed_corpus(checkpoint: Checkpoint, texts: list[str],
                 inference_pooling: str = "detached") -> EmbeddingMatrix:
    """Unit-normalized sentence embeddings with dropout off.

    ``detached`` takes the last layer's CLS vector and never touches pooler
    parameters; ``trained-pooler`` runs the checkpoint's pooling strategy.
    """
    if inference_pooling not in ("detached", "trained-pooler"):
        raise ValueError(f"unknown inference_pooling {inference_pooling!r}")
    encoder = checkpoint.encoder()
    if encoder is None:
        raise ValueError("cannot embed text with a frozen-features checkpoint")
    stacks = encoder.encode_texts(checkpoint.tokenizer(), texts)
    if inference_pooling == "detached":
        vecs = stacks.data[:, -1, 0]
    else:
        vecs = pool(stacks, checkpoint.pooler_params(),
                    PoolStrategy(checkpoint.config.strategy),
                    checkpoint.config.norm_mode).data
    norms = np.linalg.norm(vecs, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm embedding for text row {int(zero[0])}")
    return EmbeddingMatrix(vectors=(vecs / norms[:, None]).astype(np.float32))


def kmeans_fit(x: np.ndarray, k: int, rng: Rng, max_iters: int = 25) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations to a fixpoint.

    Empty clusters are re-seeded from the point farthest from its centroid.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    if k > m:
        raise ValueError(f"k={k} exceeds {m} points")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
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

    assign = np.full(m, -1)
    for _ in range(max_iters):
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        for c in range(k):
            members = new_assign == c
            if members.any():
                centroids[c] = x[members].mean(axis=0)
            else:
                farthest = dists[np.arange(m), new_assign].argmax()
                centroids[c] = x[farthest]
                new_assign[farthest] = c
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids


@dataclass
class IvfIndex:
    """Centroids plus per-cluster posting lists of (id, stored vector)."""

    centroids: np.ndarray = field(repr=False)  # (nlist, d) float32
    posting_ids: list[np.ndarray] = field(repr=False)  # u32 per list
    posting_vectors: list[np.ndarray] = field(repr=False)  # (n_c, d) f32 per list

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def memory_bytes(self) -> int:
        """Index payload: centroids + ids + stored vectors."""
        return (
            self.centroids.nbytes
            + sum(p.nbytes for p in self.posting_ids)
            + sum(v.nbytes for v in self.posting_vectors)
        )


def build_index(matrix: EmbeddingMatrix, nlist: int, rng: Rng,
                max_iters: int = 25) -> IvfIndex:
    """Partition unit-normalized rows by nearest k-means centroid."""
    unit = matrix.vectors / np.linalg.norm(matrix.vectors, axis=1, keepdims=True)
    unit = unit.astype(np.float32)
    centroids = kmeans_fit(unit, nlist, rng, max_iters).astype(np.float32)
    d2 = ((unit[:, None, :].astype(np.float64)
           - centroids[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    posting_ids, posting_vectors = [], []
    for c in range(nlist):
        members = np.nonzero(assign == c)[0]
        posting_ids.append(matrix.ids[members].copy())
        posting_vectors.append(unit[members].copy())
    return IvfIndex(centroids=centroids, posting_ids=posting_ids,
                    posting_vectors=posting_vectors)


def query(index: IvfIndex, q: np.ndarray, top_k: int = 10,
          nprobe: int = 8) -> list[tuple[int, float]]:
    """Scan the nprobe nearest posting lists; rank by cosine, ties by id."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.dim:
        raise ValueError(f"query dim {q.shape[0]} != index dim {index.dim}")
    if not 1 <= nprobe <= index.nlist:
        raise ValueError(f"nprobe must be in [1, {index.nlist}]")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    norm = np.linalg.norm(q)
    if norm == 0.0:
        raise ValueError("zero-norm query")
    q = q / norm
    cd2 = ((index.centroids.astype(np.float64) - q) ** 2).sum(axis=1)
    probes = np.argsort(cd2, kind="stable")[:nprobe]
    ids = np.concatenate([index.posting_ids[c] for c in probes])
    if ids.size == 0:
        return []
    vecs = np.concatenate([index.posting_vectors[c] for c in probes])
    # einsum accumulates per row independently of how rows are grouped,
    # so full-probe results match the brute-force scan bit for bit
    sims = np.einsum("ij,j->i", vecs.astype(np.float64), q)
    # descending similarity, ascending id on ties
    order = np.lexsort((ids, -sims))[:top_k]
    return [(int(ids[i]), float(sims[i])) for i in order]


def brute_force_query(matrix: EmbeddingMatrix, q: np.ndarray,
                      top_k: int = 10) -> list[tuple[int, float]]:
    """Exact scan over all rows under the same metric and tie rule."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    q = q / np.linalg.norm(q)
    # same storage arithmetic as build_index/query: f32 unit rows, f64 scoring
    unit = matrix.vectors / np.linalg.norm(matrix.vectors, axis=1, keepdims=True)
    sims = np.einsum("ij,j->i", unit.astype(np.float32).astype(np.float64), q)
    order = np.lexsort((matrix.ids, -sims))[:top_k]
    return [(int(matrix.ids[i]), float(sims[i])) for i in order]


@dataclass
class SearchMetrics:
    mrr_at_10: float
    avg_retrieval_time_ms: float
    memory_usage_bytes: int
    missing_gold_ids: list[int]


def evaluate_search(index: IvfIndex, queries: np.ndarray, gold_ids,
                    nprobe: int = 8, timing_repeats: int = 1) -> SearchMetrics:
    """MRR@10, mean per-query wall-clock time, and index payload size.

    Gold ids absent from the index contribute 0 and are flagged. Timing
    averages over `timing_repeats` repetitions after the scored (warm-up) pass.
    """
    queries = np.asarray(queries, dtype=np.float64)
    gold_ids = [int(g) for g in gold_ids]
    if len(gold_ids) != queries.shape[0]:
        raise ValueError("one gold id required per query")
    indexed = set()
    for p in index.posting_ids:
        indexed.update(int(i) for i in p)

    reciprocal = []
    missing = []
    results = [query(index, q, top_k=10, nprobe=nprobe) for q in queries]
    for res, gold in zip(results, gold_ids):
        if gold not in indexed:
            missing.append(gold)
            reciprocal.append(0.0)
            continue
        rank = next((r + 1 for r, (i, _) in enumerate(res) if i == gold), None)
        reciprocal.append(1.0 / rank if rank is not None else 0.0)

    start = time.perf_counter()
    for _ in range(timing_repeats):
        for q in queries:
            query(index, q, top_k=10, nprobe=nprobe)
    elapsed = time.perf_counter() - start
    per_query_ms = elapsed / (timing_repeats * max(1, queries.shape[0])) * 1e3

    return SearchMetrics(
        mrr_at_10=float(np.mean(reciprocal)),
        avg_retrieval_time_ms=per_query_ms,
        memory_usage_bytes=index.memory_bytes(),
        missing_gold_ids=missing,
    )


# ---- persistence -----------------------------------------------------------


INDEX_FORMAT = "layerpool-ivf-flat"
INDEX_VERSION = 2
_INDEX_ARRAYS = {"centroids": ("<f4", 2), "posting_ids": ("<u4", 1),
                 "posting_vectors": ("<f4", 2)}


def save_index(index: IvfIndex, path) -> None:
    """An artifact directory (see `artifact`): f32 centroids, then all posting
    lists' u32 ids and f32 vectors back to back, split by `posting_sizes`."""
    meta = {"metric": "cosine", "posting_sizes": [len(p) for p in index.posting_ids]}
    write_dir(path, INDEX_FORMAT, INDEX_VERSION, meta, {
        "centroids": index.centroids.astype("<f4"),
        "posting_ids": np.concatenate(index.posting_ids).astype("<u4"),
        "posting_vectors": np.concatenate(index.posting_vectors).astype("<f4"),
    })


def load_index(path) -> IvfIndex:
    meta, arrays = read_dir(path, INDEX_FORMAT, INDEX_VERSION)
    if {k: (a.dtype.str, a.ndim) for k, a in arrays.items()} != _INDEX_ARRAYS:
        raise ArtifactCorruptError(f"{path}: index arrays must be {_INDEX_ARRAYS}")
    centroids, ids, vectors = (arrays[k] for k in _INDEX_ARRAYS)
    (nlist, d), m, sizes = centroids.shape, len(ids), meta.get("posting_sizes")
    if not (set(meta) == {"metric", "posting_sizes"} and meta["metric"] == "cosine"
            and nlist > 0 and d > 0 and vectors.shape == (m, d)
            and isinstance(sizes, list) and len(sizes) == nlist
            and all(type(s) is int and s >= 0 for s in sizes)):
        raise ArtifactCorruptError(f"{path}: index needs metric 'cosine', nlist x d > 0 "
                                   "centroids, m x d vectors and nlist posting_sizes")
    if sum(sizes) != m:
        raise ArtifactCorruptError(f"{path}: posting_sizes sum to {sum(sizes)}, "
                                   f"the arrays hold m={m} rows")
    offsets = np.cumsum(sizes)[:-1]
    return IvfIndex(centroids=centroids, posting_ids=np.split(ids, offsets),
                    posting_vectors=np.split(vectors, offsets))
