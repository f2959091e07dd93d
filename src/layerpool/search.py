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
from .autodiff import NORM_FLOOR, Rng, rescue_norms
from .pooler import PoolStrategy, pool
from .trainer import Checkpoint


@dataclass
class EmbeddingMatrix:
    """float32 unit rows, one per sentence, and uint32 ids: the one place rows are
    checked (2-D, finite, nonzero, one id each) and normalized in float64."""

    vectors: np.ndarray = field(repr=False)
    ids: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.vectors, dtype=np.float64)
        if x.ndim != 2 or not np.isfinite(x).all():
            raise ValueError(f"embeddings must be a finite 2-D matrix, got shape {x.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is rescued
            x, norms = rescue_norms(x, np.linalg.norm(x, axis=1))
        if not norms.all():  # argmin: the first zero norm
            raise ValueError(f"embedding at row {int(norms.argmin())} is all zeros")
        self.vectors = (x / norms[:, None]).astype(np.float32)
        ids = np.arange(x.shape[0]) if self.ids is None else np.asarray(self.ids)
        if ids.shape != (x.shape[0],):
            raise ValueError(f"ids must have shape ({x.shape[0]},), got {ids.shape}")
        self.ids = ids.astype(np.uint32)

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
    stacks = checkpoint.stacks(texts)
    if inference_pooling == "detached":
        vecs = stacks.data[:, -1, 0]
    else:
        vecs = pool(stacks, checkpoint.pooler_params(),
                    PoolStrategy(checkpoint.config.strategy),
                    checkpoint.config.norm_mode).data
    return EmbeddingMatrix(vectors=vecs)


def _sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(m, k) squared L2 distances ||x||² − 2x·cᵀ + ||c||², with no (m, k, d) array."""
    return (x * x).sum(1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(1)


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
        dists = _sq_dists(x, centroids)
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


def _with_postings(centroids, ids, vectors, sizes) -> IvfIndex:
    """Posting lists as views of one buffer: list c holds the next sizes[c] rows."""
    offsets = np.cumsum(sizes)[:-1]
    return IvfIndex(centroids=centroids, posting_ids=np.split(ids, offsets),
                    posting_vectors=np.split(vectors, offsets))


def build_index(matrix: EmbeddingMatrix, nlist: int, rng: Rng,
                max_iters: int = 25) -> IvfIndex:
    """Partition the unit rows by nearest k-means centroid."""
    centroids = kmeans_fit(matrix.vectors, nlist, rng, max_iters).astype(np.float32)
    assign = _sq_dists(matrix.vectors.astype(np.float64),
                       centroids.astype(np.float64)).argmin(axis=1)
    # stable: each list keeps its rows in ascending row order
    order = np.argsort(assign, kind="stable")
    return _with_postings(centroids, matrix.ids[order], matrix.vectors[order],
                          np.bincount(assign, minlength=nlist))


def _unit_query(q, dim: int, top_k: int) -> np.ndarray:
    """The query as a float64 unit vector; the one place queries are checked."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.shape[0] != dim:
        raise ValueError(f"query dim {q.shape[0]} != index dim {dim}")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    norm = np.sqrt(np.vdot(q, q))  # np.linalg.norm's bits; vdot does not warn on overflow
    if not NORM_FLOOR <= norm < np.inf:  # cheaper than the helper's own test
        q, norm = rescue_norms(q, norm)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"query needs finite entries and a nonzero norm, got norm {norm}")
    return q / norm


def _rank(vecs: np.ndarray, ids: np.ndarray, q: np.ndarray,
          top_k: int) -> list[tuple[int, float]]:
    """Top-k (id, cosine) of unit rows: descending cosine, ascending id on ties."""
    # einsum accumulates per row independently of how rows are grouped,
    # so full-probe results match the brute-force scan bit for bit
    sims = np.einsum("ij,j->i", vecs.astype(np.float64), q)
    order = np.lexsort((ids, -sims))[:top_k]
    return [(int(ids[i]), float(sims[i])) for i in order]


def query(index: IvfIndex, q: np.ndarray, top_k: int = 10,
          nprobe: int = 8) -> list[tuple[int, float]]:
    """Scan the nprobe nearest posting lists; rank by cosine, ties by id."""
    q = _unit_query(q, index.dim, top_k)
    if not 1 <= nprobe <= index.nlist:
        raise ValueError(f"nprobe must be in [1, {index.nlist}]")
    cd2 = ((index.centroids.astype(np.float64) - q) ** 2).sum(axis=1)
    probes = np.argsort(cd2, kind="stable")[:nprobe]
    return _rank(np.concatenate([index.posting_vectors[c] for c in probes]),
                 np.concatenate([index.posting_ids[c] for c in probes]), q, top_k)


def brute_force_query(matrix: EmbeddingMatrix, q: np.ndarray,
                      top_k: int = 10) -> list[tuple[int, float]]:
    """Exact scan over all rows under the same metric and tie rule."""
    return _rank(matrix.vectors, matrix.ids, _unit_query(q, matrix.dim, top_k), top_k)


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
    return _with_postings(centroids, ids, vectors, sizes)
