"""IVF-flat approximate nearest-neighbor search with k-means coarse quantization.

Cosine similarity is realized as inner product on unit-normalized float32
vectors, so centroid assignment by squared L2 and candidate scoring by dot
product induce the same ordering. The index is immutable after build.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .artifact import ArtifactCorruptError, read_dir, write_dir
from .autodiff import Rng, check_norms
from .pooler import PoolStrategy, pool
from .trainer import Checkpoint


@dataclass
class EmbeddingMatrix:
    """float32 unit rows, one per sentence, and their uint32 ids: row i's id is
    i. The one place rows are checked (2-D, finite, each norm in
    [NORM_FLOOR, inf) by ``check_norms``) and normalized in float64."""

    vectors: np.ndarray = field(repr=False)
    ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.vectors, dtype=np.float64)
        if x.ndim != 2 or not np.isfinite(x).all():
            raise ValueError(f"embeddings must be a finite 2-D matrix, got shape {x.shape}")
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            norms = np.linalg.norm(x, axis=1)
        check_norms(norms, "embedding")
        self.vectors = (x / norms[:, None]).astype(np.float32)
        self.ids = np.arange(x.shape[0], dtype=np.uint32)

    @property
    def num_rows(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def embed_corpus(checkpoint: Checkpoint, texts: list[str],
                 inference_pooling: str = "detached") -> EmbeddingMatrix:
    """Unit-normalized sentence embeddings with dropout off.

    ``detached`` pools with ``cls_last``, the last layer's CLS vector, which
    reads no pooler parameter; ``trained-pooler`` runs the checkpoint's
    pooling strategy.
    """
    if inference_pooling not in ("detached", "trained-pooler"):
        raise ValueError(f"unknown inference_pooling {inference_pooling!r}")
    strategy = (PoolStrategy.CLS_LAST if inference_pooling == "detached"
                else checkpoint.config.strategy)
    return EmbeddingMatrix(vectors=pool(checkpoint.stacks(texts), checkpoint.constants(),
                                        strategy, checkpoint.config.norm_mode).data)


def _sq_dists(x: np.ndarray, c: np.ndarray, xx: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """(m, k) squared L2 distances ||x||² − 2x·cᵀ + ||c||², with no (m, k, d) array,
    written to `out` when given; `xx` is (x * x).sum(1) when the caller already has it."""
    if xx is None:
        xx = (x * x).sum(1)
    # built in the one GEMM output: −2g + a + b has the bits of a − 2g + b,
    # since a − b is a + (−b) in IEEE arithmetic and addition commutes
    d = np.matmul(x, c.T, out=out)
    d *= -2.0
    d += xx[:, None]
    d += (c * c).sum(1)
    return d


def _sq_dist_to(rows: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(m,) squared L2 distances of the rows to one vector in difference form,
    ((rows - v) ** 2).sum(1); the differences are written to `out` when given."""
    diff = np.subtract(rows, v, out=out)
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=1)


def _group(assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows by cluster, each cluster's rows ascending, and the (k + 1) offsets:
    cluster c is order[offsets[c]:offsets[c + 1]]. The stable sort runs on the
    smallest integer type that holds k, which numpy sorts by radix."""
    order = np.argsort(assign.astype(np.min_scalar_type(k)), kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=k))))


def _kmeans_pp(x: np.ndarray, k: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: k rows of `x`, each drawn with probability
    proportional to its squared distance from the nearest row drawn before."""
    m = x.shape[0]
    diff = np.empty_like(x)  # the layout `x - c` would get, so each row sums alike
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[gen.integers(m)]
    d2 = _sq_dist_to(x, centroids[0], diff)
    for i in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centroids[i] = x[gen.integers(m)]
        else:
            centroids[i] = x[gen.choice(m, p=d2 / total)]
        np.minimum(d2, _sq_dist_to(x, centroids[i], diff), out=d2)
    return centroids


def kmeans_fit(x: np.ndarray, k: int, rng: Rng, max_iters: int = 25) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations to a fixpoint.

    Empty clusters are re-seeded from the point farthest from its centroid.
    Beside the float64 rows, the fit holds one (m, k) distance buffer, which
    every Lloyd pass reuses; the seeding's buffers are freed before it.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} is below 1 or exceeds {m} points")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    centroids = _kmeans_pp(x, k, rng.child("kmeans").generator())

    xx = (x * x).sum(1)
    dists = np.empty((m, k))
    assign = np.full(m, -1)
    for _ in range(max_iters):
        _sq_dists(x, centroids, xx, out=dists)
        new_assign = dists.argmin(axis=1)
        order, offsets = _group(new_assign, k)
        for c in range(k):
            # x[rows] holds the rows a boolean mask would pick, in the same order
            rows = order[offsets[c]:offsets[c + 1]]
            if len(rows):
                centroids[c] = x[rows].mean(axis=0)
            else:
                farthest = dists[np.arange(m), new_assign].argmax()
                centroids[c] = x[farthest]
                new_assign[farthest] = c
                # the later clusters no longer hold the moved row
                order, offsets = _group(new_assign, k)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids


@dataclass
class IvfIndex:
    """Centroids plus posting lists in one layout: list c holds rows
    offsets[c]:offsets[c + 1] of `ids` and `vectors`, the lists back to back."""

    centroids: np.ndarray = field(repr=False)  # (nlist, d) float32
    ids: np.ndarray = field(repr=False)  # (m,) uint32, in list order
    vectors: np.ndarray = field(repr=False)  # (m, d) float32 unit rows, in list order
    offsets: np.ndarray = field(repr=False)  # (nlist + 1,) int64, from 0 to m

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def posting_ids(self) -> list[np.ndarray]:
        """Each list's ids, as views of `ids`."""
        return np.split(self.ids, self.offsets[1:-1])

    @cached_property
    def centroids64(self) -> np.ndarray:
        """The centroids in float64, which holds every float32 exactly."""
        return self.centroids.astype(np.float64)

    @cached_property
    def centroid_sq_norms(self) -> np.ndarray:
        """Each centroid's float64 ‖c‖², the constant term of `_probes`' scores."""
        return np.einsum("ij,ij->i", self.centroids64, self.centroids64)

    @cached_property
    def probe_margin(self) -> float:
        """ε_p of `_probes` for this index's largest centroid norm."""
        return _probe_margin(self.dim, math.sqrt(float(self.centroid_sq_norms.max())))

    def memory_bytes(self) -> int:
        """Index payload: centroids + ids + stored vectors + list offsets."""
        return (self.centroids.nbytes + self.ids.nbytes + self.vectors.nbytes
                + self.offsets.nbytes)


def build_index(matrix: EmbeddingMatrix, nlist: int, rng: Rng,
                max_iters: int = 25) -> IvfIndex:
    """Partition the unit rows by nearest k-means centroid."""
    centroids = kmeans_fit(matrix.vectors, nlist, rng, max_iters).astype(np.float32)
    assign = _sq_dists(matrix.vectors.astype(np.float64),
                       centroids.astype(np.float64)).argmin(axis=1)
    order, offsets = _group(assign, nlist)  # each list keeps its rows ascending
    return IvfIndex(centroids, matrix.ids[order], matrix.vectors[order], offsets)


def _unit_query(q, dim: int, top_k: int) -> np.ndarray:
    """The query as a float64 unit vector; the one place queries are checked:
    finite entries and a norm in [NORM_FLOOR, inf) (``check_norms``)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (dim,):
        raise ValueError(f"query of shape {q.shape} is not a vector of the index dim {dim}")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    norm = np.sqrt(np.vdot(q, q))  # np.linalg.norm's bits; vdot does not warn on overflow
    if math.isnan(norm):
        raise ValueError("query needs finite entries, got norm nan")
    check_norms(norm, "query")
    return q / norm


# The float32 screen. With u = 2⁻²⁴ and γ(n) = nu/(1 − nu), rounding the unit
# query q to float32 and a float32 dot product in any summation order (a row
# scored by a product over its list in place or over a gathered copy alike) give
# s32 = Σ v_i·q_i·(1 + θ_i) with |θ_i| ≤ γ(d + 1) (Higham, Accuracy and Stability
# of Numerical Algorithms, §3.1), so |s32 − v·q| ≤ γ(d + 1)·‖v‖·‖q‖ by
# Cauchy-Schwarz. The float64 einsum s64 is within d·2⁻⁵²·‖v‖·‖q‖ of v·q.
# Stored rows have ‖v‖ ≤ 1 + 2⁻²¹ (UNIT_TOLERANCE, checked at load) and ‖q‖
# is 1 to float64 rounding, so ‖v‖·‖q‖ ≤ 1 + 2⁻²⁰ and, for d < 2¹⁸,
#   |s32 − s64| ≤ γ(d + 1) + γ(d + 1)·2⁻²⁰ + d·2⁻⁵¹ ≤ γ(d + 1) + u/2 + u/2⁸,
# which is below γ(d + 2) = ε because γ(d + 2) − γ(d + 1) ≥ u. What is left
# of that gap covers float32 underflow (at most d·2⁻¹⁴⁹) and the rounding of
# the float64 threshold below.
#
# Exactness. Let s_k be the k-th largest s32. The k rows at or above it have
# s64 ≥ s_k − ε, so the k-th largest s64 is at least s_k − ε, and every row
# with an s64 that large, the whole top k by (−s64, id) and its ties included,
# has s32 ≥ s_k − 2ε. Ranking only those rows, in scan order with the same
# einsum and stable lexsort, returns the full scan's top k bit for bit. So
# does ranking any superset of them from the scanned rows. The screen compares
# in float32, with t = s_k − 2ε rounded to the nearest float32 t32. If t32 ≤ t,
# every s32 ≥ t is ≥ t32. If t32 > t, t32 is the least float32 at or above t,
# so a float32 s32 is ≥ t exactly when it is ≥ t32. Either way the compare
# keeps every row that s32 ≥ t in float64 keeps.
UNIT_TOLERANCE = 2.0**-20  # on |‖v‖² − 1|


def _screen_margin(d: int) -> float:
    """ε = γ(d + 2), a bound on |s32 − s64| for a stored row and a unit query."""
    g = (d + 2) * 2.0**-24
    return g / (1.0 - g)


# Probe selection. The probes are the first nprobe lists by (D_c, c), where D_c
# is the float64 difference form Σ(c_i − q_i)² of centroid c (float32, so exact
# in float64) and the float64 unit query q. `_probes` scores instead
# g_c = ‖c‖² − 2c·q, the cached float64 ‖c‖² and one GEMV. Now u = 2⁻⁵³ and
# γ(n) = nu/(1 − nu); let r = ‖c‖ and R the largest centroid norm. Each c_i² is
# exact, so the float64 ‖c‖² is within γ(d)·r² of r²; the GEMV, in any order,
# with or without FMA, is within γ(d)·r·‖q‖ of c·q; subtracting rounds once,
# by at most u·(r + ‖q‖)²·(1 + γ(d)); and D_c is within γ(d + 2)·(r + ‖q‖)² of
# ‖c − q‖² = r² − 2c·q + ‖q‖². As r² + 2r‖q‖ + (r + ‖q‖)² ≤ 2(r + ‖q‖)²,
#   |g_c − (D_c − ‖q‖²)| ≤ (2γ(d + 2) + 2u)·(r + ‖q‖)² ≤ 2γ(d + 3)·(r + ‖q‖)²,
# and ‖q‖ is 1 within γ(d + 2), so ε_p = 2γ(d + 4)·(R + 1)² exceeds the gap
# by almost 2u·(R + 1)², and 2ε_p exceeds twice the gap by almost 4u·(R + 1)².
# That covers float64 underflow (at most 2⁻¹⁰⁷⁵ per operation, about 3d of
# them, while (R + 1)² ≥ 1) and the rounding of cut + 2ε_p below (|g_c| is at
# most about (R + 1)²). Centroids are float32 and finite (checked at load), so
# (R + 1)² cannot overflow float64.
#
# Exactness. Let cut be the nprobe-th smallest g. The nprobe centroids at or
# below it have D − ‖q‖² ≤ cut + ε_p, so every centroid among the first nprobe
# by (D, c) has D − ‖q‖² ≤ cut + ε_p and g ≤ cut + 2ε_p: the probes lie in
# that band. When the band holds nprobe lists it is the probe set. Otherwise
# the band's centroids are rescored with the same difference-form sum, whose
# bits for a row do not depend on the rows beside it, and a stable argsort
# over the band's ascending lists picks the first nprobe, ties to the lower list.
#
# `_rank`'s result depends only on the set of probed lists: the screen keeps
# rows by a threshold on their scores, einsum gives a row the same bits in any
# run order, and the lexsort by (−cosine, id) over distinct ids is a total
# order. So the probes come back in ascending list order, not by distance.
def _probe_margin(d: int, max_norm: float) -> float:
    """ε_p = 2γ(d + 4)·(R + 1)² in float64 units, R = max_norm; a bound on
    |g_c − (D_c − ‖q‖²)| for every centroid and a unit query."""
    g = (d + 4) * 2.0**-53
    return 2.0 * g / (1.0 - g) * (max_norm + 1.0) ** 2


# The probed lists are screened either in place, one float32 product per list
# and no copy, or as one gathered copy of their rows and one product over it.
# A product per list costs a numpy call, about a microsecond, more than gathering
# the rows of a short list, so a query takes the in-place path when its probed
# lists hold at least this many rows on average. Timed on one BLAS thread at
# d = 64, the two paths break even at 100-130 rows per list.
SCAN_IN_PLACE_ROWS = 120


def _screen(s32: np.ndarray, top_k: int, d: int) -> np.ndarray:
    """Scan positions of the float32 scores within 2ε of the k-th largest (top_k <
    len(s32)); see the comment above."""
    n = len(s32)
    s_k = float(np.partition(s32, n - top_k)[n - top_k])
    # compared in float32: see the comment above for why the cast keeps the
    # rows a float64 compare keeps
    return np.flatnonzero(s32 >= np.float32(s_k - 2.0 * _screen_margin(d)))


def _rank(vectors: np.ndarray, ids: np.ndarray, starts: np.ndarray, ends: np.ndarray,
          q: np.ndarray, top_k: int) -> list[tuple[int, float]]:
    """Top-k (id, cosine) of the unit rows in the runs vectors[starts[r]:ends[r]],
    scanned run after run: descending cosine, ascending id on ties."""
    sizes = ends - starts
    # scan position j of run r is row starts[r] + j − (sizes[0] + … + sizes[r − 1])
    # = ends[r] − cumsum(sizes)[r] + j
    cum = np.cumsum(sizes)
    shift, n = ends - cum, int(cum[-1])
    if top_k < n and n >= SCAN_IN_PLACE_ROWS * len(sizes):
        q32, s32, j = q.astype(np.float32), np.empty(n, np.float32), 0
        for start, end in zip(starts.tolist(), ends.tolist()):
            np.dot(vectors[start:end], q32, out=s32[j:j + end - start])
            j += end - start
        keep = _screen(s32, top_k, len(q))
        # the run of scan position j is the first r with cumsum(sizes)[r] > j
        rows = keep + shift[np.searchsorted(cum, keep, side="right")]
    else:
        rows = np.repeat(shift, sizes)
        rows += np.arange(n)
        if top_k < n:
            rows = rows[_screen(vectors.take(rows, axis=0) @ q.astype(np.float32),
                                top_k, len(q))]
    row_ids = ids.take(rows)
    # einsum accumulates per row independently of how rows are grouped,
    # so the kept rows get the bits the full scan would give them
    sims = np.einsum("ij,j->i", vectors.take(rows, axis=0).astype(np.float64), q)
    order = np.lexsort((row_ids, -sims))[:top_k]
    return list(zip(row_ids[order].tolist(), sims[order].tolist()))


def _probes(index: IvfIndex, q: np.ndarray, nprobe: int) -> np.ndarray:
    """The nprobe lists whose centroids are nearest the unit query in float64
    squared L2 (difference form), ties to the lower list, in ascending list
    order. Scored as ‖c‖² − 2c·q by one GEMV; only the centroids within 2ε_p of
    the nprobe-th smallest score are rescored (see the comment above)."""
    nlist = index.nlist
    if not 1 <= nprobe <= nlist:
        raise ValueError(f"nprobe must be in [1, {nlist}]")
    if nprobe == nlist:
        return np.arange(nlist)
    g = index.centroids64 @ q
    g *= -2.0
    g += index.centroid_sq_norms
    cut = np.partition(g, nprobe - 1)[nprobe - 1]
    band = np.flatnonzero(g <= cut + 2.0 * index.probe_margin)
    if len(band) == nprobe:
        return band
    return band[np.sort(np.argsort(_sq_dist_to(index.centroids64[band], q),
                                   kind="stable")[:nprobe])]


def _query(index: IvfIndex, q: np.ndarray, top_k: int, nprobe: int):
    """`query`'s hits, and the lists it probed."""
    q = _unit_query(q, index.dim, top_k)
    probes = _probes(index, q, nprobe)
    return _rank(index.vectors, index.ids, index.offsets[probes], index.offsets[probes + 1],
                 q, top_k), probes


def query(index: IvfIndex, q: np.ndarray, top_k: int = 10,
          nprobe: int = 8) -> list[tuple[int, float]]:
    """Scan the nprobe nearest posting lists; rank by cosine, ties by id."""
    return _query(index, q, top_k, nprobe)[0]


def brute_force_query(matrix: EmbeddingMatrix, q: np.ndarray,
                      top_k: int = 10) -> list[tuple[int, float]]:
    """Exact scan over all rows under the same metric and tie rule."""
    return _rank(matrix.vectors, matrix.ids, np.zeros(1, np.int64),
                 np.array([matrix.num_rows]), _unit_query(q, matrix.dim, top_k), top_k)


@dataclass
class SearchMetrics:
    mrr_at_10: float
    query_ms_p50: float
    query_ms_p99: float
    memory_usage_bytes: int
    missing_gold_ids: list[int]
    candidates_per_query: float
    imbalance_factor: float


def evaluate_search(index: IvfIndex, queries: np.ndarray, gold_ids,
                    nprobe: int = 8) -> SearchMetrics:
    """MRR@10, p50/p99 per-query wall-clock time, and index payload size, from
    one pass: each query is timed around the same search (`query`'s own
    `_query`) that is scored. Also the mean rows scanned per query, summed
    over the lists that search probed, and FAISS's imbalance factor
    nlist·Σsᵢ²/m² of the list sizes sᵢ, 1 for equal lists; both are counted
    outside the timed calls.

    Gold ids absent from the index contribute 0 and are flagged.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError(f"queries must be an (n, d) matrix, got shape {queries.shape}")
    gold_ids = [int(g) for g in gold_ids]
    if len(gold_ids) != queries.shape[0] or not gold_ids:
        raise ValueError("one gold id required per query, and at least one query")
    indexed = np.isin(gold_ids, index.ids)
    sizes = np.diff(index.offsets)

    reciprocal, missing, times_ms, scanned = [], [], [], []
    for q, gold, present in zip(queries, gold_ids, indexed):
        start = time.perf_counter()
        res, probes = _query(index, q, 10, nprobe)
        times_ms.append((time.perf_counter() - start) * 1e3)
        scanned.append(sizes[probes].sum())
        if not present:
            missing.append(gold)
        rank = next((r + 1 for r, (i, _) in enumerate(res) if i == gold), None)
        reciprocal.append(1.0 / rank if rank is not None else 0.0)

    p50, p99 = np.percentile(times_ms, [50, 99])
    m = int(index.offsets[-1])
    return SearchMetrics(
        mrr_at_10=float(np.mean(reciprocal)),
        query_ms_p50=float(p50),
        query_ms_p99=float(p99),
        memory_usage_bytes=index.memory_bytes(),
        missing_gold_ids=missing,
        candidates_per_query=float(np.mean(scanned)),
        imbalance_factor=float(index.nlist * (sizes @ sizes) / m**2) if m else 1.0,
    )


# ---- persistence -----------------------------------------------------------


INDEX_FORMAT = "layerpool-ivf-flat"
INDEX_VERSION = 3
_INDEX_ARRAYS = {"centroids": ("<f4", 2), "posting_ids": ("<u4", 1),
                 "posting_vectors": ("<f4", 2)}


def save_index(index: IvfIndex, path) -> None:
    """An artifact directory (see `artifact`): f32 centroids, then all posting
    lists' u32 ids and f32 vectors back to back, split by `posting_sizes`."""
    meta = {"metric": "cosine", "posting_sizes": np.diff(index.offsets).tolist()}
    write_dir(path, INDEX_FORMAT, INDEX_VERSION, meta, {
        "centroids": index.centroids.astype("<f4"),
        "posting_ids": index.ids.astype("<u4"),
        "posting_vectors": index.vectors.astype("<f4"),
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
    if np.unique(ids).size != m:
        raise ArtifactCorruptError(f"{path}: posting_ids must be distinct")
    if not np.isfinite(centroids).all():
        raise ArtifactCorruptError(f"{path}: centroids must be finite")
    # the float32 screen in `_rank` relies on unit rows; a NaN fails this too
    sq_norms = np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)
    bad = np.flatnonzero(~(np.abs(sq_norms - 1.0) <= UNIT_TOLERANCE))
    if bad.size:
        raise ArtifactCorruptError(f"{path}: stored vector at row {bad[0]} is not a finite "
                                   f"unit row (squared norm {sq_norms[bad[0]]})")
    return IvfIndex(centroids, ids, vectors, np.cumsum([0] + sizes))
