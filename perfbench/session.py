"""The three benchmark workloads, driven through layerpool's public API.

Every workload reports every metric, so every workload runs the same
phases: pooler training over frozen features, ``embed_corpus``, STS
``evaluate``, ``build_index`` and a closed query loop with one client, plus
encoder training on ``train_encoder``. The workloads differ in how much of
the run each phase gets and in the index they build, so each spends most of
its time in the layers it is named for:

- ``train_encoder``: most of the window trains encoder and pooler together
  (sup_hard, attn_cls_avg_concat, batch 16); the other phases are small
  probes, and the index has 2000 rows.
- ``train_pooler``: most of the window trains the pooler over frozen
  features; the encoder only runs in the small embed and STS probes.
- ``serve``: embedding long, varied texts, STS evaluation and nprobe-8
  queries against a 20k x 64 index built once with build_index's defaults;
  training runs only its minimum step count, on the frozen path.

Inputs come from ``--seed`` alone. After one index build, the timed loops
run interleaved, a unit at a time, for ``--seconds`` (and until each has
done its minimum work). Throughputs are medians over equal units.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import layerpool.corpus as C
import layerpool.search as S
import layerpool.sts_eval as E
import layerpool.trainer as T
from layerpool.autodiff import Rng
from layerpool.encoder import FrozenFeatures, save_frozen

from tracing import END, NAME, PHASE, SIZE, START, Tracer, children_index, self_time

DIM = 64
NUM_LAYERS = 4
NLIST = 64
NPROBE = 8
NPROBE_SWEEP = (1, 2, 4, 8, 16, 32, 64)
TOP_K = 10
SETUP_REPEATS = 5
BUILD_SAMPLES = 5   # index builds per run where the index is small
BATCH_SIZE = 16
LOSS_WINDOW = 10
STRATEGY = "attn_cls_avg_concat"
# sup_hard embeds anchor, positive and negative for every record
SENTENCES_PER_RECORD = 3

# Few, heavily overlapping planted clusters: at serve's 20k rows, Lloyd's
# iterations never reach a fixpoint, so every build runs the full default of
# 25 and does the same work on every seed. QUERY_NOISE keeps MRR@10 below
# saturation at both nprobe 1 and nprobe 8; a full probe still finds the
# gold row.
PLANTED_CLUSTERS = 16
CLUSTER_SPREAD = 3.0
QUERY_NOISE = 0.8

# Speed calibration. The 2-vCPU VM this benchmark was tuned on shares cores
# with other tenants, and its speed swings by up to a third for tens of
# seconds at a time; raw wall times then spread 20-30% between runs of the
# same code. Every timed unit is therefore bracketed by runs of a fixed
# reference task, and its time is reported at nominal machine speed: raw
# time * REF_NOMINAL_S / (mean reference time around the unit). The raw
# times and scale factors are kept in the run record.
REF_NOMINAL_S = 1.0e-3
_REF_MATRIX = np.linspace(-1.0, 1.0, DIM * DIM).reshape(DIM, DIM) / DIM

# tags that split one --seed into independent input streams
_TEXTS, _FROZEN, _MATRIX, _QUERIES = 1, 2, 3, 4


@dataclass(frozen=True)
class TrainPlan:
    share: float      # weight in the measuring window
    chunk: int        # steps per train() call
    loss_steps: int   # steps always run; train_loss_end averages the last LOSS_WINDOW


@dataclass(frozen=True)
class Plan:
    encoder_train: TrainPlan | None
    pooler_train: TrainPlan
    embed_share: float
    sts_share: float
    query_share: float
    index_rows: int
    build_share: float       # > 0: more builds interleaved with the other loops
    max_iters: int           # Lloyd iterations per build
    focus: tuple[str, ...]   # phases the per-layer metrics read first
    train_phase: str         # phase the train_* and trainer metrics read


@dataclass(frozen=True)
class Sizes:
    triplets: int = 2000
    sts_records: int = 200
    sts_chunk: int = 25
    embed_texts: int = 400
    max_words: int = 40           # embed texts span 1..max_words words
    query_pool: int = 2000
    min_queries: int = 2000       # closed-loop sends; 100 lie beyond p95
    sweep_queries: int = 1000     # per sweep nprobe; 10 lie beyond its p99
    check_queries: int = 32
    serve_rows: int = 20000
    probe_rows: int = 1000
    encoder_loss_steps: int = 20
    pooler_loss_steps: int = 200
    probe_loss_steps: int = 20


SIZES = {
    "full": Sizes(),
    # seconds-long version of every phase for the smoke test
    "tiny": Sizes(triplets=64, sts_records=40, sts_chunk=20, embed_texts=80,
                  query_pool=200, min_queries=1000, sweep_queries=100,
                  check_queries=8, serve_rows=1280, probe_rows=640,
                  encoder_loss_steps=10,
                  pooler_loss_steps=20, probe_loss_steps=10),
}


def plans(sizes: Sizes) -> dict[str, Plan]:
    serving = ("embed", "sts", "build", "query", "check")
    # a small index that stops Lloyd at 5 iterations, below the fewest it
    # needs to converge at this size, so every build does the same work
    probe_index = dict(index_rows=sizes.probe_rows, build_share=0.06, max_iters=5)
    pooler = TrainPlan(0.70, 20, sizes.pooler_loss_steps)
    return {
        "train_encoder": Plan(
            encoder_train=TrainPlan(0.70, 1, sizes.encoder_loss_steps),
            pooler_train=TrainPlan(0.02, 10, sizes.probe_loss_steps),
            embed_share=0.09, sts_share=0.09, query_share=0.10, **probe_index,
            focus=("train_encoder",), train_phase="train_encoder"),
        "train_pooler": Plan(
            encoder_train=None, pooler_train=pooler,
            embed_share=0.10, sts_share=0.10, query_share=0.10, **probe_index,
            focus=("train_pooler",), train_phase="train_pooler"),
        "serve": Plan(
            encoder_train=None, pooler_train=replace(pooler, share=0.12),
            embed_share=0.30, sts_share=0.30, query_share=0.28,
            index_rows=sizes.serve_rows, build_share=0.0, max_iters=25,
            focus=serving, train_phase="train_pooler"),
    }


# ---- inputs ------------------------------------------------------------------


def _gen(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _train_config(seed: int, frozen_path: str | None = None) -> T.TrainConfig:
    return T.TrainConfig(objective="sup_hard", strategy=STRATEGY,
                         norm_mode="softmax", batch_size=BATCH_SIZE, epochs=10_000,
                         seed=seed, frozen_features=frozen_path)


def frozen_rows(corpus: list[dict], seed: int) -> np.ndarray:
    """(3 * len(corpus), N, 2, d) float32 layer features, 3 rows per triplet.

    Each word has a per-layer vector that leans more on a shared identity
    the deeper the layer, so paraphrases share deep-layer features and the
    pooler has a layer preference to learn.
    """
    gen = _gen(seed, _FROZEN)
    words = sorted({w for rec in corpus for key in ("anchor", "positive", "negative")
                    for w in rec[key].split()})
    slot = {w: i for i, w in enumerate(words)}
    identity = gen.standard_normal((len(words), DIM))
    noise = gen.standard_normal((NUM_LAYERS, len(words), DIM))
    lean = np.linspace(0.2, 0.9, NUM_LAYERS)[:, None, None]
    word_layer = lean * identity + (1.0 - lean) * noise  # (N, V, d)
    rows = np.empty((SENTENCES_PER_RECORD * len(corpus), NUM_LAYERS, 2, DIM), np.float32)
    r = 0
    for rec in corpus:
        for key in ("anchor", "positive", "negative"):
            ids = [slot[w] for w in rec[key].split()]
            vecs = word_layer[:, ids]                       # (N, T, d)
            rows[r, :, 1] = vecs.mean(axis=1)               # token average
            rows[r, :, 0] = np.tanh(vecs[:, 0] + rows[r, :, 1])  # CLS-like
            r += 1
    return rows


def embed_texts(vocab: list[str], n: int, max_words: int, seed: int) -> list[str]:
    """Texts whose word counts cycle through 1..max_words, about 1 word in 8 unknown.

    Every run of ``max_words`` consecutive texts holds each length once, so
    equal chunks of that size carry equal token counts.
    """
    gen = _gen(seed, _TEXTS)
    texts = []
    while len(texts) < n:
        for length in gen.permutation(np.arange(1, max_words + 1)):
            words = [vocab[i] for i in gen.integers(len(vocab), size=length)]
            unknown = gen.random(length) < 0.125
            texts.append(" ".join(f"zz{i}" if u else w for i, (w, u) in enumerate(zip(words, unknown))))
    return texts[:n]


def planted_matrix(rows: int, seed: int) -> np.ndarray:
    gen = _gen(seed, _MATRIX)
    centers = gen.standard_normal((PLANTED_CLUSTERS, DIM))
    x = centers[gen.integers(PLANTED_CLUSTERS, size=rows)]
    x = x + CLUSTER_SPREAD * gen.standard_normal((rows, DIM))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def noisy_queries(x: np.ndarray, n: int, seed: int):
    """Queries near indexed rows; each query's gold id is the row it came from."""
    gen = _gen(seed, _QUERIES)
    gold = gen.choice(x.shape[0], size=min(n, x.shape[0]), replace=False)
    q = x[gold].astype(np.float64)
    q = q + QUERY_NOISE / math.sqrt(DIM) * gen.standard_normal(q.shape)
    return q, gold


@dataclass
class Inputs:
    corpus: list[dict]
    frozen_path: str
    serve_ckpt: T.Checkpoint
    texts: list[str]
    sts: list[E.StsRecord]
    matrix: S.EmbeddingMatrix
    queries: np.ndarray
    gold: np.ndarray


def setup(seed: int, sizes: Sizes, plan: Plan, workdir: str, tag: int) -> Inputs:
    corpus = C.make_synthetic_triplets(num_pairs=sizes.triplets, seed=seed)
    frozen_path = os.path.join(workdir, f"frozen-{tag}.bin")
    rows = frozen_rows(corpus, seed)
    save_frozen(FrozenFeatures(num_layers=NUM_LAYERS, hidden_dim=DIM, features=rows),
                frozen_path)
    serve_ckpt, _ = T.train(_train_config(seed), corpus, max_steps=0)
    texts = embed_texts(sorted(serve_ckpt.vocab), sizes.embed_texts, sizes.max_words, seed)
    sts = [E.StsRecord(r["sent1"], r["sent2"], r["score"])
           for r in C.make_synthetic_sts(num_records=sizes.sts_records, seed=seed)]
    x = planted_matrix(plan.index_rows, seed)
    queries, gold = noisy_queries(x, sizes.query_pool, seed)
    return Inputs(corpus, frozen_path, serve_ckpt, texts, sts,
                  S.EmbeddingMatrix(x), queries, gold)


# ---- phases ------------------------------------------------------------------


@dataclass
class Ledger:
    """Operations attempted and failed, per phase."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def record(self, phase: str, ok: bool, what: str = "") -> None:
        self.attempted[phase] = self.attempted.get(phase, 0) + 1
        if not ok:
            self.failed[phase] = self.failed.get(phase, 0) + 1
            if len(self.notes) < 20:
                self.notes.append(f"{phase}: {what}")


class Loop:
    """One timed phase, run a unit at a time so phases can interleave.

    ``share`` is the loop's weight in the measuring window; ``min_units``
    is the work it must finish even when the window has closed.
    """

    name = ""

    def __init__(self, share: float, min_units: int, ledger: Ledger):
        self.share = share
        self.min_units = min_units
        self.ledger = ledger
        self.tracer: Tracer | None = None
        self.raw: list[float] = []      # wall seconds per unit
        self.scale: list[float] = []    # nominal-speed factor per unit

    @property
    def times(self) -> list[float]:
        """Seconds per unit at nominal machine speed."""
        return [t * f for t, f in zip(self.raw, self.scale)]

    def run_unit(self, before: float) -> float:
        """One unit, scaled by ``before`` and a fresh reference time, which it returns."""
        if self.tracer is not None:
            self.tracer.phase = self.name
        start = time.perf_counter()
        self.unit(len(self.raw))
        self.raw.append(time.perf_counter() - start)
        after = reference_seconds()
        self.scale.append(2.0 * REF_NOMINAL_S / (before + after))
        return after

    def unit(self, k: int) -> None:
        raise NotImplementedError


class TrainLoop(Loop):
    """``chunk`` steps per train(resume_from=...) call.

    Starting from an initialised checkpoint keeps parameter set-up out of
    the timed calls; the loss trace is kept for the bit-for-bit check.
    """

    def __init__(self, name, ckpt, corpus, tp: TrainPlan, ledger):
        super().__init__(tp.share, math.ceil(tp.loss_steps / tp.chunk), ledger)
        self.name, self.ckpt, self.corpus = name, ckpt, corpus
        self.chunk, self.loss_steps = tp.chunk, tp.loss_steps
        self.trace: list[tuple[int, float]] = []

    def unit(self, k):
        self.ckpt, losses = T.train(self.ckpt.config, self.corpus, resume_from=self.ckpt,
                                    max_steps=self.ckpt.step + self.chunk)
        for step, loss in losses:
            self.ledger.record(self.name, math.isfinite(loss), f"step {step} loss {loss}")
        self.trace += losses


class EmbedLoop(Loop):
    """embed_corpus over chunks of 2 * max_words texts: two texts of each length."""

    name = "embed"

    def __init__(self, inputs, sizes, share, ledger):
        self.chunk = 2 * sizes.max_words
        self.n_chunks = len(inputs.texts) // self.chunk
        super().__init__(share, self.n_chunks, ledger)
        self.inputs = inputs

    def unit(self, k):
        k %= self.n_chunks
        texts = self.inputs.texts[k * self.chunk:(k + 1) * self.chunk]
        emb = S.embed_corpus(self.inputs.serve_ckpt, texts, "trained-pooler")
        norms = np.linalg.norm(emb.vectors.astype(np.float64), axis=1)
        ok = np.isfinite(emb.vectors).all(axis=1) & (np.abs(norms - 1.0) < 1e-5)
        ok &= emb.num_rows == len(texts)
        for i in range(len(texts)):
            self.ledger.record("embed", bool(ok[i]), f"text {k * self.chunk + i} not unit-norm")


class StsLoop(Loop):
    """STS evaluate over chunks of sts_chunk records."""

    name = "sts"

    def __init__(self, inputs, sizes, share, ledger):
        self.chunk = sizes.sts_chunk
        self.n_chunks = len(inputs.sts) // self.chunk
        super().__init__(share, 1, ledger)
        self.inputs = inputs

    def unit(self, k):
        k %= self.n_chunks
        records = self.inputs.sts[k * self.chunk:(k + 1) * self.chunk]
        rho = E.evaluate(self.inputs.serve_ckpt, STRATEGY, records)
        self.ledger.record("sts", math.isfinite(rho) and -1.0 <= rho <= 1.0, f"spearman {rho}")


class QueryLoop(Loop):
    """Closed loop, one client: the next query is sent when the last returns."""

    name = "query"
    block = 500

    def __init__(self, index, inputs, sizes, share, ledger):
        self.pool = len(inputs.queries)
        sends = max(sizes.min_queries, self.pool)
        super().__init__(share, math.ceil(sends / self.block), ledger)
        self.index, self.inputs = index, inputs
        self.lat_ms: list[float] = []
        self.rr: list[float] = []   # reciprocal ranks of the first pass over the pool

    def unit(self, k):
        clock = time.perf_counter
        for _ in range(self.block):
            j = len(self.lat_ms) % self.pool
            start = clock()
            res = S.query(self.index, self.inputs.queries[j], top_k=TOP_K, nprobe=NPROBE)
            self.lat_ms.append((clock() - start) * 1e3)
            self.ledger.record("query", len(res) == TOP_K, f"query {j} returned {len(res)} hits")
            if len(self.rr) < self.pool:
                self.rr.append(reciprocal_rank(res, int(self.inputs.gold[j])))

    def latencies_ms(self) -> list[float]:
        """Per-query latency at nominal machine speed."""
        return [ms * self.scale[j // self.block] for j, ms in enumerate(self.lat_ms)]


def interleave(loops: list[Loop], seconds: float, order: list[int] | None = None) -> list[int]:
    """Run loop units, always the loop furthest behind its share of the window.

    Interleaving spreads every phase over the whole window, so a burst of
    interference from other tenants slows all phases a little instead of
    one phase a lot. With ``order`` given, replay exactly that sequence.
    """
    before = reference_seconds()
    if order is not None:
        for i in order:
            before = loops[i].run_unit(before)
        return order
    order, spent = [], [0.0] * len(loops)
    weight = sum(lp.share for lp in loops)
    while True:
        open_ = sum(spent) < seconds
        ready = [i for i, lp in enumerate(loops) if open_ or len(lp.raw) < lp.min_units]
        if not ready:
            return order
        i = min(ready, key=lambda i: spent[i] * weight / loops[i].share)
        before = loops[i].run_unit(before)
        spent[i] += loops[i].raw[-1]
        order.append(i)


def initial_checkpoint(phase, inputs, seed) -> T.Checkpoint:
    frozen = inputs.frozen_path if phase == "train_pooler" else None
    ckpt, _ = T.train(_train_config(seed, frozen), inputs.corpus, max_steps=0)
    return ckpt


def layer_sweep_check(inputs, sizes, ledger):
    """One layer sweep over an STS chunk: a finite Spearman per layer and stream."""
    result = E.layer_sweep(inputs.serve_ckpt, inputs.sts[: sizes.sts_chunk])
    ok = len(result.rows) == 2 * NUM_LAYERS and all(
        math.isfinite(rho) and -1.0 <= rho <= 1.0 for _, rho in result.rows)
    ledger.record("sts", ok, f"layer sweep rows {result.rows}")


def reference_seconds() -> float:
    """Median wall time of three runs of a fixed interpreter-and-numpy task."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        x = np.ones(DIM)
        for _ in range(180):
            x = np.tanh(_REF_MATRIX @ x) + 0.5 * x
        total = 0
        for i in range(9000):
            total += i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def timed(fn, *args):
    """(result, seconds at nominal speed) of one call."""
    before = reference_seconds()
    start = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - start
    return out, raw * 2.0 * REF_NOMINAL_S / (before + reference_seconds())


class BuildLoop(Loop):
    """build_index on the workload's matrix, one build per unit."""

    name = "build"

    def __init__(self, inputs, seed, plan: Plan, ledger):
        super().__init__(plan.build_share, 1, ledger)
        self.inputs, self.seed, self.max_iters = inputs, seed, plan.max_iters
        self.index: S.IvfIndex | None = None

    @property
    def times(self) -> list[float]:
        # The one large build (no share) stays wall time: its 655 MB-per-
        # iteration temporaries make it memory-bound, and the compute-bound
        # reference task overcorrects its slowdowns. The small interleaved
        # builds fit in the allocator's heap and track the reference.
        return super().times if self.share > 0 else self.raw

    def unit(self, k):
        self.index = S.build_index(self.inputs.matrix, NLIST, Rng(self.seed), self.max_iters)
        ids = np.sort(np.concatenate(self.index.posting_ids))
        self.ledger.record("build", np.array_equal(ids, np.arange(self.inputs.matrix.num_rows)),
                           "index ids are not a permutation of the rows")


def reciprocal_rank(result, gold) -> float:
    for rank, (i, _) in enumerate(result, 1):
        if i == gold:
            return 1.0 / rank
    return 0.0


def check_phase(index, inputs, sizes, workdir, ledger):
    """Full probe equals brute force; a saved and reloaded index answers alike."""
    sample = inputs.queries[: sizes.check_queries]
    for k, q in enumerate(sample):
        full = S.query(index, q, top_k=TOP_K, nprobe=index.nlist)
        exact = S.brute_force_query(inputs.matrix, q, top_k=TOP_K)
        ledger.record("check", full == exact, f"query {k}: full probe != brute force")
    path = os.path.join(workdir, "index")
    S.save_index(index, path)
    loaded = S.load_index(path)
    for k, q in enumerate(sample):
        same = S.query(loaded, q, TOP_K, NPROBE) == S.query(index, q, TOP_K, NPROBE)
        ledger.record("check", same, f"query {k}: reloaded index answers differently")


def sweep_phase(index, inputs, sizes, tracer):
    """Traced queries at every sweep nprobe; returns MRR and candidates per nprobe."""
    queries = inputs.queries[: sizes.sweep_queries]
    gold = inputs.gold[: sizes.sweep_queries]
    sizes_per_list = np.array([len(p) for p in index.posting_ids])
    # same probe order as search.query: squared L2 to centroids, stable sort
    unit = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    d2 = ((index.centroids.astype(np.float64)[None] - unit[:, None]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")
    out = {}
    for nprobe in NPROBE_SWEEP:
        tracer.phase = f"sweep{nprobe}"
        rr = [reciprocal_rank(S.query(index, q, TOP_K, nprobe), int(g))
              for q, g in zip(queries, gold)]
        candidates = sizes_per_list[order[:, :nprobe]].sum(axis=1).mean()
        out[nprobe] = (float(np.mean(rr)), float(candidates))
    return out


# ---- one pass over every phase -------------------------------------------------


@dataclass
class PassResult:
    index: S.IvfIndex
    loops: dict[str, Loop]
    order: list[int]

    @property
    def seconds(self) -> float:
        return sum(sum(lp.times) for lp in self.loops.values())


def run_pass(workload, inputs, seed, sizes, seconds, workdir, ledger,
             tracer: Tracer | None = None, order: list[int] | None = None) -> PassResult:
    """Build the index, interleave the timed loops for ``seconds``, then check.

    With ``order`` (a previous pass's schedule) the pass repeats exactly
    that work instead of filling the window.
    """
    plan = plans(sizes)[workload]

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    build = BuildLoop(inputs, seed, plan, ledger)
    build.tracer = tracer
    build.run_unit(reference_seconds())   # queries need an index from the start

    phase("init")
    loops: list[Loop] = []
    if plan.encoder_train is not None:
        loops.append(TrainLoop("train_encoder", initial_checkpoint("train_encoder", inputs, seed),
                               inputs.corpus, plan.encoder_train, ledger))
    loops.append(TrainLoop("train_pooler", initial_checkpoint("train_pooler", inputs, seed),
                           inputs.corpus, plan.pooler_train, ledger))
    loops += [EmbedLoop(inputs, sizes, plan.embed_share, ledger),
              StsLoop(inputs, sizes, plan.sts_share, ledger),
              QueryLoop(build.index, inputs, sizes, plan.query_share, ledger)]
    if plan.build_share > 0:
        build.min_units = BUILD_SAMPLES
        loops.append(build)
    for lp in loops:
        lp.tracer = tracer
    order = interleave(loops, seconds, order)

    phase("check")
    check_phase(build.index, inputs, sizes, workdir, ledger)
    return PassResult(build.index, {lp.name: lp for lp in loops + [build]}, order)


# ---- metrics -------------------------------------------------------------------


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def samples(res: PassResult, setup_times) -> dict:
    """Raw timings behind the metrics, kept in the run record."""
    out = {name: {"raw_s": lp.raw, "scale": lp.scale} for name, lp in res.loops.items()}
    out.update(setup_s=setup_times,
               query_raw_ms=res.loops["query"].lat_ms)
    return out


def end_to_end(workload, res: PassResult, setup_times, sizes, peak_rss_mb) -> dict:
    plan = plans(sizes)[workload]
    train = res.loops[plan.train_phase]
    sentences = train.chunk * BATCH_SIZE * SENTENCES_PER_RECORD
    loss_window = [loss for step, loss in train.trace
                   if train.loss_steps - LOSS_WINDOW <= step < train.loss_steps]
    embed, sts, query = res.loops["embed"], res.loops["sts"], res.loops["query"]
    lat = query.latencies_ms()
    # p95 within each unit of QueryLoop.block queries (25 beyond it), then the
    # median over units, so a burst of interference moves one unit's tail
    unit_p95 = [_pct(lat[i:i + query.block], 95) for i in range(0, len(lat), query.block)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "train_sentences_per_s": (statistics.median(sentences / t for t in train.times), "1/s"),
        "train_loss_end": (float(np.mean(loss_window)), "nat"),
        "embed_sentences_per_s": (statistics.median(embed.chunk / t for t in embed.times), "1/s"),
        "sts_pairs_per_s": (statistics.median(sts.chunk / t for t in sts.times), "1/s"),
        "index_build_s": (statistics.median(res.loops["build"].times), "s"),
        "query_ms_p50": (_pct(lat, 50), "ms"),
        "query_ms_p95": (statistics.median(unit_p95), "ms"),
        "search_mrr_at_10": (float(np.mean(query.rr)), "score"),
    }


def per_layer(workload, tracer: Tracer, res: PassResult, sweep: dict,
              overhead: float, sizes) -> dict:
    plan = plans(sizes)[workload]
    spans = tracer.spans
    kids = children_index(spans)
    train_phase_name = plan.train_phase

    def rows(name, phases=None):
        return [i for i, r in enumerate(spans)
                if r[NAME] == name and (phases is None or r[PHASE] in phases)]

    def pick(name):
        """Spans in the focus phases, else the training phase, else anywhere."""
        return rows(name, plan.focus) or rows(name, (train_phase_name,)) or rows(name)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def mean_ms(idx):
        return 1e3 * float(np.mean([dur(i) for i in idx]))

    def median_s(idx):
        return float(np.median([dur(i) for i in idx]))

    train_calls = rows("trainer.train", (train_phase_name,))
    backward = rows("autodiff.backward", (train_phase_name,))
    # A step runs from the end of the previous backward (or from the start of
    # its train() call) to the end of its own backward, so it holds the
    # previous step's Adam update and its own shuffle and batch assembly.
    step_ms = []
    for call in train_calls:
        edge = spans[call][START]
        for b in kids.get(call, ()):
            if spans[b][NAME] == "autodiff.backward":
                step_ms.append(1e3 * (spans[b][END] - edge))
                edge = spans[b][END]
    steps = len(backward)
    tokenize = pick("encoder.tokenize")
    builds = pick("search.build_index")
    kmeans = [k for b in builds for k in kids.get(b, ()) if spans[k][NAME] == "search.kmeans"]
    sizes_per_list = np.array([len(p) for p in res.index.posting_ids])

    out = {
        "encoder.forward_ms_per_sentence": (mean_ms(pick("encoder.forward")), "ms"),
        "encoder.tokenize_ms_per_sentence": (mean_ms(tokenize), "ms"),
        "encoder.tokens_per_sentence": (float(np.mean([spans[i][SIZE] for i in tokenize])), "count"),
        "encoder.frozen_stack_ms_per_sentence": (mean_ms(pick("encoder.frozen_stack")), "ms"),
        "pooler.pool_ms_per_sentence": (mean_ms(pick("pooler.pool")), "ms"),
        "objectives.loss_ms_per_step": (mean_ms(rows("objectives.loss", (train_phase_name,))), "ms"),
        "autodiff.backward_ms_per_step": (mean_ms(backward), "ms"),
        "autodiff.tape_nodes_per_step": (tracer.tensor_inits[train_phase_name] / steps, "count"),
        "trainer.step_ms_p50": (_pct(step_ms, 50), "ms"),
        "trainer.step_ms_p90": (_pct(step_ms, 90), "ms"),
        "trainer.self_ms_per_step": (
            1e3 * sum(self_time(spans, c, kids) for c in train_calls) / steps, "ms"),
        "sts_eval.evaluate_s": (median_s(pick("sts_eval.evaluate")), "s"),
        "sts_eval.layer_sweep_s": (median_s(pick("sts_eval.layer_sweep")), "s"),
        "search.kmeans_s": (median_s(kmeans), "s"),
        "search.assign_s": (float(np.median([self_time(spans, b, kids) for b in builds])), "s"),
        "search.save_s": (median_s(pick("search.save")), "s"),
        "search.load_s": (median_s(pick("search.load")), "s"),
        "search.posting_imbalance": (float(sizes_per_list.max() / sizes_per_list.mean()), "ratio"),
        "search.brute_force_ms_p50": (
            1e3 * float(np.median([dur(i) for i in pick("search.brute_force")])), "ms"),
        "corpus.generate_s": (
            sum(dur(i) for i in rows("corpus.generate", ("setup",))) / SETUP_REPEATS, "s"),
        "tracing_overhead_frac": (overhead, "frac"),
    }
    for nprobe in NPROBE_SWEEP:
        lat = [1e3 * dur(i) for i in rows("search.query", (f"sweep{nprobe}",))]
        mrr, candidates = sweep[nprobe]
        out[f"search.query_ms_p50.nprobe{nprobe}"] = (_pct(lat, 50), "ms")
        out[f"search.query_ms_p99.nprobe{nprobe}"] = (_pct(lat, 99), "ms")
        out[f"search.mrr_at_10.nprobe{nprobe}"] = (mrr, "score")
        out[f"search.candidates_per_query.nprobe{nprobe}"] = (candidates, "count")
    return out
