"""Spearman-correlation evaluation, per-layer sweeps, attention reports."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .artifact import write_csv
from .autodiff import Tensor, cosine_sim
from .pooler import (
    ATTENTION_STRATEGIES,
    AttentionReport,
    PoolStrategy,
    attention_scores,
    pool,
)
from .trainer import Checkpoint


@dataclass
class StsRecord:
    sent1: str
    sent2: str
    gold: float

    def __post_init__(self):
        if not 0.0 <= self.gold <= 5.0:
            raise ValueError(f"gold score {self.gold} outside [0, 5]")


def load_sts_records(path) -> list[StsRecord]:
    """Read STS records from JSONL ({"sent1","sent2","score"}) or TSV."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.lstrip().startswith("{"):
                doc = json.loads(line)
                records.append(StsRecord(doc["sent1"], doc["sent2"], float(doc["score"])))
            else:
                s1, s2, score = line.split("\t")
                records.append(StsRecord(s1, s2, float(score)))
    return records


def rank_average_ties(xs: np.ndarray) -> np.ndarray:
    """1-based fractional ranks; tied values get the mean of their positions."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs))
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Pearson correlation of average-tie rank vectors."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("spearman needs two equal-length 1-D score arrays")
    if len(xs) < 2:
        raise ValueError("spearman needs at least two scores")
    rx = rank_average_ties(xs)
    ry = rank_average_ties(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx @ rx) * (ry @ ry))
    if denom == 0.0:
        raise ValueError("spearman undefined: zero rank variance")
    return float(np.clip(rx @ ry / denom, -1.0, 1.0))


def _stacks_for(checkpoint: Checkpoint, texts: list[str]) -> Tensor:
    """(len(texts), N, 2, d) layer stacks with dropout off."""
    encoder = checkpoint.encoder()
    if encoder is None:
        raise ValueError("checkpoint has no encoder (frozen-features training); "
                         "evaluate via stack pairs instead")
    return encoder.encode_texts(checkpoint.tokenizer(), texts)


def _pairs_for(checkpoint: Checkpoint, records: list[StsRecord]) -> Tensor:
    """(P, 2, N, 2, d) layer stacks of each record's two sentences."""
    stacks = _stacks_for(checkpoint, [s for r in records for s in (r.sent1, r.sent2)])
    return stacks.reshape(len(records), 2, *stacks.shape[1:])


def evaluate_stacks(pairs: Tensor, golds, pooler, strategy, norm_mode="softmax") -> float:
    """Spearman of per-pair cosine similarities against gold scores.

    `pairs` is a (P, 2, N, 2, d) batch holding the two stacks of each pair.
    """
    embeddings = pool(pairs, pooler, strategy, norm_mode).data  # (P, 2, D)
    return spearman(cosine_sim(embeddings[:, 0], embeddings[:, 1]), golds)


def evaluate(checkpoint: Checkpoint, strategy, records: list[StsRecord],
             norm_mode: str | None = None) -> float:
    """Embed both sentences of each record with dropout off; Spearman vs gold."""
    if not records:
        raise ValueError("no STS records")
    strategy = PoolStrategy(strategy)
    norm_mode = norm_mode or checkpoint.config.norm_mode
    return evaluate_stacks(_pairs_for(checkpoint, records), [r.gold for r in records],
                           checkpoint.pooler_params(), strategy, norm_mode)


@dataclass
class SweepResult:
    """One Spearman score per swept configuration (layer x {cls, avg})."""

    rows: list[tuple[str, float]]

    def write_csv(self, path) -> None:
        write_csv(path, [["configuration", "spearman"],
                         *([name, repr(score)] for name, score in self.rows)])


def layer_sweep_stacks(pairs: Tensor, golds) -> SweepResult:
    """Spearman of each layer's CLS and AVG cosines over a (P, 2, N, 2, d) batch."""
    sims = cosine_sim(pairs.data[:, 0], pairs.data[:, 1])  # (P, N, 2)
    rows = [
        (f"layer{i + 1}_{kind}", spearman(sims[:, i, k], golds))
        for i in range(sims.shape[1])
        for k, kind in enumerate(("cls", "avg"))
    ]
    return SweepResult(rows=rows)


def layer_sweep(checkpoint: Checkpoint, records: list[StsRecord]) -> SweepResult:
    """Spearman of each single layer's CLS and AVG vector taken alone."""
    if not records:
        raise ValueError("no STS records")
    return layer_sweep_stacks(_pairs_for(checkpoint, records), [r.gold for r in records])


def attention_report(checkpoint: Checkpoint, texts: list[str]) -> list[AttentionReport]:
    """Layer-attention weight matrices for each text."""
    strategy = PoolStrategy(checkpoint.config.strategy)
    if strategy not in ATTENTION_STRATEGIES:
        raise ValueError(
            f"strategy {strategy.value!r} is fixed pooling; no attention to report"
        )
    report = attention_scores(_stacks_for(checkpoint, texts), checkpoint.pooler_params(),
                              strategy, checkpoint.config.norm_mode)
    return [AttentionReport(w, f) for w, f in zip(report.weights, report.fallback)]
