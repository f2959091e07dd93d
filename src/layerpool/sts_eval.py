"""Spearman-correlation evaluation, per-layer sweeps, attention reports.

STS files are JSONL, read by `corpus.load_jsonl`; their texts are checked by
`corpus.check_records`, and each score must be a JSON number in [0, 5].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import write_csv
from .autodiff import Tensor, cosine_sim
from .corpus import check_records, load_jsonl
from .pooler import AttentionReport, PoolStrategy, attention_matrix, pool
from .trainer import Checkpoint


@dataclass
class StsRecord:
    sent1: str
    sent2: str
    gold: float

    def __post_init__(self):
        gold = self.gold
        # a number, not a bool or a string: a score keeps its JSON type
        if type(gold) is bool or not isinstance(gold, (int, float)) or not 0 <= gold <= 5:
            raise ValueError(f"gold score must be a number in [0, 5], got {gold!r}")


def load_sts_records(path) -> list[StsRecord]:
    """The records of a JSONL file of {"sent1","sent2","score"} objects. A bad
    record is named by the path and its index, invalid JSON by path:line."""
    docs = load_jsonl(path)
    check_records(docs, ("sent1", "sent2"), str(path), "STS")
    records = []
    for i, doc in enumerate(docs):
        try:
            records.append(StsRecord(doc["sent1"], doc["sent2"], doc.get("score")))
        except ValueError as exc:
            raise ValueError(f"{path} record {i}: {exc}") from exc
    return records


def rank_average_ties(xs: np.ndarray) -> np.ndarray:
    """1-based fractional ranks; tied values get the mean of their positions."""
    _, inverse, counts = np.unique(np.asarray(xs, dtype=np.float64),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(xs, ys) -> float:
    """Pearson correlation of average-tie rank vectors."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape or not np.isfinite([xs, ys]).all():
        raise ValueError("spearman needs two equal-length 1-D arrays of finite scores")
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


def _pairs_for(checkpoint: Checkpoint, records: list[StsRecord]) -> tuple[Tensor, list]:
    """(P, 2, N, 2, d) layer stacks of each record's two sentences, and the P golds."""
    if not records:
        raise ValueError("no STS records")
    stacks = checkpoint.stacks([s for r in records for s in (r.sent1, r.sent2)])
    return stacks.reshape(len(records), 2, *stacks.shape[1:]), [r.gold for r in records]


def evaluate_stacks(pairs: Tensor, golds, params, strategy, norm_mode="softmax") -> float:
    """Spearman of per-pair cosine similarities against gold scores.

    `pairs` is a (P, 2, N, 2, d) batch holding the two stacks of each pair.
    """
    embeddings = pool(pairs, params, strategy, norm_mode).data  # (P, 2, D)
    return spearman(cosine_sim(embeddings[:, 0], embeddings[:, 1]), golds)


def evaluate(checkpoint: Checkpoint, strategy, records: list[StsRecord]) -> float:
    """Embed both sentences of each record with dropout off and pool them under
    the checkpoint's `norm_mode`; Spearman vs gold."""
    return evaluate_stacks(*_pairs_for(checkpoint, records), checkpoint.constants(),
                           PoolStrategy(strategy), checkpoint.config.norm_mode)


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
    return layer_sweep_stacks(*_pairs_for(checkpoint, records))


def attention_report(checkpoint: Checkpoint, texts: list[str]) -> list[AttentionReport]:
    """Layer-attention weight matrices for each text."""
    matrix, fallback = attention_matrix(checkpoint.stacks(texts), checkpoint.constants(),
                                        PoolStrategy(checkpoint.config.strategy),
                                        checkpoint.config.norm_mode)
    return [AttentionReport(w, f) for w, f in zip(matrix.data, fallback)]
