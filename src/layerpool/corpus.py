"""Record files and the synthetic cluster-paraphrase generators.

Training corpora and STS sets are both JSONL files of records, read by
`load_jsonl` and checked by `check_records`. Record shapes: pairs
{"sent1","sent2"}, triplets {"anchor","positive","negative"}, bare {"text"};
STS adds "score". The synthetic generators draw from one topic-cluster world
where sentences from the same cluster are paraphrases, used by the desk-scale
directional experiment. Their default seed is fixed and published here so
runs are reproducible.
"""

from __future__ import annotations


import numpy as np

from .artifact import dumps_json, loads_json, write_file
from .autodiff import Rng

# published seed of the synthetic paraphrase corpus
SYNTH_CORPUS_SEED = 230817


def numbered_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line. Lines are decoded
    one at a time, so a line that is not UTF-8 is named by path:line."""
    lines = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if line:
                lines.append((lineno, line))
    return lines


def load_jsonl(path) -> list:
    """The JSON value of each non-blank line, parsed by `artifact.loads_json`; a
    line that is not UTF-8 or not strict JSON is named by path:line."""
    records = []
    for lineno, line in numbered_lines(path):
        try:
            records.append(loads_json(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return records


def check_records(records: list, keys, where: str, reader: str) -> None:
    """Every record must be an object holding each key as a non-blank string;
    the first that is not is named by `where`, its index and the key that
    `reader` needs."""
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"{where} record {i} is a {type(record).__name__}, not an object")
        for key in keys:
            # not v.strip() without building the stripped copy: strip() drops
            # exactly the characters that isspace() accepts
            v = record.get(key)
            if not isinstance(v, str) or not v or v.isspace():
                got = repr(record[key]) if key in record else "no such key"
                raise ValueError(f"{where} record {i}: {reader} needs key {key!r} "
                                 f"as a non-blank string, got {got}")


def write_jsonl(records: list[dict], path) -> None:
    write_file(path, ((dumps_json(rec) + "\n").encode() for rec in records))


# The synthetic world, declared once: every generator draws from these
# words through `_sentence` and `_other_cluster`.
NUM_CLUSTERS = 8
_CLUSTER_WORDS = tuple(tuple(f"c{c}w{k}" for k in range(12)) for c in range(NUM_CLUSTERS))
_SHARED_WORDS = tuple(f"the{k}" for k in range(6))
_MIN_LEN, _MAX_LEN, _SHARED_P = 4, 9, 0.35


def _sentence(gen: np.random.Generator, cluster: int) -> str:
    """A sentence of `cluster`. Its draws, in order, fix the published corpus."""
    words = []
    for _ in range(int(gen.integers(_MIN_LEN, _MAX_LEN + 1))):
        pool = _SHARED_WORDS if gen.random() < _SHARED_P else _CLUSTER_WORDS[cluster]
        words.append(pool[gen.integers(len(pool))])
    return " ".join(words)


def _other_cluster(gen: np.random.Generator, c: int) -> int:
    """A cluster drawn uniformly from all but `c`."""
    other = int(gen.integers(NUM_CLUSTERS - 1))
    return other + 1 if other >= c else other


def make_synthetic_triplets(num_pairs: int = 2000, *,
                            seed: int = SYNTH_CORPUS_SEED) -> list[dict]:
    """Paraphrase triplets: anchor/positive share a cluster, negative does not."""
    gen = Rng(seed).child("triplets").generator()
    triplets = []
    for i in range(num_pairs):
        c = i % NUM_CLUSTERS
        other = _other_cluster(gen, c)
        triplets.append({"anchor": _sentence(gen, c), "positive": _sentence(gen, c),
                         "negative": _sentence(gen, other)})
    return triplets


def make_synthetic_sts(num_records: int = 200, *,
                       seed: int = SYNTH_CORPUS_SEED) -> list[dict]:
    """Held-out STS records: same-cluster pairs gold 5, cross-cluster gold 0."""
    gen = Rng(seed).child("sts").generator()
    records = []
    for i in range(num_records):
        c = int(gen.integers(NUM_CLUSTERS))
        # odd records pair two clusters, even ones stay in one
        other = _other_cluster(gen, c) if i % 2 else c
        records.append({"sent1": _sentence(gen, c), "sent2": _sentence(gen, other),
                        "score": 0.0 if i % 2 else 5.0})
    return records
