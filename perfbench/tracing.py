"""In-process span recorder wrapped around layerpool's public entry points.

The benchmark patches module- and class-level names for the duration of a
traced pass and restores them afterwards; nothing inside ``src/`` is edited.
Spans stay in memory as ``[name, phase, start_s, end_s, parent, size]`` rows
(``parent`` is the index of the enclosing span or -1, ``size`` is a work count
such as tokens produced) and are written out only when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (module, attribute holding the callable or class, method or None, span name)
# Several modules import `pool` by name, so each binding is patched.
PATCH_POINTS = (
    ("layerpool.corpus", "make_synthetic_triplets", None, "corpus.generate"),
    ("layerpool.corpus", "make_synthetic_sts", None, "corpus.generate"),
    ("layerpool.encoder", "Tokenizer", "encode", "encoder.tokenize"),
    ("layerpool.encoder", "Encoder", "encode", "encoder.forward"),
    ("layerpool.encoder", "FrozenFeatures", "stack", "encoder.frozen_stack"),
    ("layerpool.trainer", "pool", None, "pooler.pool"),
    ("layerpool.search", "pool", None, "pooler.pool"),
    ("layerpool.sts_eval", "pool", None, "pooler.pool"),
    ("layerpool.trainer", "loss_sup_hard", None, "objectives.loss"),
    ("layerpool.trainer", "loss_sup_basic", None, "objectives.loss"),
    ("layerpool.trainer", "loss_unsup", None, "objectives.loss"),
    ("layerpool.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("layerpool.trainer", "train", None, "trainer.train"),
    ("layerpool.search", "embed_corpus", None, "search.embed_corpus"),
    ("layerpool.search", "build_index", None, "search.build_index"),
    ("layerpool.search", "kmeans_fit", None, "search.kmeans"),
    ("layerpool.search", "query", None, "search.query"),
    ("layerpool.search", "brute_force_query", None, "search.brute_force"),
    ("layerpool.search", "save_index", None, "search.save"),
    ("layerpool.search", "load_index", None, "search.load"),
    ("layerpool.sts_eval", "evaluate", None, "sts_eval.evaluate"),
    ("layerpool.sts_eval", "layer_sweep", None, "sts_eval.layer_sweep"),
)

# spans whose return value has a length worth recording as the span's size
_SIZED = {"encoder.tokenize"}

NAME, PHASE, START, END, PARENT, SIZE = range(6)


class Tracer:
    """Records spans and per-phase ``Tensor`` construction counts.

    ``phase`` labels every span opened while it is set, so spans of one
    workload phase (one train chunk, one query batch) share an identifier.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.tensor_inits: Counter = Counter()
        self.phase = "setup"
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter
        sized = name in _SIZED

        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, self.phase, clock(), 0.0, open_[-1] if open_ else -1, 0]
            spans.append(row)
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                open_.pop()
                row[END] = clock()
            if sized:
                row[SIZE] = len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every entry point in PATCH_POINTS plus ``Tensor.__init__``."""
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, method, span in PATCH_POINTS:
            module = importlib.import_module(module_name)
            if method is None:
                owner, key = module, attr
            else:
                owner, key = getattr(module, attr), method
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._saved.append((owner, key, original))
            setattr(owner, key, self._wrap(span, original))

        from layerpool.autodiff import Tensor

        init = Tensor.__init__
        counts = self.tensor_inits

        def counting_init(obj, *args, **kwargs):
            counts[self.phase] += 1
            init(obj, *args, **kwargs)

        self._saved.append((Tensor, "__init__", init))
        Tensor.__init__ = counting_init

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, phase, start, end, parent, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "phase": phase,
                                     "start": start, "end": end,
                                     "parent": parent, "size": size}) + "\n")


def self_time(spans: list[list], idx: int, children: dict[int, list[int]]) -> float:
    """A span's duration minus the part its direct children cover.

    The benchmark is single-threaded, so children of one span never overlap.
    """
    row = spans[idx]
    covered = sum(spans[c][END] - spans[c][START] for c in children.get(idx, ()))
    return row[END] - row[START] - covered


def children_index(spans: list[list]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for idx, row in enumerate(spans):
        if row[PARENT] >= 0:
            out.setdefault(row[PARENT], []).append(idx)
    return out
