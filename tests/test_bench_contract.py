"""The names the benchmark in `perfbench/` patches and reads.

A traced benchmark run wraps every entry of `tracing.PATCH_POINTS`, and
`session.py` reads a few attributes of the search types; a rename must fail
here, in the fast suite, and not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from layerpool.autodiff import Rng
from layerpool.search import EmbeddingMatrix, build_index


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCH_POINTS = _load_tracing().PATCH_POINTS


@pytest.mark.parametrize("module_name, attr, method, span", PATCH_POINTS,
                         ids=[f"{m}.{a}" + (f".{f}" if f else "")
                              for m, a, f, _ in PATCH_POINTS])
def test_patch_point_resolves(module_name, attr, method, span):
    # as Tracer.install: a module attribute, or a method in the class's own __dict__
    module = importlib.import_module(module_name)
    if method is None:
        target = getattr(module, attr)
    else:
        owner = getattr(module, attr)
        assert isinstance(owner, type)
        target = owner.__dict__[method]
    assert callable(target)


def test_attributes_the_session_reads():
    matrix = EmbeddingMatrix(np.eye(6, 3, dtype=np.float32) + 0.5)
    index = build_index(matrix, 2, Rng(0))
    assert matrix.num_rows == 6
    assert index.nlist == 2
    assert index.centroids.shape == (2, 3)
    assert isinstance(index.posting_ids, list) and len(index.posting_ids) == 2
    assert all(isinstance(p, np.ndarray) for p in index.posting_ids)
