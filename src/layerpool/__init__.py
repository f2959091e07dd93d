"""Layer-wise attention pooling for sentence embeddings.

Contrastive training of an attention pooler over transformer layers, STS
Spearman evaluation with per-layer sweeps, and an IVF-flat semantic-search
harness, all in float64 numpy with a reverse-mode tape.

Submodules load on first use of a name below (PEP 562), so importing the
package, or `layerpool.cli`, does not load numpy before `--threads` is read.
"""

import importlib

_EXPORTS = {
    "autodiff": "Rng Tensor cosine_sim dropout_mask grad_check",
    "encoder": "Encoder EncoderConfig FrozenFeatures Tokenizer load_frozen save_frozen",
    "objectives": "loss_sup_basic loss_sup_hard loss_unsup similarity_matrix",
    "pooler": "AttentionReport PoolStrategy attention_matrix init_pooler_params pool",
    "search": "EmbeddingMatrix IvfIndex SearchMetrics build_index embed_corpus "
              "evaluate_search kmeans_fit query",
    "sts_eval": "StsRecord SweepResult attention_report evaluate layer_sweep spearman",
    "trainer": "Checkpoint TrainConfig init_params load_checkpoint save_checkpoint train",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
