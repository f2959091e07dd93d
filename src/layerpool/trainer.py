"""Training loop binding encoder, pooler, and one contrastive objective.

Determinism contract: every stochastic choice (init, shuffling, dropout) is
drawn from a stream derived from (seed, epoch/step), so a run is a pure
function of (config, corpus) and resuming from a checkpoint reproduces the
uninterrupted trajectory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .artifact import ArtifactCorruptError, read_dir, write_csv, write_dir
from .autodiff import Rng, Tensor
from .config import TrainConfig, train_config_doc, train_config_from_doc
from .corpus import _CORPUS_KEYS
from .encoder import Encoder, FrozenFeatures, Tokenizer, init_encoder_params, load_frozen
from .objectives import loss_sup_basic, loss_sup_hard, loss_unsup
from .pooler import PoolerParams, PoolStrategy, pool

CHECKPOINT_FORMAT = "layerpool-checkpoint"
CHECKPOINT_VERSION = 3

# corpus record keys required by each objective
_REQUIRED_KEYS = {
    objective: _CORPUS_KEYS[kind]
    for objective, kind in (("sup_basic", "pairs"), ("unsup", "bare"),
                            ("sup_hard", "triplets"))
}


@dataclass
class Checkpoint:
    config: TrainConfig
    params: dict[str, Tensor]          # encoder (unless frozen) + pooler tensors
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int
    vocab: dict[str, int]
    tokenizer_mode: str = "whitespace"

    def pooler_params(self) -> PoolerParams:
        return PoolerParams.from_named(self.params)

    def tokenizer(self) -> Tokenizer:
        return Tokenizer(self.tokenizer_mode, self.vocab)

    def encoder(self) -> Encoder | None:
        if self.config.frozen_features is not None:
            return None
        return Encoder(self.config.encoder, self.params)


def init_params(config: TrainConfig, rng: Rng) -> dict[str, Tensor]:
    """Seeded parameter set for (encoder unless frozen) + pooler."""
    params: dict[str, Tensor] = {}
    if config.frozen_features is None:
        params.update(init_encoder_params(config.encoder, rng))
    params.update(PoolerParams.init(config.encoder.hidden_dim, rng).named())
    return params


def validate_corpus(objective: str, corpus: list[dict]) -> None:
    if not corpus:
        raise ValueError("empty corpus")
    required = _REQUIRED_KEYS[objective]
    for key in required:
        if key not in corpus[0]:
            raise ValueError(
                f"objective {objective!r} needs corpus records with keys "
                f"{required}, got {tuple(sorted(corpus[0]))}"
            )


def _trainable(config: TrainConfig, params: dict[str, Tensor]) -> list[str]:
    names = []
    for name in params:
        if config.frozen_features is not None and not name.startswith("pooler."):
            continue
        if config.freeze_mlp and name in ("pooler.mlp_weight", "pooler.mlp_bias"):
            continue
        names.append(name)
    return names


def _batch_loss(config, encoder, tokenizer, frozen, batch, indices, pooler, rng_step):
    strategy = PoolStrategy(config.strategy)
    keys = _REQUIRED_KEYS[config.objective]

    def embed(key, tag):
        """Pooled embeddings of one side of the batch; `tag` names its dropout stream."""
        if frozen is not None:
            # record i of the corpus occupies frozen rows k*i .. k*i + k - 1,
            # one per required key, in key order
            stacks = frozen.stack(indices * len(keys) + keys.index(key))
        else:
            stacks = encoder.encode_texts(tokenizer, [r[key] for r in batch],
                                          rng_step.child(tag), train_mode=True)
        return pool(stacks, pooler, strategy, config.norm_mode)

    if config.objective == "sup_basic":
        return loss_sup_basic(embed("sent1", "a"), embed("sent2", "p"), config.tau)
    if config.objective == "unsup":
        return loss_unsup(embed("text", "z"), embed("text", "z2"), config.tau)
    return loss_sup_hard(embed("anchor", "a"), embed("positive", "p"),
                         embed("negative", "n"), config.tau)


def _corpus_texts(objective: str, corpus: list[dict]):
    for rec in corpus:
        for key in _REQUIRED_KEYS[objective]:
            yield rec[key]


def train(config: TrainConfig, corpus: list[dict],
          resume_from: Checkpoint | None = None,
          init_from: Checkpoint | None = None,
          max_steps: int | None = None):
    """Run the optimization loop; returns (Checkpoint, [(step, loss), ...]).

    Adam with beta1=0.9, beta2=0.999, eps=1e-8. The last incomplete batch of
    each epoch is dropped so the in-batch negative count is always M.

    `resume_from` continues an interrupted run (config, optimizer state, and
    step counter all come from the checkpoint). `init_from` warm-starts a new
    run from a pretrained checkpoint: encoder weights and vocabulary are
    copied, but the pooler, optimizer state, and schedule start fresh under
    the new config.
    """
    if resume_from is not None and init_from is not None:
        raise ValueError("resume_from and init_from are mutually exclusive")
    if resume_from is not None:
        config = resume_from.config
    validate_corpus(config.objective, corpus)
    rng = Rng(config.seed)

    frozen: FrozenFeatures | None = None
    if config.frozen_features is not None:
        frozen = load_frozen(config.frozen_features)
        needed = len(corpus) * len(_REQUIRED_KEYS[config.objective])
        if frozen.num_sentences < needed:
            raise ValueError(
                f"frozen features hold {frozen.num_sentences} sentences, "
                f"corpus needs {needed}"
            )
        config = replace(config, encoder=replace(
            config.encoder, num_layers=frozen.num_layers, hidden_dim=frozen.hidden_dim))

    if resume_from is not None:
        ckpt = resume_from
        tokenizer = ckpt.tokenizer()
        params, adam_m, adam_v = ckpt.params, ckpt.adam_m, ckpt.adam_v
        start_step = ckpt.step
    else:
        if init_from is not None:
            # vocab_size is excluded: it is resized to the fitted vocabulary,
            # which the warm start copies along with the embedding table
            theirs = {**asdict(init_from.config.encoder), "vocab_size": 0}
            ours = {**asdict(config.encoder), "vocab_size": 0}
            if theirs != ours:
                raise ValueError(
                    "init_from encoder architecture differs from the new config"
                )
            tokenizer = init_from.tokenizer()
        else:
            tokenizer = Tokenizer.from_texts(_corpus_texts(config.objective, corpus))
        if frozen is None:
            config = replace(config, encoder=replace(
                config.encoder, vocab_size=tokenizer.vocab_size))
        params = init_params(config, rng)
        if init_from is not None:
            for name, tensor in init_from.params.items():
                if not name.startswith("pooler."):
                    params[name] = Tensor(tensor.data.copy(), requires_grad=True)
        adam_m = {}
        adam_v = {}
        start_step = 0

    encoder = None if frozen is not None else Encoder(config.encoder, params)
    trainable = _trainable(config, params)
    for name in trainable:
        adam_m.setdefault(name, np.zeros_like(params[name].data))
        adam_v.setdefault(name, np.zeros_like(params[name].data))

    M = config.batch_size
    steps_per_epoch = len(corpus) // M
    if steps_per_epoch == 0:
        raise ValueError("batch_size larger than corpus")
    total_steps = steps_per_epoch * config.epochs
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace: list[tuple[int, float]] = []
    for step in range(start_step, total_steps):
        epoch, slot = divmod(step, steps_per_epoch)
        order = rng.child("shuffle", epoch).generator().permutation(len(corpus))
        indices = order[slot * M : (slot + 1) * M]
        batch = [corpus[i] for i in indices]

        for name in params:
            params[name].grad = None
        loss = _batch_loss(config, encoder, tokenizer, frozen, batch, indices,
                           PoolerParams.from_named(params), rng.child("step", step))
        if not np.isfinite(loss.data):
            # stop before backward and the update, so parameters stay finite
            raise ValueError(f"non-finite loss {loss.item()} at step {step}")
        loss.backward()

        t = step + 1
        for name in trainable:
            g = params[name].grad
            if g is None:
                continue
            adam_m[name] = beta1 * adam_m[name] + (1 - beta1) * g
            adam_v[name] = beta2 * adam_v[name] + (1 - beta2) * g * g
            m_hat = adam_m[name] / (1 - beta1**t)
            v_hat = adam_v[name] / (1 - beta2**t)
            params[name].data -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        trace.append((step, loss.item()))

    return (
        Checkpoint(
            config=config,
            params=params,
            adam_m=adam_m,
            adam_v=adam_v,
            step=total_steps,
            vocab=tokenizer.vocab,
            tokenizer_mode=tokenizer.mode,
        ),
        trace,
    )


def write_loss_trace(trace, path) -> None:
    write_csv(path, [["step", "loss"], *([step, repr(loss)] for step, loss in trace)])


# ---- checkpoint persistence -----------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Tensors are stored in float64 (not the f32 of embedding files) so a
    resumed run reproduces the uninterrupted trajectory exactly."""
    tensors = {"param": {k: v.data for k, v in ckpt.params.items()},
               "adam_m": ckpt.adam_m, "adam_v": ckpt.adam_v}
    meta = {"step": ckpt.step, "config": train_config_doc(ckpt.config),
            "vocab": ckpt.vocab, "tokenizer_mode": ckpt.tokenizer_mode}
    write_dir(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, meta, {
        f"{group}.{k}": np.asarray(v, dtype="<f8")
        for group, named in tensors.items() for k, v in named.items()})


def load_checkpoint(path) -> Checkpoint:
    meta, arrays = read_dir(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    tensors = {"param": {}, "adam_m": {}, "adam_v": {}}
    try:
        config = train_config_from_doc(meta.pop("config"))
        step, vocab, mode = meta.pop("step"), meta.pop("vocab"), meta.pop("tokenizer_mode")
        if meta or type(step) is not int or step < 0 or not isinstance(vocab, dict) or any(
                type(i) is not int for i in vocab.values()):
            raise ValueError("needs only config, step count, integer vocab ids, tokenizer_mode")
        tokenizer = Tokenizer(mode, vocab)
        for name, array in arrays.items():
            group, _, key = name.partition(".")
            if group not in tensors or array.dtype != "<f8":
                raise ValueError(f"unexpected array {name!r} of dtype {array.dtype}")
            tensors[group][key] = array
    except (KeyError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed checkpoint header in {path}: {exc!r}") from exc
    params = {k: Tensor(v, requires_grad=True) for k, v in tensors["param"].items()}
    return Checkpoint(config, params, tensors["adam_m"], tensors["adam_v"], step,
                      tokenizer.vocab, tokenizer.mode)
