"""Training loop binding encoder, pooler, and one contrastive objective.

Determinism contract: every stochastic choice (init, shuffling, dropout) is
drawn from a stream derived from (seed, epoch/step), so a run is a pure
function of (config, corpus) and resuming from a checkpoint reproduces the
uninterrupted trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .artifact import ArtifactCorruptError, read_dir, write_csv, write_dir
from .autodiff import Rng, Tensor
from .config import TrainConfig, train_config_doc, train_config_from_doc
from .corpus import check_records
from .encoder import Encoder, FrozenFeatures, Tokenizer, init_encoder_params, load_frozen
from .objectives import VIEWS, loss_sup_basic, loss_sup_hard, loss_unsup, record_keys
from .pooler import PoolStrategy, init_pooler_params, pool

CHECKPOINT_FORMAT = "layerpool-checkpoint"
CHECKPOINT_VERSION = 7


@dataclass
class Checkpoint:
    config: TrainConfig
    params: dict[str, np.ndarray]      # encoder (unless frozen) + pooler arrays
    adam_m: dict[str, np.ndarray]      # one per param, shaped as it
    adam_v: dict[str, np.ndarray]
    step: int
    vocab: dict[str, int]

    def constants(self) -> dict[str, Tensor]:
        """The parameters as constant Tensors: inference over them records no tape."""
        return {name: Tensor(array) for name, array in self.params.items()}

    def tokenizer(self) -> Tokenizer:
        return Tokenizer(self.vocab)

    def encoder(self) -> Encoder:
        if self.config.frozen_features is not None:
            raise ValueError("checkpoint has no encoder (trained on frozen features), "
                             "so it cannot embed text")
        return Encoder(self.config.encoder, self.constants())

    def stacks(self, texts) -> Tensor:
        """(len(texts), N, 2, d) layer stacks with dropout off."""
        return self.encoder().encode_texts(self.tokenizer(), texts)


def init_params(config: TrainConfig, vocab_size: int, rng: Rng) -> dict[str, np.ndarray]:
    """Seeded encoder and pooler arrays of an encoder run; the token table
    has `vocab_size` rows."""
    params = init_encoder_params(config.encoder, vocab_size, rng)
    params.update(init_pooler_params(config.encoder.hidden_dim, rng))
    return params


def _batch_loss(config, encoder, tokenizer, frozen, batch, indices, params, rng_step):
    """One step's loss. Every view of the batch goes through one encoder pass
    (or one frozen `stack`) and one `pool` call; the (V*M, d) embeddings are
    then sliced into the V views that the objective's loss takes."""
    views, M = VIEWS[config.objective], len(batch)
    if frozen is not None:
        # record i of the corpus occupies frozen rows k*i .. k*i + k - 1,
        # one per record key, in key order
        keys = record_keys(config.objective)
        stacks = frozen.stack(np.concatenate(
            [indices * len(keys) + keys.index(key) for key, _ in views]))
    else:
        # text b of view `tag` draws its dropout masks from stream (tag, b)
        rngs = [rng_step.child(tag, b) for _, tag in views for b in range(M)]
        stacks = encoder.encode([tokenizer.encode(r[key], encoder.config.max_seq_len)
                                 for key, _ in views for r in batch], rngs)
    h = pool(stacks, params, PoolStrategy(config.strategy), config.norm_mode)
    # the losses are looked up at call time, so a wrapper patched over them is seen
    loss = {"sup_basic": loss_sup_basic, "unsup": loss_unsup,
            "sup_hard": loss_sup_hard}[config.objective]
    return loss(*(h[v * M:(v + 1) * M] for v in range(len(views))), config.temperature)


def _initial_checkpoint(config: TrainConfig, corpus: list[dict],
                        init_from: Checkpoint | None,
                        frozen: FrozenFeatures | None) -> Checkpoint:
    """The step-0 checkpoint of a fresh or warm-started run: seeded arrays,
    zero Adam state for each of them, and the vocabulary
    (empty for a run over `frozen` features, which tokenizes nothing)."""
    rng = Rng(config.seed)
    if frozen is not None:
        if init_from is not None:
            raise ValueError("init_from warm-starts an encoder, which a frozen_features run "
                             "does not have")
        params, vocab = init_pooler_params(frozen.hidden_dim, rng), {}
    elif init_from is not None:
        # encoder() also refuses a checkpoint trained on frozen features;
        # dropout_p changes no parameter and no inference output
        pretrained = replace(init_from.encoder().config, dropout_p=config.encoder.dropout_p)
        if pretrained != config.encoder:
            raise ValueError("init_from encoder architecture differs from the new config")
        params = {name: array for name, array in init_from.params.items()
                  if not name.startswith("pooler.")}
        params.update(init_pooler_params(config.encoder.hidden_dim, rng))
        vocab = dict(init_from.vocab)
    else:
        tokenizer = Tokenizer.from_texts(rec[key] for rec in corpus
                                         for key in record_keys(config.objective))
        params, vocab = init_params(config, tokenizer.vocab_size, rng), tokenizer.vocab
    return Checkpoint(config, params, {name: np.zeros_like(a) for name, a in params.items()},
                      {name: np.zeros_like(a) for name, a in params.items()}, 0, vocab)


def train(config: TrainConfig, corpus: list[dict],
          resume_from: Checkpoint | None = None,
          init_from: Checkpoint | None = None,
          max_steps: int | None = None):
    """Run the optimization loop; returns (Checkpoint, [(step, loss), ...]).

    Adam with beta1=0.9, beta2=0.999, eps=1e-8. The last incomplete batch of
    each epoch is dropped so the in-batch negative count is always M.

    The returned checkpoint holds `config` (or the resumed run's) unchanged:
    the token table has one row per vocabulary id, and a frozen-features run
    takes N and d from the frozen file, not from `config.encoder`.

    Every run continues a checkpoint, whose every param has Adam state and
    trains. `resume_from` continues an interrupted run
    (config, optimizer state, and step counter all come from the checkpoint).
    `init_from` warm-starts a new encoder run: encoder weights and vocabulary
    carry over, and the pooler, optimizer state and schedule start fresh
    under the new config, whose encoder may differ only in `dropout_p`.
    Both are left as given: the result holds new parameter and Adam dicts,
    and updates rebind arrays rather than write into them, so resuming one
    checkpoint twice repeats the trace. A `max_steps` at or below the
    checkpoint's step runs nothing and keeps that step.
    """
    if resume_from is not None and init_from is not None:
        raise ValueError("resume_from and init_from are mutually exclusive")
    if resume_from is not None:
        config = resume_from.config
    if not corpus:
        raise ValueError("empty corpus")
    check_records(corpus, record_keys(config.objective), "corpus",
                  f"objective {config.objective!r}")
    frozen = None if config.frozen_features is None else load_frozen(config.frozen_features)
    ckpt = resume_from or _initial_checkpoint(config, corpus, init_from, frozen)
    # the run's own trainable Tensors and Adam dicts over the checkpoint's arrays
    params = {name: Tensor(a, requires_grad=True) for name, a in ckpt.params.items()}
    adam_m, adam_v = dict(ckpt.adam_m), dict(ckpt.adam_v)

    if frozen is not None:
        needed = len(corpus) * len(record_keys(config.objective))
        if frozen.num_sentences < needed:
            raise ValueError(f"frozen features hold {frozen.num_sentences} sentences, "
                             f"corpus needs {needed}")
        width = params["pooler.w_q"].shape[0]
        if frozen.hidden_dim != width:
            raise ValueError(f"frozen features in {config.frozen_features} have width "
                             f"d = {frozen.hidden_dim}, the checkpoint's pooler d = {width}")
    encoder = None if frozen is not None else Encoder(config.encoder, params)

    M = config.batch_size
    steps_per_epoch = len(corpus) // M
    if steps_per_epoch == 0:
        raise ValueError("batch_size larger than corpus")
    total_steps = steps_per_epoch * config.epochs
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)
    total_steps = max(total_steps, ckpt.step)

    rng = Rng(config.seed)
    tokenizer = ckpt.tokenizer()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace: list[tuple[int, float]] = []
    order_epoch = None
    for step in range(ckpt.step, total_steps):
        epoch, slot = divmod(step, steps_per_epoch)
        if epoch != order_epoch:
            order_epoch = epoch
            order = rng.child("shuffle", epoch).generator().permutation(len(corpus))
        indices = order[slot * M : (slot + 1) * M]
        batch = [corpus[i] for i in indices]

        for name in params:
            params[name].grad = None
        loss = _batch_loss(config, encoder, tokenizer, frozen, batch, indices, params,
                           rng.child("step", step))
        if not np.isfinite(loss.data):
            # stop before backward and the update, so parameters stay finite
            raise ValueError(f"non-finite loss {loss.item()} at step {step}")
        loss.backward()

        t = step + 1
        for name in adam_m:
            g = params[name].grad
            if g is None:
                continue
            adam_m[name] = beta1 * adam_m[name] + (1 - beta1) * g
            adam_v[name] = beta2 * adam_v[name] + (1 - beta2) * g * g
            m_hat = adam_m[name] / (1 - beta1**t)
            v_hat = adam_v[name] / (1 - beta2**t)
            params[name].data = params[name].data - (
                config.learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        trace.append((step, loss.item()))

    return Checkpoint(config, {name: t.data for name, t in params.items()}, adam_m, adam_v,
                      total_steps, ckpt.vocab), trace


def write_loss_trace(trace, path) -> None:
    write_csv(path, [["step", "loss"], *([step, repr(loss)] for step, loss in trace)])


# ---- checkpoint persistence -----------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Arrays are stored in float64 (not the f32 of embedding files) so a
    resumed run reproduces the uninterrupted trajectory exactly."""
    groups = {"param": ckpt.params, "adam_m": ckpt.adam_m, "adam_v": ckpt.adam_v}
    meta = {"step": ckpt.step, "config": train_config_doc(ckpt.config), "vocab": ckpt.vocab}
    write_dir(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, meta, {
        f"{group}.{k}": np.asarray(v, dtype="<f8")
        for group, named in groups.items() for k, v in named.items()})


def _check_params_fit(config: TrainConfig, groups: dict[str, dict], vocab: dict) -> None:
    """Raise ValueError at vocabulary ids that are not the token table's rows
    after the reserved ones, each once, or else at the first array of the
    `param`, `adam_m` and `adam_v` groups, in that order, whose name or
    shape a fresh init under `config` and `vocab` does not give."""
    rows = Tokenizer(vocab).vocab_size
    if sorted(vocab.values()) != list(range(rows - len(vocab), rows)):
        raise ValueError(f"vocabulary ids must be {rows - len(vocab)} .. {rows - 1}, each once")
    if config.frozen_features is None:
        fresh = init_params(config, rows, Rng(0))
    else:  # the pooler's width d is the frozen file's, which only the arrays record
        w_q = groups["param"].get("pooler.w_q")
        fresh = init_pooler_params(w_q.shape[0] if w_q is not None and w_q.ndim else 0, Rng(0))
    for group, arrays in groups.items():
        for name in [*fresh, *(n for n in arrays if n not in fresh)]:
            got, want = (named[name].shape if name in named else "absent"
                         for named in (arrays, fresh))
            if got != want:
                raise ValueError(f"{group} {name!r} is {got}, its config and vocabulary "
                                 f"give {want}")


def load_checkpoint(path) -> Checkpoint:
    meta, arrays = read_dir(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    groups = {"param": {}, "adam_m": {}, "adam_v": {}}
    try:
        config = train_config_from_doc(meta.pop("config"))
        step, vocab = meta.pop("step"), meta.pop("vocab")
        if meta or type(step) is not int or step < 0 or not isinstance(vocab, dict) or any(
                type(i) is not int for i in vocab.values()):
            raise ValueError("needs only config, step count and integer vocab ids")
        for name, array in arrays.items():
            group, _, key = name.partition(".")
            if group not in groups or array.dtype != "<f8":
                raise ValueError(f"unexpected array {name!r} of dtype {array.dtype}")
            groups[group][key] = array
        _check_params_fit(config, groups, vocab)
    except (KeyError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed checkpoint header in {path}: {exc!r}") from exc
    return Checkpoint(config, groups["param"], groups["adam_m"], groups["adam_v"], step, vocab)
