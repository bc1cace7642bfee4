"""Mixer-MLP recommender: embedding, mixer stacks, interest modules, scoring.

A mixer layer is a sequence-mixer (an MLP across positions, applied per
embedding channel on the transposed table) followed by a channel-mixer (an
MLP across embedding channels, applied per position), each with a residual
connection and layer normalization.

The long-term module runs a mixer stack over the full padded window; each
short-term candidate runs its own stack over the last k positions. During
the window search the candidate outputs are blended with softmax weights
over the architecture logits ``alpha``, a plain 1 x M leaf (``init_arch``):
logit m weighs the candidate of window ``ModelConfig.windows[m]``.

Mini-batches are row-stacked: a batch of B tables of shape T x D travels as
one (B*T) x D tensor, and the per-example transpose needed by the
sequence-mixer is a block transpose.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numkit as nk
from .data import PAD, DataError, UsageError

CHECKPOINT_MAGIC = b"MIXREC-CKPT"
CHECKPOINT_VERSION = 1
LN_EPS = 1e-5


class DataFormatError(DataError):
    """A persisted artifact does not match its declared layout."""


@dataclass
class ModelConfig:
    num_items: int                   # real items; embedding table has num_items + 1 rows
    max_len: int                     # padded input length T
    dim: int = 128                   # embedding width D
    seq_hidden: int = 512            # sequence-mixer hidden size
    ch_hidden: int = 512             # channel-mixer hidden size
    layers: int = 4
    windows: tuple = (4,)            # short-term candidate lengths, strictly increasing
    dropout: float = 0.5
    activation: str = "gelu"         # or "relu"
    norm_axis: str = "channel"       # or "sequence" (normalize along positions instead)
    disable_sequence_mixer: bool = False
    disable_channel_mixer: bool = False

    def __post_init__(self):
        for name in ("dim", "seq_hidden", "ch_hidden", "layers"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")
        self.windows = tuple(int(k) for k in self.windows)
        if not self.windows:
            raise UsageError("at least one short-term window is required")
        if self.windows[0] < 1:
            raise UsageError(f"windows must be >= 1, got {self.windows}")
        if any(b <= a for a, b in zip(self.windows, self.windows[1:])):
            raise UsageError(f"windows must be strictly increasing, got {self.windows}")
        if self.windows[-1] >= self.max_len:
            raise UsageError(f"windows must be < max_len={self.max_len}, got {self.windows}")
        if not 0.0 <= self.dropout < 1.0:  # NaN fails too
            raise UsageError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.activation not in ("gelu", "relu"):
            raise UsageError(f"unknown activation {self.activation!r}")
        if self.norm_axis not in ("channel", "sequence"):
            raise UsageError(f"unknown norm_axis {self.norm_axis!r}")


@dataclass
class MixerLayerParams:
    seq_w1: nk.Tensor2   # seq_hidden x T
    seq_w2: nk.Tensor2   # T x seq_hidden
    seq_gamma: nk.Tensor2
    seq_beta: nk.Tensor2
    ch_w3: nk.Tensor2    # ch_hidden x D
    ch_w4: nk.Tensor2    # D x ch_hidden
    ch_gamma: nk.Tensor2
    ch_beta: nk.Tensor2

    def named(self, prefix):
        return [(f"{prefix}.{f.name}", getattr(self, f.name)) for f in fields(self)]


@dataclass
class ModelParams:
    item_embedding: nk.Tensor2           # (num_items+1) x D, row 0 frozen at zero
    long_stack: list                     # layers for the full-length module
    candidate_stacks: list               # one stack per short-term window
    out_w: nk.Tensor2                    # D x 2D
    out_b: nk.Tensor2                    # 1 x D

    def leaves(self):
        """Ordered (name, tensor) pairs over every trainable leaf."""
        out = [("item_embedding", self.item_embedding)]
        for li, layer in enumerate(self.long_stack):
            out.extend(layer.named(f"long.{li}"))
        for m, stack in enumerate(self.candidate_stacks):
            for li, layer in enumerate(stack):
                out.extend(layer.named(f"cand.{m}.{li}"))
        out.append(("out_w", self.out_w))
        out.append(("out_b", self.out_b))
        return out

    def with_data(self, arrays, requires_grad):
        """The same structure over fresh leaves, none shared with ``self``:
        leaf ``name`` holds ``arrays[name]`` itself, not a copy."""
        memo = {id(leaf): nk.Tensor2(arrays[name], requires_grad) for name, leaf in self.leaves()}
        return copy.deepcopy(self, memo)

    def copy_data(self):
        return {name: leaf.data.copy() for name, leaf in self.leaves()}

    def load_data(self, snapshot):
        for name, leaf in self.leaves():
            np.copyto(leaf.data, snapshot[name])


def _uniform_init(rng, rows, cols, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return nk.Tensor2(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


def _init_layer(rng, seq_len, cfg):
    d, rs, rc = cfg.dim, cfg.seq_hidden, cfg.ch_hidden
    return MixerLayerParams(
        seq_w1=_uniform_init(rng, rs, seq_len, seq_len),
        seq_w2=_uniform_init(rng, seq_len, rs, rs),
        seq_gamma=nk.Tensor2(np.ones((1, d)), requires_grad=True),
        seq_beta=nk.Tensor2(np.zeros((1, d)), requires_grad=True),
        ch_w3=_uniform_init(rng, rc, d, d),
        ch_w4=_uniform_init(rng, d, rc, rc),
        ch_gamma=nk.Tensor2(np.ones((1, d)), requires_grad=True),
        ch_beta=nk.Tensor2(np.zeros((1, d)), requires_grad=True),
    )


def init_params(cfg, rng):
    """Fresh parameters: uniform +-1/sqrt(fan_in) weights, N(0, 0.02) embeddings."""
    d = cfg.dim
    emb = rng.normal(0.0, 0.02, size=(cfg.num_items + 1, d))
    emb[PAD] = 0.0
    return ModelParams(
        item_embedding=nk.Tensor2(emb, requires_grad=True),
        long_stack=[_init_layer(rng, cfg.max_len, cfg) for _ in range(cfg.layers)],
        candidate_stacks=[
            [_init_layer(rng, k, cfg) for _ in range(cfg.layers)] for k in cfg.windows
        ],
        out_w=_uniform_init(rng, d, 2 * d, 2 * d),
        out_b=nk.Tensor2(np.zeros((1, d)), requires_grad=True),
    )


def init_arch(cfg):
    """The 1 x M architecture logits, one per candidate window, at zero: a
    uniform prior over the windows."""
    return nk.Tensor2(np.zeros((1, len(cfg.windows))), requires_grad=True)


def embed(inputs, params, cfg):
    """Look up a padded index matrix (B x T ints) as a (B*T) x D tensor.

    Padding positions read the frozen zero row of the embedding table.
    """
    idx = np.asarray(inputs, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() > cfg.num_items):
        raise LookupError(
            f"item index out of range [0, {cfg.num_items}]: {int(idx.min())}..{int(idx.max())}")
    return nk.take_rows(params.item_embedding, idx)


def _mixer_mlp(rows, w_in, w_out, cfg, rng):
    """rows @ w_in^T -> activation -> (dropout, given a generator) -> @ w_out^T."""
    h = nk.matmul(rows, nk.transpose(w_in))
    h = nk.gelu(h) if cfg.activation == "gelu" else nk.relu(h)
    if rng is not None and cfg.dropout > 0.0:
        h = nk.mul(h, nk.dropout_mask(h.shape, cfg.dropout, rng))
    return nk.matmul(h, nk.transpose(w_out))


def sequence_mixer_block(x, layer, cfg, blocks, rng=None, final_row=False):
    """Mix across positions. ``x`` is (blocks*T) x D; returns the same shape.

    With ``final_row`` it returns only each block's final row, blocks x D:
    the hidden activation is the same, but the output projection runs
    through the single row ``seq_w2[T-1]``.
    """
    block_len = x.rows // blocks
    rows = _last_rows(x, blocks, block_len, 1) if final_row else x
    if cfg.disable_sequence_mixer:
        return rows
    if cfg.norm_axis == "channel":
        normed = nk.layer_norm(x, layer.seq_gamma, layer.seq_beta, LN_EPS)
        per_channel = nk.batch_transpose(normed, blocks)       # (blocks*D) x T
    else:
        # literal per-channel normalization along the sequence axis (affine-free)
        per_channel = nk.layer_norm(nk.batch_transpose(x, blocks), eps=LN_EPS)
    w_out = nk.take_rows(layer.seq_w2, [block_len - 1]) if final_row else layer.seq_w2
    mixed = _mixer_mlp(per_channel, layer.seq_w1, w_out, cfg, rng)
    return nk.add(rows, nk.batch_transpose(mixed, blocks))


def channel_mixer_block(x, layer, cfg, rng=None):
    """Mix across embedding channels, position by position. x is rows x D."""
    if cfg.disable_channel_mixer:
        return x
    normed = nk.layer_norm(x, layer.ch_gamma, layer.ch_beta, LN_EPS)
    return nk.add(x, _mixer_mlp(normed, layer.ch_w3, layer.ch_w4, cfg, rng))


def stack_forward(x, stack, cfg, blocks, rng=None):
    """Apply mixer layers in order on a row-stacked (blocks*T) x D tensor."""
    for layer in stack:
        x = sequence_mixer_block(x, layer, cfg, blocks, rng)
        x = channel_mixer_block(x, layer, cfg, rng)
    return x


def _last_rows(x, blocks, block_len, window):
    """The last ``window`` rows of each block of a row-stacked
    (blocks*block_len) x D tensor."""
    idx = (np.arange(blocks)[:, None] * block_len
           + np.arange(block_len - window, block_len)[None, :]).reshape(-1)
    return nk.take_rows(x, idx)


def interest_forward(x, window, stack, cfg, blocks, block_len, rng=None):
    """Run a stack over the last ``window`` positions; return the final row
    of each block as a blocks x D tensor.

    A dropout generator ``rng`` selects training: every layer drops hidden
    units and runs on every row, so each mask keeps its shape and the
    generator stream, and with it every training run, stays as it was.
    Without one, the last layer computes the final row alone: its sequence
    mixer projects onto the final position and its channel mixer runs on
    blocks rows, not blocks*window.
    """
    if window > block_len:
        raise ValueError(f"window {window} exceeds input length {block_len}")
    sliced = x if window == block_len else _last_rows(x, blocks, block_len, window)
    if rng is not None:
        return _last_rows(stack_forward(sliced, stack, cfg, blocks, rng), blocks, window, 1)
    *body, last = stack
    mixed = stack_forward(sliced, body, cfg, blocks)
    return channel_mixer_block(sequence_mixer_block(mixed, last, cfg, blocks, final_row=True),
                               last, cfg)


def mixture_short_term(x, alpha, params, cfg, blocks, block_len, rng=None):
    """Blend of the candidate short-term interest outputs, weighted by
    softmax(``alpha``) over the 1 x M logits; window m is ``cfg.windows[m]``."""
    if alpha.cols != len(params.candidate_stacks):
        raise ValueError(
            f"{alpha.cols} logits for {len(params.candidate_stacks)} candidate stacks")
    p = nk.softmax(alpha)
    blended = None
    for m, (k, stack) in enumerate(zip(cfg.windows, params.candidate_stacks)):
        out = interest_forward(x, k, stack, cfg, blocks, block_len, rng)
        weighted = nk.mul(out, nk.slice_cols(p, m, m + 1))
        blended = weighted if blended is None else nk.add(blended, weighted)
    return blended


def fuse_output(x_short, x_long, params):
    """Project LayerNorm(short ; long) down to the hidden size, plus bias."""
    if x_short.shape != x_long.shape:
        raise nk.ShapeError(
            f"fuse_output: {x_short.rows}x{x_short.cols} vs {x_long.rows}x{x_long.cols}")
    joint = nk.layer_norm(nk.concat_cols(x_short, x_long), eps=LN_EPS)
    return nk.add(nk.matmul(joint, nk.transpose(params.out_w)), params.out_b)


def forward_hidden(inputs, params, cfg, alpha=None, rng=None):
    """Hidden state per example: B x T padded indices -> B x D tensor.

    ``alpha=None`` requires a single candidate stack (the retrained model);
    otherwise the candidates are blended by the architecture logits
    ``alpha``. A dropout generator ``rng`` selects training (see
    ``interest_forward``).
    """
    inputs = np.asarray(inputs, dtype=np.intp)
    b, t = inputs.shape
    if t != cfg.max_len:
        raise nk.ShapeError(f"input length {t} does not match max_len {cfg.max_len}")
    x = embed(inputs, params, cfg)
    x_long = interest_forward(x, t, params.long_stack, cfg, b, t, rng)
    if alpha is None:
        if len(params.candidate_stacks) != 1:
            raise ValueError("fixed-window forward requires exactly one candidate stack")
        x_short = interest_forward(x, cfg.windows[0], params.candidate_stacks[0], cfg, b, t, rng)
    else:
        x_short = mixture_short_term(x, alpha, params, cfg, b, t, rng)
    return fuse_output(x_short, x_long, params)


def score_items(hidden, candidate_items, params):
    """Dot-product scores of hidden rows against candidate item embeddings.

    ``candidate_items`` is one index list shared by every row, or a B x C
    matrix of per-row candidates. Returns the B x C raw scores.
    """
    cand = np.asarray(candidate_items, dtype=np.intp)
    if cand.size == 0:
        raise ValueError("score_items: empty candidate list")
    if cand.ndim == 1:
        cand = np.tile(cand, (hidden.rows, 1))
    b, c = cand.shape
    emb = nk.take_rows(params.item_embedding, cand.reshape(-1))
    rep = nk.repeat_rows(hidden, c)
    dots = nk.row_dot(rep, emb)                      # (B*C) x 1
    return nk.batch_transpose(dots, b)               # B x C


# ---------------------------------------------------------------------------
# checkpoint container: magic + json header + little-endian float64 arrays
# ---------------------------------------------------------------------------


def save_checkpoint(path, params, cfg):
    leaves = params.leaves()
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "arrays": [[name, leaf.rows, leaf.cols] for name, leaf in leaves],
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, leaf in leaves:
            fh.write(np.ascontiguousarray(leaf.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint, validating magic, version, and every array shape."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint file (magic {magic!r})")
        # a truncated or corrupt header surfaces as a JSON, key or type error
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            if header.get("version") != CHECKPOINT_VERSION:
                raise DataFormatError(f"{path}: unsupported checkpoint version "
                                      f"{header.get('version')}")
            c = header["config"]
            cfg = ModelConfig(**{f.name: c[f.name] for f in fields(ModelConfig)})
            arrays = [(name, rows, cols) for name, rows, cols in header["arrays"]]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: malformed checkpoint header: {exc!r}") from None
        params = init_params(cfg, np.random.default_rng(0))
        expected = {name: leaf for name, leaf in params.leaves()}
        if [name for name, _, _ in arrays] != list(expected):
            raise DataFormatError(
                f"{path}: checkpoint array list does not match the declared config")
        for name, rows, cols in arrays:
            leaf = expected[name]
            if (rows, cols) != leaf.data.shape:
                raise DataFormatError(
                    f"{path}: array {name}: header says {rows}x{cols}, "
                    f"config implies {leaf.rows}x{leaf.cols}")
            raw = fh.read(rows * cols * 8)
            if len(raw) != rows * cols * 8:
                raise DataFormatError(f"{path}: array {name}: truncated payload")
            leaf.data[...] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
    return params, cfg
