"""Mixer-MLP recommender: embedding, mixer stacks, interest modules, scoring.

A mixer layer is a sequence-mixer (an MLP across positions, applied per
embedding channel on the transposed table) followed by a channel-mixer (an
MLP across embedding channels, applied per position), each with a residual
connection and layer normalization.

The long-term module runs a mixer stack over the full padded window; each
short-term candidate runs its own stack over the last k positions. During
the window search the candidate outputs are blended with softmax weights
over the learnable architecture logits.

Mini-batches are row-stacked: a batch of B tables of shape T x D travels as
one (B*T) x D tensor, and the per-example transpose needed by the
sequence-mixer is a block transpose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import numkit as nk
from .data import PAD

CHECKPOINT_MAGIC = b"MIXREC-CKPT"
CHECKPOINT_VERSION = 1
LN_EPS = 1e-5


class DataFormatError(RuntimeError):
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
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        self.windows = tuple(int(k) for k in self.windows)
        if not self.windows:
            raise ValueError("at least one short-term window is required")
        if any(b <= a for a, b in zip(self.windows, self.windows[1:])):
            raise ValueError(f"windows must be strictly increasing, got {self.windows}")
        if self.windows[-1] >= self.max_len:
            raise ValueError(f"windows must be < max_len={self.max_len}, got {self.windows}")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.norm_axis not in ("channel", "sequence"):
            raise ValueError(f"unknown norm_axis {self.norm_axis!r}")


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
        return [
            (f"{prefix}.seq_w1", self.seq_w1), (f"{prefix}.seq_w2", self.seq_w2),
            (f"{prefix}.seq_gamma", self.seq_gamma), (f"{prefix}.seq_beta", self.seq_beta),
            (f"{prefix}.ch_w3", self.ch_w3), (f"{prefix}.ch_w4", self.ch_w4),
            (f"{prefix}.ch_gamma", self.ch_gamma), (f"{prefix}.ch_beta", self.ch_beta),
        ]


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

    def copy_data(self):
        return {name: leaf.data.copy() for name, leaf in self.leaves()}

    def load_data(self, snapshot):
        for name, leaf in self.leaves():
            np.copyto(leaf.data, snapshot[name])


@dataclass
class ArchWeights:
    """Learnable logits over the candidate windows; softmax gives the blend."""

    alpha: nk.Tensor2  # 1 x M
    windows: tuple

    def __post_init__(self):
        if self.alpha.cols != len(self.windows):
            raise ValueError(
                f"{self.alpha.cols} logits for {len(self.windows)} candidate windows")

    def probabilities(self):
        return nk.softmax(self.alpha)

    def selected_window(self):
        return int(self.windows[int(np.argmax(self.alpha.data[0]))])


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
    """Zero logits: a uniform prior over the candidate windows."""
    return ArchWeights(
        alpha=nk.Tensor2(np.zeros((1, len(cfg.windows))), requires_grad=True),
        windows=cfg.windows,
    )


def _activation(cfg, x):
    return nk.gelu(x) if cfg.activation == "gelu" else nk.relu(x)


def embed(inputs, params, cfg):
    """Look up a padded index matrix (B x T ints) as a (B*T) x D tensor.

    Padding positions read the frozen zero row of the embedding table.
    """
    idx = np.asarray(inputs, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() > cfg.num_items):
        raise LookupError(
            f"item index out of range [0, {cfg.num_items}]: {int(idx.min())}..{int(idx.max())}")
    return nk.take_rows(params.item_embedding, idx)


def _mixer_mlp(rows, w_in, w_out, cfg, train_mode, rng):
    """rows @ w_in^T -> activation -> (dropout) -> @ w_out^T."""
    h = _activation(cfg, nk.matmul(rows, nk.transpose(w_in)))
    if train_mode and cfg.dropout > 0.0:
        h = nk.mul(h, nk.dropout_mask(h.shape, cfg.dropout, rng))
    return nk.matmul(h, nk.transpose(w_out))


def sequence_mixer_block(x, layer, cfg, blocks, train_mode=False, rng=None):
    """Mix across positions. ``x`` is (blocks*T) x D; returns the same shape."""
    if cfg.disable_sequence_mixer:
        return x
    if cfg.norm_axis == "channel":
        normed = nk.layer_norm(x, layer.seq_gamma, layer.seq_beta, LN_EPS)
        per_channel = nk.batch_transpose(normed, blocks)       # (blocks*D) x T
    else:
        # literal per-channel normalization along the sequence axis (affine-free)
        per_channel = nk.layer_norm(nk.batch_transpose(x, blocks), eps=LN_EPS)
    mixed = _mixer_mlp(per_channel, layer.seq_w1, layer.seq_w2, cfg, train_mode, rng)
    return nk.add(x, nk.batch_transpose(mixed, blocks))


def channel_mixer_block(x, layer, cfg, train_mode=False, rng=None):
    """Mix across embedding channels, position by position. x is rows x D."""
    if cfg.disable_channel_mixer:
        return x
    normed = nk.layer_norm(x, layer.ch_gamma, layer.ch_beta, LN_EPS)
    return nk.add(x, _mixer_mlp(normed, layer.ch_w3, layer.ch_w4, cfg, train_mode, rng))


def stack_forward(x, stack, cfg, blocks, train_mode=False, rng=None):
    """Apply mixer layers in order on a row-stacked (blocks*T) x D tensor."""
    for layer in stack:
        x = sequence_mixer_block(x, layer, cfg, blocks, train_mode, rng)
        x = channel_mixer_block(x, layer, cfg, train_mode, rng)
    return x


def sequence_mixer(x_dt, layer, cfg, train_mode=False, rng=None):
    """Single-table sequence-mixer on the transposed (D x T) orientation."""
    out = sequence_mixer_block(nk.transpose(x_dt), layer, cfg, 1, train_mode, rng)
    return nk.transpose(out)


def channel_mixer(x_td, layer, cfg, train_mode=False, rng=None):
    """Single-table channel-mixer on the T x D orientation."""
    return channel_mixer_block(x_td, layer, cfg, train_mode, rng)


def _last_rows(x, blocks, block_len, window):
    idx = (np.arange(blocks)[:, None] * block_len
           + np.arange(block_len - window, block_len)[None, :]).reshape(-1)
    return nk.take_rows(x, idx)


def interest_forward(x, window, stack, cfg, blocks, block_len, train_mode=False, rng=None):
    """Run a stack over the last ``window`` positions; return the final row
    of each block as a blocks x D tensor."""
    if window > block_len:
        raise ValueError(f"window {window} exceeds input length {block_len}")
    sliced = x if window == block_len else _last_rows(x, blocks, block_len, window)
    mixed = stack_forward(sliced, stack, cfg, blocks, train_mode, rng)
    final = np.arange(1, blocks + 1) * window - 1
    return nk.take_rows(mixed, final)


def mixture_short_term(x, arch, params, cfg, blocks, block_len, train_mode=False, rng=None):
    """Softmax-weighted blend of the candidate short-term interest outputs."""
    if len(arch.windows) != len(params.candidate_stacks):
        raise ValueError(
            f"{len(arch.windows)} candidate windows vs {len(params.candidate_stacks)} stacks")
    p = arch.probabilities()
    blended = None
    for m, (k, stack) in enumerate(zip(arch.windows, params.candidate_stacks)):
        out = interest_forward(x, k, stack, cfg, blocks, block_len, train_mode, rng)
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


def forward_hidden(inputs, params, cfg, arch=None, train_mode=False, rng=None):
    """Hidden state per example: B x T padded indices -> B x D tensor.

    ``arch=None`` requires a single candidate stack (the retrained model);
    otherwise candidates are blended with the architecture weights.
    """
    inputs = np.asarray(inputs, dtype=np.intp)
    if inputs.ndim == 1:
        inputs = inputs[None, :]
    b, t = inputs.shape
    if t != cfg.max_len:
        raise nk.ShapeError(f"input length {t} does not match max_len {cfg.max_len}")
    x = embed(inputs, params, cfg)
    x_long = interest_forward(x, t, params.long_stack, cfg, b, t, train_mode, rng)
    if arch is None:
        if len(params.candidate_stacks) != 1:
            raise ValueError("fixed-window forward requires exactly one candidate stack")
        x_short = interest_forward(
            x, cfg.windows[0], params.candidate_stacks[0], cfg, b, t, train_mode, rng)
    else:
        x_short = mixture_short_term(x, arch, params, cfg, b, t, train_mode, rng)
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
        "config": {
            "num_items": cfg.num_items, "max_len": cfg.max_len, "dim": cfg.dim,
            "seq_hidden": cfg.seq_hidden, "ch_hidden": cfg.ch_hidden,
            "layers": cfg.layers, "windows": list(cfg.windows),
            "dropout": cfg.dropout, "activation": cfg.activation,
            "norm_axis": cfg.norm_axis,
            "disable_sequence_mixer": cfg.disable_sequence_mixer,
            "disable_channel_mixer": cfg.disable_channel_mixer,
        },
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
            raise DataFormatError(f"not a checkpoint file (magic {magic!r})")
        # a truncated or corrupt header surfaces as a JSON, key or type error
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            if header.get("version") != CHECKPOINT_VERSION:
                raise DataFormatError(f"unsupported checkpoint version {header.get('version')}")
            c = header["config"]
            cfg = ModelConfig(
                num_items=c["num_items"], max_len=c["max_len"], dim=c["dim"],
                seq_hidden=c["seq_hidden"], ch_hidden=c["ch_hidden"], layers=c["layers"],
                windows=tuple(c["windows"]), dropout=c["dropout"], activation=c["activation"],
                norm_axis=c["norm_axis"],
                disable_sequence_mixer=c["disable_sequence_mixer"],
                disable_channel_mixer=c["disable_channel_mixer"],
            )
            arrays = [(name, rows, cols) for name, rows, cols in header["arrays"]]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed checkpoint header: {exc!r}") from None
        params = init_params(cfg, np.random.default_rng(0))
        expected = {name: leaf for name, leaf in params.leaves()}
        if [name for name, _, _ in arrays] != list(expected):
            raise DataFormatError("checkpoint array list does not match the declared config")
        for name, rows, cols in arrays:
            leaf = expected[name]
            if (rows, cols) != leaf.data.shape:
                raise DataFormatError(
                    f"array {name}: header says {rows}x{cols}, "
                    f"config implies {leaf.rows}x{leaf.cols}")
            raw = fh.read(rows * cols * 8)
            if len(raw) != rows * cols * 8:
                raise DataFormatError(f"array {name}: truncated payload")
            leaf.data[...] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
    return params, cfg


def fixed_window_config(cfg, window):
    """Config for a retrained model with a single short-term window."""
    return replace(cfg, windows=(int(window),))
