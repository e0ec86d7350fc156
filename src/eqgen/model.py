"""Dual-direction Transformer over symbol sequences.

One shared encoder feeds two decoder stacks: one reads and emits the target
left to right, the other right to left. The right-to-left pass is literally
a left-to-right pass over the reversed target through its own stack, with
its own begin sentinel and positions indexed in its own reading order. The
two decoders share the target embedding table by default and each has its
own output projection. Blocks are canonical post-norm (residual, dropout,
layer norm), positions are sinusoidal, and the training objective is the
sum of the two decoders' token-level cross entropies.

Sequence conventions:

    L2R   <bos>   y_1 .. y_T <eos>
    R2L   <bos_r> y_T .. y_1 <eos>

Reserved token ids (shared by source and target vocabularies):
pad=0, bos=1, bos_r=2, eos=3, unk=4.

Rows and grid. A batch is a right-padded (B, t) grid of ids, but only its
real positions are computed. Every position-wise layer (embeddings,
positions, linear maps, the fused feed-forward ``numerics.ffn``, dropout,
and the residual add and layer norm fused as ``numerics.residual_norm``)
runs on the (N, d) stack of the N real positions in row-major order. Real
source positions are the non-PAD ids; ``encode`` returns its rows on the
grid, with padding reading 0. The decoder's real positions are the first
``lengths[i]`` of each row i (all of them when ``lengths`` is not given),
and positions after them read 0 in the logits. Dropout draws its mask over
the whole grid, so the random stream and each real position's mask do not
depend on the layout.

Attention has two regimes (see ``numerics.attention``). Per-row keys (the
encoder, and every teacher-forced decoder pass but a cross-attention over
one memory) attend under one ``attention_plan`` per attention kind and
pass, shared by all layers, which cuts the batch rows into at most two
groups of similar lengths. Shared key sets (one memory under many rows, and
every cached step) are folded under their query rows, with an additive mask
on padded keys. A cached step feeds one position per row, so it needs no
causal mask.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Optional, get_type_hints

import numpy as np

from .numerics import (
    MASK_VALUE,
    Tensor,
    add,
    attention,
    attention_plan,
    cross_entropy,
    dropout,
    embedding,
    ffn,
    gather_rows,
    linear,
    no_grad,
    residual_norm,
    scale_shift,
    scatter_rows,
)

PAD_ID, BOS_ID, BOSR_ID, EOS_ID, UNK_ID = 0, 1, 2, 3, 4
NUM_RESERVED = 5

L2R = "l2r"
R2L = "r2l"
DIRECTIONS = (L2R, R2L)


class ConfigError(ValueError):
    """Model configuration or sequence-length contract violated."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_src: int
    vocab_tgt: int
    embed_dim: int = 32
    model_dim: int = 64
    layers: int = 2
    heads: int = 4
    ff_dim: int = 128
    max_positions: int = 128
    dropout: float = 0.1
    share_target_embedding: bool = True
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("embed_dim", "model_dim", "layers", "heads", "ff_dim", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.model_dim % self.heads != 0:
            raise ConfigError("model_dim must be divisible by heads")
        if self.model_dim % 2 != 0:
            raise ConfigError("model_dim must be even for sinusoidal positions")
        if self.vocab_src < NUM_RESERVED or self.vocab_tgt < NUM_RESERVED:
            raise ConfigError("vocabularies must cover the reserved ids")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def check_config_dict(values: dict) -> dict:
    """``values`` (a config read from JSON) when every key names a
    ``ModelConfig`` field and every value has its field's type, an int
    passing for a float; otherwise ``ConfigError`` naming the key."""
    kinds = get_type_hints(ModelConfig)
    unknown = sorted(set(values) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key, value in values.items():
        kind = kinds[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {json.dumps(value)}")
    return values


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _layer_names(prefix: str, cross_attention: bool) -> list[tuple[str, str]]:
    names: list[tuple[str, str]] = []
    for attn in (("attn",) if not cross_attention else ("attn", "xattn")):
        for w in ("wq", "wk", "wv", "wo"):
            names.append((f"{prefix}.{attn}.{w}", "square"))
        for b in ("bq", "bk", "bv", "bo"):
            names.append((f"{prefix}.{attn}.{b}", "bias"))
    names += [
        (f"{prefix}.ff.w1", "ff_in"),
        (f"{prefix}.ff.b1", "ff_bias1"),
        (f"{prefix}.ff.w2", "ff_out"),
        (f"{prefix}.ff.b2", "bias"),
    ]
    n_ln = 3 if cross_attention else 2
    for i in range(1, n_ln + 1):
        names.append((f"{prefix}.ln{i}.g", "ln_gain"))
        names.append((f"{prefix}.ln{i}.b", "ln_bias"))
    return names


def param_specs(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """name -> (shape, init kind) for every trainable tensor."""
    d, e, f = config.model_dim, config.embed_dim, config.ff_dim
    kinds = {
        "square": ((d, d), "xavier"),
        "bias": ((d,), "zeros"),
        "ff_in": ((d, f), "xavier"),
        "ff_bias1": ((f,), "zeros"),
        "ff_out": ((f, d), "xavier"),
        "ln_gain": ((d,), "ones"),
        "ln_bias": ((d,), "zeros"),
    }
    specs: dict[str, tuple[tuple[int, ...], str]] = {
        "src_embed": ((config.vocab_src, e), "embed"),
        "src_proj.w": ((e, d), "xavier"),
        "src_proj.b": ((d,), "zeros"),
    }
    if config.share_target_embedding:
        specs["tgt_embed"] = ((config.vocab_tgt, d), "embed")
    else:
        specs["tgt_embed_l2r"] = ((config.vocab_tgt, d), "embed")
        specs["tgt_embed_r2l"] = ((config.vocab_tgt, d), "embed")
    for i in range(config.layers):
        for name, kind in _layer_names(f"enc.{i}", cross_attention=False):
            specs[name] = kinds[kind]
        for stack in ("dec_l2r", "dec_r2l"):
            for name, kind in _layer_names(f"{stack}.{i}", cross_attention=True):
                specs[name] = kinds[kind]
    for stack in ("out_l2r", "out_r2l"):
        specs[f"{stack}.w"] = ((d, config.vocab_tgt), "xavier")
        specs[f"{stack}.b"] = ((config.vocab_tgt,), "zeros")
    return specs


@dataclass
class ModelParams:
    """The named trainable tensors of one model.

    Each L2R decoder tensor and its R2L twin are made views of one (2, ...)
    buffer, as its slices 0 and 1; ``pairs`` keeps the buffer and the two
    views under the L2R name. The lockstep decode reads such a pair as one
    stacked weight without copying it (see ``_decoder_weights``), as long as
    both tensors still hold those views; in-place updates keep them.
    """

    config: ModelConfig
    tensors: dict[str, Tensor]
    pairs: dict[str, tuple[np.ndarray, tuple[np.ndarray, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, t in self.tensors.items():
            twin = self.tensors.get(name.replace(L2R, R2L, 1)) if L2R in name else None
            if twin is not None:
                buf = np.stack([t.data, twin.data])
                t.data, twin.data = buf[0], buf[1]
                self.pairs[name] = (buf, (t.data, twin.data))

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def named(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config,
            {k: Tensor(t.data.copy(), requires_grad=True) for k, t in self.tensors.items()},
        )


def init_params(config: ModelConfig, seed_or_rng=0) -> ModelParams:
    """Xavier-uniform matrices, zero biases, unit layer-norm gains and
    uniform +-0.05 embedding tables."""
    rng = np.random.default_rng(seed_or_rng)
    dt = config.np_dtype
    tensors: dict[str, Tensor] = {}
    for name, (shape, kind) in param_specs(config).items():
        if kind == "zeros":
            data = np.zeros(shape, dtype=dt)
        elif kind == "ones":
            data = np.ones(shape, dtype=dt)
        elif kind == "embed":
            data = rng.uniform(-0.05, 0.05, size=shape).astype(dt)
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-limit, limit, size=shape).astype(dt)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config, tensors)


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _pe_table(n: int, dim: int, dtype: str) -> np.ndarray:
    i = np.arange(dim // 2, dtype=np.float64)
    pos = np.arange(n, dtype=np.float64)[:, None]
    angles = pos / np.power(10000.0, 2.0 * i / dim)[None, :]
    table = np.empty((n, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table = table.astype(np.dtype(dtype))
    table.setflags(write=False)
    return table


def _key_mask(pad: np.ndarray) -> Optional[np.ndarray]:
    if not pad.any():
        return None
    return np.where(pad[:, None, None, :], MASK_VALUE, 0.0)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _maybe_dropout(x: Tensor, config: ModelConfig, train: bool, rng, real) -> Tensor:
    if not train or config.dropout <= 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode forward needs an rng for dropout")
    return dropout(x, config.dropout, rng, real)


def _embed(params: ModelParams, table: Tensor, ids: np.ndarray, real, start: int = 0) -> tuple[Tensor, np.ndarray]:
    """Embedded ids of the real positions (of every position of a cached
    step, whose ``real`` is None), and the rows of their sinusoidal positions
    counted from ``start``."""
    cfg = params.config
    pe = _pe_table(cfg.max_positions, cfg.model_dim, cfg.dtype)
    if real is None:
        return embedding(table, ids), pe[start : start + ids.shape[1]]
    return embedding(table, ids[real]), pe[start + np.nonzero(real)[1]]


def _project_kv(p: dict, prefix: str, x_kv: Tensor) -> tuple[Tensor, Tensor]:
    """Keys and values of ``x_kv`` for the attention at ``prefix`` of the
    weights ``p``, in its layout."""
    return linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])


def _attend(p: dict, heads: int, prefix: str, x_q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray],
            plan) -> Tensor:
    """Multi-head attention of the query rows ``x_q`` over projected keys
    and values, followed by the output projection; one output row per query.
    With a ``plan``, ``k`` and ``v`` are the real key rows it places; without
    one they are (kb, t_k, d) key sets folded under the query rows (see
    ``numerics.attention``).
    """
    q = linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    return linear(attention(q, k, v, heads, mask, plan), p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _sublayer(p: dict, cfg: ModelConfig, prefix_ln: str, x: Tensor, out: Tensor, train: bool, rng,
              real) -> Tensor:
    out = _maybe_dropout(out, cfg, train, rng, real)
    return residual_norm(x, out, p[f"{prefix_ln}.g"], p[f"{prefix_ln}.b"])


def _ffn(p: dict, prefix: str, x: Tensor) -> Tensor:
    return ffn(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"], p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def as_batch(ids) -> np.ndarray:
    """Token ids as a (batch, length) int64 array; a 1-d sequence becomes
    a batch of one."""
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ConfigError(f"token ids must be 1-d or 2-d, got shape {arr.shape}")
    return arr


def encode(params: ModelParams, src_ids, train: bool = False, rng=None) -> Tensor:
    """Run the shared encoder over the real (non-PAD) source positions;
    padding is masked out of attention and reads 0 in the result."""
    cfg = params.config
    src = as_batch(src_ids)
    pad = src == PAD_ID
    if src.shape[1] == 0 or pad.all(axis=1).any():
        raise ConfigError("source sequence must be non-empty")
    if src.shape[1] > cfg.max_positions:
        raise ConfigError(f"source length {src.shape[1]} exceeds max_positions {cfg.max_positions}")
    real = ~pad
    lengths = real.sum(axis=1)
    plan = attention_plan(lengths, lengths)
    x, pos = _embed(params, params["src_embed"], src, real)
    x = scale_shift(linear(x, params["src_proj.w"], params["src_proj.b"]), math.sqrt(cfg.model_dim), pos)
    x = _maybe_dropout(x, cfg, train, rng, real)
    p = params.tensors
    for i in range(cfg.layers):
        k, v = _project_kv(p, f"enc.{i}.attn", x)
        attn = _attend(p, cfg.heads, f"enc.{i}.attn", x, k, v, None, plan)
        x = _sublayer(p, cfg, f"enc.{i}.ln1", x, attn, train, rng, real)
        x = _sublayer(p, cfg, f"enc.{i}.ln2", x, _ffn(p, f"enc.{i}.ff", x), train, rng, real)
    return scatter_rows(x, real)


def _target_name(config: ModelConfig, direction: str) -> str:
    return "tgt_embed" if config.share_target_embedding else f"tgt_embed_{direction}"


def _target_table(params: ModelParams, direction: str) -> Tensor:
    return params[_target_name(params.config, direction)]


@functools.lru_cache(maxsize=32)
def _decoder_names(config: ModelConfig, direction: str) -> tuple[tuple[str, str], ...]:
    """(direction-free name, ``direction``'s name) of every decoder tensor
    but the target table: ("dec.0.attn.wq", "dec_r2l.0.attn.wq"), ("out.w",
    "out_r2l.w"), ..."""
    return tuple((name.replace("_l2r", "", 1), name.replace(L2R, direction, 1))
                 for name in param_specs(config) if name.startswith(("dec_l2r.", "out_l2r.")))


def _stacked(params: ModelParams, names: list[str]) -> Tensor:
    """The tensors ``names`` stacked on a new leading axis: their shared
    buffer when they are its slices in order (see ``ModelParams``), else a
    copy."""
    arrays = [params[name].data for name in names]
    buf, views = params.pairs.get(names[0], (None, ()))
    if len(views) != len(arrays) or any(a is not v for a, v in zip(arrays, views)):
        buf = np.stack(arrays)
    return Tensor.from_checked(buf)


def _decoder_weights(params: ModelParams, directions: tuple[str, ...]) -> dict[str, Tensor]:
    """The decoder tensors of ``directions`` under direction-free names
    ("dec.0.attn.wq", "out.w", "embed"). For one direction they are its own
    tensors. For S directions each weight or bias is their (S, ...) stack,
    which ``linear``, ``ffn`` and ``residual_norm`` apply group by group,
    and "embed" is their target tables one after the other, (S * vocab, d)."""
    cfg = params.config
    if len(directions) == 1:
        weights = {key: params[name] for key, name in _decoder_names(cfg, directions[0])}
        weights["embed"] = _target_table(params, directions[0])
        return weights
    weights = {names[0][0]: _stacked(params, [name for _, name in names])
               for names in zip(*(_decoder_names(cfg, d) for d in directions))}
    tables = _stacked(params, [_target_name(cfg, d) for d in directions])
    weights["embed"] = Tensor.from_checked(tables.data.reshape(-1, cfg.model_dim))
    return weights


@dataclass
class DecoderCache:
    """Decode-only state of one incremental decoder pass over the directions
    it was first called with and B memories.

    ``weights`` holds those directions' decoder tensors, stacked once when
    there are several (see ``_decoder_weights``). Per layer it holds the
    self-attention keys/values of the ``length`` positions fed so far, each
    a (rows, length, model_dim) array with one row per live hypothesis, and
    the cross-attention keys/values, each a (B, source length, model_dim)
    tensor projected once from the grid of the B encoder memories. Rows and
    memories are direction-major: with S directions, the first B / S
    memories and the first rows / S rows are the first direction's, and so
    on. Within that order the rows of one memory sit next to each other, the
    same number per memory, so rows / B consecutive rows share one memory
    (see ``numerics.attention``). Heads are split inside ``numerics.attention``,
    not in the cache. ``reorder`` reindexes the rows after the beam's top-k
    selection and drops the memories of problems that left the batch.
    """

    length: int = 0
    directions: tuple[str, ...] = ()
    weights: dict[str, Tensor] = field(default_factory=dict)
    self_kv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    memory_kv: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    def reorder(self, rows, problems=None) -> None:
        """Row i becomes the former row ``rows[i]``; with ``problems``, the
        memory j becomes the former memory ``problems[j]``."""
        self.self_kv = [(k[rows], v[rows]) for k, v in self.self_kv]
        if problems is not None:
            self.memory_kv = [(Tensor.from_checked(k.data[problems]), Tensor.from_checked(v.data[problems]))
                              for k, v in self.memory_kv]

    def append(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append the new position's keys/values to ``layer``'s; returns all of them."""
        if layer == len(self.self_kv):
            self.self_kv.append((k.data, v.data))
            return k, v
        old_k, old_v = self.self_kv[layer]
        k_all = np.concatenate((old_k, k.data), axis=1)
        v_all = np.concatenate((old_v, v.data), axis=1)
        self.self_kv[layer] = (k_all, v_all)
        # every row came out of a guarded linear, so the NaN/Inf scan is not repeated
        return Tensor.from_checked(k_all), Tensor.from_checked(v_all)


def decoder_forward(
    params: ModelParams,
    direction,
    tgt_ids,
    memory: Tensor,
    src_pad: Optional[np.ndarray] = None,
    train: bool = False,
    rng=None,
    cache: Optional[DecoderCache] = None,
    lengths=None,
) -> Tensor:
    """Causal decoder pass in the stack's own reading order.

    ``tgt_ids`` must already be in that reading order (the R2L caller passes
    the reversed target behind its own begin sentinel); output position t
    depends only on earlier prefix positions and on the encoder ``memory``,
    a (B, source length, model_dim) grid with padding ``src_pad``.

    Without a ``cache``, every position is fed at once, and ``lengths`` (one
    per row) marks the first ``lengths[i]`` positions of row i as real: the
    later ones are not computed and their logits read 0. Without it every
    position is real. B must be the row count (the cross-attention then
    takes a plan, as the self-attention always does) or 1 (the one memory is
    folded under every query row).

    With a ``cache`` (decoding only), ``tgt_ids`` holds one new position per
    row, after the ``cache.length`` already fed; it attends to the cached
    keys/values and is appended to them. A cached pass records no autodiff
    graph. Its row count must be a multiple of B: the first rows / B rows
    read memory 0, the next ones memory 1, and so on. A cached pass may also
    take a tuple of S distinct directions, decoded in lockstep in one pass:
    the memory batch and the rows then split into S equal groups in the
    tuple's order, and group s runs through direction s's decoder and reads
    its memories.
    """
    directions = (direction,) if isinstance(direction, str) else tuple(direction)
    if not directions or len(set(directions)) < len(directions) or not set(directions) <= set(DIRECTIONS):
        raise ConfigError(f"unknown direction or repeated directions {direction!r}")
    cfg = params.config
    tgt = as_batch(tgt_ids)
    rows, t = tgt.shape
    start = cache.length if cache is not None else 0
    if t == 0:
        raise ConfigError("target prefix must be non-empty")
    if start + t > cfg.max_positions:
        raise ConfigError(f"target length {start + t} exceeds max_positions {cfg.max_positions}")
    if memory.ndim != 3 or memory.shape[1] == 0:
        raise ConfigError("encoder memory must be (batch, len >= 1, model_dim)")
    src_pad = np.zeros(memory.shape[:2], bool) if src_pad is None else src_pad
    if np.shape(src_pad) != memory.shape[:2]:
        raise ConfigError(f"source padding {np.shape(src_pad)} does not match memory {memory.shape[:2]}")
    self_plan = cross_plan = real = None
    mem_keys = memory
    if cache is None:
        lengths = np.full(rows, t) if lengths is None else np.asarray(lengths)
        if lengths.shape != (rows,) or lengths.min() < 1 or lengths.max() > t:
            raise ConfigError(f"lengths must give each of the {rows} rows 1 to {t} positions")
        if len(directions) > 1:
            raise ConfigError("several directions decode in lockstep only with a decoder cache")
        if memory.shape[0] not in (1, rows):
            raise ConfigError(f"an uncached pass needs one memory or one per row, got {memory.shape[0]} "
                              f"for {rows} rows")
        real = np.arange(t) < lengths[:, None]
        p = _decoder_weights(params, directions)
        # one plan per attention kind, for all layers, where each row has its own keys; one memory
        # under every row is folded under the query rows instead, as cached steps fold theirs
        self_plan = attention_plan(lengths, lengths, causal=True)
        if memory.shape[0] == rows:
            cross_plan = attention_plan(lengths, (~src_pad).sum(axis=1))
            mem_keys = gather_rows(memory, ~src_pad)
    else:
        if train or lengths is not None:
            raise ConfigError("the decoder cache is for decoding only, not training or scoring")
        if t != 1:
            raise ConfigError(f"a cached pass feeds one new position per row, got {t}")
        if memory.shape[0] % len(directions) or rows % memory.shape[0]:
            raise ConfigError(f"cached decoding of {len(directions)} direction(s) needs a memory batch "
                              f"{memory.shape[0]} divisible by that and a multiple of it as row count, "
                              f"got {rows} rows")
        if cache.memory_kv and cache.memory_kv[0][0].shape[0] != memory.shape[0]:
            raise ConfigError(f"the cache holds {cache.memory_kv[0][0].shape[0]} memories, "
                              f"not {memory.shape[0]}")
        if not cache.directions:
            cache.directions, cache.weights = directions, _decoder_weights(params, directions)
        elif cache.directions != directions:
            raise ConfigError(f"the cache decodes {cache.directions}, not {directions}")
        p = cache.weights
    mem_mask = _key_mask(src_pad) if cross_plan is None else None
    ids = tgt
    if len(directions) > 1:  # group s looks up its ids in the s-th table of p["embed"]
        offsets = np.arange(len(directions)) * cfg.vocab_tgt
        ids = tgt + np.repeat(offsets, rows // len(directions))[:, None]
    with no_grad() if cache is not None else contextlib.nullcontext():
        x, pos = _embed(params, p["embed"], ids, real, start)
        x = _maybe_dropout(scale_shift(x, math.sqrt(cfg.model_dim), pos), cfg, train, rng, real)
        for i in range(cfg.layers):
            layer = f"dec.{i}"
            k, v = _project_kv(p, f"{layer}.attn", x)
            if cache is not None:
                k, v = cache.append(i, k, v)
            attn = _attend(p, cfg.heads, f"{layer}.attn", x, k, v, None, self_plan)
            x = _sublayer(p, cfg, f"{layer}.ln1", x, attn, train, rng, real)
            if cache is None:
                k, v = _project_kv(p, f"{layer}.xattn", mem_keys)
            else:  # a cache projects the memory on its first call only
                if i == len(cache.memory_kv):
                    cache.memory_kv.append(_project_kv(p, f"{layer}.xattn", mem_keys))
                k, v = cache.memory_kv[i]
            cross = _attend(p, cfg.heads, f"{layer}.xattn", x, k, v, mem_mask, cross_plan)
            x = _sublayer(p, cfg, f"{layer}.ln2", x, cross, train, rng, real)
            x = _sublayer(p, cfg, f"{layer}.ln3", x, _ffn(p, f"{layer}.ff", x), train, rng, real)
        if cache is not None:
            cache.length += 1
        logits = linear(x, p["out.w"], p["out.b"])
        return logits if cache is not None else scatter_rows(logits, real)


# ---------------------------------------------------------------------------
# batches and the joint objective
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Padded source ids plus the target in both reading orders, sentinels
    included. Padding is PAD_ID and only at the tail."""

    src: np.ndarray  # (B, S)
    tgt_l2r: np.ndarray  # (B, T) <bos>   y ... <eos> <pad>*
    tgt_r2l: np.ndarray  # (B, T) <bos_r> reversed(y) ... <eos> <pad>*


def pad_right(seqs) -> np.ndarray:
    """Id sequences as a (len(seqs), longest length) int64 array, each row
    right-padded with PAD_ID."""
    out = np.full((len(seqs), max(len(s) for s in seqs)), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def make_batch(src_seqs: list[list[int]], tgt_seqs: list[list[int]]) -> Batch:
    """Assemble a batch from source ids and canonical target content ids
    (no sentinels); the reversed view is built here."""
    if len(src_seqs) != len(tgt_seqs) or not src_seqs:
        raise ValueError("need equally many non-empty source and target lists")
    return Batch(
        pad_right(src_seqs),
        pad_right([[BOS_ID, *t, EOS_ID] for t in tgt_seqs]),
        pad_right([[BOSR_ID, *reversed(t), EOS_ID] for t in tgt_seqs]),
    )


@dataclass
class LossParts:
    """``joint_loss``'s sum, its terms and token counts (None and 0 for a
    direction left out) and the encoder memory the decoders read."""

    total: Tensor
    l2r: Optional[Tensor]
    r2l: Optional[Tensor]
    tokens_l2r: int
    tokens_r2l: int
    memory: Optional[Tensor] = None


def _teacher_forced_ce(params, direction, seqs, lengths, memory, src_pad, train=False, rng=None, weights=None):
    """Weighted cross entropy of one teacher-forced decoder pass. Row i of
    ``seqs`` is a begin sentinel followed by targets, of which the first
    ``lengths[i]`` are real; the later ones are masked to -1 and count for
    nothing. ``weights`` scales each target's term as in ``cross_entropy``."""
    targets = np.where(np.arange(seqs.shape[1] - 1) < lengths[:, None], seqs[:, 1:], -1)
    logits = decoder_forward(params, direction, seqs[:, :-1], memory, src_pad, train, rng, lengths=lengths)
    return cross_entropy(logits, targets, weights)


def joint_loss(params: ModelParams, batch: Batch, train: bool = False, rng=None, directions=DIRECTIONS,
               memory: Optional[Tensor] = None) -> LossParts:
    """Summed token negative log-likelihood of the decoders in ``directions``,
    L2R first, over the encoder ``memory`` of ``batch.src``, computed here
    unless given; the total is exactly the sum of the per-direction terms."""
    if not directions or not set(directions) <= set(DIRECTIONS):
        raise ConfigError(f"directions must be some of {DIRECTIONS}, got {directions!r}")
    memory = encode(params, batch.src, train, rng) if memory is None else memory
    src_pad = batch.src == PAD_ID
    terms, tokens = {}, dict.fromkeys(DIRECTIONS, 0)
    for direction, tgt in zip(DIRECTIONS, (batch.tgt_l2r, batch.tgt_r2l)):
        if direction in directions:
            n = (tgt[:, 1:] != PAD_ID).sum(axis=1)
            terms[direction] = _teacher_forced_ce(params, direction, tgt, n, memory, src_pad, train, rng)
            tokens[direction] = int(n.sum())
    total = add(*terms.values()) if len(terms) == 2 else terms[directions[0]]
    return LossParts(total, terms.get(L2R), terms.get(R2L), tokens[L2R], tokens[R2L], memory)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ModelParams, src_tokens: list[str], tgt_tokens: list[str]) -> None:
    """Self-describing container: config + vocab token lists + named tensors."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "src_vocab": list(src_tokens),
        "tgt_vocab": list(tgt_tokens),
    }
    arrays = {f"param:{name}": t.data for name, t in params.named()}
    with open(path, "wb") as fh:  # np.savez would add ".npz" to a path without it
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> tuple[ModelParams, list[str], list[str]]:
    """Load and validate every tensor shape against the stored config, and
    every value as finite in its dtype. A file that is not an eqgen
    checkpoint raises ``ConfigError`` naming the path and the problem; one
    that cannot be opened raises ``OSError``."""
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh)
        except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as e:
            raise ConfigError(f"checkpoint {path}: {e}") from None


def _read_checkpoint(fh) -> tuple[ModelParams, list[str], list[str]]:
    if not zipfile.is_zipfile(fh):
        raise ConfigError("not an .npz archive, or a truncated one")
    fh.seek(0)
    with np.load(fh, allow_pickle=False) as z:
        if "__meta__" not in z.files:
            raise ConfigError("no __meta__ record, so not saved by eqgen")
        meta = json.loads(str(z["__meta__"]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
        config = ModelConfig(**check_config_dict(meta["config"]))
        for side, size in (("src", config.vocab_src), ("tgt", config.vocab_tgt)):
            tokens = meta[f"{side}_vocab"]
            if not isinstance(tokens, list) or not all(isinstance(token, str) for token in tokens):
                raise ConfigError(f"{side}_vocab must be a list of strings")
            if len(tokens) != size:
                raise ConfigError(f"{side}_vocab lists {len(tokens)} tokens, but the config's vocab_{side} is {size}")
        tensors: dict[str, Tensor] = {}
        for name, (shape, _) in param_specs(config).items():
            key = f"param:{name}"
            if key not in z:
                raise ConfigError(f"checkpoint is missing tensor {name}")
            arr = z[key]
            if arr.shape != shape:
                raise ConfigError(f"tensor {name} has shape {arr.shape}, expected {shape}")
            data = arr.astype(config.np_dtype)  # a value past the dtype's range reads inf
            if not np.isfinite(data).all():
                raise ConfigError(f"tensor {name} holds a value that is not finite as {config.dtype}")
            tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config, tensors), meta["src_vocab"], meta["tgt_vocab"]
