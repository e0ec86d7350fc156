"""The padded reference passes of ``model.encode`` and ``model.decoder_forward``.

Every layer runs on the whole (B, t, d) grid, padding included: padded
source positions are only masked out of attention as keys, and padded
target positions are computed like real ones. The model runs its
position-wise layers on the real positions only; the tests swap these
passes in for the model's and compare losses, logits at real positions,
gradients and the dropout random stream.

``grid_attention`` is the attention of the padded grid on its own: the
model hands ``numerics.attention`` the real rows of a batch in length
groups, and the tests swap this in for it.
"""

from __future__ import annotations

import math

import numpy as np

from eqgen.model import PAD_ID, _key_mask, _pe_table, _target_table, as_batch
from eqgen.numerics import attention, causal_mask, dropout, embedding, gather_rows, linear, scatter_rows
from unfused import relu, residual_norm, scale_shift


def grid_attention(q, k, v, heads, mask=None, plan=None, core=attention):
    """``core`` (by default the fused op) on the padded grid. With a
    ``plan``, the real rows it places are scattered onto the (B, t, d) grid
    of its lengths, the padded keys are masked out (a causal plan takes the
    causal mask alone, as padded keys only reach padded queries), and the
    real output rows are gathered back."""
    if plan is None:
        return core(q, k, v, heads, mask)
    q_real = np.arange(plan.q_lengths.max()) < plan.q_lengths[:, None]
    k_real = np.arange(plan.k_lengths.max()) < plan.k_lengths[:, None]
    mask = causal_mask(q_real.shape[1]) if plan.causal else _key_mask(~k_real)
    ctx = core(_onto_grid(q, q_real), _onto_grid(k, k_real), _onto_grid(v, k_real), heads, mask)
    return ctx if q.ndim == 3 else gather_rows(ctx, q_real)


def _onto_grid(x, real):
    """Rows onto their grid; a grid (the model passes one when it has no
    padding) stays as it is."""
    return x if x.ndim == 3 else scatter_rows(x, real)


def _dropout(x, cfg, train, rng):
    if not train or cfg.dropout <= 0.0:
        return x
    return dropout(x, cfg.dropout, rng)


def _attend(p, prefix, heads, x_q, x_kv, mask):
    q = linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k = linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
    v = linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    return linear(attention(q, k, v, heads, mask), p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _sublayer(p, prefix_ln, cfg, x, out, train, rng):
    return residual_norm(x, _dropout(out, cfg, train, rng), p[f"{prefix_ln}.g"], p[f"{prefix_ln}.b"])


def _ffn(p, prefix, x):
    return linear(relu(linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"])), p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def encode(params, src_ids, train=False, rng=None):
    cfg, p = params.config, params.tensors
    src = as_batch(src_ids)
    x = embedding(p["src_embed"], src)
    pe = _pe_table(cfg.max_positions, cfg.model_dim, cfg.dtype)[: src.shape[1]]
    x = scale_shift(linear(x, p["src_proj.w"], p["src_proj.b"]), math.sqrt(cfg.model_dim), pe)
    x = _dropout(x, cfg, train, rng)
    mask = _key_mask(src == PAD_ID)
    for i in range(cfg.layers):
        x = _sublayer(p, f"enc.{i}.ln1", cfg, x, _attend(p, f"enc.{i}.attn", cfg.heads, x, x, mask), train, rng)
        x = _sublayer(p, f"enc.{i}.ln2", cfg, x, _ffn(p, f"enc.{i}.ff", x), train, rng)
    return x


def decoder_forward(params, direction, tgt_ids, memory, src_pad=None, train=False, rng=None, cache=None,
                    lengths=None):
    """Every position of ``tgt_ids`` computed; ``lengths`` is accepted and
    ignored, and there is no cache."""
    assert cache is None
    cfg, p = params.config, params.tensors
    tgt = as_batch(tgt_ids)
    t = tgt.shape[1]
    pe = _pe_table(cfg.max_positions, cfg.model_dim, cfg.dtype)[:t]
    x = scale_shift(embedding(_target_table(params, direction), tgt), math.sqrt(cfg.model_dim), pe)
    x = _dropout(x, cfg, train, rng)
    mem_mask = _key_mask(src_pad) if src_pad is not None else None
    for i in range(cfg.layers):
        layer = f"dec_{direction}.{i}"
        x = _sublayer(p, f"{layer}.ln1", cfg, x, _attend(p, f"{layer}.attn", cfg.heads, x, x, causal_mask(t)),
                      train, rng)
        x = _sublayer(p, f"{layer}.ln2", cfg, x, _attend(p, f"{layer}.xattn", cfg.heads, x, memory, mem_mask),
                      train, rng)
        x = _sublayer(p, f"{layer}.ln3", cfg, x, _ffn(p, f"{layer}.ff", x), train, rng)
    return linear(x, p[f"out_{direction}.w"], p[f"out_{direction}.b"])


def real_positions(logits, lengths):
    """(N, V) logits of the first ``lengths[i]`` positions of each row i."""
    return np.concatenate([logits[i, :n] for i, n in enumerate(lengths)])
