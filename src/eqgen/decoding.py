"""Beam search per decoder direction and the two-beam vote.

Scores are raw sums of token log-probabilities (no length normalization;
both directions score the same target length for the same final string, so
the sums stay comparable). Each step expands every live hypothesis over the
full vocabulary, keeps the top ``beam_size`` candidates by cumulative score,
and retires the ones ending in the end sentinel into the result pool. Search
stops once the pool holds ``beam_size`` finished hypotheses or ``max_len`` is
reached; leftover live hypotheses then join the pool force-finished with
``finished=False``. The result is the pool in pure score order: a
force-finished hypothesis can outrank a finished one.

Decoding is incremental. The encoder runs once per instance, and each step
feeds only the newest token of every live hypothesis to the decoder, which
keeps the earlier positions in a ``DecoderCache``: every layer's
self-attention keys/values for the prefix, plus its cross-attention
keys/values projected once from the batch-1 encoder memory and shared by all
beam rows. After the top-k selection the cache rows are reindexed by each
surviving hypothesis's parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    BOS_ID,
    BOSR_ID,
    EOS_ID,
    L2R,
    PAD_ID,
    R2L,
    DecoderCache,
    ModelParams,
    as_batch,
    decoder_forward,
    encode,
)
from .numerics import Tensor, cross_entropy, neg, no_grad


@dataclass(frozen=True)
class Hypothesis:
    """Emitted tokens in the decoder's own reading order (end sentinel
    included when finished naturally) with the cumulative log-probability."""

    tokens: tuple[int, ...]
    score: float
    direction: str
    finished: bool


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def _begin_id(direction: str) -> int:
    return BOS_ID if direction == L2R else BOSR_ID


def beam_search(
    params: ModelParams,
    direction: str,
    src_ids,
    beam_size: int,
    max_len: int,
    memory: Tensor | None = None,
) -> list[Hypothesis]:
    """Decode one instance; returns up to beam_size hypotheses sorted by
    score descending, finished and force-finished ones alike. Pass the
    instance's encoder ``memory`` to share one encoder pass between both
    directions; source padding is read off ``src_ids``."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    src = as_batch(src_ids)
    src_pad = src == PAD_ID
    with no_grad():
        if memory is None:
            memory = encode(params, src)
        cache = DecoderCache()
        dec_in = np.array([[_begin_id(direction)]], dtype=np.int64)
        live: list[tuple[int, ...]] = [()]
        live_scores = np.zeros(1)
        finished: list[Hypothesis] = []
        for _ in range(max_len):
            logits = decoder_forward(params, direction, dec_in, memory, src_pad, cache=cache)
            logp = _log_softmax(logits.data[:, -1, :])
            cand = (live_scores[:, None] + logp).reshape(-1)
            k = min(beam_size, cand.size)
            top = np.argsort(-cand, kind="stable")[:k]
            parents: list[int] = []
            new_live: list[tuple[int, ...]] = []
            new_scores: list[float] = []
            vocab = logp.shape[-1]
            for flat in top:
                h, tok = divmod(int(flat), vocab)
                seq = live[h] + (tok,)
                score = float(cand[flat])
                if tok == EOS_ID:
                    finished.append(Hypothesis(seq, score, direction, True))
                else:
                    parents.append(h)
                    new_live.append(seq)
                    new_scores.append(score)
            live = new_live
            live_scores = np.asarray(new_scores)
            if len(finished) >= beam_size or not live:
                break
            cache.reorder(parents)
            dec_in = np.array([[seq[-1]] for seq in live], dtype=np.int64)
        else:
            finished.extend(
                Hypothesis(seq, float(s), direction, False)
                for seq, s in zip(live, live_scores)
            )

    finished.sort(key=lambda h: h.score, reverse=True)
    return finished[:beam_size]


def canonical_tokens(hyp: Hypothesis) -> list[int]:
    """Content tokens in left-to-right order, end sentinel stripped."""
    toks = list(hyp.tokens)
    if hyp.finished and toks and toks[-1] == EOS_ID:
        toks = toks[:-1]
    if hyp.direction == R2L:
        toks.reverse()
    return toks


def vote(l2r: Hypothesis, r2l: Hypothesis) -> list[int]:
    """Pick the hypothesis with the higher cumulative log-probability;
    exact ties go to the left-to-right decoder."""
    winner = l2r if l2r.score >= r2l.score else r2l
    return canonical_tokens(winner)


def decode_both(
    params: ModelParams, src_ids, beam_size: int, max_len: int
) -> tuple[list[Hypothesis], list[Hypothesis]]:
    """Run beam search in both directions over one shared encoder pass."""
    src = as_batch(src_ids)
    with no_grad():
        memory = encode(params, src)
    l2r = beam_search(params, L2R, src, beam_size, max_len, memory=memory)
    r2l = beam_search(params, R2L, src, beam_size, max_len, memory=memory)
    return l2r, r2l


def hypothesis_log_prob(
    params: ModelParams,
    src_ids,
    hyps: Sequence[Hypothesis],
    memory: Tensor | None = None,
    weights: Sequence[float] | None = None,
) -> Tensor:
    """Teacher-forced log-probability of hypotheses under their own
    direction's factorization; differentiable, used for policy gradients.

    ``hyps`` share one direction and are scored in one decoder pass over a
    right-padded batch sharing the batch-1 encoder memory. Padded targets
    are -1, not ``PAD_ID``, which a hypothesis may contain. The result is the sum of the log-probabilities, each scaled by
    its entry in ``weights`` when given. Pass a precomputed ``memory`` of
    ``src_ids`` to share one encoder pass (and its gradient subgraph) with
    other calls; source padding is read off ``src_ids``."""
    direction = hyps[0].direction
    if any(h.direction != direction for h in hyps):
        raise ValueError("hypotheses of one call must share a direction")
    src = as_batch(src_ids)
    if memory is None:
        memory = encode(params, src)
    width = max(len(h.tokens) for h in hyps)
    dec_in = np.full((len(hyps), width), PAD_ID, dtype=np.int64)
    targets = np.full((len(hyps), width), -1, dtype=np.int64)
    dec_in[:, 0] = _begin_id(direction)
    for row, h in enumerate(hyps):
        dec_in[row, 1 : len(h.tokens)] = h.tokens[:-1]
        targets[row, : len(h.tokens)] = h.tokens
    logits = decoder_forward(params, direction, dec_in, memory, src == PAD_ID)
    w = None if weights is None else np.asarray(weights)[:, None]
    return neg(cross_entropy(logits, targets, ignore_index=-1, weights=w))

