"""Beam search per decoder direction, over a batch of problems, and the
two-beam vote.

Scores are raw sums of token log-probabilities (no length normalization;
both directions score the same target length for the same final string, so
the sums stay comparable). Each step expands every live hypothesis over the
full vocabulary, keeps the top ``beam_size`` candidates by cumulative score,
and retires the ones ending in the end sentinel into the result pool. Search
stops once the pool holds ``beam_size`` finished hypotheses or ``max_len`` is
reached; leftover live hypotheses then join the pool force-finished with
``finished=False``. The result is the pool in pure score order: a
force-finished hypothesis can outrank a finished one.

Decoding is incremental and batched across problems. The encoder runs once
over the right-padded sources, and each step feeds only the newest token of
every live hypothesis to the decoder, which keeps the earlier positions in a
``DecoderCache``: every layer's self-attention keys/values for the prefix,
plus its cross-attention keys/values projected once from the encoder
memories. The rows of one problem's beam sit next to each other and every
problem has the same number of rows; a problem with fewer live hypotheses
is padded with copies of one of them that score -inf, so no candidate of
theirs is ever selected. Each problem keeps its own pool and stop rule, and
a problem that stops leaves the batch with its cache rows and memory. After
the top-k selection the cache rows are reindexed by each surviving
hypothesis's parent. ``beam_search`` and ``decode_both`` decode one problem,
as a batch of one.
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
    pad_right,
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


def _one_problem(src_ids) -> np.ndarray:
    src = as_batch(src_ids)
    if src.shape[0] != 1:
        raise ValueError(f"expected the source of one problem, got {src.shape[0]} rows; see decode_batch")
    return src


def _search(
    params: ModelParams,
    direction: str,
    memory: Tensor,
    src_pad: np.ndarray,
    beam_size: int,
    max_len: int,
) -> list[list[Hypothesis]]:
    """Beam search of every problem in the encoder ``memory`` batch in one
    direction; one score-sorted hypothesis list per problem."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = memory.shape[0]
    pools: list[list[Hypothesis]] = [[] for _ in range(n)]
    live: list[list[tuple[int, ...]]] = [[()] for _ in range(n)]
    live_scores: list[list[float]] = [[0.0] for _ in range(n)]
    active = list(range(n))  # the problem at each batch position
    scores = np.zeros((n, 1))  # (batch, rows per problem), -inf on padding rows
    cache = DecoderCache()
    dec_in = np.full((n, 1), _begin_id(direction), dtype=np.int64)
    for _ in range(max_len):
        logits = decoder_forward(params, direction, dec_in, memory, src_pad, cache=cache)
        logp = _log_softmax(logits.data[:, -1, :])
        vocab, width = logp.shape[-1], scores.shape[1]
        cand = (scores.reshape(-1, 1) + logp).reshape(len(active), width * vocab)
        order = np.argsort(-cand, axis=1, kind="stable")
        kept: list[int] = []
        parents: list[list[int]] = []
        for b, prob in enumerate(active):
            pool, seqs = pools[prob], live[prob]
            rows: list[int] = []
            new_live: list[tuple[int, ...]] = []
            new_scores: list[float] = []
            top = order[b, : min(beam_size, len(seqs) * vocab)]
            for flat, score in zip(top.tolist(), cand[b, top].tolist()):
                h, tok = divmod(flat, vocab)
                if tok == EOS_ID:
                    pool.append(Hypothesis(seqs[h] + (tok,), score, direction, True))
                else:
                    rows.append(b * width + h)
                    new_live.append(seqs[h] + (tok,))
                    new_scores.append(score)
            live[prob], live_scores[prob] = new_live, new_scores
            if len(pool) < beam_size and new_live:
                kept.append(b)
                parents.append(rows)
        if not kept:
            break
        shrunk = len(kept) < len(active)
        if shrunk:
            active = [active[b] for b in kept]
            memory, src_pad = Tensor.from_checked(memory.data[kept]), src_pad[kept]
        # every problem gets as many rows as the widest, padded with copies of its first
        width = max(map(len, parents))
        idx: list[int] = []
        flat_scores: list[float] = []
        last: list[int] = []
        for rows, prob in zip(parents, active):
            k = width - len(rows)
            idx += rows + rows[:1] * k
            flat_scores += live_scores[prob] + [-np.inf] * k
            last += [seq[-1] for seq in live[prob]] + [live[prob][0][-1]] * k
        cache.reorder(np.array(idx), kept if shrunk else None)
        scores = np.array(flat_scores).reshape(len(active), width)
        dec_in = np.array(last, dtype=np.int64)[:, None]
    else:
        for prob in active:
            pools[prob].extend(
                Hypothesis(seq, s, direction, False) for seq, s in zip(live[prob], live_scores[prob])
            )
    for pool in pools:
        pool.sort(key=lambda h: h.score, reverse=True)
    return [pool[:beam_size] for pool in pools]


def decode_batch(
    params: ModelParams, srcs, beam_size: int, max_len: int
) -> list[tuple[list[Hypothesis], list[Hypothesis]]]:
    """Beam search in both directions for every problem of ``srcs`` (1-d id
    sequences, any lengths) over one encoder pass of the right-padded batch;
    one (L2R, R2L) pair of score-sorted hypothesis lists per problem, each
    as ``beam_search`` returns it for that problem alone."""
    if not len(srcs):
        return []
    src = pad_right(srcs)
    with no_grad():
        memory = encode(params, src)
        l2r = _search(params, L2R, memory, src == PAD_ID, beam_size, max_len)
        r2l = _search(params, R2L, memory, src == PAD_ID, beam_size, max_len)
    return list(zip(l2r, r2l))


def beam_search(
    params: ModelParams,
    direction: str,
    src_ids,
    beam_size: int,
    max_len: int,
) -> list[Hypothesis]:
    """Decode one problem in one direction, as a batch of one; returns up to
    beam_size hypotheses sorted by score descending, finished and
    force-finished ones alike. Source padding is read off ``src_ids``."""
    src = _one_problem(src_ids)
    with no_grad():
        return _search(params, direction, encode(params, src), src == PAD_ID, beam_size, max_len)[0]


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
    return decode_batch(params, _one_problem(src_ids), beam_size, max_len)[0]


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
    right-padded batch sharing the problem's one encoder memory. Padded targets
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
    logits = decoder_forward(params, direction, dec_in, memory, src == PAD_ID,
                             lengths=[len(h.tokens) for h in hyps])
    w = None if weights is None else np.asarray(weights)[:, None]
    return neg(cross_entropy(logits, targets, ignore_index=-1, weights=w))

