"""Beam search of both decoder directions in lockstep, over a batch of
problems, and the two-beam vote.

Scores are raw sums of token log-probabilities (no length normalization;
both directions score the same target length for the same final string, so
the sums stay comparable). Each (direction, problem) pair is its own search,
a *group*: each step expands every live hypothesis of the group over the
full vocabulary, keeps the top ``beam_size`` candidates by cumulative score,
and retires the ones ending in the end sentinel into the group's result
pool. A group is finished once its pool holds ``beam_size`` finished
hypotheses or it has no live one; at ``max_len`` tokens, or at the model's
``max_positions`` if that is fewer, the leftover live hypotheses join the
pool force-finished with ``finished=False``. The result is the pool in pure
score order: a force-finished hypothesis can outrank a finished one.

Decoding is incremental, batched across problems and lockstep across
directions. The encoder runs once over the right-padded sources, and its
memory is tiled once per direction. Each step makes one cached decoder call
that feeds only the newest token of every live hypothesis of every group;
the decoders' weights are stacked once per search (see ``DecoderCache``),
so the call runs each direction's rows through its own decoder. Rows are
direction-major, and within a direction the rows of one problem sit next to
each other. Every group has the same number of rows; a group with fewer live
hypotheses, or a finished one, is padded with rows that score -inf, so no
candidate of theirs is ever selected. A problem leaves the batch, with its
cache rows and memories, once all its directions are finished. After the
top-k selection the cache rows are reindexed by each surviving hypothesis's
parent. ``decode_both`` decodes one problem as a batch of one;
``beam_search`` decodes one problem in one direction, the one-direction
case of the same search.
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
    _teacher_forced_ce,
    as_batch,
    decoder_forward,
    encode,
    pad_right,
)
from .numerics import Tensor, neg, no_grad


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
    directions: tuple[str, ...],
    memory: Tensor,
    src_pad: np.ndarray,
    beam_size: int,
    max_len: int,
) -> list[list[list[Hypothesis]]]:
    """Beam search of every problem in the encoder ``memory`` batch in each
    of ``directions``, all in lockstep; per direction, one score-sorted
    hypothesis list per problem."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n, n_dir = memory.shape[0], len(directions)
    # one search per (direction, problem) group; group s * n + j is direction s of problem j
    pools: list[list[Hypothesis]] = [[] for _ in range(n_dir * n)]
    live: list[list[tuple[int, ...]]] = [[()] for _ in range(n_dir * n)]
    live_scores: list[list[float]] = [[0.0] for _ in range(n_dir * n)]
    active = list(range(n))  # the problem at each batch position
    groups = list(range(n_dir * n))  # the group at each position, direction-major
    scores = np.zeros((n_dir * n, 1))  # (groups, rows per group), -inf on padding rows
    cache = DecoderCache()
    memory = Tensor.from_checked(np.concatenate([memory.data] * n_dir))
    src_pad = np.concatenate([src_pad] * n_dir)
    dec_in = np.repeat([_begin_id(d) for d in directions], n)[:, None]
    for _ in range(min(max_len, params.config.max_positions)):
        logits = decoder_forward(params, directions, dec_in, memory, src_pad, cache=cache)
        logp = _log_softmax(logits.data[:, -1, :])
        vocab, width = logp.shape[-1], scores.shape[1]
        cand = (scores.reshape(-1, 1) + logp).reshape(len(groups), width * vocab)
        order = np.argsort(-cand, axis=1, kind="stable")
        parents: list[list[int]] = []
        for b, g in enumerate(groups):
            pool, seqs = pools[g], live[g]
            rows: list[int] = []
            new_live: list[tuple[int, ...]] = []
            new_scores: list[float] = []
            # a finished group has no live hypotheses, so it takes no candidate
            top = order[b, : min(beam_size, len(seqs) * vocab)]
            for flat, score in zip(top.tolist(), cand[b, top].tolist()):
                h, tok = divmod(flat, vocab)
                if tok == EOS_ID:
                    pool.append(Hypothesis(seqs[h] + (tok,), score, directions[g // n], True))
                else:
                    rows.append(b * width + h)
                    new_live.append(seqs[h] + (tok,))
                    new_scores.append(score)
            if len(pool) >= beam_size:  # the group is finished
                rows, new_live, new_scores = [], [], []
            live[g], live_scores[g] = new_live, new_scores
            parents.append(rows)
        # a problem leaves the batch once all its directions are finished
        kept = [b for b, prob in enumerate(active) if any(live[s * n + prob] for s in range(n_dir))]
        if not kept:
            break
        picked = None
        if len(kept) < len(active):
            picked = [s * len(active) + b for s in range(n_dir) for b in kept]
            active = [active[b] for b in kept]
            groups = [groups[b] for b in picked]
            parents = [parents[b] for b in picked]
            memory, src_pad = Tensor.from_checked(memory.data[picked]), src_pad[picked]
        # every group gets as many rows as the widest; padding rows copy row 0,
        # are fed PAD_ID and score -inf, so no candidate of theirs is ever taken
        width = max(map(len, parents))
        idx: list[int] = []
        flat_scores: list[float] = []
        last: list[int] = []
        for rows, g in zip(parents, groups):
            k = width - len(rows)
            idx += rows + [0] * k
            flat_scores += live_scores[g] + [-np.inf] * k
            last += [seq[-1] for seq in live[g]] + [PAD_ID] * k
        cache.reorder(np.array(idx), picked)
        scores = np.array(flat_scores).reshape(len(groups), width)
        dec_in = np.array(last, dtype=np.int64)[:, None]
    else:
        for g in groups:
            pools[g].extend(Hypothesis(seq, s, directions[g // n], False)
                            for seq, s in zip(live[g], live_scores[g]))
    for pool in pools:
        pool.sort(key=lambda h: h.score, reverse=True)
    return [[pool[:beam_size] for pool in pools[s * n : (s + 1) * n]] for s in range(n_dir)]


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
        l2r, r2l = _search(params, (L2R, R2L), encode(params, src), src == PAD_ID, beam_size, max_len)
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
        return _search(params, (direction,), encode(params, src), src == PAD_ID, beam_size, max_len)[0][0]


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
    right-padded batch sharing the problem's one encoder memory; a hypothesis
    may contain ``PAD_ID``, as only the targets past its length are masked.
    The result is the sum of the log-probabilities, each scaled by its entry
    in ``weights`` when given. Pass a precomputed ``memory`` of
    ``src_ids`` to share one encoder pass (and its gradient subgraph) with
    other calls; source padding is read off ``src_ids``."""
    direction = hyps[0].direction
    if any(h.direction != direction for h in hyps):
        raise ValueError("hypotheses of one call must share a direction")
    src = as_batch(src_ids)
    if memory is None:
        memory = encode(params, src)
    seqs = pad_right([(_begin_id(direction), *h.tokens) for h in hyps])
    lengths = np.array([len(h.tokens) for h in hyps])
    w = None if weights is None else np.asarray(weights)[:, None]
    return neg(_teacher_forced_ce(params, direction, seqs, lengths, memory, src == PAD_ID, weights=w))
