"""Reference: one beam search per direction.

This is ``decoding._search`` as it was before both directions ran in one
lockstep pass: it decodes the problems of a memory batch in a single
direction, through the unstacked single-direction cached decoder, and
``reference_decode_batch`` runs it once per direction over one encoder
pass. The lockstep search must return the same hypotheses, in the same
order, with scores equal to 1e-9.
"""

from __future__ import annotations

import numpy as np

from eqgen.decoding import Hypothesis, _begin_id, _log_softmax
from eqgen.model import EOS_ID, L2R, PAD_ID, R2L, DecoderCache, decoder_forward, encode, pad_right
from eqgen.numerics import Tensor, no_grad


def reference_search(params, direction, memory, src_pad, beam_size, max_len):
    """Beam search of every problem in ``memory`` in one direction; one
    score-sorted hypothesis list per problem."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = memory.shape[0]
    pools = [[] for _ in range(n)]
    live = [[()] for _ in range(n)]
    live_scores = [[0.0] for _ in range(n)]
    active = list(range(n))
    scores = np.zeros((n, 1))
    cache = DecoderCache()
    dec_in = np.full((n, 1), _begin_id(direction), dtype=np.int64)
    for _ in range(max_len):
        logits = decoder_forward(params, direction, dec_in, memory, src_pad, cache=cache)
        logp = _log_softmax(logits.data[:, -1, :])
        vocab, width = logp.shape[-1], scores.shape[1]
        cand = (scores.reshape(-1, 1) + logp).reshape(len(active), width * vocab)
        order = np.argsort(-cand, axis=1, kind="stable")
        kept, parents = [], []
        for b, prob in enumerate(active):
            pool, seqs = pools[prob], live[prob]
            rows, new_live, new_scores = [], [], []
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
        width = max(map(len, parents))
        idx, flat_scores, last = [], [], []
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


def reference_decode_batch(params, srcs, beam_size, max_len):
    """``decoding.decode_batch`` as two searches, L2R then R2L."""
    if not len(srcs):
        return []
    src = pad_right(srcs)
    with no_grad():
        memory = encode(params, src)
        l2r = reference_search(params, L2R, memory, src == PAD_ID, beam_size, max_len)
        r2l = reference_search(params, R2L, memory, src == PAD_ID, beam_size, max_len)
    return list(zip(l2r, r2l))
