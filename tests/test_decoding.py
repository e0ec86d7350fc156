import itertools
import math

import numpy as np
import pytest

from eqgen.decoding import (
    Hypothesis,
    beam_search,
    canonical_tokens,
    decode_batch,
    decode_both,
    hypothesis_log_prob,
    vote,
)
from eqgen.model import (
    BOS_ID,
    BOSR_ID,
    EOS_ID,
    L2R,
    ModelConfig,
    PAD_ID,
    R2L,
    decoder_forward,
    encode,
    init_params,
)
from eqgen import decoding
from eqgen.numerics import Tensor, no_grad


def tiny_params(seed, vocab_tgt=10, vocab_src=9, **overrides):
    fields = dict(
        vocab_src=vocab_src,
        vocab_tgt=vocab_tgt,
        embed_dim=4,
        model_dim=8,
        layers=1,
        heads=2,
        ff_dim=8,
        max_positions=12,
        dropout=0.0,
    )
    fields.update(overrides)
    return init_params(ModelConfig(**fields), seed)


def reference_beam_search(params, direction, src, beam_size, max_len):
    """Oracle: the full-prefix beam loop. Every step re-runs the decoder on
    each live hypothesis's whole prefix against a per-row copy of the
    memory and reads the last position's logits."""
    with no_grad():
        memory = encode(params, src)
        src_pad = src == PAD_ID
        bos = BOS_ID if direction == L2R else BOSR_ID
        live = [()]
        live_scores = np.zeros(1)
        finished = []
        for step in range(max_len):
            n = len(live)
            dec_in = np.empty((n, step + 1), dtype=np.int64)
            dec_in[:, 0] = bos
            for i, seq in enumerate(live):
                dec_in[i, 1:] = seq
            mem_n = Tensor(np.broadcast_to(memory.data, (n,) + memory.shape[1:]))
            pad_n = np.broadcast_to(src_pad, (n,) + src_pad.shape[1:])
            logits = decoder_forward(params, direction, dec_in, mem_n, pad_n)
            logp = logits.data[:, -1, :] - logits.data[:, -1, :].max(-1, keepdims=True)
            logp = logp - np.log(np.exp(logp).sum(-1, keepdims=True))
            cand = (live_scores[:, None] + logp).reshape(-1)
            top = np.argsort(-cand, kind="stable")[: min(beam_size, cand.size)]
            new_live, new_scores = [], []
            vocab = logp.shape[-1]
            for flat in top:
                h, tok = divmod(int(flat), vocab)
                seq = live[h] + (tok,)
                if tok == EOS_ID:
                    finished.append(Hypothesis(seq, float(cand[flat]), direction, True))
                else:
                    new_live.append(seq)
                    new_scores.append(float(cand[flat]))
            live = new_live
            live_scores = np.asarray(new_scores)
            if len(finished) >= beam_size or not live:
                break
        else:
            finished.extend(
                Hypothesis(seq, float(s), direction, False) for seq, s in zip(live, live_scores)
            )
    finished.sort(key=lambda h: h.score, reverse=True)
    return finished[:beam_size]


def exhaustive_pool(params, direction, src, max_len):
    """Oracle: enumerate every sequence, score by summed log-probs.

    Finished sequences end at their first EOS; sequences of length max_len
    with no EOS anywhere are the force-finished ones.
    """
    vocab = params.config.vocab_tgt
    bos = BOS_ID if direction == L2R else BOSR_ID
    with no_grad():
        memory = encode(params, src)

    def seq_score(tokens):
        dec_in = np.array([[bos] + list(tokens[:-1])])
        with no_grad():
            logits = decoder_forward(params, direction, dec_in, memory, src == PAD_ID)
        logp = logits.data[0] - logits.data[0].max(-1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(-1, keepdims=True))
        return float(sum(logp[t, tok] for t, tok in enumerate(tokens)))

    pool = []
    for length in range(1, max_len + 1):
        for prefix in itertools.product(range(vocab), repeat=length - 1):
            if EOS_ID in prefix:
                continue
            seq = prefix + (EOS_ID,)
            pool.append((seq, seq_score(seq), True))
    for seq in itertools.product(range(vocab), repeat=max_len):
        if EOS_ID in seq:
            continue
        pool.append((seq, seq_score(seq), False))
    return pool


class TestBeamOracle:
    def test_matches_exhaustive_enumeration(self):
        # vocab 5, max_len 4, beam 625 covers every sequence
        for seed in range(3):
            params = tiny_params(seed, vocab_tgt=5)
            src = np.array([[5, 6, 7]])
            got = beam_search(params, L2R, src, beam_size=625, max_len=4)
            want = exhaustive_pool(params, L2R, src, 4)
            got_set = {(h.tokens, h.finished) for h in got}
            want_set = {(seq, fin) for seq, _, fin in want}
            assert got_set == want_set
            want_scores = {seq: s for seq, s, _ in want}
            for h in got:
                assert abs(h.score - want_scores[h.tokens]) < 1e-9

    def test_top_k_subset_for_small_beams(self):
        params = tiny_params(7, vocab_tgt=5)
        src = np.array([[5, 6]])
        pool = exhaustive_pool(params, L2R, src, 4)
        best_score = max(s for _, s, _ in pool)
        top1 = beam_search(params, L2R, src, beam_size=625, max_len=4)[0]
        assert abs(top1.score - best_score) < 1e-9


class TestBeamBasics:
    def test_beam_one_is_greedy(self):
        params = tiny_params(1)
        src = np.array([[5, 6, 7]])
        hyp = beam_search(params, L2R, src, beam_size=1, max_len=8)[0]
        # greedy reference
        seq = []
        with no_grad():
            memory = encode(params, src)
        for _ in range(8):
            dec_in = np.array([[BOS_ID] + seq])
            with no_grad():
                logits = decoder_forward(params, L2R, dec_in, memory, src == PAD_ID)
            tok = int(np.argmax(logits.data[0, -1]))
            seq.append(tok)
            if tok == EOS_ID:
                break
        assert list(hyp.tokens) == seq

    def test_scores_non_increasing(self):
        params = tiny_params(2)
        hyps = beam_search(params, L2R, np.array([[5, 6]]), beam_size=8, max_len=6)
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_monotone_in_beam_size(self):
        src = np.array([[5, 7, 8]])
        for seed in range(5):
            params = tiny_params(seed + 10)
            best = -math.inf
            for beam in (1, 2, 4, 8):
                hyps = beam_search(params, L2R, src, beam_size=beam, max_len=6)
                assert hyps[0].score >= best - 1e-12
                best = max(best, hyps[0].score)

    def test_force_finish_flagged(self):
        params = tiny_params(3)
        hyps = beam_search(params, L2R, np.array([[5]]), beam_size=4, max_len=1)
        assert any(not h.finished for h in hyps) or all(
            h.tokens[-1] == EOS_ID for h in hyps
        )
        for h in hyps:
            assert h.finished == (h.tokens[-1] == EOS_ID)

    def test_force_finished_may_outrank_finished(self):
        # pure score order: here a force-finished hypothesis (max_len reached)
        # scores above a finished one and is returned ahead of it
        params = tiny_params(4, vocab_tgt=20, vocab_src=20, embed_dim=8, ff_dim=16)
        hyps = beam_search(params, L2R, np.array([[5, 6, 7]]), beam_size=4, max_len=3)
        flags = [h.finished for h in hyps]
        assert False in flags and flags.index(False) < max(i for i, f in enumerate(flags) if f)
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        for h in hyps:
            assert h.finished == (h.tokens[-1] == EOS_ID)

    def test_bad_arguments(self):
        params = tiny_params(4)
        with pytest.raises(ValueError):
            beam_search(params, L2R, np.array([[5]]), beam_size=0, max_len=4)
        with pytest.raises(ValueError):
            beam_search(params, L2R, np.array([[5]]), beam_size=2, max_len=0)


class TestIncrementalMatchesFullPrefix:
    """The cached, one-token-per-step beam search against the full-prefix
    oracle: same tokens and flags, scores to 1e-9."""

    def check(self, params, src, beams=(1, 4, 10), max_len=8):
        for direction in (L2R, R2L):
            for beam in beams:
                got = beam_search(params, direction, src, beam_size=beam, max_len=max_len)
                want = reference_beam_search(params, direction, src, beam, max_len)
                assert [(h.tokens, h.finished) for h in got] == [
                    (h.tokens, h.finished) for h in want
                ]
                for g, w in zip(got, want):
                    assert abs(g.score - w.score) < 1e-9

    def test_one_layer_seeds(self):
        for seed in range(6):
            self.check(tiny_params(seed + 40), np.array([[5, 6, 7]]))

    def test_two_layers_unshared_embeddings_padded_source(self):
        for seed in range(3):
            params = tiny_params(
                seed + 50, layers=2, model_dim=16, heads=4, ff_dim=16,
                share_target_embedding=False,
            )
            assert "tgt_embed" not in params.tensors
            self.check(params, np.array([[5, 6, 7, 8, PAD_ID, PAD_ID]]))

    def test_decode_both_matches_per_direction(self):
        params = tiny_params(60, layers=2)
        src = np.array([[5, 8, 6]])
        for got, direction in zip(decode_both(params, src, beam_size=4, max_len=8), (L2R, R2L)):
            want = reference_beam_search(params, direction, src, 4, 8)
            assert [h.tokens for h in got] == [h.tokens for h in want]
            assert max(abs(g.score - w.score) for g, w in zip(got, want)) < 1e-9


class TestDecodeBatch:
    """Many problems in one batched search against the full-prefix oracle run
    on each problem alone: same tokens and flags, scores to 1e-9."""

    # mixed lengths, one source with its own trailing padding
    SRCS = [[5, 6, 7], [8], [5, 6, 7, 8, PAD_ID], [6, 8], [7, 5, 6, 8, 8]]

    def spy_memory_batches(self, monkeypatch):
        """The memory batch of every cached decoder call, per direction."""
        seen = {L2R: [], R2L: []}
        real = decoding.decoder_forward

        def spy(params, direction, tgt_ids, memory, *args, **kwargs):
            seen[direction].append(memory.shape[0])
            return real(params, direction, tgt_ids, memory, *args, **kwargs)

        monkeypatch.setattr(decoding, "decoder_forward", spy)
        return seen

    def check(self, params, srcs, beam, max_len):
        """Returns how many problems were force-finished at ``max_len``."""
        got = decode_batch(params, srcs, beam, max_len)
        assert len(got) == len(srcs)
        forced = 0
        for src, pair in zip(srcs, got):
            for direction, hyps in zip((L2R, R2L), pair):
                want = reference_beam_search(params, direction, np.array([src]), beam, max_len)
                assert [(h.tokens, h.finished, h.direction) for h in hyps] == [
                    (h.tokens, h.finished, h.direction) for h in want
                ]
                assert max(abs(g.score - w.score) for g, w in zip(hyps, want)) < 1e-9
                forced += any(not h.finished for h in hyps)
        return forced

    def test_matches_reference_per_problem(self, monkeypatch):
        seen = self.spy_memory_batches(monkeypatch)
        shrank = forced = finished_early = 0
        for seed in range(70, 78):
            for overrides in ({}, dict(layers=2, model_dim=16, heads=4, ff_dim=16,
                                       share_target_embedding=False)):
                params = tiny_params(seed, **overrides)
                for beam in (1, 4, 10):
                    seen[L2R].clear(), seen[R2L].clear()
                    forced += self.check(params, self.SRCS, beam, max_len=8)
                    for batches in seen.values():
                        shrank += batches[-1] < batches[0]
                        finished_early += len(batches) < 8
        # the cases cover a batch that shrinks, problems that stop at
        # different steps and problems that reach max_len
        assert shrank and forced and finished_early

    def test_beam_wider_than_every_candidate(self):
        # vocab 5: at most live * 5 candidates, far fewer than the beam
        for seed in range(2):
            params = tiny_params(seed + 80, vocab_tgt=5)
            self.check(params, [[5, 6, 7], [6], [7, 5, PAD_ID]], beam=625, max_len=4)

    def test_empty_batch_and_bad_arguments(self):
        params = tiny_params(81)
        assert decode_batch(params, [], 4, 4) == []
        with pytest.raises(ValueError):
            decode_batch(params, [[5]], 0, 4)
        with pytest.raises(ValueError):
            decode_batch(params, [[5]], 4, 0)
        with pytest.raises(ValueError):  # the single-problem wrappers take one source
            decode_both(params, np.array([[5, 6], [7, 8]]), 4, 4)

    def test_float32_scores_match_a_float64_rescore(self):
        # decoding in float32; every returned hypothesis re-scored teacher-forced
        # under a float64 copy of the same parameters. A score sums at most 8
        # float32 log-probabilities; the bound is 1e-5 and the worst seen 1.9e-6.
        params = tiny_params(82, layers=2, model_dim=16, heads=4, ff_dim=16, dtype="float32")
        params64 = tiny_params(82, layers=2, model_dim=16, heads=4, ff_dim=16)
        for name, t in params.named():
            params64.tensors[name] = Tensor(t.data.astype(np.float64))
        assert params["out_l2r.w"].dtype == np.float32
        worst = 0.0
        for src, pair in zip(self.SRCS, decode_batch(params, self.SRCS, 4, 8)):
            for hyps in pair:
                for h in hyps:
                    with no_grad():
                        ref = hypothesis_log_prob(params64, np.array([src]), [h]).item()
                    worst = max(worst, abs(h.score - ref))
        assert 0 < worst < 1e-5


class TestVote:
    def test_argmax_and_tie(self):
        a = Hypothesis((7, 8, EOS_ID), -1.2, L2R, True)
        b = Hypothesis((9, 5, EOS_ID), -3.4, R2L, True)
        assert vote(a, b) == [7, 8]
        c = Hypothesis((9, 5, EOS_ID), -2.0, R2L, True)
        d = Hypothesis((7, 8, EOS_ID), -5.0, L2R, True)
        assert vote(d, c) == [5, 9]  # r2l winner comes back reversed
        e = Hypothesis((6, EOS_ID), -2.0, L2R, True)
        f = Hypothesis((7, EOS_ID), -2.0, R2L, True)
        assert vote(e, f) == [6]  # tie goes left-to-right

    def test_vote_score_is_max(self):
        params = tiny_params(5)
        l2r, r2l = decode_both(params, np.array([[5, 6, 8]]), beam_size=4, max_len=6)
        out = vote(l2r[0], r2l[0])
        winner = l2r[0] if l2r[0].score >= r2l[0].score else r2l[0]
        assert max(l2r[0].score, r2l[0].score) == winner.score
        assert out == canonical_tokens(winner)


def score_sequence(params, direction, src_ids, canonical, finished=True):
    """Re-score a canonical-order sequence under the given direction."""
    toks = list(canonical)
    if direction == R2L:
        toks.reverse()
    if finished:
        toks.append(EOS_ID)
    hyp = Hypothesis(tuple(toks), 0.0, direction, finished)
    with no_grad():
        return hypothesis_log_prob(params, src_ids, [hyp]).item()


class TestReversalRoundTrip:
    def test_r2l_winner_rescored_identically(self):
        for seed in range(4):
            params = tiny_params(seed + 20)
            src = np.array([[5, 6, 7, 8]])
            hyps = beam_search(params, R2L, src, beam_size=5, max_len=6)
            top = hyps[0]
            rescored = score_sequence(
                params, R2L, src, canonical_tokens(top), finished=top.finished
            )
            assert abs(rescored - top.score) < 1e-9

    def test_l2r_rescore_matches_too(self):
        params = tiny_params(30)
        src = np.array([[6, 7]])
        top = beam_search(params, L2R, src, beam_size=3, max_len=6)[0]
        rescored = score_sequence(
            params, L2R, src, canonical_tokens(top), finished=top.finished
        )
        assert abs(rescored - top.score) < 1e-9

    def test_hypothesis_log_prob_differentiable(self):
        params = tiny_params(31)
        src = np.array([[5, 6]])
        hyp = Hypothesis((7, 8, EOS_ID), 0.0, L2R, True)
        lp = hypothesis_log_prob(params, src, [hyp])
        from eqgen.numerics import backward

        backward(lp)
        g = params["dec_l2r.0.attn.wq"].grad
        assert g is not None and np.abs(g).max() > 0
