import itertools
import math
from collections import Counter

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
import per_direction
from per_direction import reference_decode_batch


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


def spy_decoder_calls(monkeypatch):
    """(directions, memory batch) of every cached decoder call, of the
    lockstep search and of the per-direction reference alike."""
    calls = []
    real = decoding.decoder_forward

    def spy(params, direction, tgt_ids, memory, *args, **kwargs):
        calls.append((direction, memory.shape[0]))
        return real(params, direction, tgt_ids, memory, *args, **kwargs)

    monkeypatch.setattr(decoding, "decoder_forward", spy)
    monkeypatch.setattr(per_direction, "decoder_forward", spy)
    return calls


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
        seen = spy_decoder_calls(monkeypatch)
        shrank = forced = finished_early = 0
        for seed in range(70, 78):
            for overrides in ({}, dict(layers=2, model_dim=16, heads=4, ff_dim=16,
                                       share_target_embedding=False)):
                params = tiny_params(seed, **overrides)
                for beam in (1, 4, 10):
                    seen.clear()
                    forced += self.check(params, self.SRCS, beam, max_len=8)
                    # every call is a lockstep call over both directions' memories
                    assert {direction for direction, _ in seen} == {(L2R, R2L)}
                    batches = [batch // 2 for _, batch in seen]
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

    def test_candidate_cap_of_a_padded_problem(self, monkeypatch):
        """Problem A (source [5]) has 12 live rows after step 2, sends 10 of
        them to the end sentinel at step 3 and keeps 2: 2 · 5 = 10 candidates
        for a beam of 12. Problem B (source [6]) keeps 12 rows, so A is padded
        to 12 rows, and only the cap ``min(beam, live · V)`` keeps the -inf
        candidates of A's padding rows out of its top-k. Random models never
        get here, so a stub decoder picks the logits by problem, step and last
        token; a batch of one is never padded and is the reference."""
        vocab, beam, low = 5, 12, -100.0
        widths = []

        def logits_row(problem, step, last):
            row = np.zeros(vocab)
            if step == 0:
                return row  # all five tokens are taken, one end sentinel finishes
            if problem == 6 or step >= 3:
                row[EOS_ID] = low
            elif step == 1:  # twelve live rows, two of them ending in token 4
                row[EOS_ID] = low
                row[4] = 1.0 if last in (0, 1) else low
            elif last == 4:  # step 2: these two rows go on
                row[EOS_ID] = low
            else:  # ... and the other ten finish
                row[:] = low
                row[EOS_ID] = 0.0
            return row

        def stub(params, direction, dec_in, memory, src_pad, cache):
            # memory holds one copy of the batch's memories per direction
            step, cache.length = cache.length, cache.length + 1
            width = dec_in.shape[0] // memory.shape[0]
            widths.append((direction, step, memory.shape[0] // len(direction), width))
            rows = [logits_row(int(memory.data[r // width, 0, 0]), step, int(dec_in[r, -1]))
                    for r in range(dec_in.shape[0])]
            return Tensor(np.array(rows)[:, None, :])

        monkeypatch.setattr(decoding, "encode", lambda params, src: Tensor(src[:, :, None]))
        monkeypatch.setattr(decoding, "decoder_forward", stub)
        params = tiny_params(0, vocab_tgt=vocab)  # the stub ignores its weights
        alone_a = decode_batch(params, [[5]], beam, 5)
        assert ((L2R, R2L), 3, 1, 2) in widths  # A alone: 2 live rows at step 3
        widths.clear()
        both = decode_batch(params, [[5], [6]], beam, 5)
        assert ((L2R, R2L), 3, 2, 12) in widths  # next to B: padded to 12 rows
        assert both == alone_a + decode_batch(params, [[6]], beam, 5)
        assert [len(hyps) for hyps in both[0]] == [beam, beam]

    def test_search_stops_at_max_positions(self):
        # an end sentinel that is never picked runs every hypothesis into max_positions before max_len
        params = tiny_params(82, max_positions=8)
        for stack in ("out_l2r", "out_r2l"):
            params[f"{stack}.b"].data[EOS_ID] = -50.0
        (l2r, r2l), = decode_batch(params, [[5, 6], [7, 8, 5]], 3, 20)[:1]
        for hyps in (l2r, r2l):
            assert len(hyps) == 3 and all(len(h.tokens) == 8 and not h.finished for h in hyps)
            for h in hyps:  # a hypothesis as long as max_positions still scores
                assert abs(hypothesis_log_prob(params, np.array([5, 6]), [h]).item() - h.score) < 1e-9

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


class TestLockstepMatchesPerDirection:
    """The lockstep search of both directions against one search per
    direction (``tests/per_direction.py``): the same hypotheses in the same
    order, the same flags, scores to 1e-9."""

    # mixed lengths and padding; the last two problems are one-token sources
    SRCS = [[5, 6, 7], [8], [5, 6, 7, 8, PAD_ID], [6, 8], [7, 5, 6, 8, 8], [6], [7]]

    def assert_same(self, got, want):
        assert [(h.tokens, h.finished, h.direction) for h in got] == [
            (h.tokens, h.finished, h.direction) for h in want
        ]
        assert all(abs(g.score - w.score) <= 1e-9 for g, w in zip(got, want))

    @pytest.mark.parametrize("overrides", [
        {},
        dict(layers=2, model_dim=16, heads=4, ff_dim=16, share_target_embedding=False),
        dict(dtype="float32"),
        dict(layers=2, model_dim=16, heads=4, ff_dim=16, share_target_embedding=False, dtype="float32"),
    ])
    def test_batches_and_single_problems(self, overrides, monkeypatch):
        calls = spy_decoder_calls(monkeypatch)
        apart = 0  # problems whose two directions stop 3 or more steps apart
        for seed in range(90, 93):
            params = tiny_params(seed, **overrides)
            for beam in (1, 3, 10):
                got = decode_batch(params, self.SRCS, beam, 8)
                want = reference_decode_batch(params, self.SRCS, beam, 8)
                assert len(got) == len(want) == len(self.SRCS)
                for pair, want_pair in zip(got, want):
                    for hyps, want_hyps in zip(pair, want_pair):
                        self.assert_same(hyps, want_hyps)
                for src in self.SRCS:
                    one = np.array([src])
                    want_pair = reference_decode_batch(params, [src], beam, 8)[0]
                    for got_pair in (decode_both(params, one, beam, 8), decode_batch(params, [src], beam, 8)[0]):
                        for hyps, want_hyps in zip(got_pair, want_pair):
                            self.assert_same(hyps, want_hyps)
                    steps = {}
                    for direction, want_hyps in zip((L2R, R2L), want_pair):
                        calls.clear()
                        self.assert_same(beam_search(params, direction, one, beam, 8), want_hyps)
                        assert {d for d, _ in calls} == {(direction,)}
                        steps[direction] = len(calls)
                    apart += abs(steps[L2R] - steps[R2L]) >= 3
        assert apart

    def test_one_decoder_call_per_step_for_both_directions(self, monkeypatch):
        """One cached call per step covers both directions' rows: a batch takes
        as many calls as the longer of its two per-direction searches."""
        calls = spy_decoder_calls(monkeypatch)
        uneven = 0
        for seed in range(70, 74):
            params = tiny_params(seed)
            for beam in (1, 4):
                calls.clear()
                reference_decode_batch(params, self.SRCS, beam, 8)
                per_direction_calls = Counter(direction for direction, _ in calls)
                calls.clear()
                decode_batch(params, self.SRCS, beam, 8)
                assert all(direction == (L2R, R2L) for direction, _ in calls)
                assert len(calls) == max(per_direction_calls[L2R], per_direction_calls[R2L])
                uneven += per_direction_calls[L2R] != per_direction_calls[R2L]
        assert uneven


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
