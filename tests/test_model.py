import functools
import math

import numpy as np
import pytest

import padded
import unfused
from eqgen import decoding, training
from eqgen import model as M
from eqgen import numerics as nm
from eqgen.model import (
    BOS_ID,
    BOSR_ID,
    EOS_ID,
    PAD_ID,
    Batch,
    ConfigError,
    DecoderCache,
    L2R,
    ModelConfig,
    R2L,
    decoder_forward,
    encode,
    init_params,
    joint_loss,
    load_checkpoint,
    make_batch,
    param_specs,
    save_checkpoint,
)
from eqgen.numerics import Tensor, backward
from fdcheck import fd_grad, rel_err


def tiny_config(**kw):
    base = dict(
        vocab_src=13,
        vocab_tgt=11,
        embed_dim=6,
        model_dim=8,
        layers=1,
        heads=2,
        ff_dim=12,
        max_positions=16,
        dropout=0.0,
    )
    base.update(kw)
    return ModelConfig(**base)


def sinusoidal_pe(position: int, dim: int) -> np.ndarray:
    """Oracle for one row of the position table: entry 2i is
    sin(pos / 10000^(2i/dim)), entry 2i+1 the cos of the same angle."""
    out = np.empty(dim)
    for i in range(dim // 2):
        angle = position / 10000.0 ** (2 * i / dim)
        out[2 * i], out[2 * i + 1] = math.sin(angle), math.cos(angle)
    return out


class TestSinusoidalPe:
    def test_position_zero(self):
        assert np.allclose(sinusoidal_pe(0, 4), [0.0, 1.0, 0.0, 1.0])

    def test_position_one(self):
        want = [math.sin(1), math.cos(1), math.sin(0.01), math.cos(0.01)]
        assert np.allclose(sinusoidal_pe(1, 4), want, atol=1e-12)

    def test_range(self):
        for pos in (0, 1, 17, 999):
            assert np.max(np.abs(sinusoidal_pe(pos, 32))) <= 1.0

    def test_matches_table(self):
        table = M._pe_table(8, 10, "float64")
        for pos in range(8):
            assert np.allclose(table[pos], sinusoidal_pe(pos, 10))


class TestConfig:
    def test_heads_divide_dim(self):
        with pytest.raises(ConfigError):
            tiny_config(model_dim=10, heads=4)

    def test_layers_positive(self):
        with pytest.raises(ConfigError):
            tiny_config(layers=0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"heads": 0}, "heads must be at least 1, got 0"),
            ({"model_dim": -4, "heads": 2}, "model_dim must be at least 1, got -4"),
            ({"ff_dim": -1}, "ff_dim must be at least 1, got -1"),
            ({"embed_dim": 0}, "embed_dim must be at least 1, got 0"),
            ({"max_positions": 0}, "max_positions must be at least 1, got 0"),
            ({"dropout": 1.0}, "dropout must be in [0, 1), got 1.0"),
            ({"dropout": -0.5}, "dropout must be in [0, 1), got -0.5"),
            ({"model_dim": 9, "heads": 3}, "model_dim must be even for sinusoidal positions"),
        ],
    )
    def test_out_of_range_rejected(self, bad, message):
        with pytest.raises(ConfigError) as e:
            tiny_config(**bad)
        assert str(e.value) == message


class TestEncode:
    def test_deterministic_in_eval_mode(self):
        params = init_params(tiny_config(), 0)
        x = np.array([[5, 6, 7, PAD_ID]])
        m1 = encode(params, x)
        m2 = encode(params, x)
        assert np.array_equal(m1.data, m2.data)

    def test_pad_tail_does_not_leak(self):
        params = init_params(tiny_config(), 1)
        a = encode(params, np.array([[5, 6, 7, PAD_ID, PAD_ID]]))
        b = encode(params, np.array([[5, 6, 7, PAD_ID, PAD_ID]]))
        # swapping which ids sit in the pad slots must not matter once masked;
        # pads always carry PAD_ID, so instead vary the tail length
        c = encode(params, np.array([[5, 6, 7, PAD_ID]]))
        assert np.max(np.abs(a.data[:, :3] - b.data[:, :3])) == 0.0
        assert np.max(np.abs(a.data[:, :3] - c.data[:, :3])) < 1e-9

    def test_single_token_shape(self):
        params = init_params(tiny_config(), 2)
        out = encode(params, np.array([[5]]))
        assert out.shape == (1, 1, 8)

    def test_empty_source_rejected(self):
        params = init_params(tiny_config(), 0)
        with pytest.raises(ConfigError):
            encode(params, np.zeros((1, 0), dtype=np.int64))

    def test_out_of_vocab_source_id(self):
        params = init_params(tiny_config(), 0)
        with pytest.raises(IndexError):
            encode(params, np.array([[13]]))


def copy_l2r_into_r2l(params):
    for name, t in params.named():
        if name.startswith("dec_l2r") or name == "out_l2r.w" or name == "out_l2r.b":
            other = name.replace("l2r", "r2l")
            params[other].data[:] = t.data


class TestDecoderForward:
    def test_r2l_equals_l2r_pass_over_reversed_input(self):
        params = init_params(tiny_config(), 3)
        copy_l2r_into_r2l(params)
        # make the two begin sentinels carry the same embedding
        params["tgt_embed"].data[BOSR_ID] = params["tgt_embed"].data[BOS_ID]
        src = np.array([[5, 6, 7]])
        memory = encode(params, src)
        y = [6, 9, 5, 10]
        r2l_in = np.array([[BOSR_ID] + y[::-1]])
        l2r_over_reversed = np.array([[BOS_ID] + y[::-1]])
        out_r = decoder_forward(params, R2L, r2l_in, memory, src == PAD_ID)
        out_l = decoder_forward(params, L2R, l2r_over_reversed, memory, src == PAD_ID)
        # the r2l direction is literally an l2r-style pass over the reversed
        # sequence through its own stack, so with copied weights the logits
        # coincide at every position, and so do the losses
        assert np.max(np.abs(out_l.data - out_r.data)) < 1e-9
        from eqgen.numerics import cross_entropy

        targets = np.array([y[::-1] + [EOS_ID]])
        ce_r = cross_entropy(out_r, targets, ignore_index=PAD_ID).item()
        ce_l = cross_entropy(out_l, targets, ignore_index=PAD_ID).item()
        assert abs(ce_l - ce_r) < 1e-9

    def test_causal_masking(self):
        params = init_params(tiny_config(), 4)
        src = np.array([[5, 6]])
        memory = encode(params, src)
        base = np.array([[BOS_ID, 5, 6, 7, 8]])
        out1 = decoder_forward(params, L2R, base, memory, src == PAD_ID)
        changed = base.copy()
        changed[0, 4] = 9  # future token for positions < 4
        out2 = decoder_forward(params, L2R, changed, memory, src == PAD_ID)
        assert np.max(np.abs(out1.data[0, :4] - out2.data[0, :4])) < 1e-9
        for direction in (L2R, R2L):
            o1 = decoder_forward(params, direction, base, memory, src == PAD_ID)
            o2 = decoder_forward(params, direction, changed, memory, src == PAD_ID)
            assert np.max(np.abs(o1.data[0, :4] - o2.data[0, :4])) < 1e-9

    def test_empty_memory_rejected(self):
        params = init_params(tiny_config(), 0)
        empty = Tensor(np.zeros((1, 0, 8)))
        with pytest.raises(ConfigError):
            decoder_forward(params, L2R, np.array([[BOS_ID]]), empty, None)

    def test_prefix_longer_than_max_positions(self):
        params = init_params(tiny_config(max_positions=4), 0)
        src = np.array([[5, 6]])
        memory = encode(params, src)
        too_long = np.full((1, 5), 5, dtype=np.int64)
        with pytest.raises(ConfigError):
            decoder_forward(params, L2R, too_long, memory, src == PAD_ID)

    def test_unknown_direction(self):
        params = init_params(tiny_config(), 0)
        memory = encode(params, np.array([[5]]))
        with pytest.raises(ConfigError):
            decoder_forward(params, "up", np.array([[BOS_ID]]), memory, None)


class TestDecoderCache:
    """A cached pass fed one position at a time gives the logits of one
    uncached pass over the whole prefix."""

    def setup(self, **kw):
        params = init_params(tiny_config(layers=2, **kw), 7)
        src = np.array([[5, 6, 7, PAD_ID]])
        memory = encode(params, src)
        return params, memory, src == PAD_ID

    @staticmethod
    def feed(params, direction, seq, memory, pad, cache):
        """The logits of feeding the columns of ``seq`` one step at a time."""
        return np.concatenate([decoder_forward(params, direction, seq[:, t : t + 1], memory, pad, cache=cache).data
                               for t in range(seq.shape[1])], axis=1)

    def test_stepwise_feeding_matches_one_pass(self):
        params, memory, pad = self.setup()
        rng = np.random.default_rng(0)
        for direction in (L2R, R2L):
            seq = np.concatenate([[[BOS_ID if direction == L2R else BOSR_ID]],
                                  rng.integers(5, 11, size=(1, 7))], axis=1)
            full = decoder_forward(params, direction, seq, memory, pad).data
            cache = DecoderCache()
            got = self.feed(params, direction, seq, memory, pad, cache)
            assert cache.length == seq.shape[1]
            assert np.max(np.abs(got - full)) < 1e-12

    def test_reorder_follows_parent_rows(self):
        params, memory, pad = self.setup()
        prefixes = np.array([[BOS_ID, 5, 6], [BOS_ID, 7, 8], [BOS_ID, 9, 10]])
        cache = DecoderCache()  # all rows attend to the one batch-1 memory
        self.feed(params, L2R, prefixes, memory, pad, cache)
        parents = [2, 0, 2, 1]
        cache.reorder(parents)
        step = np.array([[5], [6], [7], [8]])
        got = decoder_forward(params, L2R, step, memory, pad, cache=cache).data[:, -1]
        full_in = np.concatenate([prefixes[parents], step], axis=1)
        mem4 = Tensor(np.broadcast_to(memory.data, (4,) + memory.shape[1:]))
        want = decoder_forward(params, L2R, full_in, mem4, np.broadcast_to(pad, (4, 4))).data[:, -1]
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rows_follow_their_problem_memory(self):
        params = init_params(tiny_config(layers=2), 7)
        src = np.array([[5, 6, 7, PAD_ID], [8, 9, PAD_ID, PAD_ID]])
        memory, pad = encode(params, src), src == PAD_ID
        prefixes = np.array([[BOS_ID, 5], [BOS_ID, 6], [BOS_ID, 7], [BOS_ID, 8]])  # two rows per problem
        cache = DecoderCache()
        got = self.feed(params, L2R, prefixes, memory, pad, cache)
        for b in range(2):
            one = encode(params, src[b : b + 1, : 3 - b])  # the problem alone, unpadded
            want = decoder_forward(params, L2R, prefixes[2 * b : 2 * b + 2], one, None).data
            assert np.max(np.abs(got[2 * b : 2 * b + 2] - want)) < 1e-12
        # problem 0 leaves the batch; problem 1 keeps three rows
        cache.reorder([2, 3, 3], [1])
        step = np.array([[5], [6], [7]])
        got = decoder_forward(params, L2R, step, Tensor(memory.data[1:]), pad[1:], cache=cache).data[:, -1]
        full_in = np.concatenate([prefixes[[2, 3, 3]], step], axis=1)
        want = decoder_forward(params, L2R, full_in, Tensor(memory.data[1:]), pad[1:]).data[:, -1]
        assert np.max(np.abs(got - want)) < 1e-12

    def test_float32_within_1e5(self):
        params, memory, pad = self.setup(dtype="float32", share_target_embedding=False)
        assert memory.dtype == np.float32
        seq = np.array([[BOS_ID, 5, 9, 6, 10, 7]])
        full = decoder_forward(params, R2L, seq, memory, pad).data
        cached = self.feed(params, R2L, seq, memory, pad, DecoderCache())
        assert cached.dtype == np.float32 and full.dtype == np.float32
        assert np.max(np.abs(cached - full)) < 1e-5

    def test_cache_records_no_graph(self):
        params, memory, pad = self.setup()
        out = decoder_forward(params, L2R, np.array([[BOS_ID]]), memory, pad, cache=DecoderCache())
        assert not out.requires_grad

    def test_contract_violations(self):
        params, memory, pad = self.setup()
        with pytest.raises(ConfigError):
            decoder_forward(params, L2R, np.array([[BOS_ID]]), memory, pad, train=True,
                            rng=np.random.default_rng(0), cache=DecoderCache())
        two = Tensor(np.concatenate([memory.data, memory.data]))
        with pytest.raises(ConfigError):  # 3 rows cannot split evenly over 2 memories
            decoder_forward(params, L2R, np.array([[BOS_ID], [BOS_ID], [BOS_ID]]), two,
                            np.concatenate([pad, pad]), cache=DecoderCache())
        with pytest.raises(ConfigError):  # a cache projected from 2 memories, fed 1
            cache = DecoderCache()
            decoder_forward(params, L2R, np.array([[BOS_ID], [BOS_ID]]), two,
                            np.concatenate([pad, pad]), cache=cache)
            decoder_forward(params, L2R, np.array([[5], [5]]), memory, pad, cache=cache)
        with pytest.raises(ConfigError):  # padding of another batch than the memory
            decoder_forward(params, L2R, np.array([[BOS_ID]]), memory, np.concatenate([pad, pad]))
        cache = DecoderCache()
        self.feed(params, L2R, np.full((1, 16), 5), memory, pad, cache)
        with pytest.raises(ConfigError):  # cached length counts toward max_positions
            decoder_forward(params, L2R, np.array([[5]]), memory, pad, cache=cache)
        for n in (2, 3):  # a cached pass feeds one position per row
            with pytest.raises(ConfigError, match="one new position"):
                decoder_forward(params, L2R, np.full((1, n), BOS_ID), memory, pad, cache=DecoderCache())

    @pytest.mark.parametrize("memories, rows", [(2, 3), (2, 4), (3, 2)])
    def test_uncached_memory_batch_is_one_or_the_row_count(self, memories, rows):
        params, memory, pad = self.setup()
        many = Tensor(np.concatenate([memory.data] * memories))
        with pytest.raises(ConfigError, match="one memory or one per row"):
            decoder_forward(params, L2R, np.full((rows, 2), 5), many, np.concatenate([pad] * memories))


class TestLockstepDirections:
    """A cached call over the tuple (L2R, R2L), on memories tiled per
    direction, gives each direction's rows the logits of its own call."""

    @pytest.mark.parametrize("share", [True, False])
    def test_matches_one_call_per_direction(self, share):
        params = init_params(tiny_config(layers=2, share_target_embedding=share), 8)
        src = np.array([[5, 6, 7, PAD_ID], [8, 9, PAD_ID, PAD_ID]])
        memory, pad = encode(params, src), src == PAD_ID
        tiled, tiled_pad = Tensor(np.concatenate([memory.data] * 2)), np.concatenate([pad] * 2)
        rng = np.random.default_rng(1)
        # two rows per problem and direction, one position per step; the last step reorders the rows
        feeds = rng.integers(5, 11, size=(5, 8, 1))
        feeds[0, :4], feeds[0, 4:] = BOS_ID, BOSR_ID
        parents = [1, 1, 2, 3, 4, 4, 7, 6]
        lockstep, alone = DecoderCache(), {L2R: DecoderCache(), R2L: DecoderCache()}
        for i, feed in enumerate(feeds):
            if i == 4:
                lockstep.reorder(parents)
                alone[L2R].reorder(parents[:4])
                alone[R2L].reorder([p - 4 for p in parents[4:]])
            got = decoder_forward(params, (L2R, R2L), feed, tiled, tiled_pad, cache=lockstep).data
            for half, direction in enumerate((L2R, R2L)):
                rows = slice(4 * half, 4 * half + 4)
                want = decoder_forward(params, direction, feed[rows], memory, pad, cache=alone[direction]).data
                assert np.max(np.abs(got[rows] - want)) < 1e-12

    def test_contract_violations(self):
        params = init_params(tiny_config(), 9)
        src = np.array([[5, 6]])
        memory, pad = encode(params, src), src == PAD_ID
        two, two_pad = Tensor(np.concatenate([memory.data] * 2)), np.concatenate([pad] * 2)
        bos = np.array([[BOS_ID], [BOSR_ID]])
        with pytest.raises(ConfigError):  # lockstep decoding needs a cache
            decoder_forward(params, (L2R, R2L), bos, two, two_pad)
        with pytest.raises(ConfigError):  # a direction twice
            decoder_forward(params, (L2R, L2R), bos, two, two_pad, cache=DecoderCache())
        with pytest.raises(ConfigError):  # one memory cannot split over two directions
            decoder_forward(params, (L2R, R2L), bos, memory, pad, cache=DecoderCache())
        with pytest.raises(ConfigError):  # a cache holds the weights of its first directions
            cache = DecoderCache()
            decoder_forward(params, (L2R, R2L), bos, two, two_pad, cache=cache)
            decoder_forward(params, (R2L, L2R), np.array([[5], [5]]), two, two_pad, cache=cache)


class TestDecoderPairs:
    """Each L2R decoder tensor and its R2L twin are slices of one buffer,
    which the lockstep decode reads as the stacked weight without a copy."""

    def stacked(self, params):
        return M._decoder_weights(params, (L2R, R2L))

    @pytest.mark.parametrize("share", [True, False])
    def test_init_copy_and_load_keep_the_pairs(self, tmp_path, share):
        params = init_params(tiny_config(share_target_embedding=share), 14)
        save_checkpoint(tmp_path / "m.npz", params, [], [])
        for p in (params, params.copy(), load_checkpoint(tmp_path / "m.npz")[0]):
            weights = self.stacked(p)
            for key, name in M._decoder_names(p.config, L2R):
                twin = name.replace(L2R, R2L, 1)
                assert np.array_equal(weights[key].data, np.stack([p[name].data, p[twin].data]))
                assert np.shares_memory(weights[key].data, p[name].data)
                assert np.shares_memory(weights[key].data, p[twin].data)
            tables = [p["tgt_embed"].data] * 2 if share else [p["tgt_embed_l2r"].data, p["tgt_embed_r2l"].data]
            assert np.array_equal(weights["embed"].data, np.concatenate(tables))
            assert share or np.shares_memory(weights["embed"].data, tables[1])
            assert weights["embed"].shape == (2 * p.config.vocab_tgt, p.config.model_dim)

    def test_in_place_updates_show_and_rebound_tensors_are_stacked_afresh(self):
        params = init_params(tiny_config(), 15)
        params["dec_l2r.0.ff.w1"].data -= 1.0  # in place, as Adam updates
        fresh = Tensor(params["dec_r2l.0.ff.w2"].data + 1.0)
        params.tensors["dec_r2l.0.ff.w2"] = fresh  # a new tensor, no longer a slice of the pair
        weights = self.stacked(params)
        assert np.shares_memory(weights["dec.0.ff.w1"].data, params["dec_l2r.0.ff.w1"].data)
        assert np.array_equal(weights["dec.0.ff.w1"].data[0], params["dec_l2r.0.ff.w1"].data)
        assert not np.shares_memory(weights["dec.0.ff.w2"].data, fresh.data)
        assert np.array_equal(weights["dec.0.ff.w2"].data,
                              np.stack([params["dec_l2r.0.ff.w2"].data, fresh.data]))


class TestJointLoss:
    def batch(self):
        return make_batch([[5, 6, 7], [8, 9]], [[6, 7], [5, 10, 9]])

    def test_make_batch_layout(self):
        b = self.batch()
        assert b.tgt_l2r[0].tolist() == [BOS_ID, 6, 7, EOS_ID, PAD_ID]
        assert b.tgt_r2l[1].tolist() == [BOSR_ID, 9, 10, 5, EOS_ID]
        assert b.src[1].tolist() == [8, 9, PAD_ID]

    def test_additivity_exact(self):
        params = init_params(tiny_config(), 5)
        parts = joint_loss(params, self.batch())
        assert parts.total.item() == parts.l2r.item() + parts.r2l.item()

    def test_uniform_when_projections_zeroed(self):
        params = init_params(tiny_config(), 6)
        for name in ("out_l2r.w", "out_l2r.b", "out_r2l.w", "out_r2l.b"):
            params[name].data[:] = 0.0
        parts = joint_loss(params, self.batch())
        n = parts.tokens_l2r + parts.tokens_r2l
        assert parts.tokens_l2r == parts.tokens_r2l == 7
        assert abs(parts.total.item() - n * math.log(11)) < 1e-9

    def test_palindrome_with_copied_weights(self):
        params = init_params(tiny_config(), 7)
        copy_l2r_into_r2l(params)
        params["tgt_embed"].data[BOSR_ID] = params["tgt_embed"].data[BOS_ID]
        y = [6, 9, 6]  # palindrome
        batch = make_batch([[5, 6, 7]], [y])
        parts = joint_loss(params, batch)
        assert abs(parts.l2r.item() - parts.r2l.item()) < 1e-9

    def test_encoder_receives_gradient_from_both_decoders(self):
        params = init_params(tiny_config(), 8)
        batch = self.batch()
        for which in ("l2r", "r2l"):
            params.zero_grad()
            parts = joint_loss(params, batch)
            backward(getattr(parts, which))
            g = params["enc.0.attn.wq"].grad
            assert g is not None and np.abs(g).max() > 0.0

    def test_dropout_needs_rng(self):
        params = init_params(tiny_config(dropout=0.1), 9)
        with pytest.raises(ValueError):
            joint_loss(params, self.batch(), train=True, rng=None)

    def test_train_mode_deterministic_given_rng_seed(self):
        params = init_params(tiny_config(dropout=0.1), 10)
        batch = self.batch()
        a = joint_loss(params, batch, train=True, rng=np.random.default_rng(1)).total.item()
        b = joint_loss(params, batch, train=True, rng=np.random.default_rng(1)).total.item()
        assert a == b


class TestComposedGradients:
    def test_full_one_layer_model_vs_finite_differences(self):
        params = init_params(tiny_config(), 11)
        batch = make_batch([[5, 6, 7, 8]], [[6, 7, 5]])
        params.zero_grad()
        backward(joint_loss(params, batch).total)
        rng = np.random.default_rng(0)
        worst = 0.0
        for name, tensor in params.named():
            if tensor.grad is None:
                continue
            flat = tensor.data.reshape(-1)
            gflat = tensor.grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                up = joint_loss(params, batch).total.item()
                flat[idx] = orig - 1e-5
                dn = joint_loss(params, batch).total.item()
                flat[idx] = orig
                fd = (up - dn) / 2e-5
                worst = max(worst, abs(gflat[idx] - fd) / max(1.0, abs(fd)))
        assert worst < 1e-4


def _loss_logits_grads(params, build):
    """The loss ``build`` returns with the logits it recorded, and a copy of
    every parameter gradient after one backward pass."""
    params.zero_grad()
    loss, logits = build()
    backward(loss)
    return loss.item(), logits, {name: t.grad.copy() for name, t in params.named() if t.grad is not None}


class TestFusedOpsMatchUnfusedGraph:
    """Whole passes through ``numerics.linear`` / ``numerics.attention``
    against the same passes with both ops rebuilt from small ops, the
    attention on the padded grid."""

    def compare(self, monkeypatch, params, build):
        fused = _loss_logits_grads(params, build)
        with monkeypatch.context() as m:
            m.setattr(M, "linear", unfused.linear)
            m.setattr(M, "attention", functools.partial(padded.grid_attention, core=unfused.attention))
            ref = _loss_logits_grads(params, build)
        assert abs(fused[0] - ref[0]) < 1e-12
        assert len(fused[1]) == len(ref[1]) > 0
        for a, b in zip(fused[1], ref[1]):
            assert np.max(np.abs(a - b)) < 1e-12
        assert fused[2].keys() == ref[2].keys()
        for name, g in fused[2].items():
            assert np.max(np.abs(g - ref[2][name])) < 1e-12, name

    def recording(self, monkeypatch):
        """Patch decoder_forward to keep every logits array it returns."""
        logits, real = [], M.decoder_forward

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            logits.append(out.data)
            return out

        monkeypatch.setattr(M, "decoder_forward", spy)
        monkeypatch.setattr(decoding, "decoder_forward", spy)
        return logits

    def test_joint_loss_in_training_mode(self, monkeypatch):
        params = init_params(tiny_config(layers=2, dropout=0.1), 14)
        batch = make_batch([[5, 6, 7, 8], [9, 10], [11, 5, 6]], [[6, 7, 5], [8], [9, 10, 6, 7]])
        logits = self.recording(monkeypatch)

        def build():
            logits.clear()
            parts = joint_loss(params, batch, train=True, rng=np.random.default_rng(3))
            return parts.total, list(logits)

        self.compare(monkeypatch, params, build)

    def test_batched_hypothesis_log_prob(self, monkeypatch):
        # three rows over one batch-1 memory: the folded attention path
        params = init_params(tiny_config(layers=2), 15)
        src = np.array([5, 6, 7, PAD_ID])
        hyps = [decoding.Hypothesis((6, 7, EOS_ID), -1.0, R2L, True),
                decoding.Hypothesis((8, 9, 10, 6, EOS_ID), -2.0, R2L, True),
                decoding.Hypothesis((PAD_ID, 7), -3.0, R2L, False)]
        logits = self.recording(monkeypatch)

        def build():
            logits.clear()
            lp = decoding.hypothesis_log_prob(params, src, hyps, weights=[0.5, -1.0, 2.0])
            return lp, list(logits)

        self.compare(monkeypatch, params, build)


class TestPackedRowsMatchPaddedGrid:
    """The model's passes, whose position-wise layers see only real
    positions, against the padded passes of ``tests/padded.py``. Absolute
    tolerances: some gradients (the key biases) are zero up to rounding."""

    def run(self, monkeypatch, params, build, oracle):
        """Loss, per-call logits, gradients and the generator ``build``
        returns, with the padded passes swapped in when ``oracle``."""
        logits = []

        def recording(forward):
            def spy(*args, **kwargs):
                out = forward(*args, **kwargs)
                logits.append((out.data, kwargs.get("lengths")))
                return out
            return spy

        with monkeypatch.context() as m:
            enc = padded.encode if oracle else M.encode
            dec = recording(padded.decoder_forward if oracle else M.decoder_forward)
            for module in (M, decoding):
                m.setattr(module, "encode", enc)
                m.setattr(module, "decoder_forward", dec)
            params.zero_grad()
            loss, rng = build()
            backward(loss)
        grads = {name: t.grad.copy() for name, t in params.named() if t.grad is not None}
        return loss.item(), logits, grads, rng

    def compare(self, monkeypatch, params, build, tol=1e-12):
        packed = self.run(monkeypatch, params, build, oracle=False)
        ref = self.run(monkeypatch, params, build, oracle=True)
        assert abs(packed[0] - ref[0]) <= tol
        assert len(packed[1]) == len(ref[1]) > 0
        for (got, lengths), (want, _) in zip(packed[1], ref[1]):
            assert lengths is not None and got.shape == want.shape
            assert np.max(np.abs(padded.real_positions(got, lengths) - padded.real_positions(want, lengths))) <= tol
            for row, n in enumerate(lengths):
                assert not got[row, n:].any()  # positions past a row's length read 0
        assert packed[2].keys() == ref[2].keys()
        for name, g in packed[2].items():
            assert np.max(np.abs(g - ref[2][name])) <= tol, name
        if ref[3] is not None:
            assert packed[3].bit_generator.state == ref[3].bit_generator.state
        return packed

    def joint(self, params, batch, train):
        def build():
            rng = np.random.default_rng(4) if train else None
            return joint_loss(params, batch, train=train, rng=rng).total, rng
        return build

    @pytest.mark.parametrize("train", [False, True])
    def test_joint_loss(self, monkeypatch, train):
        params = init_params(tiny_config(layers=2, dropout=0.2), 20)
        batch = make_batch([[5, 6, 7, 8, 9], [10, 11], [12, 5, 6]], [[6, 7], [8, 9, 10, 5, 6], [7]])
        self.compare(monkeypatch, params, self.joint(params, batch, train))

    def test_one_token_source_next_to_a_long_one(self, monkeypatch):
        params = init_params(tiny_config(layers=2, dropout=0.1, share_target_embedding=False), 21)
        batch = make_batch([[5], [6, 7, 8, 9, 10, 11, 12, 5, 6]], [[6, 7, 8, 9], [10]])
        self.compare(monkeypatch, params, self.joint(params, batch, True))

    def test_hypothesis_log_prob_with_pad_id_inside(self, monkeypatch):
        params = init_params(tiny_config(layers=2), 22)
        src = np.array([5, 6, 7])
        hyps = [decoding.Hypothesis((6, PAD_ID, 7, EOS_ID), -1.0, L2R, True),
                decoding.Hypothesis((PAD_ID,), -2.0, L2R, False),
                decoding.Hypothesis((8, 9, PAD_ID, 10, 6, EOS_ID), -3.0, L2R, True)]

        def build():
            return decoding.hypothesis_log_prob(params, src, hyps, weights=[0.5, -1.0, 2.0]), None

        self.compare(monkeypatch, params, build)

    def test_float32_within_1e5(self, monkeypatch):
        params = init_params(tiny_config(layers=2, dropout=0.1, dtype="float32"), 23)
        batch = make_batch([[5, 6, 7, 8, 9, 10], [11, 12]], [[6], [7, 8, 9, 10, 5]])
        packed = self.compare(monkeypatch, params, self.joint(params, batch, True), tol=1e-5)
        assert all(g.dtype == np.float32 for g in packed[2].values())

    def test_unpadded_input_makes_no_gather_or_scatter(self, monkeypatch):
        calls = []
        for name in ("gather_rows", "scatter_rows"):
            real = getattr(M, name)
            monkeypatch.setattr(M, name, lambda *a, real=real: calls.append(1) or real(*a))
        params = init_params(tiny_config(), 24)
        joint_loss(params, make_batch([[5, 6], [7, 8]], [[6, 7], [8, 9]]))
        memory = encode(params, np.array([[5, 6, 7]]))
        decoder_forward(params, L2R, np.full((3, 1), 6), memory, np.zeros((1, 3), bool), cache=DecoderCache())
        assert calls == []
        joint_loss(params, make_batch([[5, 6], [7]], [[6, 7], [8, 9]]))
        assert calls

    def test_bad_lengths_rejected(self):
        params = init_params(tiny_config(), 25)
        memory = encode(params, np.array([[5, 6], [7, 8]]))
        tgt = np.full((2, 3), 6)
        for lengths in ([3], [0, 2], [2, 4], [[1, 2]]):
            with pytest.raises(ConfigError):
                decoder_forward(params, L2R, tgt, memory, lengths=lengths)
        with pytest.raises(ConfigError):  # the cache feeds no padding
            decoder_forward(params, L2R, tgt, memory, cache=DecoderCache(), lengths=[3, 3])

    def test_all_padding_source_row_rejected(self):
        params = init_params(tiny_config(), 26)
        with pytest.raises(ConfigError, match="non-empty"):
            encode(params, np.array([[5, 6], [PAD_ID, PAD_ID]]))


class TestLinearSeesOnlyRealRows:
    def test_joint_loss_on_a_padded_batch(self, monkeypatch):
        # 6 real source positions of 2 x 5, and 2 + 6 real target positions of 2 x 6 per direction
        batch = make_batch([[5, 6, 7, 8, 9], [10]], [[6], [7, 8, 9, 10, 5]])
        n_src, n_tgt = int((batch.src != PAD_ID).sum()), int((batch.tgt_l2r[:, 1:] != PAD_ID).sum())
        assert (n_src, n_tgt) == (6, 8)
        rows, real = [], M.linear
        monkeypatch.setattr(M, "linear", lambda x, w, b: rows.append(x.data.size // x.shape[-1]) or real(x, w, b))
        params = init_params(tiny_config(layers=2), 27)
        joint_loss(params, batch, train=True, rng=np.random.default_rng(0))
        layers = 2
        # the encoder's input projection and 6 per layer, each decoder's cross-attention keys and values
        assert rows.count(n_src) == 1 + 6 * layers + 2 * 2 * layers
        # per decoder: 8 per layer and the output projection
        assert rows.count(n_tgt) == 2 * (8 * layers + 1)
        assert len(rows) == rows.count(n_src) + rows.count(n_tgt)

    def test_hypothesis_log_prob(self, monkeypatch):
        hyps = [decoding.Hypothesis((6, 7, EOS_ID), -1.0, L2R, True), decoding.Hypothesis((8,), -2.0, L2R, False)]
        rows, real = [], M.linear
        monkeypatch.setattr(M, "linear", lambda x, w, b: rows.append(x.data.size // x.shape[-1]) or real(x, w, b))
        params = init_params(tiny_config(), 28)
        memory = encode(params, np.array([[5, 6, 7, 8, 9]]))
        rows.clear()
        decoding.hypothesis_log_prob(params, np.array([5, 6, 7, 8, 9]), hyps, memory)
        # 4 real of 2 x 3 target positions: 8 per layer and the output projection
        assert sorted(set(rows)) == [4, 5] and rows.count(4) == 8 + 1


class TestGroupedAttentionMatchesGrid:
    """The model's attention over the real rows in length groups against
    the padded grid, ``padded.grid_attention`` swapped in for
    ``model.attention``: the model's previous attention path."""

    def run(self, monkeypatch, params, build, grid):
        """Loss, per-call logits, parameter gradients and the generator
        ``build`` returns, and how many groups each attention call had
        (0: no plan); on the padded grid when ``grid``."""
        logits, groups = [], []

        def spy(*args, **kwargs):
            out = forward(*args, **kwargs)
            logits.append(out.data)
            return out

        def attention(q, k, v, heads, mask=None, plan=None):
            groups.append(0 if plan is None else len(plan.groups))
            return (padded.grid_attention if grid else nm.attention)(q, k, v, heads, mask, plan)

        forward = M.decoder_forward
        with monkeypatch.context() as m:
            m.setattr(M, "attention", attention)
            for module in (M, decoding):
                m.setattr(module, "decoder_forward", spy)
            params.zero_grad()
            loss, rng = build()
            backward(loss)
        grads = {name: t.grad.copy() for name, t in params.named() if t.grad is not None}
        return loss.item(), logits, grads, rng, groups

    def compare(self, monkeypatch, params, build, tol=1e-12):
        got = self.run(monkeypatch, params, build, grid=False)
        want = self.run(monkeypatch, params, build, grid=True)
        assert abs(got[0] - want[0]) <= tol * max(1.0, abs(want[0]))
        assert len(got[1]) == len(want[1]) > 0
        for a, b in zip(got[1], want[1]):
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= tol
        assert got[2].keys() == want[2].keys() == {name for name, _ in params.named()}
        for name, g in got[2].items():
            assert np.max(np.abs(g - want[2][name])) <= tol, name
        if want[3] is not None:
            assert got[3].bit_generator.state == want[3].bit_generator.state
        assert got[4] == want[4]
        return got

    # five rows of mixed source and target lengths: every attention kind gets two groups
    SRC = [[5, 6, 7, 8, 9, 10, 11, 12], [6], [7, 8], [9, 10, 11, 12, 5, 6, 7], [8, 9, 10]]
    TGT = [[6, 7], [8, 9, 10, 5, 6, 7, 8], [7], [9, 10, 6], [5, 6, 7, 8, 9, 10]]

    def joint(self, params, batch, train=True):
        def build():
            rng = np.random.default_rng(5) if train else None
            return joint_loss(params, batch, train=train, rng=rng).total, rng
        return build

    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("train", [True, False])
    def test_joint_loss_float64(self, monkeypatch, share, train):
        params = init_params(tiny_config(layers=2, dropout=0.2, share_target_embedding=share), 40)
        got = self.compare(monkeypatch, params, self.joint(params, make_batch(self.SRC, self.TGT), train))
        # encoder, then per decoder and layer self- and cross-attention: each in two groups
        assert got[4] == [2] * 10

    def test_joint_loss_float32(self, monkeypatch):
        # float32 rounds differently on the smaller grids: observed worst 2e-7 (logits), 2e-6 (gradients)
        params = init_params(tiny_config(layers=2, dropout=0.2, dtype="float32"), 41)
        got = self.compare(monkeypatch, params, self.joint(params, make_batch(self.SRC, self.TGT)), tol=1e-5)
        assert all(g.dtype == np.float32 for g in got[2].values())

    def test_parameters_after_three_epochs(self, monkeypatch):
        batches = [make_batch(self.SRC[:3], self.TGT[:3]), make_batch(self.SRC[2:], self.TGT[2:])]

        def train(grid):
            params = init_params(tiny_config(layers=2, dropout=0.1), 42)
            opt, rng = training.Adam(params, 1e-2), np.random.default_rng(6)
            with monkeypatch.context() as m:
                if grid:
                    m.setattr(M, "attention", padded.grid_attention)
                for _ in range(3):
                    for batch in batches:
                        training.mle_step(params, opt, batch, rng)
            return params, rng

        (got, rng_got), (want, rng_want) = train(grid=False), train(grid=True)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        for name, t in got.named():
            assert np.max(np.abs(t.data - want[name].data)) < 1e-8, name

    def test_decode_batch_of_padded_problems(self, monkeypatch):
        params = init_params(tiny_config(layers=2, share_target_embedding=False), 43)
        got = decoding.decode_batch(params, self.SRC, beam_size=3, max_len=6)
        with monkeypatch.context() as m:
            m.setattr(M, "attention", padded.grid_attention)
            want = decoding.decode_batch(params, self.SRC, beam_size=3, max_len=6)
        for pair, ref_pair in zip(got, want, strict=True):
            for hyps, ref in zip(pair, ref_pair):
                assert [(h.tokens, h.direction, h.finished) for h in hyps] == \
                    [(h.tokens, h.direction, h.finished) for h in ref]
                assert max(abs(h.score - r.score) for h, r in zip(hyps, ref)) < 1e-9

    def test_lengths_without_source_padding(self):
        params = init_params(tiny_config(layers=2), 45)
        memory = encode(params, np.array([[5, 6, 7], [8, 9, 10]]))
        tgt = np.array([[6, 7, 8], [9, 10, 6]])
        got = decoder_forward(params, L2R, tgt, memory, lengths=[2, 3]).data
        want = decoder_forward(params, L2R, tgt, memory, np.zeros((2, 3), bool), lengths=[2, 3]).data
        assert np.array_equal(got, want) and not got[0, 2].any()

    def test_per_row_keys_plan_and_shared_key_sets_fold(self, monkeypatch):
        calls = []  # (query shape, key shape, plan) of every attention call
        monkeypatch.setattr(M, "attention", lambda *a: calls.append((a[0].shape, a[1].shape, a[5]))
                            or nm.attention(*a))
        params = init_params(tiny_config(layers=2), 44)
        # an unpadded batch: the encoder and both decoders' self- and cross-attention take one-group plans
        joint_loss(params, make_batch([[5, 6], [7, 8]], [[6, 7], [8, 9]]))
        assert len(calls) == 10 and all(plan is not None and len(plan.groups) == 1 for *_, plan in calls)
        # a one-problem encoder takes a plan; cached steps never do
        calls.clear()
        decoding.decode_both(params, np.array([5, 6, 7]), beam_size=3, max_len=4)
        assert len(calls) > 10 and [plan is None for *_, plan in calls] == [False] * 2 + [True] * (len(calls) - 2)
        # padded hypotheses over one memory: planned self-attention, and the one memory's
        # (1, 3, d) key set folded under the (5, d) real query rows
        calls.clear()
        hyps = [decoding.Hypothesis((6, 7, EOS_ID), -1.0, L2R, True), decoding.Hypothesis((8, 9), -2.0, L2R, False)]
        decoding.hypothesis_log_prob(params, np.array([5, 6, 7]), hyps)
        assert [plan is None for *_, plan in calls] == [False, False] + [False, True] * 2
        assert calls[3][:2] == calls[5][:2] == ((5, 8), (1, 3, 8))


class TestOpCount:
    @pytest.mark.parametrize("rows", [1, 10])
    def test_cached_decoder_call_makes_at_most_45_ops(self, monkeypatch, rows):
        # the default config: 2 layers, width 64, 4 heads
        params = init_params(ModelConfig(vocab_src=13, vocab_tgt=11), 16)
        src = np.array([[5, 6, 7, 8]])
        memory = encode(params, src)
        cache = DecoderCache()
        for _ in range(3):
            decoder_forward(params, L2R, np.full((rows, 1), 5), memory, src == PAD_ID, cache=cache)
        calls, real = [], nm._result

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(nm, "_result", counting)
        decoder_forward(params, L2R, np.full((rows, 1), 6), memory, src == PAD_ID, cache=cache)
        assert 0 < len(calls) <= 45


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        params = init_params(tiny_config(), 12)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, ["<pad>", "a"], ["<pad>", "+"])
        loaded, src_toks, tgt_toks = load_checkpoint(path)
        assert src_toks == ["<pad>", "a"] and tgt_toks == ["<pad>", "+"]
        assert loaded.config == params.config
        for name, t in params.named():
            assert np.array_equal(loaded[name].data, t.data)

    def test_shape_validation(self, tmp_path):
        params = init_params(tiny_config(), 13)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, [], [])
        import json

        import numpy as np2

        with np.load(path, allow_pickle=False) as z:
            payload = dict(z)
        meta = json.loads(str(payload["__meta__"]))
        meta["config"]["model_dim"] = 16
        meta["config"]["heads"] = 2
        payload["__meta__"] = np2.array(json.dumps(meta))
        np2.savez(path, **payload)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_every_spec_tensor_present(self):
        cfg = tiny_config()
        specs = param_specs(cfg)
        params = init_params(cfg, 0)
        assert set(specs) == {name for name, _ in params.named()}
        assert sum(t.data.size for _, t in params.named()) > 0
