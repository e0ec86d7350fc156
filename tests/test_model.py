import math

import numpy as np
import pytest

import unfused
from eqgen import decoding
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
    """A cached pass fed positions a few at a time gives the logits of one
    uncached pass over the whole prefix."""

    def setup(self, **kw):
        params = init_params(tiny_config(layers=2, **kw), 7)
        src = np.array([[5, 6, 7, PAD_ID]])
        memory = encode(params, src)
        return params, memory, src == PAD_ID

    def test_chunked_feeding_matches_one_pass(self):
        params, memory, pad = self.setup()
        rng = np.random.default_rng(0)
        for direction in (L2R, R2L):
            seq = np.concatenate([[[BOS_ID if direction == L2R else BOSR_ID]],
                                  rng.integers(5, 11, size=(1, 7))], axis=1)
            full = decoder_forward(params, direction, seq, memory, pad).data
            # a prefill of k tokens then single steps, and uneven chunks
            for chunks in ((1,) * 8, (3,) + (1,) * 5, (2, 3, 1, 2)):
                cache = DecoderCache()
                parts, start = [], 0
                for n in chunks:
                    chunk = seq[:, start : start + n]
                    parts.append(decoder_forward(params, direction, chunk, memory, pad, cache=cache).data)
                    start += n
                assert cache.length == seq.shape[1]
                assert np.max(np.abs(np.concatenate(parts, axis=1) - full)) < 1e-12

    def test_reorder_follows_parent_rows(self):
        params, memory, pad = self.setup()
        prefixes = np.array([[BOS_ID, 5, 6], [BOS_ID, 7, 8], [BOS_ID, 9, 10]])
        cache = DecoderCache()  # all rows attend to the one batch-1 memory
        decoder_forward(params, L2R, prefixes, memory, pad, cache=cache)
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
        got = decoder_forward(params, L2R, prefixes, memory, pad, cache=cache).data
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
        cache = DecoderCache()
        parts = [decoder_forward(params, R2L, seq[:, :2], memory, pad, cache=cache).data]
        for t in range(2, seq.shape[1]):
            parts.append(decoder_forward(params, R2L, seq[:, t : t + 1], memory, pad, cache=cache).data)
        cached = np.concatenate(parts, axis=1)
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
        with pytest.raises(ConfigError):  # cached length counts toward max_positions
            cache = DecoderCache()
            decoder_forward(params, L2R, np.full((1, 16), 5), memory, pad, cache=cache)
            decoder_forward(params, L2R, np.array([[5]]), memory, pad, cache=cache)


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
    against the same passes with both ops rebuilt from small ops."""

    def compare(self, monkeypatch, params, build):
        fused = _loss_logits_grads(params, build)
        with monkeypatch.context() as m:
            m.setattr(M, "linear", unfused.linear)
            m.setattr(M, "attention", unfused.attention)
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


class TestOpCount:
    @pytest.mark.parametrize("rows", [1, 10])
    def test_cached_decoder_call_makes_at_most_45_ops(self, monkeypatch, rows):
        # the default config: 2 layers, width 64, 4 heads
        params = init_params(ModelConfig(vocab_src=13, vocab_tgt=11), 16)
        src = np.array([[5, 6, 7, 8]])
        memory = encode(params, src)
        cache = DecoderCache()
        decoder_forward(params, L2R, np.full((rows, 3), 5), memory, src == PAD_ID, cache=cache)
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
