import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from eqgen import corpus, decoding, training
from eqgen.corpus import Vocabulary, prepare_all, synth_gen
from eqgen.model import (
    BOS_ID,
    BOSR_ID,
    EOS_ID,
    L2R,
    PAD_ID,
    R2L,
    ModelConfig,
    ModelParams,
    as_batch,
    decoder_forward,
    encode,
    init_params,
    joint_loss,
    make_batch,
)
from eqgen.numerics import Tensor, backward, cross_entropy, neg
from eqgen.training import (
    Adam,
    RewardSample,
    RlStepResult,
    TrainSettings,
    TrainingDiverged,
    baseline,
    clip_grads,
    grad_norm,
    mle_step,
    policy_loss,
    reinforce_step,
    train,
)
from fdcheck import rel_err
import retained


def small_setup(n=12, seed=5, **cfg_kw):
    problems = synth_gen(seed, n, distractor_rate=0.0)
    insts, _ = prepare_all(problems)
    vocab = Vocabulary.build(insts)
    base = dict(
        vocab_src=vocab.src_size,
        vocab_tgt=vocab.tgt_size,
        embed_dim=8,
        model_dim=16,
        layers=1,
        heads=2,
        ff_dim=32,
        max_positions=64,
        dropout=0.0,
    )
    base.update(cfg_kw)
    config = ModelConfig(**base)
    return config, insts, vocab


def batch_of(vocab, insts):
    src = [vocab.encode_source(i.source) for i in insts]
    tgt = [vocab.encode_target(list(i.template.tokens)) for i in insts]
    return make_batch(src, tgt)


class TestAdam:
    def test_hand_computed_sign_updates(self):
        # with beta1 = beta2 = 0 the update is lr * g / (|g| + eps)
        cfg = ModelConfig(vocab_src=6, vocab_tgt=6, embed_dim=2, model_dim=2, layers=1, heads=1, ff_dim=2, dropout=0.0)
        params = init_params(cfg, 0)
        name = "src_proj.b"
        params[name].data[:] = [1.0, -2.0]
        opt = Adam(params, lr=0.1, beta1=0.0, beta2=0.0, eps=0.0)
        params[name].grad = np.array([0.5, -4.0])
        before = params[name].data.copy()
        for other, t in params.named():
            if other != name:
                t.grad = None
        opt.step()
        # update = lr * g / sqrt(g^2) = lr * sign(g)
        assert np.allclose(params[name].data, before - 0.1 * np.sign([0.5, -4.0]))

    def test_zero_lr_is_identity(self):
        config, insts, vocab = small_setup()
        params = init_params(config, 1)
        snapshot = {k: t.data.copy() for k, t in params.named()}
        opt = Adam(params, lr=0.0)
        mle_step(params, opt, batch_of(vocab, insts[:4]), rng=np.random.default_rng(0))
        for k, t in params.named():
            assert np.array_equal(t.data, snapshot[k]), k


class TestMleStep:
    def test_loss_decreases_on_fixed_batch(self):
        config, insts, vocab = small_setup()
        params = init_params(config, 2)
        opt = Adam(params, lr=1e-3)
        batch = batch_of(vocab, insts[:4])
        rng = np.random.default_rng(0)
        losses = [mle_step(params, opt, batch, rng=rng).total.item() for _ in range(20)]
        assert losses[-1] < losses[0]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_single_instance_loss_equals_joint_loss(self):
        config, insts, vocab = small_setup()
        params = init_params(config, 3)
        batch = batch_of(vocab, insts[:1])
        direct = joint_loss(params, batch).total.item()
        opt = Adam(params, lr=0.0)
        parts = mle_step(params, opt, batch, rng=np.random.default_rng(0))
        assert parts.total.item() == direct

    def test_fixed_batch_200_steps_beats_99_percent(self):
        # desk configuration: 2 layers, model_dim 64
        config, insts, vocab = small_setup(
            n=4, embed_dim=32, model_dim=64, layers=2, heads=4, ff_dim=128
        )
        params = init_params(config, 4)
        opt = Adam(params, lr=1e-3)
        batch = batch_of(vocab, insts)
        rng = np.random.default_rng(0)
        first = mle_step(params, opt, batch, rng=rng).total.item()
        last = first
        for _ in range(199):
            last = mle_step(params, opt, batch, rng=rng).total.item()
        assert last < 0.01 * first

    def test_float32_step_stays_float32_and_matches_float64(self):
        # float32 keeps ~7 significant digits; the gradients sum a few hundred
        # terms, so 1e-5 of each tensor's largest gradient (about 80 float32
        # epsilons) is the tolerance. Dropout is on, with the same mask seed.
        config, insts, vocab = small_setup(layers=2, dropout=0.1, dtype="float32")
        p32 = init_params(config, 6)
        p64 = ModelParams(dataclasses.replace(config, dtype="float64"),
                          {name: Tensor(t.data.astype(np.float64), requires_grad=True) for name, t in p32.named()})
        batch = batch_of(vocab, insts)
        loss32 = mle_step(p32, Adam(p32, lr=1e-3), batch, rng=np.random.default_rng(1))
        loss64 = mle_step(p64, Adam(p64, lr=1e-3), batch, rng=np.random.default_rng(1))
        assert loss32.total.dtype == np.float32 and loss64.total.dtype == np.float64
        assert loss32.total.item() == pytest.approx(loss64.total.item(), rel=1e-5)
        for name, t in p32.named():
            want = p64[name].grad
            assert t.grad.dtype == np.float32 and t.data.dtype == np.float32, name
            assert np.max(np.abs(t.grad - want)) <= 1e-5 * max(1.0, np.max(np.abs(want))), name

    def test_divergence_aborts_with_diagnostic(self):
        config, insts, vocab = small_setup()
        params = init_params(config, 5)
        params["src_proj.w"].data[0, 0] = np.inf  # poke the parameter directly
        opt = Adam(params, lr=1e-3)
        with pytest.raises(TrainingDiverged):
            mle_step(params, opt, batch_of(vocab, insts[:2]), rng=np.random.default_rng(0))


class TestBaseline:
    def test_examples(self):
        assert baseline([1, 0, 1]) == pytest.approx(2 / 3)
        assert baseline([0, 0]) == 0.0
        assert baseline([1]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            baseline([])


class TestReinforceStep:
    def test_equal_rewards_zero_gradient(self):
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 6)  # untrained: every sample gets reward 0
        opt = Adam(params, lr=1e-3)
        result = reinforce_step(params, opt, vocab, insts[0], beam_size=3, max_len=8)
        assert result.n_samples > 0
        assert result.grad_norm <= 1e-12
        assert not result.updated

    def test_zero_lr_keeps_parameters(self):
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 7)
        snapshot = {k: t.data.copy() for k, t in params.named()}
        opt = Adam(params, lr=0.0)
        reinforce_step(params, opt, vocab, insts[0], beam_size=3, max_len=8)
        for k, t in params.named():
            assert np.array_equal(t.data, snapshot[k]), k

    def test_mixed_rewards_push_winner_up(self):
        # hand-built pool: one rewarded sample, one unrewarded; a small step
        # along the negative gradient must raise the winner's log-prob and
        # lower the loser's
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 8)
        inst = insts[0]
        src = np.asarray(vocab.encode_source(inst.source), dtype=np.int64)
        good = vocab.encode_target(list(inst.template.tokens))
        bad = list(good)
        bad[0] = vocab.tgt_ids["y"] if inst.template.tokens[0] != "y" else vocab.tgt_ids["x"]
        from eqgen.model import EOS_ID, L2R

        hyp_good = decoding.Hypothesis(tuple(good) + (EOS_ID,), 0.0, L2R, True)
        hyp_bad = decoding.Hypothesis(tuple(bad) + (EOS_ID,), 0.0, L2R, True)
        params.zero_grad()
        rewards = [1.0, 0.0]
        r_b = baseline(rewards)
        loss = None
        for hyp, r in ((hyp_good, rewards[0]), (hyp_bad, rewards[1])):
            term = decoding.hypothesis_log_prob(params, src, [hyp]) * (-(r - r_b) / 2)
            loss = term if loss is None else loss + term
        backward(loss)
        lp_good_0 = decoding.hypothesis_log_prob(params, src, [hyp_good]).item()
        lp_bad_0 = decoding.hypothesis_log_prob(params, src, [hyp_bad]).item()
        alpha = 1e-3
        for _, t in params.named():
            if t.grad is not None:
                t.data -= alpha * t.grad
        lp_good_1 = decoding.hypothesis_log_prob(params, src, [hyp_good]).item()
        lp_bad_1 = decoding.hypothesis_log_prob(params, src, [hyp_bad]).item()
        assert lp_good_1 > lp_good_0
        assert lp_bad_1 < lp_bad_0

    def test_rewards_do_not_enter_the_graph(self):
        # changing the answer tolerance flips rewards but the computation
        # graph of the log-probabilities is reward-free; with equal rewards
        # the step reduces to a no-op regardless of solver internals
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 9)
        opt = Adam(params, lr=1e-2)
        inst = insts[0]
        res = reinforce_step(params, opt, vocab, inst, beam_size=2, max_len=8)
        assert isinstance(res, RlStepResult)
        assert res.grad_norm <= 1e-12 or res.updated


def reference_policy_loss(params, src, pool):
    """The per-sample loop the batched policy loss replaced: one batch-1
    teacher-forced decoder pass per pool hypothesis, summed term by term."""
    r_b = baseline([s.reward for s in pool])
    memory = encode(params, src)
    src_pad = as_batch(src) == PAD_ID
    loss = None
    for sample in pool:
        hyp = sample.hypothesis
        emitted = list(hyp.tokens)
        begin = BOS_ID if hyp.direction == L2R else BOSR_ID
        logits = decoder_forward(params, hyp.direction, np.array([[begin] + emitted[:-1]]), memory, src_pad)
        lp = neg(cross_entropy(logits, np.array([emitted]), ignore_index=-1))
        term = lp * (-(sample.reward - r_b) / len(pool))
        loss = term if loss is None else loss + term
    return loss


def loss_and_grads(loss_fn, params, src, pool):
    params.zero_grad()
    loss = loss_fn(params, src, pool)
    backward(loss)
    return loss.item(), {name: t.grad for name, t in params.named()}


def assert_matches_reference(params, src, pool):
    got_loss, got = loss_and_grads(policy_loss, params, src, pool)
    want_loss, want = loss_and_grads(reference_policy_loss, params, src, pool)
    assert rel_err(got_loss, want_loss) < 1e-12
    for name, g in want.items():
        if g is None:
            assert got[name] is None, name
        else:
            assert rel_err(got[name], g) < 1e-12, name
    return got


def rewarded(hyps, rewards):
    return [RewardSample(h, r) for h, r in zip(hyps, rewards)]


class TestBatchedPolicyLoss:
    """The padded one-pass-per-direction policy loss against the per-sample
    loop: same loss and same gradient on every parameter, to 1e-12."""

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_beam_pools_both_directions(self, seed):
        # after 20 MLE steps, beam 4 at max_len 8 returns finished and
        # force-finished hypotheses of unequal lengths
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, seed)
        opt = Adam(params, lr=1e-2)
        for _ in range(20):
            mle_step(params, opt, batch_of(vocab, insts))
        src = np.asarray(vocab.encode_source(insts[seed % 6].source))
        hyps_l, hyps_r = decoding.decode_both(params, src, 4, 8)
        hyps = hyps_l + hyps_r
        assert {h.finished for h in hyps} == {True, False}
        assert len({len(h.tokens) for h in hyps}) > 1
        pool = rewarded(hyps, [(seed + i) % 3 == 0 for i in range(len(hyps))])
        assert_matches_reference(params, src, pool)

    def test_two_layers_unshared_embeddings_padded_source(self):
        config, insts, vocab = small_setup(n=6, layers=2, share_target_embedding=False)
        params = init_params(config, 24)
        src = np.array(vocab.encode_source(insts[1].source) + [PAD_ID, PAD_ID])
        hyps_l, hyps_r = decoding.decode_both(params, src, 3, 6)
        pool = rewarded(hyps_l + hyps_r, [1, 0, 0, 1, 1, 0])
        assert_matches_reference(params, src, pool)

    def test_hand_built_pool_with_pad_id_tokens(self):
        # beam search may emit id 0; it must be scored, not read as padding
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 25)
        src = np.asarray(vocab.encode_source(insts[2].source))
        hyps = [
            decoding.Hypothesis((7, PAD_ID, 8, EOS_ID), 0.0, L2R, True),
            decoding.Hypothesis((PAD_ID,), 0.0, L2R, False),
            decoding.Hypothesis((9, 9, 9, 9, 9, 9, 9), 0.0, L2R, False),
            decoding.Hypothesis((PAD_ID, PAD_ID, EOS_ID), 0.0, R2L, True),
            decoding.Hypothesis((10, 11), 0.0, R2L, False),
        ]
        assert_matches_reference(params, src, rewarded(hyps, [1, 0, 1, 0, 0]))

    @pytest.mark.parametrize("direction", [L2R, R2L])
    def test_one_direction_pool(self, direction):
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 26)
        src = np.asarray(vocab.encode_source(insts[3].source))
        hyps = decoding.beam_search(params, direction, src, 4, 6)
        grads = assert_matches_reference(params, src, rewarded(hyps, [0, 1, 0, 0]))
        other = R2L if direction == L2R else L2R
        assert grads[f"out_{other}.w"] is None

    def test_mixed_directions_rejected(self):
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 27)
        hyps = [
            decoding.Hypothesis((7, EOS_ID), 0.0, L2R, True),
            decoding.Hypothesis((7, EOS_ID), 0.0, R2L, True),
        ]
        with pytest.raises(ValueError):
            decoding.hypothesis_log_prob(params, [5, 6], hyps)


class TestReinforceStepPasses:
    def test_one_scoring_pass_per_direction(self, monkeypatch):
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 28)
        calls = []
        pools = []
        real_score = decoding.hypothesis_log_prob
        real_pool = training.sample_pool

        def spy_score(params, src, hyps, memory=None, weights=None):
            calls.append(len(hyps))
            return real_score(params, src, hyps, memory, weights)

        def spy_pool(*args):
            pool = real_pool(*args)
            for i, s in enumerate(pool):
                s.reward = i % 2  # mixed rewards, whatever the solver says
            pools.append(pool)
            return pool

        monkeypatch.setattr(decoding, "hypothesis_log_prob", spy_score)
        monkeypatch.setattr(training, "sample_pool", spy_pool)
        src = np.asarray(vocab.encode_source(insts[0].source))
        # lr 0 and no clipping leave the step's raw gradient on the parameters
        res = reinforce_step(params, Adam(params, lr=0.0), vocab, insts[0], beam_size=3, max_len=8, max_grad_norm=0.0)
        assert res.updated and res.n_samples == 6
        assert calls == [3, 3]
        got = {name: t.grad for name, t in params.named()}
        _, want = loss_and_grads(reference_policy_loss, params, src, pools[0])
        want_norm = math.sqrt(sum(float((g * g).sum()) for g in want.values() if g is not None))
        assert res.grad_norm == pytest.approx(want_norm, rel=1e-12)
        for name, g in want.items():
            assert (got[name] is None) == (g is None), name
            if g is not None:
                assert rel_err(got[name], g) < 1e-12, name

    def test_zero_advantage_skips_scoring_and_backward(self, monkeypatch):
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 29)  # untrained: every sample gets reward 0
        snapshot = {k: t.data.copy() for k, t in params.named()}

        def forbidden(*args, **kwargs):
            raise AssertionError("a zero-advantage step must not score or back-propagate")

        monkeypatch.setattr(decoding, "hypothesis_log_prob", forbidden)
        monkeypatch.setattr(training, "backward", forbidden)
        opt = Adam(params, lr=1e-2)
        res = reinforce_step(params, opt, vocab, insts[0], beam_size=3, max_len=8)
        assert res == RlStepResult(0.0, 6, 0.0, updated=False)
        assert opt.steps == 0
        for k, t in params.named():
            assert np.array_equal(t.data, snapshot[k]), k


class TestTrainDriver:
    def test_seed_determinism_epoch0(self):
        # more instances than one MLE batch holds, so the shuffle splits them
        config, insts, vocab = small_setup(n=20)
        assert len(insts) > training.MLE_BATCH_SIZE
        s = TrainSettings(epochs=1, lr=1e-3, seed=11)
        _, m1 = train(config, insts, vocab, s)
        _, m2 = train(config, insts, vocab, s)
        assert m1[0]["loss_l2r"] == m2[0]["loss_l2r"]
        assert m1[0]["loss_r2l"] == m2[0]["loss_r2l"]

    def test_metrics_schema(self):
        config, insts, vocab = small_setup(n=8)
        s = TrainSettings(epochs=2, lr=1e-3, seed=12)
        _, metrics = train(config, insts, vocab, s)
        keys = {
            "epoch",
            "split",
            "loss_l2r",
            "loss_r2l",
            "answer_accuracy_l2r",
            "answer_accuracy_r2l",
            "answer_accuracy_vote",
            "mean_reward",
        }
        for rec in metrics:
            assert keys.issubset(rec)
        assert metrics[-1]["answer_accuracy_vote"] is not None

    def test_log_file_append_only_jsonl(self, tmp_path):
        import json

        config, insts, vocab = small_setup(n=6)
        log = tmp_path / "metrics.jsonl"
        s = TrainSettings(epochs=2, lr=1e-3, seed=13, log_path=str(log))
        train(config, insts, vocab, s)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_rl_phase_runs(self):
        config, insts, vocab = small_setup(n=6)
        s = TrainSettings(epochs=2, lr=1e-3, seed=14, rl_epochs=1, rl_lr=1e-5, rl_beam=2)
        params, metrics = train(config, insts, vocab, s)
        assert any(rec["split"] == "rl-train" for rec in metrics)

    def test_rl_counts_instances_without_answers(self):
        config, insts, vocab = small_setup(n=3)
        params = init_params(config, 16)
        first = insts[0]
        unanswered = dataclasses.replace(first, problem=dataclasses.replace(first.problem, answers=[]))
        s = TrainSettings(seed=16, rl_epochs=2, rl_beam=2)
        metrics = training.run_rl(params, vocab, [unanswered, *insts[1:]], s)
        assert [(rec["split"], rec["skipped"]) for rec in metrics] == [("rl-train", 1)] * 2


class TestGradClip:
    def test_clip_scales_to_max_norm(self):
        config, insts, vocab = small_setup(n=4)
        params = init_params(config, 15)
        batch = batch_of(vocab, insts[:2])
        params.zero_grad()
        backward(joint_loss(params, batch).total)
        pre = grad_norm(params)
        assert pre > 1.0
        returned = clip_grads(params, 1.0)
        assert returned == pytest.approx(pre)
        assert grad_norm(params) == pytest.approx(1.0, rel=1e-9)


class TestConsumedGraph:
    """``backward`` consumes its graph; the steps match the retaining pass."""

    def test_mle_step_frees_its_graph_by_refcount(self, monkeypatch):
        config, insts, vocab = small_setup(layers=2, dropout=0.1)
        params = init_params(config, 30)
        closures, arrays = [], []
        real = training.backward

        def spy(loss):
            # weakrefs to the closure and the array of every interior node of the step's graph
            stack, seen = [loss], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    if node._backward is not None:
                        closures.append(weakref.ref(node._backward))
                        if isinstance(node.data, np.ndarray):  # 0-d products can be numpy scalars
                            arrays.append(weakref.ref(node.data))
                    stack.extend(node._parents)
            real(loss)

        monkeypatch.setattr(training, "backward", spy)
        gc.collect()
        gc.disable()
        try:
            parts = mle_step(params, Adam(params, lr=1e-3), batch_of(vocab, insts), rng=np.random.default_rng(0))
            dead_closures = all(r() is None for r in closures)
            alive = [r() for r in arrays if r() is not None]
        finally:
            gc.enable()
        assert len(closures) > 100 and dead_closures
        kept = [parts.total.data, parts.l2r.data, parts.r2l.data]
        assert all(any(a is k for k in kept) for a in alive), len(alive)
        assert parts.total._parents == () and parts.l2r._parents == () and parts.total.grad is None

    def _run(self, monkeypatch, backward_fn):
        """Losses and parameters after three MLE steps with dropout and two
        REINFORCE updates with mixed rewards, through ``backward_fn``."""
        config, insts, vocab = small_setup(layers=2, dropout=0.1)
        params = init_params(config, 31)
        real_pool = training.sample_pool

        def mixed_pool(*args):
            pool = real_pool(*args)
            for i, s in enumerate(pool):
                s.reward = i % 2
            return pool

        monkeypatch.setattr(training, "backward", backward_fn)
        monkeypatch.setattr(training, "sample_pool", mixed_pool)
        opt, rng = Adam(params, lr=1e-2), np.random.default_rng(3)
        losses = [mle_step(params, opt, batch_of(vocab, insts[i::3]), rng=rng).total.item() for i in range(3)]
        rl_opt = Adam(params, lr=1e-3)
        norms = [reinforce_step(params, rl_opt, vocab, insts[i], beam_size=3, max_len=8).grad_norm for i in (0, 1)]
        return losses, norms, {name: t.data.copy() for name, t in params.named()}

    def test_steps_equal_the_retaining_backward(self, monkeypatch):
        losses, norms, got = self._run(monkeypatch, backward)
        want_losses, want_norms, want = self._run(monkeypatch, retained.backward)
        assert losses == want_losses and norms == want_norms and all(n > 0 for n in norms)
        for name, data in want.items():
            assert np.array_equal(got[name], data), name
