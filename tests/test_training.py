import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from eqgen import corpus, decoding, training
from eqgen import model as M
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
from eqgen.numerics import Tensor, add, backward, cross_entropy
from eqgen.training import (
    Adam,
    RlStepResult,
    TrainSettings,
    TrainingDiverged,
    clip_grads,
    grad_norm,
    mle_step,
    policy_loss,
    reinforce_step,
    train,
)
from fdcheck import rel_err
import graphwalk
import per_direction
import retained
import unfused


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
        loss = None
        for hyp, advantage in ((hyp_good, 0.5), (hyp_bad, -0.5)):  # rewards 1 and 0, baseline 0.5
            term = decoding.hypothesis_log_prob(params, src, [hyp], weights=[-advantage / 2])
            loss = term if loss is None else add(loss, term)
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
    teacher-forced decoder pass per pool hypothesis, weighted by its reward
    minus the pool's mean reward, summed term by term."""
    hyps, rewards = pool
    r_b = sum(rewards) / len(rewards)
    memory = encode(params, src)
    src_pad = as_batch(src) == PAD_ID
    loss = None
    for hyp, reward in zip(hyps, rewards):
        emitted = list(hyp.tokens)
        begin = BOS_ID if hyp.direction == L2R else BOSR_ID
        logits = decoder_forward(params, hyp.direction, np.array([[begin] + emitted[:-1]]), memory, src_pad)
        lp = cross_entropy(logits, np.array([emitted]), weights=-1.0)
        term = unfused.mul(lp, Tensor(-(reward - r_b) / len(hyps)))
        loss = term if loss is None else unfused.add(loss, term)
    return loss


def loss_and_grads(loss_fn, params, *args):
    params.zero_grad()
    loss = loss_fn(params, *args)
    backward(loss)
    return loss.item(), {name: t.grad for name, t in params.named()}


def assert_matches_reference(params, src, pool):
    hyps, rewards = pool
    advantages = rewards - rewards.mean()
    got_loss, got = loss_and_grads(policy_loss, params, src, hyps, advantages)
    want_loss, want = loss_and_grads(reference_policy_loss, params, src, pool)
    assert rel_err(got_loss, want_loss) < 1e-12
    for name, g in want.items():
        if g is None:
            assert got[name] is None, name
        else:
            assert rel_err(got[name], g) < 1e-12, name
    return got


def rewarded(hyps, rewards):
    return hyps, np.array(rewards, dtype=np.int64)


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
            hyps, _ = real_pool(*args)
            pools.append((hyps, np.arange(len(hyps)) % 2))  # mixed rewards, whatever the solver says
            return pools[-1]

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

    def test_log_holds_both_phases(self, tmp_path):
        config, insts, vocab = small_setup(n=6)
        log = tmp_path / "metrics.jsonl"
        s = TrainSettings(epochs=2, lr=1e-3, seed=14, rl_epochs=1, rl_beam=2, log_path=str(log))
        _, metrics = train(config, insts, vocab, s)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["split"] for r in lines] == ["train", "train", "rl-train"] and lines == metrics

    def test_rl_records_mean_grad_norm(self, monkeypatch):
        config, insts, vocab = small_setup(n=6)
        params = init_params(config, 17)
        real_pool, real_step = training.sample_pool, training.reinforce_step
        steps = []

        def some_mixed_pools(params, vocab, src, inst, *args):
            hyps, _ = real_pool(params, vocab, src, inst, *args)
            # every third step all equal: no update
            return hyps, np.arange(len(hyps)) % 2 if len(steps) % 3 else np.zeros(len(hyps), np.int64)

        def spy_step(*args, **kwargs):
            steps.append(real_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(training, "sample_pool", some_mixed_pools)
        monkeypatch.setattr(training, "reinforce_step", spy_step)
        metrics = training.run_rl(params, vocab, insts, TrainSettings(seed=17, rl_epochs=2, rl_beam=2))
        assert len(steps) == 2 * len(insts)
        for record, epoch_steps in zip(metrics, (steps[: len(insts)], steps[len(insts):])):
            norms = [st.grad_norm for st in epoch_steps if st.updated]
            assert 0 < len(norms) < len(epoch_steps)
            assert record["grad_norm"] == sum(norms) / len(norms) > 0

    def test_rl_grad_norm_is_null_without_updates(self):
        config, insts, vocab = small_setup(n=3)
        params = init_params(config, 18)  # untrained: every sample gets reward 0
        metrics = training.run_rl(params, vocab, insts, TrainSettings(seed=18, rl_epochs=1, rl_beam=2))
        assert metrics[0]["mean_reward"] == 0.0 and metrics[0]["grad_norm"] is None

    def test_rl_counts_instances_without_answers(self):
        config, insts, vocab = small_setup(n=3)
        params = init_params(config, 16)
        first = insts[0]
        unanswered = dataclasses.replace(first, problem=dataclasses.replace(first.problem, answers=[]))
        s = TrainSettings(seed=16, rl_epochs=2, rl_beam=2)
        metrics = training.run_rl(params, vocab, [unanswered, *insts[1:]], s)
        assert [(rec["split"], rec["skipped"]) for rec in metrics] == [("rl-train", 1)] * 2

    def test_rl_leaves_out_a_source_longer_than_max_positions(self):
        config, insts, vocab = small_setup(n=3)
        params = init_params(config, 16)
        first = insts[0]
        too_long = dataclasses.replace(first, source=first.source * (config.max_positions // len(first.source) + 1))
        assert len(too_long.source) > config.max_positions
        s = TrainSettings(seed=16, rl_epochs=2, rl_beam=2)
        metrics = training.run_rl(params, vocab, [too_long, *insts[1:]], s)
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

    @staticmethod
    def _mix_rewards(monkeypatch):
        """Give every other sample of each REINFORCE pool reward 1, so that
        every step updates."""
        real_pool = training.sample_pool

        def mixed_pool(*args):
            hyps, _ = real_pool(*args)
            return hyps, np.arange(len(hyps)) % 2

        monkeypatch.setattr(training, "sample_pool", mixed_pool)

    def test_mle_step_frees_its_graph_by_refcount(self, monkeypatch):
        config, insts, vocab = small_setup(layers=2, dropout=0.1)
        params = init_params(config, 30)
        closures, unread = [], {}
        outputs = graphwalk.record_outputs(monkeypatch)  # the arrays of every op output in the graph
        self._mix_rewards(monkeypatch)
        real = training.backward

        def spy(loss, grad=None, stop=None):
            # weakrefs to every closure of the step's graph, and to the op output arrays alive as a backward
            # pass starts although no closure holds them, each once over the step's passes; the encoder
            # memory that the passes stop at and then start from counts as held, since the second decoder
            # reads it after the first pass
            entries = graphwalk.walk(loss)
            closures.extend(weakref.ref(graphwalk.closure(e)) for e in entries if graphwalk.closure(e) is not None)
            read = {id(graphwalk.owner(a)) for e in entries for a in graphwalk.closure_arrays(e)}
            read |= {id(graphwalk.owner(t.data)) for t in (stop, None if grad is None else loss) if t is not None}
            unread.update((id(r), r) for r in outputs if r() is not None and id(r()) not in read)
            return real(loss, grad, stop)

        monkeypatch.setattr(training, "backward", spy)
        gc.collect()
        gc.disable()
        try:
            parts = mle_step(params, Adam(params, lr=1e-3), batch_of(vocab, insts), rng=np.random.default_rng(0))
            dead_closures = all(r() is None for r in closures)
            alive = [r() for r in outputs if r() is not None]
            unread_alive = [r() for r in unread.values()]
            # a copy of the parameters that took an MLE and a REINFORCE step is freed by refcount on deletion
            copy = params.copy()
            copy_arrays = [weakref.ref(t.data) for _, t in copy.named()]
            mle_step(copy, Adam(copy, lr=1e-3), batch_of(vocab, insts), rng=np.random.default_rng(1))
            copy_updated = reinforce_step(copy, Adam(copy, lr=1e-3), vocab, insts[0], beam_size=3, max_len=8).updated
            del copy
            copy_freed = all(r() is None for r in copy_arrays)
        finally:
            gc.enable()
        assert len(closures) > 100 and dead_closures
        kept = [parts.total.data, parts.l2r.data, parts.r2l.data]
        assert all(any(a is k for k in kept) for a in alive), len(alive)
        # what no closure reads was freed during the forward pass, but for the losses the caller holds
        # (a sum of two 0-d arrays is a numpy scalar, which the recorder passes over)
        kept_arrays = [k for k in kept if isinstance(k, np.ndarray)]
        assert kept_arrays and sorted(map(id, unread_alive)) == sorted(map(id, kept_arrays)), \
            [getattr(a, "shape", a) for a in unread_alive]
        assert copy_updated and copy_freed
        assert all(graphwalk.parents(graphwalk.entry(t)) == () for t in (parts.total, parts.l2r))
        assert parts.total.grad is None

    def _run(self, monkeypatch, backward_fn):
        """Losses and parameters after three MLE steps with dropout and two
        REINFORCE updates with mixed rewards, through ``backward_fn``."""
        config, insts, vocab = small_setup(layers=2, dropout=0.1)
        params = init_params(config, 31)
        monkeypatch.setattr(training, "backward", backward_fn)
        self._mix_rewards(monkeypatch)
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


class TestLockstepSearchInReinforce:
    """REINFORCE on the lockstep two-direction search takes the same steps
    as on one search per direction (``tests/per_direction.py``)."""

    def _run(self, monkeypatch, decode_batch, calls):
        """Step results and parameters after four REINFORCE updates with
        mixed rewards, every pool decoded by ``decode_batch``."""
        config, insts, vocab = small_setup(layers=2, share_target_embedding=False)
        params = init_params(config, 32)
        real_pool = training.sample_pool

        def mixed_pool(*args):
            hyps, _ = real_pool(*args)
            return hyps, np.arange(len(hyps)) % 2

        def counted(*args):
            calls.append(decode_batch)
            return decode_batch(*args)

        monkeypatch.setattr(decoding, "decode_batch", counted)
        monkeypatch.setattr(training, "sample_pool", mixed_pool)
        opt = Adam(params, lr=1e-3)
        steps = [reinforce_step(params, opt, vocab, insts[i], beam_size=3, max_len=8) for i in range(4)]
        return steps, {name: t.data.copy() for name, t in params.named()}

    def test_parameters_equal_the_per_direction_search(self, monkeypatch):
        calls, lockstep, reference = [], decoding.decode_batch, per_direction.reference_decode_batch
        got_steps, got = self._run(monkeypatch, lockstep, calls)
        want_steps, want = self._run(monkeypatch, reference, calls)
        assert calls == [lockstep] * 4 + [reference] * 4
        assert got_steps == want_steps and all(step.updated for step in got_steps)
        for name, data in want.items():
            assert np.array_equal(got[name], data), name


class TestFusedOpsBitForBit:
    """Training and decoding through ``numerics.ffn``, ``residual_norm``,
    ``scale_shift`` and the boolean-mask ``dropout`` against the graphs the
    model built before (``tests/unfused.py``): the same parameters, losses
    and hypotheses, bit for bit."""

    def _run(self, monkeypatch, reference, dtype, share):
        """Losses, the dropout stream and parameters after 40 MLE steps, the
        hypotheses of one ``decode_batch`` and the step results and
        parameters after 10 REINFORCE updates with mixed rewards."""
        config, insts, vocab = small_setup(layers=2, dropout=0.1, dtype=dtype, share_target_embedding=share)
        params = init_params(config, 33)
        real_pool = training.sample_pool

        def mixed_pool(*args):
            hyps, _ = real_pool(*args)
            return hyps, np.arange(len(hyps)) % 2

        with monkeypatch.context() as m:
            if reference:
                for name in ("ffn", "residual_norm", "scale_shift", "dropout"):
                    m.setattr(M, name, getattr(unfused, name))
            m.setattr(training, "sample_pool", mixed_pool)
            opt, rng = Adam(params, lr=1e-2), np.random.default_rng(4)
            losses = [mle_step(params, opt, batch_of(vocab, insts[i % 3::3]), rng=rng).total.item()
                      for i in range(40)]
            after_mle = {name: t.data.copy() for name, t in params.named()}
            srcs = [vocab.encode_source(inst.source) for inst in insts]
            hyps = [[(h.tokens, h.direction, h.finished, h.score) for h in side]
                    for pair in decoding.decode_batch(params, srcs, 3, 8) for side in pair]
            rl_opt = Adam(params, lr=1e-3)
            steps = [reinforce_step(params, rl_opt, vocab, insts[i], beam_size=3, max_len=8) for i in range(10)]
        return (losses, rng.bit_generator.state, hyps, steps), after_mle, {n: t.data for n, t in params.named()}

    @pytest.mark.parametrize("dtype, share", [("float64", True), ("float64", False), ("float32", True),
                                              ("float32", False)])
    def test_parameters_equal_the_unfused_graph(self, monkeypatch, dtype, share):
        got = self._run(monkeypatch, False, dtype, share)
        want = self._run(monkeypatch, True, dtype, share)
        assert got[0] == want[0] and all(step.updated for step in got[0][3])
        for name, data in want[1].items():
            assert data.dtype == np.dtype(dtype) and np.array_equal(got[1][name], data), name
            assert np.array_equal(got[2][name], want[2][name]), name


class TestDecodersOneAtATime:
    """``mle_step`` back-propagates each decoder down to the encoder memory
    before the other runs, then the encoder once; its steps equal those of
    one backward of the joint loss."""

    @staticmethod
    def one_graph_step(params, opt, batch, rng):
        params.zero_grad()
        parts = joint_loss(params, batch, train=True, rng=rng)
        backward(parts.total)
        opt.step()
        return parts

    def _run(self, step, dtype, share, per_batch):
        """Losses, token counts and parameters after 24 MLE steps with
        dropout through ``step``, ``per_batch`` problems a batch."""
        config, insts, vocab = small_setup(layers=2, dropout=0.1, dtype=dtype, share_target_embedding=share)
        params = init_params(config, 34)
        opt, rng = Adam(params, lr=1e-2), np.random.default_rng(6)
        losses = []
        for i in range(24):
            start = i * per_batch % len(insts)
            batch = batch_of(vocab, insts[start : start + per_batch])
            # one problem a batch has no source padding
            assert (batch.src == PAD_ID).any() == (per_batch > 1)
            parts = step(params, opt, batch, rng)
            losses.append((parts.total.item(), parts.l2r.item(), parts.r2l.item(), parts.tokens_l2r,
                           parts.tokens_r2l))
        return losses, {name: t.data for name, t in params.named()}

    @pytest.mark.parametrize("dtype, share", [("float64", True), ("float32", False)])
    def test_parameters_equal_the_one_graph_step(self, dtype, share):
        got_losses, got = self._run(mle_step, dtype, share, 4)
        want_losses, want = self._run(self.one_graph_step, dtype, share, 4)
        assert got_losses == want_losses
        for name, data in want.items():
            assert data.dtype == np.dtype(dtype) and np.array_equal(got[name], data), name

    def test_unpadded_sources_equal_the_one_graph_step(self):
        # a batch without source padding gathers the memory's rows too, so the step adds the memory
        # gradient in the same order
        got_losses, got = self._run(mle_step, "float64", True, 1)
        want_losses, want = self._run(self.one_graph_step, "float64", True, 1)
        assert got_losses == want_losses
        for name, data in want.items():
            assert np.array_equal(got[name], data), name

    def test_returns_losses_without_graph_or_memory(self):
        config, insts, vocab = small_setup(layers=2, dropout=0.1)
        params = init_params(config, 35)
        batch = batch_of(vocab, insts)
        parts = mle_step(params, Adam(params, lr=1e-3), batch, rng=np.random.default_rng(0))
        assert parts.memory is None and parts.total.item() == parts.l2r.item() + parts.r2l.item()
        assert all(graphwalk.parents(graphwalk.entry(t)) == () for t in (parts.total, parts.l2r, parts.r2l))


class TestRetainedMemory:
    # tracemalloc peak of the step below before the fused feed-forward and
    # residual-norm ops, the boolean dropout mask and the re-gathered
    # attention slots (numpy 2.4, 64-bit Linux)
    PARENT_PEAK_MB = 29.73
    # ... and before op outputs that no backward reads were freed during the forward pass
    NODE_PARENT_PEAK_MB = 20.07
    # ... and before each decoder was back-propagated to the encoder memory before the other ran
    JOINT_PARENT_PEAK_MB = 14.85

    def test_desk_config_mle_step_peak(self):
        # the desk configuration, float64, dropout on, 16 padded problems
        insts, _ = prepare_all(synth_gen(7, 16))
        vocab = Vocabulary.build(insts)
        config = ModelConfig(vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size, embed_dim=32, model_dim=64,
                             layers=2, heads=4, ff_dim=128, max_positions=128, dropout=0.1)
        params, batch = init_params(config, 0), batch_of(vocab, insts)
        assert (batch.src == PAD_ID).any() and (batch.tgt_l2r == PAD_ID).any()
        opt, rng = Adam(params, lr=1e-3), np.random.default_rng(0)
        mle_step(params, opt, batch, rng)  # Adam's moments are allocated on the first step
        tracemalloc.start()
        try:
            mle_step(params, opt, batch, rng)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * self.PARENT_PEAK_MB, peak
        assert peak <= 0.85 * self.NODE_PARENT_PEAK_MB, peak
        assert peak <= 0.85 * self.JOINT_PARENT_PEAK_MB, peak
