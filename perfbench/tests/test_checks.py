"""Each checker accepts right outputs and rejects wrong ones.

    python3 -m pytest perfbench/tests -q
"""

import ast
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
from eqgen import corpus, decoding, model, numerics, training


@pytest.fixture(scope="module")
def problems():
    return corpus.prepare_all(corpus.synth_gen(3, 40))[0]


def test_gold_answers_satisfy_gold_equations(problems):
    for inst in problems:
        answers = inst.problem.answers
        assert checks.answers_satisfy(checks.tokenize(inst.problem.equations), {}, answers)
        assert checks.answers_satisfy(inst.template.tokens, inst.mapping.by_symbol, answers)


def test_wrong_answer_is_rejected(problems):
    for inst in problems:
        wrong = [inst.problem.answers[0] + 1] + inst.problem.answers[1:]
        assert not checks.answers_satisfy(checks.tokenize(inst.problem.equations), {}, wrong)


@pytest.mark.parametrize(
    "text, x, holds",
    [
        ("x=-2^2", -4, True),
        ("x=-2^2", 4, False),
        ("x=(-2)^2", 4, True),
        ("x=2^-1", Fraction(1, 2), True),
        ("x=12/4/3", 1, True),
        ("x=2^2^2", 16, False),  # exponent 4 is outside the supported range
        ("x=1/0", 0, False),
        ("x=1+", 1, False),
        ("x=1=1", 1, False),
    ],
)
def test_evaluator_semantics(text, x, holds):
    assert checks.satisfied(checks.tokenize(text), {"x": Fraction(x)}) is holds


def test_evaluator_imports_nothing_from_eqgen_equations():
    tree = ast.parse(Path(checks.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "eqgen.equations"
            assert not (node.module == "eqgen" and any(a.name == "equations" for a in node.names))
        elif isinstance(node, ast.Import):
            assert all(a.name != "eqgen.equations" for a in node.names)


def _tiny(seed=0):
    insts = corpus.prepare_all(corpus.synth_gen(seed, 4))[0]
    vocab = corpus.Vocabulary.build(insts)
    config = model.ModelConfig(vocab.src_size, vocab.tgt_size, embed_dim=8, model_dim=8, layers=1,
                               heads=2, ff_dim=16, max_positions=64)
    params = model.init_params(config, seed)
    batch = model.make_batch([vocab.encode_source(i.source) for i in insts],
                             [vocab.encode_target(list(i.template.tokens)) for i in insts])
    return params, batch


def test_gradient_check_rejects_perturbed_gradient():
    params, batch = _tiny()
    numerics.backward(model.joint_loss(params, batch).total)
    grads = {n: t.grad.copy() for n, t in params.named()}
    tensors = {n: t.data for n, t in params.named()}
    rng = random.Random(0)
    coords = [(n, rng.randrange(tensors[n].size)) for n in sorted(grads) for _ in range(2)]

    def loss():
        with numerics.no_grad():
            return model.joint_loss(params, batch).total.item()

    assert checks.fd_mismatches(loss, tensors, grads, coords) == []
    name, idx = "out_l2r.w", 5
    grads[name].reshape(-1)[idx] += 1e-2 * max(1.0, abs(grads[name].reshape(-1)[idx]))
    bad = checks.fd_mismatches(loss, tensors, grads, [(name, idx)] + coords)
    assert [(b[0], b[1]) for b in bad] == [(name, idx)]


def test_fd_check_steps_past_a_kink():
    # relu(x) at x = 5e-7: a step of 1e-6 crosses the kink, a step of 1e-7 does not
    x = np.array([5e-7])

    def loss():
        return 3.0 * max(x[0], 0.0)

    assert checks.fd_mismatches(loss, {"x": x}, {"x": np.array([3.0])}, [("x", 0)]) == []
    assert checks.fd_mismatches(loss, {"x": x}, {"x": np.array([3.001])}, [("x", 0)]) != []
    assert x[0] == 5e-7


@pytest.mark.parametrize("direction", [model.L2R, model.R2L])
def test_rescore_rejects_misscored_hypothesis(direction):
    params, batch = _tiny(1)
    src = batch.src[0]
    hyps = decoding.beam_search(params, direction, src, beam_size=4, max_len=5)
    assert checks.rescore_mismatches(params, src, hyps) == []
    hyps[1] = dataclasses.replace(hyps[1], score=hyps[1].score + 1e-6)
    assert [b[0] for b in checks.rescore_mismatches(params, src, hyps)] == [1]


def test_vote_check_rejects_the_lower_scoring_pick():
    eos = model.EOS_ID
    l2r = decoding.Hypothesis((5, 6, eos), -1.0, model.L2R, True)
    r2l = decoding.Hypothesis((7, 8, eos), -2.0, model.R2L, True)
    assert not checks.vote_mismatch(decoding.vote(l2r, r2l), l2r, r2l)
    assert checks.vote_mismatch([8, 7], l2r, r2l)
    better_r2l = dataclasses.replace(r2l, score=-0.5)
    assert not checks.vote_mismatch([8, 7], l2r, better_r2l)
    assert checks.vote_mismatch([5, 6], l2r, better_r2l)
    tie = dataclasses.replace(r2l, score=-1.0)
    assert not checks.vote_mismatch([5, 6], l2r, tie)


def test_self_time_subtracts_direct_children():
    recorded = [
        ["outer", 0.0, 1.0, -1, 0, None],
        ["inner", 0.1, 0.3, 0, 0, {"n": 2}],
        ["inner", 0.5, 0.6, 0, 0, {"n": 3}],
        ["leaf", 0.55, 0.58, 2, 0, None],
    ]
    s = spans.summarize(recorded)
    assert s["outer"]["self"] == pytest.approx(0.7)
    assert s["inner"]["calls"] == 2 and s["inner"]["n"] == 5
    assert s["inner"]["self"] == pytest.approx(0.27)


def test_tracer_wraps_every_binding_and_restores_it():
    original = numerics.backward
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert training.backward is numerics.backward is not original
        params, batch = _tiny()
        tracer.active = True
        training.mle_step(params, training.Adam(params, 1e-3), batch, rng=np.random.default_rng(0))
        tracer.active = False
        names = [s[0] for s in tracer.spans]
        assert names[:2] == ["training.mle_step", "model.joint_loss"]
        assert "numerics.backward" in names and "training.Adam.step" in names
        assert tracer.spans[names.index("numerics.backward")][3] == 0  # child of mle_step
    finally:
        tracer.uninstall()
    assert training.backward is numerics.backward is original
