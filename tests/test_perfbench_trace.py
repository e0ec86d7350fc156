"""A smoke run of the benchmark's tracer.

Only ``--trace 1`` benchmark runs install ``perfbench/spans.py``, and its
counters read the arguments and return values of eqgen functions: a change
to a return shape would skew the per-layer metrics and nothing else. This
runs a tiny MLE step, REINFORCE step and evaluation under the tracer. The
file is loaded without writing bytecode next to it.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

from eqgen import corpus, model, training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# reached by one of the three traced operations below
REACHED = (
    "numerics.backward.ms_per_step",
    "model.joint_loss.ms_per_step",
    "model.make_batch.real_token_ratio",
    "training.Adam.step.ms_per_step",
    "model.encode.ms_per_inst",
    "model.decoder_forward.calls_per_inst",
    "model.decoder_forward.positions_per_inst",
    "model.decoder_forward.memory_rows_per_inst",
    "decoding.hypothesis_log_prob.calls_per_step",
    "training.sample_pool.ms_per_step",
    "training.reinforce_step.update_ratio",
    "equations.reward.calls_per_inst",
    "decoding.decode_both.calls_per_problem",
    "corpus.evaluate.ms_per_problem",
)


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_counts_a_tiny_run_and_restores_every_name(monkeypatch):
    spans = load_spans(monkeypatch)
    insts, _ = corpus.prepare_all(corpus.synth_gen(5, 4, distractor_rate=0.0))
    vocab = corpus.Vocabulary.build(insts)
    cfg = model.ModelConfig(vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size, embed_dim=8, model_dim=16,
                            layers=1, heads=2, ff_dim=16, dropout=0.0)
    params = model.init_params(cfg, 0)
    opt = training.Adam(params, 3e-2)
    src = [vocab.encode_source(i.source) for i in insts]
    tgt = [vocab.encode_target(list(i.template.tokens)) for i in insts]
    for _ in range(20):  # enough that each beam holds right and wrong answers, so REINFORCE updates
        training.mle_step(params, opt, model.make_batch(src, tgt))

    homes = [importlib.import_module(f"eqgen.{m}") for m in spans.TRACED]
    before = [dict(vars(home)) for home in homes]
    adam_step = training.Adam.step
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.op = 0
        batch = model.make_batch(src, tgt)
        training.mle_step(params, opt, batch)
        tracer.op = 1
        training.reinforce_step(params, opt, vocab, insts[0], beam_size=2, max_len=16)
        tracer.op = 2
        corpus.evaluate(params, vocab, insts, beam_size=2, max_len=16)
        tracer.active = False
    finally:
        tracer.uninstall()

    assert training.Adam.step is adam_step
    for home, names in zip(homes, before):
        assert [k for k, v in vars(home).items() if names.get(k, v) is not v] == []

    metrics = spans.layer_metrics(tracer.spans, steps=3, insts=1 + len(insts))
    assert list(metrics) == [name for name, _ in spans.PER_LAYER]
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
    assert [name for name in REACHED if not metrics[name] > 0] == []

    # teacher forcing feeds T - 1 positions per row and direction over an S-row memory
    rows, t = batch.tgt_l2r.shape
    mle = [c for name, _, _, _, op, c in tracer.spans if name == "model.decoder_forward" and op == 0]
    assert len(mle) == 2
    assert sum(c["positions"] for c in mle) == sum(c["used"] for c in mle) == 2 * rows * (t - 1)
    assert sum(c["memory_rows"] for c in mle) == 2 * rows * batch.src.shape[1]
