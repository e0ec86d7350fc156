"""The four workloads. Each is a single-process closed loop: one call into
eqgen at a time, timed with ``time.perf_counter`` around that call only.

A run repeats whole rounds of the same operations, at least MIN_ROUNDS
of them and until the timed total reaches ``--seconds``, so every run
attempts a whole number of rounds. Every operation computes the same thing
in every round, so each operation's latency is its median time over the
rounds, and throughput and latency percentiles are taken from those: a
slow or fast stretch of the shared machine that covers a minority of the
rounds does not move them.
Set-up is repeated at least SETUP_REPS times and for SETUP_MIN_S seconds,
and its median is ``setup_s``.
Checks run outside the timed calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eqgen import cli, corpus, decoding, equations, model, numerics, training

import checks

SETUP_REPS, SETUP_MIN_S = 7, 2.0
MIN_ROUNDS = 3
BATCH = 16
MAX_LEN = 64

# The decode/RL model: desk configuration, trained on a fixed corpus.
MODEL_SEED = 7919
MODEL_PER_TEMPLATE = 43
MODEL_EPOCHS = 30
MODEL_LR = 1e-3
DESK = dict(embed_dim=32, model_dim=64, layers=2, heads=4, ff_dim=128, max_positions=128, dropout=0.1)

MLE_TRAIN_PER_TEMPLATE, MLE_HELDOUT_PER_TEMPLATE, MLE_EPOCHS = 32, 72, 3
GRAD_COORDS, GRAD_BATCH = 16, 4
DECODE_PER_TEMPLATE, DECODE_BEAM, DECODE_HELDOUT_SEED = 15, 10, 130363
RL_PER_TEMPLATE, RL_BEAM, RL_LR = 6, 6, 1e-5
CLI_TRAIN_N, CLI_HELDOUT_N, CLI_EPOCHS, CLI_LR, CLI_FOLDS = 16, 10, 30, 3e-3, 5
CLI_HELDOUT_SEED = 104729


def sub_seeds(workload: str, seed: int, names) -> dict[str, int]:
    """Independent seeds for each input of a workload, none equal to the
    decode/RL model's corpus seed, so held-out problems stay held out."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    out = {}
    for name in names:
        s = rng.randrange(2**31)
        out[name] = s + 1 if s == MODEL_SEED else s
    return out


def stratified(seed: int, per_template: int) -> list[list]:
    """``per_template`` problems of each generator template, one list per
    template, so the template mix (and with it equation length) is the same
    for every seed."""
    return [corpus.synth_gen(seed + i, per_template, [name]) for i, name in enumerate(sorted(corpus.TEMPLATES))]


def flat(groups, seed=None) -> list:
    """Concatenate; with a seed, shuffle, so that slow drifts in machine speed
    spread over every template instead of landing on one."""
    out = [p for g in groups for p in g]
    if seed is not None:
        random.Random(seed).shuffle(out)
    return out


def desk_config(vocab) -> model.ModelConfig:
    return model.ModelConfig(vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size, **DESK)


@dataclass
class Outcome:
    """What a workload reports back to run.py."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed checks
    setup_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)  # every timed call
    round_ms: dict = field(default_factory=dict)  # operation -> its time in each round
    round_starts: list[int] = field(default_factory=list)  # index into op_ms where each round began
    steps: int = 0  # timed operations, the per-layer "step"
    latency_ms: list[float] | None = None  # what op_ms_p50/p90 are taken over, if not op_latency_ms()
    inst_per_s: float = 0.0
    quality: float = 0.0
    named: dict = field(default_factory=dict)  # metric -> (value, unit)
    insts: int = 0  # instances the timed operations processed, the per-layer "inst"
    peak_rss_mb: float = 0.0  # read when the timed rounds end, before the checks
    seeds: dict = field(default_factory=dict)

    def timed_rounds_done(self, tracer) -> None:
        tracer.active = False
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timed(self, key, ms: float) -> None:
        self.op_ms.append(ms)
        self.round_ms.setdefault(key, []).append(ms)
        self.steps += 1

    def op_latency_ms(self) -> list[float]:
        """Each operation's median time over the rounds."""
        return [statistics.median(v) for v in self.round_ms.values()]

    def round_s(self) -> float:
        """One round at each operation's median time, in seconds."""
        return sum(self.op_latency_ms()) / 1e3

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)


def timed_setup(out: Outcome, setup):
    """Run ``setup`` at least SETUP_REPS times and SETUP_MIN_S seconds, so a
    short set-up is timed over more than a momentary stretch of the machine;
    keep the last state, report the median."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    out.setup_s = statistics.median(times)
    return state


def rounds(seconds: float, out: Outcome):
    """Yield round indices until MIN_ROUNDS rounds ran and the timed total
    reaches ``seconds``."""
    for r in itertools.count():
        out.round_starts.append(len(out.op_ms))
        if r >= MIN_ROUNDS and sum(out.op_ms) / 1e3 >= seconds:
            return
        yield r


# ---------------------------------------------------------------------------
# the decode/RL model
# ---------------------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "eqgen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def train_model(path: str) -> None:
    """The decode/RL model: MLE from a seeded init on MODEL_PER_TEMPLATE
    problems of each template."""
    problems = flat(stratified(MODEL_SEED, MODEL_PER_TEMPLATE))
    insts, _ = corpus.prepare_all(problems)
    vocab = corpus.Vocabulary.build(insts)
    params = model.init_params(desk_config(vocab), MODEL_SEED)
    opt = training.Adam(params, MODEL_LR)
    rng = np.random.default_rng(MODEL_SEED)
    src = [vocab.encode_source(i.source) for i in insts]
    tgt = [vocab.encode_target(list(i.template.tokens)) for i in insts]
    for _ in range(MODEL_EPOCHS):
        order = rng.permutation(len(insts))
        for start in range(0, len(order), BATCH):
            idx = order[start : start + BATCH]
            batch = model.make_batch([src[i] for i in idx], [tgt[i] for i in idx])
            training.mle_step(params, opt, batch, rng=rng)
    model.save_checkpoint(path, params, vocab.src_tokens, vocab.tgt_tokens)


def ensure_model(root: Path, cache: Path) -> Path:
    """Train the decode/RL model from the code under test, in a child
    process, once per source digest."""
    recipe = inspect.getsource(train_model) + repr((MODEL_SEED, MODEL_PER_TEMPLATE, MODEL_EPOCHS, MODEL_LR, DESK, BATCH))
    key = hashlib.sha256((source_digest(root) + recipe).encode()).hexdigest()
    path = cache / f"model-{key[:16]}.npz"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f"tmp-{os.getpid()}.npz"
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--train-model", str(tmp)],
            check=True, timeout=900, cwd=root,
        )
        os.replace(tmp, path)
    return path


def load_model(path: Path):
    params, src_tokens, tgt_tokens = model.load_checkpoint(str(path))
    return params, corpus.Vocabulary(src_tokens, tgt_tokens)


# ---------------------------------------------------------------------------
# mle_train
# ---------------------------------------------------------------------------


def mle_train(seed: int, seconds: float, tracer, ctx) -> Outcome:
    """The training set, init and batch order are the same in every run, so
    every run trains the same model; the seed draws the held-out problems
    it is scored on and the gradient-check coordinates."""
    out = Outcome(seeds={"train": MODEL_SEED, "init": MODEL_SEED,
                         **sub_seeds("mle_train", seed, ("heldout", "grad"))})
    s = out.seeds

    def setup():
        train_insts, _ = corpus.prepare_all(flat(stratified(s["train"], MLE_TRAIN_PER_TEMPLATE)))
        held, _ = corpus.prepare_all(flat(stratified(s["heldout"], MLE_HELDOUT_PER_TEMPLATE), s["heldout"]))
        vocab = corpus.Vocabulary.build(train_insts)
        return train_insts, held, vocab, desk_config(vocab)

    tracer.active = True
    train_insts, held, vocab, config = timed_setup(out, setup)
    first_round = None
    for r in rounds(seconds, out):
        params = model.init_params(config, s["init"])
        opt = training.Adam(params, 1e-3)
        rng = np.random.default_rng(s["init"])
        losses = []
        for epoch in range(MLE_EPOCHS):
            order = rng.permutation(len(train_insts))
            loss = tokens = 0.0
            for start in range(0, len(order), BATCH):
                chunk = [train_insts[i] for i in order[start : start + BATCH]]
                out.attempted += 1
                tracer.op = out.attempted
                try:
                    t0 = time.perf_counter()
                    batch = model.make_batch(
                        [vocab.encode_source(i.source) for i in chunk],
                        [vocab.encode_target(list(i.template.tokens)) for i in chunk],
                    )
                    parts = training.mle_step(params, opt, batch, rng=rng)
                    dt = time.perf_counter() - t0
                except Exception:
                    out.fail("mle_step")
                    continue
                out.timed((epoch, start), dt * 1e3)
                loss += parts.total.item()
                tokens += parts.tokens_l2r + parts.tokens_r2l
                out.insts += len(chunk)
            losses.append(loss / max(tokens, 1))
        tracer.op = -1
        if first_round is None:
            first_round = (params, losses)
    out.timed_rounds_done(tracer)

    params, losses = first_round
    out.check(losses[-1] < losses[0], f"training loss did not fall: {losses}")
    held_batch = model.make_batch(
        [vocab.encode_source(i.source) for i in held],
        [vocab.encode_target(list(i.template.tokens)) for i in held],
    )
    nll_sum = tokens = 0
    with numerics.no_grad():
        for start in range(0, len(held), 64):
            chunk = model.Batch(*(a[start : start + 64] for a in (held_batch.src, held_batch.tgt_l2r, held_batch.tgt_r2l)))
            parts = model.joint_loss(params, chunk)
            nll_sum += parts.total.item()
            tokens += parts.tokens_l2r + parts.tokens_r2l
    nll = nll_sum / tokens
    out.check(nll < math.log(vocab.tgt_size), f"held-out NLL {nll} not below log V")
    out.problems += grad_check(params, held_batch, s["grad"])

    out.inst_per_s = MLE_EPOCHS * len(train_insts) / out.round_s()
    out.quality = math.exp(-nll)
    out.named = {"mle_inst_per_s": (out.inst_per_s, "1/s"), "heldout_nll": (nll, "nats")}
    return out


def grad_check(params, held_batch, seed) -> list[str]:
    """Backward against central differences of joint_loss, dropout off,
    at GRAD_COORDS coordinates drawn over all parameter tensors."""
    batch = model.Batch(held_batch.src[:GRAD_BATCH], held_batch.tgt_l2r[:GRAD_BATCH],
                        held_batch.tgt_r2l[:GRAD_BATCH])
    params.zero_grad()
    numerics.backward(model.joint_loss(params, batch).total)
    grads = {name: t.grad.copy() for name, t in params.named() if t.grad is not None}
    tensors = {name: t.data for name, t in params.named()}
    rng = random.Random(seed)
    names = sorted(grads)
    coords = [(n, rng.randrange(tensors[n].size)) for n in (rng.choice(names) for _ in range(GRAD_COORDS))]

    def loss():
        with numerics.no_grad():
            return model.joint_loss(params, batch).total.item()

    bad = checks.fd_mismatches(loss, tensors, grads, coords)
    params.zero_grad()
    return [f"gradient mismatch at {b}" for b in bad]


# ---------------------------------------------------------------------------
# decode_beam10
# ---------------------------------------------------------------------------


def decode_beam10(seed: int, seconds: float, tracer, ctx) -> Outcome:
    """The held-out problems are the same in every run, so latency
    percentiles do not move with the problem draw; the seed picks the order
    of each round."""
    out = Outcome(seeds={"heldout": DECODE_HELDOUT_SEED, **sub_seeds("decode_beam10", seed, ("order",))})

    def setup():
        params, vocab = load_model(ctx["model"])
        insts, _ = corpus.prepare_all(flat(stratified(DECODE_HELDOUT_SEED, DECODE_PER_TEMPLATE)))
        srcs = [np.asarray(vocab.encode_source(i.source), dtype=np.int64) for i in insts]
        return params, vocab, insts, srcs

    tracer.active = True
    params, vocab, insts, srcs = timed_setup(out, setup)
    first = []
    for r in rounds(seconds, out):
        # a fresh order each round, so no problem always runs in the same stretch of the run
        order = random.Random(f"{out.seeds['order']}:{r}").sample(range(len(insts)), len(insts))
        for i in order:
            inst, src = insts[i], srcs[i]
            out.attempted += 1
            tracer.op = out.attempted
            try:
                t0 = time.perf_counter()
                hyps_l, hyps_r = decoding.decode_both(params, src, DECODE_BEAM, MAX_LEN)
                voted = decoding.vote(hyps_l[0], hyps_r[0])
                tokens = vocab.decode_target(voted)
                correct = equations.reward(tokens, inst.mapping, inst.problem.answers)
                out.timed(i, (time.perf_counter() - t0) * 1e3)
            except Exception:
                out.fail(inst.problem.id)
                continue
            out.insts += 1
            if r == 0:
                first.append((inst, src, hyps_l, hyps_r, voted, tokens, correct))
        tracer.op = -1
    out.timed_rounds_done(tracer)

    for inst, src, hyps_l, hyps_r, voted, tokens, correct in first:
        pid = inst.problem.id
        for hyps in (hyps_l, hyps_r):
            bad = checks.rescore_mismatches(params, src, hyps)
            out.check(not bad, f"{pid}: beam scores differ from teacher-forced scores {bad}")
        out.check(not checks.vote_mismatch(voted, hyps_l[0], hyps_r[0]), f"{pid}: wrong vote")
        if correct:
            out.check(
                checks.answers_satisfy(tokens, inst.mapping.by_symbol, inst.problem.answers),
                f"{pid}: counted correct but gold answers do not satisfy {tokens}",
            )
    accuracy = sum(f[-1] for f in first) / len(first)
    p50, p90 = np.percentile(out.op_latency_ms(), [50, 90])
    out.inst_per_s = len(insts) / out.round_s()
    out.quality = accuracy
    out.named = {"decode_ms_p50": (p50, "ms"), "decode_ms_p90": (p90, "ms"),
                 "heldout_accuracy": (accuracy, "frac")}
    return out


# ---------------------------------------------------------------------------
# rl_beam6
# ---------------------------------------------------------------------------


def rl_beam6(seed: int, seconds: float, tracer, ctx) -> Outcome:
    """The first RL_PER_TEMPLATE training problems of each template, the
    same in every run, so the mean reward is a property of the code; the
    seed picks their order."""
    out = Outcome(seeds={"problems": MODEL_SEED, **sub_seeds("rl_beam6", seed, ("order",))})

    def setup():
        params, vocab = load_model(ctx["model"])
        picked = flat(stratified(MODEL_SEED, RL_PER_TEMPLATE), out.seeds["order"])
        insts, _ = corpus.prepare_all(picked)
        return params, vocab, insts

    tracer.active = True
    params0, vocab, insts = timed_setup(out, setup)
    rewards = []
    for r in rounds(seconds, out):
        params = params0.copy()
        opt = training.Adam(params, RL_LR)
        for i, inst in enumerate(insts):
            before = {name: t.data.copy() for name, t in params.named()}
            out.attempted += 1
            tracer.op = out.attempted
            try:
                t0 = time.perf_counter()
                res = training.reinforce_step(params, opt, vocab, inst, beam_size=RL_BEAM, max_len=MAX_LEN)
                out.timed(i, (time.perf_counter() - t0) * 1e3)
            except Exception:
                out.fail(inst.problem.id)
                continue
            out.insts += 1
            rewards.append(res.mean_reward)
            changed = any(not np.array_equal(before[n], t.data) for n, t in params.named())
            out.check(changed == res.updated,
                      f"{inst.problem.id}: parameters changed={changed} but updated={res.updated}")
            out.check(all(np.isfinite(t.data).all() for _, t in params.named()),
                      f"{inst.problem.id}: non-finite parameters")
        tracer.op = -1
    out.timed_rounds_done(tracer)

    out.inst_per_s = len(insts) / out.round_s()
    out.quality = sum(rewards) / len(rewards)
    out.named = {"rl_inst_per_s": (out.inst_per_s, "1/s"), "rl_mean_reward": (out.quality, "frac")}
    return out


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------


def cli_pipeline(seed: int, seconds: float, tracer, ctx) -> Outcome:
    """gen, preprocess, train and eval through eqgen.cli.main, in-process.
    Both files are the same in every run, so every run trains and scores
    the same model; the seed picks the fold split. The timed operation is
    one command; a round runs all six."""
    out = Outcome(seeds={"train": MODEL_SEED, "heldout": CLI_HELDOUT_SEED,
                         **sub_seeds("cli_pipeline", seed, ("folds",))})
    s = out.seeds
    work = ctx["out_dir"] / f"cli-{os.getpid()}"
    train_f, held_f, ckpt = work / "train.jsonl", work / "heldout.jsonl", work / "model.npz"

    def setup():
        """CLI start-up: a fresh interpreter importing eqgen.cli."""
        work.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-c", "import eqgen.cli"], check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(ctx["root"] / "src")})

    calls = (
        ("gen", "--n", CLI_TRAIN_N, "--seed", s["train"], "--out", train_f),
        ("gen", "--n", CLI_HELDOUT_N, "--seed", s["heldout"], "--out", held_f),
        ("preprocess", "--in", train_f, "--out", work / "train.prep.jsonl"),
        ("preprocess", "--in", held_f, "--out", work / "heldout.prep.jsonl"),
        ("train", "--data", train_f, "--epochs", CLI_EPOCHS, "--lr", CLI_LR, "--seed", 0, "--out", ckpt),
        ("eval", "--data", held_f, "--ckpt", ckpt, "--folds", CLI_FOLDS, "--seed", s["folds"]),
    )
    tracer.active = True
    timed_setup(out, setup)
    first = None
    for r in rounds(seconds, out):
        tracer.op = r
        printed = []
        for k, argv in enumerate(calls):
            out.attempted += 1
            buf = io.StringIO()
            try:
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([str(a) for a in argv])
                out.timed(k, (time.perf_counter() - t0) * 1e3)
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
            except Exception:
                out.fail(" ".join(map(str, argv)))
                continue
            printed.append(buf.getvalue())
        tracer.op = -1
        out.insts += CLI_TRAIN_N + CLI_HELDOUT_N
        if first is None and len(printed) == len(calls):
            first = (printed, train_f.read_text(), held_f.read_text())
    out.timed_rounds_done(tracer)
    out.steps = len(out.round_starts) - 1  # the per-layer cli.* figures are per round
    for f in work.iterdir():
        f.unlink()
    work.rmdir()

    if first is None:
        out.problems.append("no round completed every subcommand")
        return out
    printed, train_text, held_text = first
    for text in (train_text, held_text):
        for line in text.splitlines():
            rec = json.loads(line)
            try:
                ok = checks.answers_satisfy(checks.tokenize(rec["equations"]), {}, rec["answers"])
            except checks.EvalError:
                ok = False
            out.check(ok, f"{rec['id']}: answers do not satisfy {rec['equations']}")
    for text in printed[2:4]:
        m = re.search(r"(\d+) unalignable", text)
        out.check(m is not None and m.group(1) == "0", f"preprocess reported: {text.strip()}")
    train_acc = json.loads(printed[4].splitlines()[-1])["answer_accuracy_vote"]
    report = json.loads(printed[5])
    n = report["n"]
    out.check(sum(f["n"] for f in report["folds"]) == n == CLI_HELDOUT_N, "fold sizes do not sum to n")
    weighted = sum(f["n"] * f["answer_accuracy_vote"] for f in report["folds"]) / n
    heldout_acc = report["overall"]["answer_accuracy_vote"]
    out.check(abs(weighted - heldout_acc) < 1e-12,
              f"overall vote accuracy {heldout_acc} is not the fold-weighted mean {weighted}")

    pipeline_s = out.round_s()
    # three to five rounds are too few for a tail: both percentiles read the
    # round at each command's median time
    out.latency_ms = [pipeline_s * 1e3]
    out.inst_per_s = (CLI_TRAIN_N + CLI_HELDOUT_N) / pipeline_s
    out.quality = train_acc
    out.named = {"pipeline_s": (pipeline_s, "s"), "heldout_accuracy": (heldout_acc, "frac"),
                 "train_accuracy": (train_acc, "frac")}
    return out


WORKLOADS = {
    "mle_train": mle_train,
    "decode_beam10": decode_beam10,
    "rl_beam6": rl_beam6,
    "cli_pipeline": cli_pipeline,
}
