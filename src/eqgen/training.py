"""Maximum-likelihood training and REINFORCE fine-tuning.

Phase one minimizes the summed cross entropy of both decoders with Adam
over shuffled batches of ``MLE_BATCH_SIZE`` instances; after the last
epoch its record carries ``corpus.evaluate``'s answer accuracies on the
training set, at the default beam and length. Phase two continues from the
trained policy on the instances that have answers: candidate sequences come
from beam search in both directions (beam 6 by default), and every returned
hypothesis is one of the N samples of the pool. The pool is that list of
hypotheses and one array of their 0/1 answer rewards, the reward that
evaluation gives a top hypothesis (``corpus.hypothesis_reward``). The mean
reward r_b is the baseline, and each sample's advantage is r_n - r_b. The
policy-gradient loss is

    (1/N) * sum_n (r_n - r_b) * CE(sample_n)

where CE is the teacher-forced negative log-likelihood of the sample under
its own direction's factorization. One encoder pass and one padded decoder
pass per direction score the whole pool; each sample's advantage weights
its target positions in the cross entropy. Rewards never enter the
differentiation graph; they only weight it. When every advantage is zero
so is the gradient, and the step returns before the teacher-forced pass.
The pre-update gradient is clipped to a global norm of 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import corpus, decoding
from .corpus import DatasetError, PreparedInstance, Vocabulary
from .model import (
    DIRECTIONS,
    Batch,
    LossParts,
    ModelConfig,
    ModelParams,
    encode,
    init_params,
    joint_loss,
    make_batch,
)
from .numerics import NonFiniteError, Tensor, add, backward


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; the run is aborted with a diagnostic."""


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction; per-parameter first/second moments."""

    def __init__(
        self,
        params: ModelParams,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.98,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.steps = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.named()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.named()}

    def step(self) -> None:
        self.steps += 1
        c1 = 1.0 - self.beta1**self.steps
        c2 = 1.0 - self.beta2**self.steps
        for name, tensor in self.params.named():
            g = tensor.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            tensor.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def grad_norm(params: ModelParams) -> float:
    total = 0.0
    for _, t in params.named():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return math.sqrt(total)


def clip_grads(params: ModelParams, max_norm: float) -> float:
    """Scale gradients to a global norm of max_norm; returns the pre-clip norm."""
    norm = grad_norm(params)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, t in params.named():
            if t.grad is not None:
                t.grad *= scale
    return norm


# ---------------------------------------------------------------------------
# mle
# ---------------------------------------------------------------------------

MLE_BATCH_SIZE = 16


def mle_step(params: ModelParams, opt: Adam, batch: Batch, rng=None) -> LossParts:
    """One optimizer update on the joint loss; returns the pre-update loss.
    Each decoder in turn runs (dropout draws encoder, L2R, R2L) and is
    back-propagated down to the encoder memory, so one decoder's activations
    are held at a time; then the encoder, from the summed memory gradients."""
    params.zero_grad()
    try:
        l2r = joint_loss(params, batch, True, rng, DIRECTIONS[:1])
        memory = l2r.memory
        grad = backward(l2r.total, stop=memory)
        r2l = joint_loss(params, batch, True, rng, DIRECTIONS[1:], memory)
    except NonFiniteError as e:
        raise TrainingDiverged(f"non-finite loss at optimizer step {opt.steps + 1}: {e}") from e
    backward(memory, grad + backward(r2l.total, stop=memory))
    opt.step()
    return LossParts(Tensor.from_checked(l2r.total.data + r2l.total.data), l2r.total, r2l.total,
                     l2r.tokens_l2r, r2l.tokens_r2l)


# ---------------------------------------------------------------------------
# reinforce
# ---------------------------------------------------------------------------


@dataclass
class RlStepResult:
    mean_reward: float
    n_samples: int
    grad_norm: float
    updated: bool


def sample_pool(
    params: ModelParams,
    vocab: Vocabulary,
    src: np.ndarray,
    inst: PreparedInstance,
    beam_size: int,
    max_len: int,
) -> tuple[list[decoding.Hypothesis], np.ndarray]:
    """Beam search both directions: every returned hypothesis, L2R first, and
    the array of their 0/1 rewards."""
    hyps_l, hyps_r = decoding.decode_both(params, src, beam_size, max_len)
    hyps = hyps_l + hyps_r
    return hyps, np.array([corpus.hypothesis_reward(vocab, hyp, inst) for hyp in hyps])


def policy_loss(params: ModelParams, src: np.ndarray, hyps: Sequence[decoding.Hypothesis],
                advantages: np.ndarray) -> Tensor:
    """The REINFORCE loss ``-(1/N) * sum_n advantages[n] * log p(hyps[n])``:
    one encoder pass, and per direction one teacher-forced pass of
    log-probabilities weighted by ``-advantages[n] / N``; the two terms added."""
    memory = encode(params, src)
    groups = [[i for i, h in enumerate(hyps) if h.direction == direction] for direction in DIRECTIONS]
    terms = [decoding.hypothesis_log_prob(params, src, [hyps[i] for i in idx], memory,
                                          -advantages[idx] / len(hyps)) for idx in groups if idx]
    return terms[0] if len(terms) == 1 else add(*terms)


def reinforce_step(
    params: ModelParams,
    opt: Adam,
    vocab: Vocabulary,
    inst: PreparedInstance,
    beam_size: int = 6,
    max_len: int = 64,
    max_grad_norm: float = 1.0,
) -> RlStepResult:
    """One policy-gradient update on one instance.

    The advantage of each sample is its reward minus the pool's mean reward,
    the baseline. It weights the sample's teacher-forced loss, so gradients
    flow through log-probabilities only, never through rewards. A pool whose
    advantages are all zero has zero gradient: it is neither scored nor
    back-propagated, and the parameters stay as they are.
    """
    src = np.asarray(vocab.encode_source(inst.source), dtype=np.int64)
    hyps, rewards = sample_pool(params, vocab, src, inst, beam_size, max_len)
    r_b = float(rewards.mean())
    advantages = rewards - r_b
    if not advantages.any():
        return RlStepResult(r_b, len(hyps), 0.0, updated=False)
    params.zero_grad()
    backward(policy_loss(params, src, hyps, advantages))
    norm = clip_grads(params, max_grad_norm)
    opt.step()
    return RlStepResult(r_b, len(hyps), norm, updated=True)


# ---------------------------------------------------------------------------
# the training driver
# ---------------------------------------------------------------------------


@dataclass
class TrainSettings:
    epochs: int = 300
    lr: float = 1e-3
    seed: int = 0
    rl_epochs: int = 0
    rl_lr: float = 1e-5
    rl_beam: int = 6
    log_path: Optional[str] = None


def _log(settings: TrainSettings, metrics: list[dict], record: dict) -> None:
    metrics.append(record)
    if settings.log_path:
        with open(settings.log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


def _metric_record(epoch: int, split: str) -> dict:
    return {
        "epoch": epoch,
        "split": split,
        "loss_l2r": None,
        "loss_r2l": None,
        "answer_accuracy_l2r": None,
        "answer_accuracy_r2l": None,
        "answer_accuracy_vote": None,
        "mean_reward": None,
    }


def _batches(instances, vocab, order):
    for start in range(0, len(order), MLE_BATCH_SIZE):
        chunk = [instances[i] for i in order[start : start + MLE_BATCH_SIZE]]
        src = [vocab.encode_source(inst.source) for inst in chunk]
        tgt = [vocab.encode_target(list(inst.template.tokens)) for inst in chunk]
        yield make_batch(src, tgt)


def run_mle(
    params: ModelParams,
    vocab: Vocabulary,
    train_insts: Sequence[PreparedInstance],
    settings: TrainSettings,
    metrics: Optional[list[dict]] = None,
) -> list[dict]:
    """Cross-entropy phase over the alignable training instances that fit
    the model: a source, and a template after the begin sentinel, no longer
    than ``max_positions``. Logs one ``"train"`` record per epoch, whose
    ``"skipped"`` counts the instances left out; the last epoch's record
    also carries the answer accuracies of beam-decoding every one of
    ``train_insts``. Raises ``DatasetError`` when no instance is left.
    """
    usable = [i for i in train_insts if corpus.encodable(vocab, i) and corpus.fits(params.config, i.source)
              and len(i.template.tokens) < params.config.max_positions]
    if not usable:
        raise DatasetError("no alignable training instances that fit max_positions")
    metrics = metrics if metrics is not None else []
    opt = Adam(params, settings.lr)
    rng = np.random.default_rng(settings.seed)
    order_rng = np.random.default_rng(settings.seed + 1)
    for epoch in range(settings.epochs):
        order = order_rng.permutation(len(usable))
        tot_l = tot_r = 0.0
        n_l = n_r = 0
        for batch in _batches(usable, vocab, order):
            parts = mle_step(params, opt, batch, rng=rng)
            tot_l += parts.l2r.item()
            tot_r += parts.r2l.item()
            n_l += parts.tokens_l2r
            n_r += parts.tokens_r2l
        record = _metric_record(epoch, "train")
        record["loss_l2r"] = tot_l / max(n_l, 1)
        record["loss_r2l"] = tot_r / max(n_r, 1)
        record["skipped"] = len(train_insts) - len(usable)
        if epoch == settings.epochs - 1:
            accs = corpus.evaluate(params, vocab, train_insts)
            record.update({key: value for key, value in accs.items() if key in record})
        _log(settings, metrics, record)
    return metrics


def run_rl(
    params: ModelParams,
    vocab: Vocabulary,
    train_insts: Sequence[PreparedInstance],
    settings: TrainSettings,
    metrics: Optional[list[dict]] = None,
) -> list[dict]:
    """REINFORCE phase: one ``reinforce_step`` per usable instance and
    epoch, logging one ``"rl-train"`` record per epoch. Its ``"grad_norm"``
    is the mean pre-clip gradient norm of the epoch's updates, ``None`` when
    no step updated. Instances with no answers, or a source that is empty
    or longer than ``max_positions``, cannot be rewarded or encoded; they
    are left out, and each record's ``"skipped"`` counts them. Raises
    ``DatasetError`` when no instance is left."""
    metrics = metrics if metrics is not None else []
    usable = [i for i in train_insts if i.problem.answers and corpus.fits(params.config, i.source)]
    if not usable:
        raise DatasetError("no instances with answers and a source to train on")
    skipped = len(train_insts) - len(usable)
    opt = Adam(params, settings.rl_lr)
    order_rng = np.random.default_rng(settings.seed + 2)
    for epoch in range(settings.rl_epochs):
        order = order_rng.permutation(len(usable))
        steps = [reinforce_step(params, opt, vocab, usable[i], settings.rl_beam) for i in order]
        norms = [step.grad_norm for step in steps if step.updated]
        record = _metric_record(epoch, "rl-train")
        record["mean_reward"] = sum(step.mean_reward for step in steps) / len(steps)
        record["grad_norm"] = sum(norms) / len(norms) if norms else None
        record["skipped"] = skipped
        _log(settings, metrics, record)
    return metrics


def train(
    config: ModelConfig,
    train_insts: Sequence[PreparedInstance],
    vocab: Vocabulary,
    settings: TrainSettings,
) -> tuple[ModelParams, list[dict]]:
    """Full pipeline: seeded init, MLE phase, optional REINFORCE phase."""
    params = init_params(config, np.random.default_rng(settings.seed))
    metrics: list[dict] = []
    run_mle(params, vocab, train_insts, settings, metrics)
    if settings.rl_epochs > 0:
        run_rl(params, vocab, train_insts, settings, metrics)
    return params, metrics
