"""Spans around eqgen's public layer functions, recorded from outside.

``Tracer.install`` replaces each traced function at every name that binds
it: the defining module and every eqgen module that imported it by name
(``eqgen.training.backward`` is ``eqgen.numerics.backward`` bound again),
and the class attribute for a method such as ``training.Adam.step``.
Spans stay in memory as [name, start, end, parent span, operation,
counters] and are written out once, after the run. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

from eqgen.model import PAD_ID

# Module -> traced public functions. These are the layer boundaries the
# per-layer metrics name; op kinds and sublayers inside model.py are not
# wrapped from here.
TRACED = {
    "numerics": ("backward",),
    "model": ("init_params", "load_checkpoint", "save_checkpoint", "make_batch", "encode",
              "decoder_forward", "joint_loss"),
    "decoding": ("decode_both", "beam_search", "vote", "hypothesis_log_prob"),
    "training": ("Adam.step", "mle_step", "sample_pool", "reinforce_step", "train"),
    "equations": ("reward",),
    "numbering": ("extract_numbers", "align"),
    "corpus": ("synth_gen", "prepare_all", "load", "save", "evaluate"),
    "cli": ("cmd_gen", "cmd_preprocess", "cmd_train", "cmd_eval"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _decoder_counts(args, kwargs, out, parent):
    rows, t = out.shape[:2]
    memory = _arg(args, kwargs, 3, "memory")
    # beam search reads only the last position's logits; teacher forcing reads all
    used = rows if parent == "decoding.beam_search" else rows * t
    return {"positions": rows * t, "used": used, "memory_rows": memory.shape[0] * memory.shape[1]}


def _batch_counts(args, kwargs, out, parent):
    targets = np.concatenate([out.tgt_l2r[:, 1:], out.tgt_r2l[:, 1:]])
    return {"real": int((targets != PAD_ID).sum()), "positions": targets.size}


COUNTERS = {
    "model.decoder_forward": _decoder_counts,
    "model.make_batch": _batch_counts,
    "decoding.beam_search": lambda a, k, out, p: {"top_len": len(out[0].tokens) if out else 0},
    "training.reinforce_step": lambda a, k, out, p: {"updated": int(out.updated)},
    "corpus.synth_gen": lambda a, k, out, p: {"problems": len(out)},
    "corpus.prepare_all": lambda a, k, out, p: {"problems": len(out[0])},
    "corpus.evaluate": lambda a, k, out, p: {"problems": len(_arg(a, k, 2, "instances"))},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = -1  # index of the workload operation the next spans belong to
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, out, self.spans[parent][0] if parent >= 0 else None)
            return out

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"eqgen.{m}") for m in TRACED]
        for short, names in TRACED.items():
            home = importlib.import_module(f"eqgen.{short}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                fn = getattr(owner, attr)
                wrapped = self._wrap(f"{short}.{qual}", fn)
                sites = [owner] if owner_name else [m for m in modules if getattr(m, attr, None) is fn]
                for site in sites:
                    self._patched.append((site, attr, fn))
                    setattr(site, attr, wrapped)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patched):
            setattr(site, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        rows = [[n, s - self._t0, e - self._t0, p, op, c] for n, s, e, p, op, c in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "counters"],
                       "spans": rows}, fh)


def summarize(spans, measured_only: bool = False) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counters;
    with measured_only, only spans inside a timed operation (op >= 0)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, op, counters) in enumerate(spans):
        if measured_only and op < 0:
            continue
        s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child[i]
        for k, v in (counters or {}).items():
            s[k] = s.get(k, 0) + v
    return out


PER_LAYER = (
    # name, unit
    ("numerics.backward.ms_per_step", "ms"),
    ("model.joint_loss.ms_per_step", "ms"),
    ("model.make_batch.real_token_ratio", "frac"),
    ("training.Adam.step.ms_per_step", "ms"),
    ("model.encode.ms_per_inst", "ms"),
    ("model.decoder_forward.ms_per_inst", "ms"),
    ("model.decoder_forward.calls_per_inst", "count"),
    ("model.decoder_forward.positions_per_inst", "count"),
    ("model.decoder_forward.new_position_ratio", "frac"),
    ("model.decoder_forward.memory_rows_per_inst", "count"),
    ("decoding.beam_search.self_ms_per_inst", "ms"),
    ("decoding.beam_search.top_len_mean", "tokens"),
    ("decoding.hypothesis_log_prob.calls_per_step", "count"),
    ("decoding.hypothesis_log_prob.ms_per_step", "ms"),
    ("training.sample_pool.ms_per_step", "ms"),
    ("training.reinforce_step.self_ms_per_step", "ms"),
    ("training.reinforce_step.update_ratio", "frac"),
    ("equations.reward.calls_per_inst", "count"),
    ("equations.reward.ms_per_inst", "ms"),
    ("numbering.extract_numbers.ms_per_problem", "ms"),
    ("numbering.align.ms_per_problem", "ms"),
    ("corpus.synth_gen.ms_per_problem", "ms"),
    ("corpus.prepare_all.ms_per_problem", "ms"),
    ("decoding.decode_both.calls_per_problem", "count"),
    ("corpus.evaluate.ms_per_problem", "ms"),
    ("cli.gen.s", "s"),
    ("cli.preprocess.s", "s"),
    ("cli.train.s", "s"),
    ("cli.eval.s", "s"),
)


def layer_metrics(spans, steps: int, insts: int) -> dict[str, float]:
    """Every PER_LAYER metric. ``steps`` counts the workload's timed
    operations and ``insts`` the instances they processed; per-step and
    per-instance figures count only spans inside timed operations, per-problem
    figures count every call, set-up included. A layer the workload never
    calls reads 0."""
    timed = summarize(spans, measured_only=True)
    every = summarize(spans)

    def get(name, key="total"):
        return timed.get(name, {}).get(key, 0)

    def get_all(name, key="total"):
        return every.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ms = 1e3
    return {
        "numerics.backward.ms_per_step": ms * ratio(get("numerics.backward"), steps),
        "model.joint_loss.ms_per_step": ms * ratio(get("model.joint_loss"), steps),
        "model.make_batch.real_token_ratio": ratio(get("model.make_batch", "real"),
                                                   get("model.make_batch", "positions")),
        "training.Adam.step.ms_per_step": ms * ratio(get("training.Adam.step"), steps),
        "model.encode.ms_per_inst": ms * ratio(get("model.encode"), insts),
        "model.decoder_forward.ms_per_inst": ms * ratio(get("model.decoder_forward"), insts),
        "model.decoder_forward.calls_per_inst": ratio(get("model.decoder_forward", "calls"), insts),
        "model.decoder_forward.positions_per_inst": ratio(get("model.decoder_forward", "positions"), insts),
        "model.decoder_forward.new_position_ratio": ratio(get("model.decoder_forward", "used"),
                                                          get("model.decoder_forward", "positions")),
        "model.decoder_forward.memory_rows_per_inst": ratio(get("model.decoder_forward", "memory_rows"), insts),
        "decoding.beam_search.self_ms_per_inst": ms * ratio(get("decoding.beam_search", "self"), insts),
        "decoding.beam_search.top_len_mean": ratio(get("decoding.beam_search", "top_len"),
                                                   get("decoding.beam_search", "calls")),
        "decoding.hypothesis_log_prob.calls_per_step": ratio(get("decoding.hypothesis_log_prob", "calls"), steps),
        "decoding.hypothesis_log_prob.ms_per_step": ms * ratio(get("decoding.hypothesis_log_prob"), steps),
        "training.sample_pool.ms_per_step": ms * ratio(get("training.sample_pool"), steps),
        "training.reinforce_step.self_ms_per_step": ms * ratio(get("training.reinforce_step", "self"), steps),
        "training.reinforce_step.update_ratio": ratio(get("training.reinforce_step", "updated"),
                                                      get("training.reinforce_step", "calls")),
        "equations.reward.calls_per_inst": ratio(get("equations.reward", "calls"), insts),
        "equations.reward.ms_per_inst": ms * ratio(get("equations.reward"), insts),
        "numbering.extract_numbers.ms_per_problem": ms * ratio(get_all("numbering.extract_numbers"),
                                                               get_all("numbering.extract_numbers", "calls")),
        "numbering.align.ms_per_problem": ms * ratio(get_all("numbering.align"), get_all("numbering.align", "calls")),
        "corpus.synth_gen.ms_per_problem": ms * ratio(get_all("corpus.synth_gen"), get_all("corpus.synth_gen", "problems")),
        "corpus.prepare_all.ms_per_problem": ms * ratio(get_all("corpus.prepare_all"),
                                                        get_all("corpus.prepare_all", "problems")),
        "decoding.decode_both.calls_per_problem": ratio(get("decoding.decode_both", "calls"), insts),
        "corpus.evaluate.ms_per_problem": ms * ratio(get("corpus.evaluate"), get("corpus.evaluate", "problems")),
        "cli.gen.s": ratio(get("cli.cmd_gen"), steps),
        "cli.preprocess.s": ratio(get("cli.cmd_preprocess"), steps),
        "cli.train.s": ratio(get("cli.cmd_train"), steps),
        "cli.eval.s": ratio(get("cli.cmd_eval"), steps),
    }
