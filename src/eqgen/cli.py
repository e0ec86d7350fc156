"""Command-line entry point.

Subcommands:
    gen         write a synthetic problem set
    preprocess  apply the numbering pipeline, report unalignable instances
    train       cross-entropy training, writes a checkpoint + metrics log
    rl          REINFORCE fine-tuning from a checkpoint
    eval        fold-wise answer accuracy of a checkpoint
    solve       parse/substitute/solve one equation list (debugging)

BLAS runs one thread unless the environment says otherwise: importing this
module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
where they are unset, before numpy is loaded. The model's products are
small, and extra BLAS threads cost more CPU time than they save wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from fractions import Fraction

# before the imports below load numpy, which reads these once
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import corpus, equations, numbering, training
from .corpus import DatasetError, TemplateError, Vocabulary
from .model import ConfigError, ModelConfig, load_checkpoint, save_checkpoint
from .numbering import NumberMapping


def _desk_config(vocab: Vocabulary, overrides: dict | None = None) -> ModelConfig:
    """``ModelConfig``'s defaults with the ``--config`` overrides; the
    vocabulary sizes always come from the data."""
    overrides = overrides or {}
    kinds = typing.get_type_hints(ModelConfig)
    unknown = sorted(set(overrides) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key, value in overrides.items():
        kind = kinds[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {json.dumps(value)}")
    return ModelConfig(**{**overrides, "vocab_src": vocab.src_size, "vocab_tgt": vocab.tgt_size})


def _error(message: str) -> int:
    print(f"eqgen: error: {message}", file=sys.stderr)
    return 2


def _bad_lr(lr: float) -> bool:
    return not (math.isfinite(lr) and lr > 0)


def cmd_gen(args) -> int:
    if args.n < 0:
        return _error(f"--n must be at least 0, got {args.n}")
    templates = None
    if args.templates and args.templates != "all":
        templates = [t.strip() for t in args.templates.split(",") if t.strip()]
    problems = corpus.synth_gen(args.seed, args.n, templates)
    corpus.save(args.out, problems)
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    problems = corpus.load(args.in_path)
    instances, unalignable = corpus.prepare_all(problems)
    with open(args.out, "w", encoding="utf-8") as fh:
        for inst in instances:
            rec = inst.problem.to_record()
            rec["source_tokens"] = inst.source
            rec["template"] = list(inst.template.tokens) if inst.alignable else None
            rec["numbers"] = [
                {"surface": n.surface, "value": str(n.value), "symbol": n.symbol}
                for n in inst.numbers
            ]
            fh.write(json.dumps(rec) + "\n")
    print(f"prepared {len(instances)} instances, {unalignable} unalignable")
    return 0


def cmd_train(args) -> int:
    if args.epochs < 1:
        return _error(f"--epochs must be at least 1, got {args.epochs}")
    if _bad_lr(args.lr):
        return _error(f"--lr must be a finite number above 0, got {args.lr}")
    instances, unalignable = corpus.prepare_all(corpus.load(args.data))
    usable = [i for i in instances if i.alignable]
    if unalignable:
        print(f"excluding {unalignable} unalignable instances from training", file=sys.stderr)
    vocab = Vocabulary.build(usable)
    overrides = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as e:
                raise ConfigError(f"{args.config}: not valid JSON: {e}") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"{args.config}: the top level must be a JSON object")
    config = _desk_config(vocab, overrides)
    settings = training.TrainSettings(
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
        log_path=f"{args.out}.metrics.jsonl",
    )
    params, metrics = training.train(config, usable, vocab, settings)
    save_checkpoint(args.out, params, vocab.src_tokens, vocab.tgt_tokens)
    final = metrics[-1]
    print(f"saved checkpoint to {args.out}")
    print(json.dumps(final))
    return 0


def cmd_rl(args) -> int:
    if args.epochs < 1:
        return _error(f"--epochs must be at least 1, got {args.epochs}")
    if args.beam < 1:
        return _error(f"--beam must be at least 1, got {args.beam}")
    if _bad_lr(args.lr):
        return _error(f"--lr must be a finite number above 0, got {args.lr}")
    params, src_tokens, tgt_tokens = load_checkpoint(args.ckpt)
    vocab = Vocabulary(src_tokens, tgt_tokens)
    instances, _ = corpus.prepare_all(corpus.load(args.data))
    settings = training.TrainSettings(
        seed=args.seed,
        rl_epochs=args.epochs,
        rl_lr=args.lr,
        rl_beam=args.beam,
        log_path=f"{args.out}.metrics.jsonl",
    )
    metrics = training.run_rl(params, vocab, instances, settings)
    save_checkpoint(args.out, params, vocab.src_tokens, vocab.tgt_tokens)
    print(f"saved checkpoint to {args.out}")
    print(json.dumps(metrics[-1]))
    return 0


def cmd_eval(args) -> int:
    if args.beam < 1:
        return _error(f"--beam must be at least 1, got {args.beam}")
    params, src_tokens, tgt_tokens = load_checkpoint(args.ckpt)
    vocab = Vocabulary(src_tokens, tgt_tokens)
    instances, unalignable = corpus.prepare_all(corpus.load(args.data))
    report: dict = {"n": len(instances), "unalignable": unalignable, "folds": []}
    # every instance is decoded once; each fold sums the reports of its instances
    each = corpus.evaluate_each(params, vocab, instances, args.beam)
    if args.folds >= 2:
        for fold_idx, fold in enumerate(corpus.folds(len(instances), args.folds, args.seed)):
            r = sum((each[i] for i in fold), corpus.EvalReport(0, 0, 0, 0))
            report["folds"].append({"fold": fold_idx, **r.as_dict()})
    report["overall"] = sum(each, corpus.EvalReport(0, 0, 0, 0)).as_dict()
    print(json.dumps(report, indent=2))
    return 0


def cmd_solve(args) -> int:
    text = args.eq
    if args.nums:
        values = []
        for v in args.nums.split(","):
            try:
                values.append(Fraction(v.strip()))
            except (ValueError, ZeroDivisionError):
                return _error(f"--nums: {v.strip()!r} is not a number")
        fake_text = " ".join(equations.format_value(v).strip("()") for v in values)
        numbers = numbering.extract_numbers(fake_text)
        mapping = NumberMapping(numbers)
        tokens = [t.text for t in equations.tokenize(text)]
        try:
            text = numbering.substitute(tokens, mapping)
        except numbering.UnknownSymbolError as e:
            return _error(f"--eq: symbol {e.args[0]} is not defined by --nums")
        print(f"substituted: {text}")
    try:
        ast = equations.parse(text)
    except equations.ParseError as e:
        print(f"ill-formed: {e}")
        return 1
    sol = equations.solve(ast)
    out = {"status": sol.status}
    if sol.status == "solved":
        out["solutions"] = [{k: str(v) for k, v in s.items()} for s in sol.solutions]
        out["values"] = [str(v) for v in sol.values()]
    print(json.dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eqgen", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic problems")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--templates", type=str, default="all")
    g.add_argument("--out", type=str, required=True)
    g.set_defaults(func=cmd_gen)

    pp = sub.add_parser("preprocess", help="apply the numbering pipeline")
    pp.add_argument("--in", dest="in_path", type=str, required=True)
    pp.add_argument("--out", type=str, required=True)
    pp.set_defaults(func=cmd_preprocess)

    t = sub.add_parser("train", help="cross-entropy training")
    t.add_argument("--data", type=str, required=True)
    t.add_argument("--config", type=str, default=None)
    t.add_argument("--epochs", type=int, default=300)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", type=str, required=True)
    t.set_defaults(func=cmd_train)

    r = sub.add_parser("rl", help="REINFORCE fine-tuning")
    r.add_argument("--data", type=str, required=True)
    r.add_argument("--ckpt", type=str, required=True)
    r.add_argument("--lr", type=float, default=1e-5)
    r.add_argument("--beam", type=int, default=6)
    r.add_argument("--epochs", type=int, default=1)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", type=str, required=True)
    r.set_defaults(func=cmd_rl)

    e = sub.add_parser("eval", help="answer accuracy of a checkpoint")
    e.add_argument("--data", type=str, required=True)
    e.add_argument("--ckpt", type=str, required=True)
    e.add_argument("--beam", type=int, default=10)
    e.add_argument("--folds", type=int, default=5)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("solve", help="parse and solve one equation list")
    s.add_argument("--eq", type=str, required=True)
    s.add_argument("--nums", type=str, default=None)
    s.set_defaults(func=cmd_solve)
    return p


def main(argv=None) -> int:
    """Run one subcommand; bad input or configuration, unreadable or
    unwritable files and a diverged training run are reported as one line
    on stderr with exit code 2, like an argparse usage error."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ConfigError, TemplateError, OSError, training.TrainingDiverged) as e:
        return _error(str(e))


if __name__ == "__main__":
    sys.exit(main())
