import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eqgen import cli, corpus, decoding, equations, model, training
from eqgen.cli import main as cli_main
from eqgen.corpus import (
    DatasetError,
    EvalReport,
    Problem,
    TemplateError,
    Vocabulary,
    folds,
    load,
    prepare,
    prepare_all,
    save,
    synth_gen,
    target_token_list,
)
from eqgen.model import ModelConfig, init_params
from eqgen.numbering import substitute

F = Fraction


class TestSynthGen:
    def test_deterministic(self):
        a = synth_gen(42, 8)
        b = synth_gen(42, 8)
        assert [p.to_record() for p in a] == [p.to_record() for p in b]

    def test_zero(self):
        assert synth_gen(0, 0) == []

    def test_unknown_template(self):
        with pytest.raises(TemplateError):
            synth_gen(0, 1, templates=["nope"])

    def test_template_subset(self):
        probs = synth_gen(3, 10, templates=["square"])
        for p in probs:
            assert "^2" in p.equations

    def test_every_instance_aligns_and_round_trips(self):
        problems = synth_gen(7, 120)
        for p in problems:
            inst = prepare(p)
            assert inst.alignable, p.text
            concrete = substitute(inst.template, inst.mapping)
            sol = equations.solve(equations.parse(concrete))
            assert equations.check_answer(sol, p.answers), (p.text, concrete)

    def test_answers_are_solver_output(self):
        for p in synth_gen(9, 40):
            sol = equations.solve(equations.parse(p.equations))
            assert sol.status == "solved"
            assert sorted(map(float, sol.values())) == sorted(map(float, p.answers))


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path):
        problems = synth_gen(1, 100)
        path = tmp_path / "data.jsonl"
        save(path, problems)
        loaded = load(path)
        assert len(loaded) == 100
        for a, b in zip(problems, loaded):
            assert a.id == b.id and a.text == b.text
            assert a.equations == b.equations and a.answers == b.answers

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "a", "text": "t", "equations": "x=1", "answers": ["1"]}
        with open(path, "w") as fh:
            fh.write(json.dumps(rec) + "\n")
            bad = dict(rec)
            del bad["answers"]
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            load(path)

    def test_rational_answers_exact(self, tmp_path):
        path = tmp_path / "frac.jsonl"
        rec = {"id": "a", "text": "t", "equations": "x=10/3", "answers": ["10/3"]}
        path.write_text(json.dumps(rec) + "\n")
        loaded = load(path)
        assert loaded[0].answers == [F(10, 3)]
        assert loaded[0].answers[0] != F("3.3333")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(DatasetError, match="line 1"):
            load(path)


class TestFolds:
    def test_even_split(self):
        parts = folds(10, 5, 0)
        assert [len(p) for p in parts] == [2, 2, 2, 2, 2]

    def test_partition_properties(self):
        parts = folds(23, 5, 3)
        flat = sorted(i for p in parts for i in p)
        assert flat == list(range(23))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert folds(17, 4, 9) == folds(17, 4, 9)
        assert folds(17, 4, 9) != folds(17, 4, 10)

    def test_bad_k(self):
        with pytest.raises(DatasetError):
            folds(5, 1, 0)
        with pytest.raises(DatasetError):
            folds(3, 4, 0)


class TestVocabulary:
    def test_reserved_ids(self):
        insts, _ = prepare_all(synth_gen(2, 5))
        vocab = Vocabulary.build(insts)
        for tokens in (vocab.src_tokens, vocab.tgt_tokens):
            assert tokens[:5] == ["<pad>", "<bos>", "<bos_r>", "<eos>", "<unk>"]

    def test_target_closed_vocab(self):
        tokens = target_token_list()
        assert "N_12" in tokens and "M_1" in tokens and "F_7" in tokens
        assert "N_13" not in tokens
        assert ";" in tokens and "100" in tokens and "x" in tokens

    def test_unknown_source_becomes_unk(self):
        insts, _ = prepare_all(synth_gen(2, 5))
        vocab = Vocabulary.build(insts)
        ids = vocab.encode_source(["zzznever", "the"])
        assert ids[0] == 4

    def test_target_encode_decode(self):
        insts, _ = prepare_all(synth_gen(2, 5))
        vocab = Vocabulary.build(insts)
        toks = ["x", "+", "N_1", "=", "N_2"]
        assert vocab.decode_target(vocab.encode_target(toks)) == toks

    def test_too_many_numbers_is_unalignable(self):
        text = " and ".join(str(11 + i) for i in range(13))
        p = Problem("big", text, f"x={11}", [F(11)])
        inst = prepare(p)
        assert not inst.alignable

    def test_empty_source_is_not_encodable(self):
        # "x = 5" aligns through the whitelisted 5, but there is nothing to encode
        empty = prepare(Problem("empty", "", "x = 5", [F(5)]))
        worded = prepare(Problem("worded", "x is 5", "x = 5", [F(5)]))
        vocab = Vocabulary.build([empty, worded])
        assert empty.alignable and empty.source == []
        assert not corpus.encodable(vocab, empty)
        assert worded.source and corpus.encodable(vocab, worded)

    def test_run_mle_leaves_an_empty_source_out(self):
        empty = prepare(Problem("empty", "", "x = 5", [F(5)]))
        worded = prepare(Problem("worded", "x is 5", "x = 5", [F(5)]))
        vocab = Vocabulary.build([empty, worded])
        cfg = ModelConfig(vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size, embed_dim=8, model_dim=16,
                          layers=1, heads=2, ff_dim=16, max_positions=64, dropout=0.0)
        batches = []
        real = training.mle_step
        with pytest.MonkeyPatch.context() as m:
            m.setattr(training, "mle_step", lambda p, o, batch, rng=None: batches.append(batch) or real(p, o, batch, rng))
            training.run_mle(init_params(cfg, 0), vocab, [empty, worded], training.TrainSettings(epochs=1))
        assert [b.src.shape[0] for b in batches] == [1]
        with pytest.raises(DatasetError, match="no alignable"):
            training.run_mle(init_params(cfg, 0), vocab, [empty], training.TrainSettings(epochs=1))


class TestEvaluate:
    def test_pure_function(self):
        insts, _ = prepare_all(synth_gen(4, 6))
        vocab = Vocabulary.build(insts)
        cfg = ModelConfig(
            vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size,
            embed_dim=8, model_dim=16, layers=1, heads=2, ff_dim=16,
            max_positions=64, dropout=0.0,
        )
        params = init_params(cfg, 0)
        r1 = corpus.evaluate(params, vocab, insts, beam_size=2, max_len=16)
        r2 = corpus.evaluate(params, vocab, insts, beam_size=2, max_len=16)
        assert r1 == r2

    def test_untrained_model_scores_zero(self):
        insts, _ = prepare_all(synth_gen(4, 6))
        vocab = Vocabulary.build(insts)
        cfg = ModelConfig(
            vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size,
            embed_dim=8, model_dim=16, layers=1, heads=2, ff_dim=16,
            max_positions=64, dropout=0.0,
        )
        params = init_params(cfg, 1)
        report = corpus.evaluate(params, vocab, insts, beam_size=2, max_len=16)
        assert report.accuracy_vote <= 0.34  # random outputs are unparseable

    def test_report_arithmetic(self):
        r = EvalReport(n=4, correct_l2r=1, correct_r2l=2, correct_vote=3)
        assert r.accuracy_vote == 0.75
        assert r.as_dict()["answer_accuracy_l2r"] == 0.25


class TestCli:
    def test_gen_preprocess_train_eval_solve(self, tmp_path, capsys):
        data = tmp_path / "train.jsonl"
        assert cli_main(["gen", "--n", "6", "--seed", "3", "--out", str(data)]) == 0
        prepared = tmp_path / "prep.jsonl"
        assert cli_main(["preprocess", "--in", str(data), "--out", str(prepared)]) == 0
        rec = json.loads(prepared.read_text().splitlines()[0])
        assert "template" in rec and "source_tokens" in rec

        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "embed_dim": 8, "model_dim": 16, "layers": 1, "heads": 2,
            "ff_dim": 16, "dropout": 0.0, "max_positions": 64,
        }))
        ckpt = tmp_path / "model.npz"
        assert cli_main([
            "train", "--data", str(data), "--config", str(cfg),
            "--epochs", "2", "--lr", "1e-3", "--out", str(ckpt),
        ]) == 0
        assert ckpt.exists() and (tmp_path / "model.npz.metrics.jsonl").exists()

        rl_ckpt = tmp_path / "model-rl.npz"
        assert cli_main([
            "rl", "--data", str(data), "--ckpt", str(ckpt),
            "--lr", "1e-6", "--beam", "2", "--out", str(rl_ckpt),
        ]) == 0

        assert cli_main([
            "eval", "--data", str(data), "--ckpt", str(rl_ckpt),
            "--beam", "2", "--folds", "2", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "answer_accuracy_vote" in out

        assert cli_main(["solve", "--eq", "x+y=10;x-y=2"]) == 0
        out = capsys.readouterr().out
        assert '"x": "6"' in out and '"y": "4"' in out

        assert cli_main([
            "solve", "--eq", "N_1*x+N_2=N_3", "--nums", "2,3,7",
        ]) == 0
        out = capsys.readouterr().out
        assert '"x": "2"' in out

    def test_solve_ill_formed_exit_code(self, capsys):
        assert cli_main(["solve", "--eq", "x+=3"]) == 1

    def test_bad_input_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "three.jsonl"
        save(data, synth_gen(3, 3))
        insts, _ = prepare_all(load(data))
        vocab = Vocabulary.build(insts)
        cfg = ModelConfig(
            vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size,
            embed_dim=8, model_dim=16, layers=1, heads=2, ff_dim=16,
            max_positions=64, dropout=0.0,
        )
        ckpt = tmp_path / "model.npz"
        model.save_checkpoint(ckpt, init_params(cfg, 0), vocab.src_tokens, vocab.tgt_tokens)
        capsys.readouterr()
        code = cli_main(["eval", "--data", str(data), "--ckpt", str(ckpt), "--folds", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "eqgen: error: cannot split 3 items into 5 folds\n"

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = cli_main(["train", "--data", str(empty), "--out", str(tmp_path / "m.npz")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("eqgen: error: ") and err.count("\n") == 1
        assert "no alignable training instances" in err
        assert not (tmp_path / "m.npz").exists()

    def test_missing_or_unwritable_file_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(3, 3))
        missing = str(tmp_path / "missing")
        no_dir = str(tmp_path / "no-such-dir" / "out.jsonl")
        for argv in (
            ["train", "--data", missing, "--out", str(tmp_path / "m.npz")],
            ["eval", "--data", str(data), "--ckpt", missing],
            ["rl", "--data", str(data), "--ckpt", missing, "--out", str(tmp_path / "r.npz")],
            ["gen", "--n", "2", "--out", no_dir],
            ["preprocess", "--in", str(data), "--out", no_dir],
        ):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("eqgen: error: ") and err.count("\n") == 1, argv
            assert "No such file or directory" in err, argv

    def test_solve_bad_number_is_one_line_error(self, capsys):
        for nums in ("1/0", "abc", "2,,3"):
            capsys.readouterr()
            assert cli_main(["solve", "--eq", "N_1*x=N_2", "--nums", nums]) == 2
            err = capsys.readouterr().err
            assert err.startswith("eqgen: error: --nums: ") and err.count("\n") == 1
            assert "is not a number" in err

    def test_unknown_config_key_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(3, 3))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"layerz": 3}))
        capsys.readouterr()
        code = cli_main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "m.npz")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "eqgen: error: unknown config key(s): layerz\n"
        assert not (tmp_path / "m.npz").exists()

    def test_bad_config_file_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(3, 3))
        cfg = tmp_path / "config.json"
        for text, message in (
            ("not json", f"{cfg}: not valid JSON: "),
            ("[1]", f"{cfg}: the top level must be a JSON object"),
            ('{"model_dim": "64"}', "config key 'model_dim' must be int, got \"64\""),
            ('{"layers": true}', "config key 'layers' must be int, got true"),
            ('{"dropout": "0.1"}', "config key 'dropout' must be float, got \"0.1\""),
            ('{"heads": 0}', "heads must be at least 1, got 0"),
            ('{"model_dim": -4, "heads": 2}', "model_dim must be at least 1, got -4"),
            ('{"embed_dim": 0}', "embed_dim must be at least 1, got 0"),
            ('{"dropout": 1}', "dropout must be in [0, 1), got 1"),
        ):
            cfg.write_text(text)
            capsys.readouterr()
            code = cli_main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "m.npz")])
            err = capsys.readouterr().err
            assert code == 2, text
            assert err.startswith("eqgen: error: " + message) and err.count("\n") == 1, text
            assert not (tmp_path / "m.npz").exists(), text

    def test_epochs_below_one_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(3, 3))
        capsys.readouterr()
        code = cli_main(["train", "--data", str(data), "--epochs", "0", "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert capsys.readouterr().err == "eqgen: error: --epochs must be at least 1, got 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_beam_and_rl_epochs_below_one_are_one_line_errors(self, tmp_path, capsys):
        # the checkpoint does not exist: the flags are checked before it is read
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(3, 3))
        ckpt = str(tmp_path / "missing.npz")
        rl = ["rl", "--data", str(data), "--ckpt", ckpt, "--out", str(tmp_path / "r.npz")]
        for argv, message in (
            (["eval", "--data", str(data), "--ckpt", ckpt, "--beam", "0"], "--beam must be at least 1, got 0"),
            (rl + ["--beam", "0"], "--beam must be at least 1, got 0"),
            (rl + ["--epochs", "0"], "--epochs must be at least 1, got 0"),
        ):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            assert capsys.readouterr().err == f"eqgen: error: {message}\n", argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "-1e-3"])
    def test_lr_not_finite_and_positive_is_one_line_error(self, tmp_path, capsys, lr):
        # the checkpoint does not exist: the rate is checked before it is read
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(3, 3))
        for argv in (["train", "--data", str(data), "--out", str(tmp_path / "m.npz")],
                     ["rl", "--data", str(data), "--ckpt", str(tmp_path / "missing.npz"),
                      "--out", str(tmp_path / "r.npz")]):
            capsys.readouterr()
            assert cli_main(argv + [f"--lr={lr}"]) == 2, argv
            assert capsys.readouterr().err == f"eqgen: error: --lr must be a finite number above 0, got {float(lr)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_diverged_training_is_one_line_error(self, tmp_path, capsys):
        # one batch per epoch: the first update blows the parameters up and the second step's loss overflows
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(3, 4))
        capsys.readouterr()
        code = cli_main(["train", "--data", str(data), "--epochs", "2", "--lr", "1e300",
                         "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert capsys.readouterr().err == (
            "eqgen: error: non-finite loss at optimizer step 2: op produced non-finite values\n")
        assert not (tmp_path / "m.npz").exists()

    def test_train_logs_exclusions_to_stderr(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        text = " and ".join(str(11 + i) for i in range(13))  # too many numbers to align
        save(data, synth_gen(3, 3) + [Problem("big", text, "x=11", [F(11)])])
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"embed_dim": 8, "model_dim": 16, "layers": 1, "heads": 2, "ff_dim": 16}))
        capsys.readouterr()
        assert cli_main(["train", "--data", str(data), "--config", str(cfg), "--epochs", "1",
                         "--out", str(tmp_path / "m.npz")]) == 0
        out, err = capsys.readouterr()
        assert "excluding" not in out
        assert err == "excluding 1 unalignable instances from training\n"
        assert json.loads(out.splitlines()[-1])["split"] == "train"

    def test_unknown_template_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        capsys.readouterr()
        assert cli_main(["gen", "--n", "2", "--templates", "bogus", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("eqgen: error: unknown template 'bogus'") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_gen_count_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        capsys.readouterr()
        assert cli_main(["gen", "--n", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "eqgen: error: --n must be at least 0, got -1\n"
        assert captured.out == "" and not out.exists()

    def test_solve_undefined_symbol_is_one_line_error(self, capsys):
        capsys.readouterr()
        assert cli_main(["solve", "--eq", "N_5=x", "--nums", "1"]) == 2
        assert capsys.readouterr().err == "eqgen: error: --eq: symbol N_5 is not defined by --nums\n"

    def test_default_model_is_model_config_defaults(self):
        insts, _ = prepare_all(synth_gen(2, 5))
        vocab = Vocabulary.build(insts)
        cfg = cli._desk_config(vocab)
        assert (cfg.vocab_src, cfg.vocab_tgt) == (vocab.src_size, vocab.tgt_size)
        sizes = (cfg.embed_dim, cfg.model_dim, cfg.layers, cfg.heads, cfg.ff_dim, cfg.max_positions)
        assert sizes == (32, 64, 2, 4, 128, 128)
        assert cfg.dropout == 0.1
        # overrides apply, but the vocabulary sizes always come from the data
        small = cli._desk_config(vocab, {"layers": 1, "vocab_src": 7})
        assert small.layers == 1 and small.vocab_src == vocab.src_size


class TestCliBlasThreads:
    """Importing the CLI pins BLAS to one thread before numpy loads, unless
    the environment already sets a count."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    # records each variable at the moment numpy is first imported
    PROBE = (
        "import json, os, sys\n"
        "seen = {}\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.update({v: os.environ.get(v) for v in %r})\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import eqgen.cli\n"
        "print(json.dumps(seen))\n"
    ) % (VARS,)

    def probe(self, **preset):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(preset)
        out = subprocess.run([sys.executable, "-c", self.PROBE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        return json.loads(out.stdout)

    def test_one_thread_by_default(self):
        assert self.probe() == {v: "1" for v in self.VARS}

    def test_a_preset_count_is_kept(self):
        assert self.probe(OPENBLAS_NUM_THREADS="2") == {
            "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class TestCliEvalFolds:
    def trained(self, tmp_path):
        """A model trained far enough that the directions and the vote differ,
        saved as a checkpoint next to its data."""
        data = tmp_path / "data.jsonl"
        save(data, synth_gen(5, 8, ["linear"]))
        insts, _ = prepare_all(load(data))
        vocab = Vocabulary.build(insts)
        cfg = ModelConfig(
            vocab_src=vocab.src_size, vocab_tgt=vocab.tgt_size,
            embed_dim=8, model_dim=16, layers=1, heads=2, ff_dim=16,
            max_positions=64, dropout=0.0,
        )
        params = init_params(cfg, 0)
        opt = training.Adam(params, 1e-2)
        batch = model.make_batch(
            [vocab.encode_source(i.source) for i in insts],
            [vocab.encode_target(list(i.template.tokens)) for i in insts],
        )
        for _ in range(60):
            training.mle_step(params, opt, batch)
        ckpt = tmp_path / "model.npz"
        model.save_checkpoint(ckpt, params, vocab.src_tokens, vocab.tgt_tokens)
        return data, ckpt, insts, vocab, params

    def test_evaluate_sums_per_problem_reports(self, tmp_path):
        _, _, insts, vocab, params = self.trained(tmp_path)
        insts = insts + [replace(insts[0], problem=replace(insts[0].problem, answers=[]))]
        each = corpus.evaluate_each(params, vocab, insts, 3)
        assert len(each) == len(insts) and all(r.n == 1 for r in each)
        assert each[-1] == EvalReport(1, 0, 0, 0)  # no answers: counted, never correct
        for inst, report in zip(insts[:-1], each):  # batched decoding scores as one problem alone
            hyps_l, hyps_r = decoding.decode_both(params, vocab.encode_source(inst.source), 3, 64)
            picks = (decoding.canonical_tokens(hyps_l[0]), decoding.canonical_tokens(hyps_r[0]),
                     decoding.vote(hyps_l[0], hyps_r[0]))
            want = [equations.reward(vocab.decode_target(t), inst.mapping, inst.problem.answers) for t in picks]
            assert report == EvalReport(1, *want)
        total = corpus.evaluate(params, vocab, insts, 3)
        assert total == EvalReport(len(insts), sum(r.correct_l2r for r in each),
                                   sum(r.correct_r2l for r in each), sum(r.correct_vote for r in each))
        assert 0 < total.correct_vote < total.n

    def test_summed_folds_equal_full_decode(self, tmp_path, capsys):
        data, ckpt, insts, vocab, params = self.trained(tmp_path)

        def run_eval(folds):
            capsys.readouterr()
            argv = ["eval", "--data", str(data), "--ckpt", str(ckpt), "--beam", "3"]
            assert cli_main(argv + ["--folds", str(folds), "--seed", "2"]) == 0
            return json.loads(capsys.readouterr().out)

        summed = run_eval(3)
        full = run_eval(0)
        assert len(summed["folds"]) == 3 and full["folds"] == []
        assert summed["overall"] == full["overall"]
        assert full["overall"] == corpus.evaluate(params, vocab, insts, 3).as_dict()
        assert sum(f["n"] for f in summed["folds"]) == full["overall"]["n"] == 8
        for i, fold in enumerate(corpus.folds(len(insts), 3, 2)):
            want = corpus.evaluate(params, vocab, [insts[j] for j in fold], 3)
            assert summed["folds"][i] == {"fold": i, **want.as_dict()}
        accs = full["overall"]
        assert 0 < accs["answer_accuracy_vote"]
        assert len({accs["answer_accuracy_l2r"], accs["answer_accuracy_r2l"]}) == 2
