"""Command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satguide
from satguide.cli import main
from satguide.clauses import Signature
from satguide.features import clause_features, format_multiset
from satguide.svm import load_model
from satguide.tptp import parse_problem

CORPUS = Path(__file__).parent / "fixtures" / "corpus"
DATA = Path(__file__).parent / "data"

EXAMPLE_PROBLEM = "cnf(ex, axiom, (f(X,Y) = g(sko1,sko2(X)))).\n"

CHAIN_PROBLEM = """
cnf(d1, axiom, (junk0(e))).
cnf(d2, axiom, (~junk0(X) | junk1(X))).
cnf(f1, axiom, (p0(c))).
cnf(r1, axiom, (~p0(X) | p1(X))).
cnf(r2, axiom, (~p1(X) | p2(X))).
cnf(goal, negated_conjecture, (~p2(c))).
"""


@pytest.fixture(autouse=True)
def fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ENIGMA_LOG", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_featurize_prints_the_example_multiset(tmp_path, capsys):
    problem = tmp_path / "ex.p"
    problem.write_text(EXAMPLE_PROBLEM)
    code, out, _ = run(capsys, "featurize", str(problem))
    assert code == 0
    assert "f(X,Y) = g(sko1,sko2(X))" in out
    assert "{(⊕,=,f) ↦ 1, (=,f,⊛) ↦ 2, (⊕,=,g) ↦ 1, " \
           "(=,g,⊙) ↦ 2, (g,⊙,⊛) ↦ 1}" in out


def test_featurize_respects_skolem_prefixes(tmp_path, capsys):
    problem = tmp_path / "ex.p"
    problem.write_text("cnf(a, axiom, (p(my1))).\n")
    code, out, _ = run(capsys, "featurize", str(problem),
                       "--skolem-prefixes", "my")
    assert code == 0
    assert "(⊕,p,⊙)" in out


@pytest.mark.parametrize("prefixes", ["sko,", ""])
def test_empty_skolem_prefixes_are_dropped(tmp_path, capsys, prefixes):
    problem = tmp_path / "ex.p"
    problem.write_text("cnf(a, axiom, (p(f(c0)))).\n")
    code, out, _ = run(capsys, "featurize", str(problem),
                       "--skolem-prefixes", prefixes)
    assert code == 0
    assert out.splitlines()[1] == "{(⊕,p,f) ↦ 1, (p,f,c0) ↦ 1}"


def test_prove_writes_a_record(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    code, out, _ = run(capsys, "prove", str(problem), "--record", str(record))
    assert code == 0
    assert out.startswith("proof_found")
    data = json.loads(record.read_text())
    assert data["outcome"] == "proof_found"


def test_full_pipeline_prove_extract_train_eval(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    assert run(capsys, "prove", str(problem), "--record", str(record))[0] == 0

    examples = tmp_path / "ex.txt"
    code, out, _ = run(capsys, "extract", str(record), "-o", str(examples))
    assert code == 0
    assert examples.exists() and (tmp_path / "ex.txt.sig").exists()
    first_labels = {line.split()[0] for line in examples.read_text().splitlines()}
    assert first_labels == {"+1", "-1"}

    model = tmp_path / "model.bin"
    code, out, _ = run(capsys, "train", str(examples), "-o", str(model))
    assert code == 0 and model.exists()

    code, out, _ = run(capsys, "eval", str(model), str(examples))
    assert code == 0
    assert "accuracy:" in out
    assert "positive recall:" in out
    assert "negative recall:" in out


def test_model_keeps_the_skolem_prefixes_it_was_trained_with(tmp_path, capsys):
    problem = tmp_path / "h.p"
    problem.write_text("cnf(d1, axiom, (junk0(e))).\n"
                       "cnf(d2, axiom, (~junk0(X) | junk1(X))).\n"
                       "cnf(f1, axiom, (p(h(c0)))).\n"
                       "cnf(goal, negated_conjecture, (~p(h(c0)))).\n")
    record = tmp_path / "rec.json"
    assert run(capsys, "prove", str(problem), "--record", str(record))[0] == 0
    examples = tmp_path / "ex.txt"
    assert run(capsys, "extract", str(record), "-o", str(examples),
               "--skolem-prefixes", "h")[0] == 0
    model = tmp_path / "model.bin"
    assert run(capsys, "train", str(examples), "-o", str(model))[0] == 0
    sig = Signature.from_frozen(load_model(str(model)).signature)
    clause = parse_problem("cnf(c, axiom, (p(h(c0)))).", sig)[0]
    assert format_multiset(clause_features(clause, sig), sig) \
        == "{(⊕,p,⊙) ↦ 1, (p,⊙,c0) ↦ 1}"


def test_prove_with_learned_strategy(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    run(capsys, "prove", str(problem), "--record", str(record))
    examples = tmp_path / "ex.txt"
    run(capsys, "extract", str(record), "-o", str(examples))
    model = tmp_path / "model.bin"
    run(capsys, "train", str(examples), "-o", str(model))
    code, out, _ = run(capsys, "prove", str(problem), "--strategy",
                       f"1*Learned({model},gamma=0.2)")
    assert code == 0 and out.startswith("proof_found")


def test_extract_boost_multiplies_positives(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    run(capsys, "prove", str(problem), "--record", str(record))
    plain = tmp_path / "plain.txt"
    boosted = tmp_path / "boost.txt"
    run(capsys, "extract", str(record), "-o", str(plain))
    run(capsys, "extract", str(record), "-o", str(boosted), "--boost", "10")
    plain_pos = sum(1 for line in plain.read_text().splitlines()
                    if line.startswith("+1"))
    boost_pos = sum(1 for line in boosted.read_text().splitlines()
                    if line.startswith("+1"))
    assert boost_pos == 10 * plain_pos


def test_extract_boost_below_one_is_a_usage_error(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    run(capsys, "prove", str(problem), "--record", str(record))
    examples = tmp_path / "ex.txt"
    code, _, err = run(capsys, "extract", str(record), "-o", str(examples),
                       "--boost", "0")
    assert code == 1 and "--boost" in err
    assert not examples.exists()


def test_loop_boost_below_one_is_a_usage_error(tmp_path, capsys):
    # the problem file does not exist, so any corpus run would fail first
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"p0 {tmp_path / 'missing.p'}\n")
    outdir = tmp_path / "out"
    code, _, err = run(capsys, "loop", str(manifest), "--boost", "0",
                       "-o", str(outdir))
    assert code == 1 and "--boost" in err
    assert not outdir.exists()


@pytest.mark.parametrize("flag,reason", [
    ("-c", "c must be positive"),
    ("--tolerance", "tolerance must be positive"),
    ("--max-epochs", "max_epochs must be at least 1"),
])
def test_train_solver_flag_out_of_range_is_a_usage_error(tmp_path, capsys,
                                                         flag, reason):
    examples = tmp_path / "ex.txt"
    examples.write_text("+1 1:1\n-1 2:1\n")
    sig = tmp_path / "ex.txt.sig"
    sig.write_text("symbols 4\n0 $var 0 variable-marker\n1 $sko 0 skolem-marker\n"
                   "2 $pos 0 pos-marker\n3 $neg 0 neg-marker\n")
    model = tmp_path / "m.bin"
    code, _, err = run(capsys, "train", str(examples), "-o", str(model),
                       flag, "0")
    assert code == 1 and flag in err and reason in err
    assert not model.exists()


@pytest.mark.parametrize("flag,reason", [
    ("--rounds", "--rounds must be >= 1"),
    ("-c", "c must be positive"),
    ("--max-epochs", "max_epochs must be at least 1"),
    ("--frequencies", "frequencies must be >= 1"),
])
def test_loop_out_of_range_flag_is_a_usage_error(tmp_path, capsys, flag,
                                                 reason):
    # the problem file does not exist, so any corpus run would fail first
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"p0 {tmp_path / 'missing.p'}\n")
    outdir = tmp_path / "out"
    code, _, err = run(capsys, "loop", str(manifest), flag, "0",
                       "-o", str(outdir))
    assert code == 1 and flag in err and reason in err
    assert not outdir.exists()


@pytest.mark.parametrize("argv,reason", [
    (["loop", "{tmp}/manifest.txt", "--gammas", "-1", "-o", "{tmp}/out"],
     "bad --gammas or --frequencies: gammas must be finite and nonnegative"),
    (["loop", "{tmp}/manifest.txt", "--gammas", "nan", "-o", "{tmp}/out"],
     "bad --gammas or --frequencies: gammas must be finite and nonnegative"),
    (["loop", "{tmp}/manifest.txt", "--gammas=", "-o", "{tmp}/out"],
     "bad --gammas or --frequencies: grid needs at least one gamma"),
    (["grid", "{tmp}/manifest.txt", "--model", "{tmp}/model.bin",
      "--gammas", "inf"],
     "bad --gammas or --frequencies: gammas must be finite and nonnegative"),
    (["prove", "{tmp}/chain.p", "--strategy",
      "1*Learned({tmp}/model.bin,gamma=nan)"],
     "gamma must be finite and nonnegative"),
], ids=["loop-negative", "loop-nan", "loop-empty", "grid-inf",
        "prove-strategy-nan"])
def test_bad_gamma_is_a_usage_error(tmp_path, capsys, argv, reason):
    # the problem file does not exist, so any corpus run would fail first
    (tmp_path / "manifest.txt").write_text(f"p0 {tmp_path / 'missing.p'}\n")
    (tmp_path / "chain.p").write_text(CHAIN_PROBLEM)
    (tmp_path / "ex.txt").write_text("+1 1:1\n-1 2:1\n")
    (tmp_path / "ex.txt.sig").write_text(
        "symbols 4\n0 $var 0 variable-marker\n1 $sko 0 skolem-marker\n"
        "2 $pos 0 pos-marker\n3 $neg 0 neg-marker\n")
    assert run(capsys, "train", str(tmp_path / "ex.txt"),
               "-o", str(tmp_path / "model.bin"))[0] == 0
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and reason in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("breaks,reason", [
    (lambda r: {"format": r["format"]}, "record has no 'problem' key"),
    (lambda r: dict(r, empty_clause=999),
     "clause 999 has no dag entry or no text"),
    (lambda r: dict(r, clauses={}), "has no dag entry or no text"),
    (lambda r: dict(r, dag={**r["dag"], str(r["empty_clause"]): [999]}),
     "dag parent 999 has no dag entry"),
    (lambda r: [], "a record must be dict, not list"),
    (lambda r: dict(r, dag=list(r["dag"])), "field 'dag' must be dict, not list"),
    (lambda r: dict(r, given_sequence=3),
     "field 'given_sequence' must be list, not int"),
    (lambda r: dict(r, given_sequence=[[0]]),
     "clause [0] has no dag entry or no text"),
    (lambda r: dict(r, dag={**r["dag"], "0": 5}),
     "dag entry 0 must be list, not int"),
    (lambda r: dict(r, dag={**r["dag"], "0": [[1]]}),
     "dag parent [1] has no dag entry"),
    (lambda r: dict(r, clauses={**r["clauses"], "0": 7}),
     "clause 0 must be str, not int"),
], ids=["no-problem-key", "empty-clause-not-in-dag",
        "given-clause-without-text", "parent-not-in-dag", "record-not-an-object",
        "dag-a-list", "given-sequence-an-int", "given-id-a-list",
        "dag-parents-an-int", "dag-parent-a-list", "clause-text-a-number"])
def test_extract_on_a_malformed_record_is_a_usage_error(tmp_path, capsys,
                                                        breaks, reason):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    assert run(capsys, "prove", str(problem), "--record", str(record))[0] == 0
    record.write_text(json.dumps(breaks(json.loads(record.read_text()))))
    examples = tmp_path / "ex.txt"
    code, _, err = run(capsys, "extract", str(record), "-o", str(examples))
    assert code == 1, err
    assert f"cannot load record {record}: " in err and reason in err
    assert not examples.exists()


def test_python_dash_m_runs_the_cli():
    src = str(Path(satguide.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "satguide", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: satguide")


def test_train_on_a_count_past_the_float_range_names_the_line(tmp_path,
                                                             capsys):
    examples = tmp_path / "ex.txt"
    examples.write_text("+1 1:1" + "0" * 400 + "\n-1 2:1\n")
    sig = tmp_path / "ex.txt.sig"
    sig.write_text("symbols 4\n0 $var 0 variable-marker\n1 $sko 0 skolem-marker\n"
                   "2 $pos 0 pos-marker\n3 $neg 0 neg-marker\n")
    model = tmp_path / "m.bin"
    code, _, err = run(capsys, "train", str(examples), "-o", str(model))
    assert code == 2
    assert f"{examples}:1: count at index 1 is too large" in err
    assert not model.exists()


@pytest.mark.parametrize("argv,reason", [
    (["prove", "{tmp}/chain.p", "--max-processed", "-1"],
     "--max-processed must be >= 0, not -1"),
    (["prove", "{tmp}/chain.p", "--max-generated", "-1"],
     "--max-generated must be >= 0, not -1"),
    (["prove", "{tmp}/chain.p", "--timeout", "-1"],
     "--timeout must be >= 0, not -1.0"),
    (["prove", "{tmp}/chain.p", "--timeout", "nan"],
     "--timeout must be >= 0, not nan"),
    (["prove", "{tmp}/chain.p", "--max-literals", "-1"],
     "--max-literals must be >= 0, not -1"),
    (["prove", "{tmp}/chain.p", "--max-depth", "-1"],
     "--max-depth must be >= 0, not -1"),
    (["grid", "{tmp}/manifest.txt", "--model", "{tmp}/gone.bin",
      "--timeout", "-1"], "--timeout must be >= 0, not -1.0"),
    (["grid", "{tmp}/manifest.txt", "--model", "{tmp}/gone.bin",
      "--jobs", "0"], "--jobs must be >= 1, not 0"),
    (["loop", "{tmp}/manifest.txt", "--max-processed", "-1",
      "-o", "{tmp}/out"], "--max-processed must be >= 0, not -1"),
    (["loop", "{tmp}/manifest.txt", "--jobs", "-1", "-o", "{tmp}/out"],
     "--jobs must be >= 1, not -1"),
], ids=["prove-max-processed", "prove-max-generated", "prove-timeout",
        "prove-timeout-nan", "prove-max-literals", "prove-max-depth",
        "grid-timeout", "grid-jobs", "loop-max-processed", "loop-jobs"])
def test_negative_limit_or_jobs_below_one_is_a_usage_error(tmp_path, capsys,
                                                           argv, reason):
    # the grid's model and the manifest's problem do not exist, so any
    # corpus run would fail first
    (tmp_path / "manifest.txt").write_text(f"p0 {tmp_path / 'missing.p'}\n")
    (tmp_path / "chain.p").write_text(CHAIN_PROBLEM)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and reason in err, err
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_prove_on_a_too_deeply_nested_term_names_the_line(tmp_path, capsys):
    problem = tmp_path / "deep.p"
    problem.write_text("cnf(a, axiom, (p(a))).\ncnf(b, axiom, (~p("
                       + "f(" * 1200 + "a" + ")" * 1200 + "))).\n")
    code, _, err = run(capsys, "prove", str(problem))
    assert code == 2
    assert f"{problem}:2: term nested deeper than" in err


def test_max_depth_past_the_parser_bound_is_a_usage_error(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    code, _, err = run(capsys, "prove", str(problem), "--max-depth", "201",
                       "--record", str(record))
    assert code == 1 and "--max-depth must be at most 200" in err
    assert not record.exists()


def test_train_on_empty_class_is_a_usage_error(tmp_path, capsys):
    examples = tmp_path / "ex.txt"
    examples.write_text("")
    sig = tmp_path / "ex.txt.sig"
    sig.write_text("symbols 4\n0 $var 0 variable-marker\n1 $sko 0 skolem-marker\n"
                   "2 $pos 0 pos-marker\n3 $neg 0 neg-marker\n")
    code, _, err = run(capsys, "train", str(examples), "-o",
                       str(tmp_path / "m.bin"))
    assert code == 1
    assert "empty class" in err


def test_usage_and_runtime_exit_codes(tmp_path, capsys):
    # unknown subcommand: argparse usage error
    assert run(capsys, "frobnicate")[0] == 1
    # missing problem file names the file
    code, _, err = run(capsys, "featurize", str(tmp_path / "nope.p"))
    assert code == 1 and "nope.p" in err
    # malformed problem file is a runtime failure naming the file
    bad = tmp_path / "bad.p"
    bad.write_text("cnf(a, axiom, (p(X)).")
    code, _, err = run(capsys, "prove", str(bad))
    assert code == 2 and "bad.p" in err
    # corrupt model file
    junk = tmp_path / "junk.bin"
    junk.write_text("not a model\n")
    examples = tmp_path / "ex.txt"
    examples.write_text("+1 1:1\n")
    code, _, err = run(capsys, "eval", str(junk), str(examples))
    assert code == 2 and "junk.bin" in err
    # bad ENIGMA_LOG value
    os.environ["ENIGMA_LOG"] = "shouting"
    try:
        code, _, err = run(capsys, "featurize", str(bad))
        assert code == 1 and "ENIGMA_LOG" in err
    finally:
        del os.environ["ENIGMA_LOG"]


@pytest.mark.parametrize("argv", [
    ["train", "{gone}", "-o", "{tmp}/m.bin"],
    ["eval", "{gone}", "{tmp}/ex.txt"],
    ["grid", "{tmp}/manifest.txt", "--model", "{gone}"],
    ["grid", "{gone}", "--model", "{tmp}/model.bin"],
    ["loop", "{gone}", "-o", "{tmp}/out"],
    ["prove", "{tmp}/chain.p", "--strategy", "1*Learned({gone},gamma=0)"],
], ids=["train-examples", "eval-model", "grid-model", "grid-manifest",
        "loop-manifest", "prove-strategy-model"])
def test_a_named_file_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys,
                                                            argv):
    sig_text = ("symbols 4\n0 $var 0 variable-marker\n1 $sko 0 skolem-marker\n"
                "2 $pos 0 pos-marker\n3 $neg 0 neg-marker\n")
    (tmp_path / "ex.txt").write_text("+1 1:1\n-1 2:1\n")
    (tmp_path / "ex.txt.sig").write_text(sig_text)
    # train finds the signature and fails on the examples file itself
    (tmp_path / "gone.sig").write_text(sig_text)
    (tmp_path / "chain.p").write_text(CHAIN_PROBLEM)
    (tmp_path / "manifest.txt").write_text("chain chain.p\n")
    assert run(capsys, "train", str(tmp_path / "ex.txt"),
               "-o", str(tmp_path / "model.bin"))[0] == 0
    gone = tmp_path / "gone"
    code, _, err = run(capsys, *(a.format(gone=gone, tmp=tmp_path)
                                 for a in argv))
    assert code == 1, err
    assert f"cannot open {gone}" in err


def test_help_lists_every_subcommand(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for sub in ["featurize", "prove", "extract", "train", "eval", "grid", "loop"]:
        assert sub in out


@pytest.mark.parametrize("sub", ["featurize", "prove", "extract", "train",
                                 "eval", "grid", "loop"])
def test_subcommand_help_matches_golden(sub, capsys):
    code, out, _ = run(capsys, sub, "--help")
    assert code == 0
    golden = (DATA / f"help_{sub}.txt").read_text()
    assert out == golden


def test_top_level_help_matches_golden(capsys):
    code, out, _ = run(capsys, "--help")
    golden = (DATA / "help_top.txt").read_text()
    assert out == golden


def test_grid_cli_smoke(tmp_path, capsys):
    manifest = CORPUS / "manifest.txt"
    # train a model from two corpus problems first
    rec_paths = []
    for pid in ["prob00", "prob01"]:
        rec = tmp_path / f"{pid}.json"
        code, _, _ = run(capsys, "prove", str(CORPUS / f"{pid}.p"),
                         "--record", str(rec))
        assert code == 0
        rec_paths.append(str(rec))
    examples = tmp_path / "ex.txt"
    run(capsys, "extract", *rec_paths, "-o", str(examples))
    model = tmp_path / "model.bin"
    run(capsys, "train", str(examples), "-o", str(model))

    csv_out = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "grid", str(manifest), "--model", str(model),
                       "--gammas", "0.2", "--frequencies", "5",
                       "--csv", str(csv_out))
    assert code == 0
    assert csv_out.read_text().splitlines()[0] == "gamma,0,5,inf"
    assert "greedy cover:" in out


def test_loop_cli_two_rounds_solved_count_never_drops(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    lines = []
    for pid in ["prob00", "prob01", "prob02", "prob03"]:
        lines.append(f"{pid} {CORPUS / (pid + '.p')}")
    manifest.write_text("\n".join(lines) + "\n")
    outdir = tmp_path / "out"
    code, out, _ = run(capsys, "loop", str(manifest), "--rounds", "2",
                       "--gammas", "0.2", "--frequencies", "5",
                       "-o", str(outdir))
    assert code == 0
    assert (outdir / "model_round0.bin").exists()
    solved = [int(line.split("solved ")[1].split("/")[0])
              for line in out.splitlines() if line.startswith("round ")]
    assert len(solved) >= 2
    assert solved == sorted(solved)
    assert solved[0] == 4


def test_prove_is_deterministic(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    rec1, rec2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "--seed", "3", "prove", str(problem), "--record", str(rec1))
    run(capsys, "--seed", "3", "prove", str(problem), "--record", str(rec2))
    assert rec1.read_text() == rec2.read_text()
