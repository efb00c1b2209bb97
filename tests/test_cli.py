"""Command-line interface."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satguide
from satguide import pipeline, saturation
from satguide.cli import main
from satguide.clauses import Signature, SymbolMap
from satguide.features import clause_features, format_multiset
from satguide.guidance import baseline_strategy
from satguide.saturation import Limits
from satguide.svm import load_model, save_model
from satguide.tptp import parse_problem

CORPUS = Path(__file__).parent / "fixtures" / "corpus"
DATA = Path(__file__).parent / "data"

# a signature table with only the four marker symbols
MARKER_SIGNATURE = ("symbols 4\n0 $var 0 variable-marker\n"
                    "1 $sko 0 skolem-marker\n2 $pos 0 pos-marker\n"
                    "3 $neg 0 neg-marker\n")

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
    lines = examples.read_text().splitlines()
    distinct = len({tuple(line.split()[1:]) for line in lines})
    assert out == (f"trained on {len(lines)} examples ({distinct} distinct "
                   f"vectors); model written to {model} (epochs "
                   f"{load_model(str(model)).epochs}, converged)\n")
    code, out, _ = run(capsys, "train", str(examples), "-o", str(model),
                       "--max-epochs", "1", "--tolerance", "1e-12")
    assert code == 0 and out.endswith("(epochs 1, not converged)\n")

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
    assert format_multiset(clause_features(clause, SymbolMap(sig, sig.freeze())),
                           sig) \
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


def test_loop_output_that_is_a_file_fails_before_any_search(tmp_path, capsys,
                                                            monkeypatch):
    searches = []
    monkeypatch.setattr(pipeline, "prove",
                        lambda *args, **kwargs: searches.append(args))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"prob00 {CORPUS / 'prob00.p'}\n")
    outdir = tmp_path / "notadir"
    outdir.write_text("")
    code, out, err = run(capsys, "loop", str(manifest), "-o", str(outdir))
    assert code == 1 and f"cannot open {outdir}" in err
    assert searches == [] and out == ""


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
    # --max-epochs takes an int, so argparse itself refuses nan and inf
    values = ["0"] if flag == "--max-epochs" else ["0", "nan", "inf"]
    for value in values:
        code, _, err = run(capsys, "train", str(examples), "-o", str(model),
                           flag, value)
        assert code == 1 and flag in err and reason in err, value
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
    # two gammas that print alike would share a row key and a table line
    (["grid", "{tmp}/manifest.txt", "--model", "{tmp}/model.bin",
      "--gammas", "0.1,0.1000001"],
     "bad --gammas or --frequencies: gammas 0.1 and 0.1000001 share "
     "the row key g0.1"),
    (["loop", "{tmp}/manifest.txt", "--gammas", "0.2,0,0.2", "-o", "{tmp}/out"],
     "bad --gammas or --frequencies: gammas 0.2 and 0.2 share the row key g0.2"),
    (["grid", "{tmp}/manifest.txt", "--model", "{tmp}/model.bin",
      "--frequencies", "5,5"],
     "bad --gammas or --frequencies: frequencies must not repeat"),
    (["prove", "{tmp}/chain.p", "--strategy",
      "1*Learned({tmp}/model.bin,gamma=two)"],
     "bad --strategy '1*Learned({tmp}/model.bin,gamma=two)': bad gamma "
     "'two' in 'Learned({tmp}/model.bin,gamma=two)'"),
    (["grid", "{tmp}/manifest.txt", "--model", "{tmp}/model.bin",
      "--gammas", "0,x"], "bad --gammas '0,x'"),
    (["loop", "{tmp}/manifest.txt", "--frequencies", "5,1.5",
      "-o", "{tmp}/out"], "bad --frequencies '5,1.5'"),
], ids=["loop-negative", "loop-nan", "loop-empty", "grid-inf",
        "prove-strategy-nan", "grid-gammas-share-a-key",
        "loop-gamma-repeated", "grid-frequency-repeated",
        "prove-strategy-unparsable", "grid-gamma-not-a-number",
        "loop-frequency-not-an-int"])
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
    assert code == 1 and reason.format(tmp=tmp_path) in err, err
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
    (lambda r: dict(r, dag={**r["dag"], "x": []}),
     "field 'dag' has key 'x', not a clause id"),
    (lambda r: dict(r, empty_clause=None),
     "field 'empty_clause' of a proof must name a $false clause, not None"),
    (lambda r: dict(r, empty_clause=r["given_sequence"][0]),
     "field 'empty_clause' of a proof must name a $false clause, not 0"),
    (lambda r: dict(r, clauses={**r["clauses"], "2": "p("}),
     "clause 2:1: expected a term, found ''"),
    # clause 0, junk0(e), is given first
    (lambda r: dict(r, clauses={**r["clauses"], "2": "junk0(e, e)"}),
     "clause 2:1: symbol 'junk0' already registered as predicate/1"),
    (lambda r: dict(r, given_sequence=[True, *r["given_sequence"][1:]]),
     "clause id True must be int, not bool"),
    (lambda r: dict(r, empty_clause=True),
     "clause id True must be int, not bool"),
    (lambda r: dict(r, dag={**r["dag"], "0": [True]}),
     "clause id True must be int, not bool"),
    (lambda r: dict(r, stats={**r["stats"], "processed": True}),
     "stat processed must be int, not bool"),
    (lambda r: dict(r, outcome="saturated", empty_clause=None),
     "has outcome saturated"),
    # a search gives each clause once
    (lambda r: dict(r, given_sequence=r["given_sequence"] * 2),
     "clause 0 is given twice"),
], ids=["no-problem-key", "empty-clause-not-in-dag",
        "given-clause-without-text", "parent-not-in-dag", "record-not-an-object",
        "dag-a-list", "given-sequence-an-int", "given-id-a-list",
        "dag-parents-an-int", "dag-parent-a-list", "clause-text-a-number",
        "dag-key-not-an-id", "empty-clause-null", "empty-clause-not-false",
        "clause-text-not-a-clause", "clause-text-arity-clash",
        "given-id-true", "empty-clause-true", "dag-parent-true", "stat-true",
        "not-a-proof", "given-id-repeated"])
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


# Runs CLI commands given as a JSON list of argument lists, after blocking
# the modules named by its first argument, and prints which of numpy and
# multiprocessing ended up loaded.
IMPORT_CHILD = """
import json, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None  # any import of it raises ImportError
from satguide.cli import main
for argv in json.loads(sys.argv[2]):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
print(json.dumps([name for name in ("numpy", "multiprocessing")
                  if sys.modules.get(name) is not None]))
"""


def run_import_child(blocked, commands):
    src = str(Path(satguide.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD, json.dumps(blocked),
         json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_command_loads_numpy_and_only_a_pool_multiprocessing(
        tmp_path, capsys):
    # the model comes from this process, which has numpy
    record = str(tmp_path / "prob00.json")
    assert run(capsys, "prove", str(CORPUS / "prob00.p"),
               "--record", record)[0] == 0
    examples, model = str(tmp_path / "ex.txt"), str(tmp_path / "model.bin")
    assert run(capsys, "extract", record, "-o", examples)[0] == 0
    assert run(capsys, "train", examples, "-o", model)[0] == 0
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"prob{i:02d} {CORPUS / f'prob{i:02d}.p'}\n"
                                for i in range(3)))
    child_record = str(tmp_path / "child.json")
    commands = [
        ["--help"],
        ["featurize", str(CORPUS / "prob01.p")],
        ["prove", str(CORPUS / "prob01.p"), "--record", child_record],
        ["extract", child_record, "-o", str(tmp_path / "child.txt")],
        ["eval", model, str(tmp_path / "child.txt")],
        ["grid", str(manifest), "--model", model, "--gammas", "0.2",
         "--frequencies", "5", "--jobs", "1"],
        ["train", examples, "-o", str(tmp_path / "child.bin")],
        ["loop", str(manifest), "--rounds", "1", "--gammas", "0.2",
         "--frequencies", "5", "-o", str(tmp_path / "loop")],
    ]
    assert run_import_child(["numpy", "concurrent.futures.process"],
                            commands) == []
    assert (tmp_path / "child.bin").read_bytes() == Path(model).read_bytes()


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


def nested(levels, inner):
    return "f(" * levels + inner + ")" * levels


# input at the parser's bound whose factor binds X0 to 396 nested fs
DEEP_FACTOR_PROBLEM = (
    f"cnf(a, axiom, (p(X0,X1,X2) | p({nested(198, 'X1')},"
    f"{nested(198, 'X2')},c))).\n"
    "cnf(g, negated_conjecture, (~q(c))).\n")


@pytest.mark.parametrize("flags", [[], ["--max-depth", "200"]])
def test_prove_discards_a_derived_term_nested_past_the_parser_bound(
        tmp_path, capsys, flags):
    problem = tmp_path / "deep.p"
    problem.write_text(DEEP_FACTOR_PROBLEM)
    record = tmp_path / "rec.json"
    code, out, err = run(capsys, "prove", str(problem), "--record",
                         str(record), *flags)
    assert code == 0, err
    assert out.startswith("saturated ")
    assert json.loads(record.read_text())["stats"]["discarded"] > 0


def test_grid_counts_the_problem_next_to_a_derivation_too_deep_to_build(
        tmp_path, capsys):
    chain, record = tmp_path / "chain.p", tmp_path / "chain.json"
    chain.write_text(CHAIN_PROBLEM)
    examples, model = tmp_path / "ex.txt", tmp_path / "model.bin"
    assert run(capsys, "prove", str(chain), "--record", str(record))[0] == 0
    assert run(capsys, "extract", str(record), "-o", str(examples))[0] == 0
    assert run(capsys, "train", str(examples), "-o", str(model))[0] == 0
    (tmp_path / "deep.p").write_text(DEEP_FACTOR_PROBLEM)
    (tmp_path / "one.p").write_text("cnf(a, axiom, (r(a))).\n"
                                    "cnf(g, negated_conjecture, (~r(a))).\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("deep deep.p\none one.p\n")
    code, out, err = run(capsys, "grid", str(manifest), "--model", str(model),
                         "--gammas", "0.2", "--frequencies", "5")
    assert code == 0, err
    assert out == ("gamma\t0\t5\tinf\n"
                   "0.2\t1\t1\t1\n"
                   "solved 1/2; greedy cover: 0\n")


def test_prove_on_a_file_with_no_clauses_is_a_usage_error(tmp_path, capsys):
    problem = tmp_path / "empty.p"
    problem.write_text("% only a comment\n")
    code, out, err = run(capsys, "prove", str(problem))
    assert code == 1 and out == ""
    assert f"{problem}: no clauses found" in err


def test_max_depth_past_the_parser_bound_is_a_usage_error(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    record = tmp_path / "rec.json"
    code, _, err = run(capsys, "prove", str(problem), "--max-depth", "201",
                       "--record", str(record))
    assert code == 1 and "--max-depth must be at most 200" in err
    assert not record.exists()


@pytest.mark.parametrize("cap", ["0", "1"])
def test_a_depth_cap_keeps_the_empty_clause(tmp_path, capsys, cap):
    # the empty clause has depth 0, so no cap discards a proof
    problem = tmp_path / "unit.p"
    problem.write_text("cnf(a,axiom,p(X)). cnf(b,negated_conjecture,~p(a)).")
    code, out, err = run(capsys, "prove", str(problem), "--max-depth", cap)
    assert code == 0, err
    assert out.startswith("proof_found ")


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
    # the same corrupt model named inside a strategy; a missing one stays a
    # usage error (test_a_named_file_that_cannot_be_opened_is_a_usage_error)
    problem = tmp_path / "chain.p"
    problem.write_text(CHAIN_PROBLEM)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("chain chain.p\n")
    strategy = f"1*Learned({junk},gamma=0)"
    code, _, err = run(capsys, "prove", str(problem), "--strategy", strategy)
    assert code == 2 and "junk.bin: not a model file" in err
    code, _, err = run(capsys, "loop", str(manifest), "--base-strategy",
                       strategy, "-o", str(tmp_path / "out"))
    assert code == 2 and "junk.bin: not a model file" in err
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
    gone = tmp_path / "gone"
    # train finds the signature and fails on the examples file itself
    (tmp_path / "gone.sig").write_text(MARKER_SIGNATURE)
    code, _, err = run_on_named_files(tmp_path, capsys, argv, gone=gone)
    assert code == 1, err
    assert f"cannot open {gone}" in err


def run_on_named_files(tmp_path, capsys, argv, **names):
    """Run ``argv``, formatted with ``tmp`` and ``names``, in a directory
    that holds ex.txt with its signature, a model.bin trained on it,
    chain.p and a manifest listing it."""
    (tmp_path / "ex.txt").write_text("+1 1:1\n-1 2:1\n")
    (tmp_path / "ex.txt.sig").write_text(MARKER_SIGNATURE)
    (tmp_path / "chain.p").write_text(CHAIN_PROBLEM)
    (tmp_path / "manifest.txt").write_text("chain chain.p\n")
    assert run(capsys, "train", str(tmp_path / "ex.txt"),
               "-o", str(tmp_path / "model.bin"))[0] == 0
    return run(capsys, *(a.format(tmp=tmp_path, **names) for a in argv))


@pytest.mark.parametrize("argv", [
    ["prove", "{bad}"],
    ["featurize", "{bad}"],
    ["train", "{bad}", "-o", "{tmp}/m.bin", "--signature", "{tmp}/ex.txt.sig"],
    ["eval", "{tmp}/model.bin", "{bad}"],
    ["grid", "{bad}", "--model", "{tmp}/model.bin"],
    ["loop", "{bad}", "-o", "{tmp}/out"],
], ids=["prove-problem", "featurize-problem", "train-examples",
        "eval-examples", "grid-manifest", "loop-manifest"])
def test_a_named_file_that_is_not_utf8_is_a_runtime_failure_naming_it(
        tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"cnf(a, axiom, (p)).\n\xff\n")
    code, _, err = run_on_named_files(tmp_path, capsys, argv, bad=bad)
    assert code == 2, err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("argv", [
    ["prove", "{tmp}/chain.p", "--record", "{out}"],
    ["grid", "{tmp}/manifest.txt", "--model", "{tmp}/model.bin",
     "--gammas", "0,0.2", "--frequencies", "5", "--csv", "{out}"],
], ids=["prove-record", "grid-csv"])
def test_an_output_file_that_cannot_be_opened_fails_before_any_search(
        tmp_path, capsys, monkeypatch, argv):
    searches = []

    def search(*args, **kwargs):
        searches.append(args)

    monkeypatch.setattr(saturation, "prove", search)
    monkeypatch.setattr(pipeline, "prove", search)
    out = tmp_path / "nodir" / "out"
    code, stdout, err = run_on_named_files(tmp_path, capsys, argv, out=out)
    assert code == 1 and f"cannot open {out}" in err
    assert searches == [] and stdout == ""


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


def test_grid_cli_table_and_csv_bytes(tmp_path, capsys):
    # stdout is tab-separated with \n line ends; the CSV is comma-separated
    # with \r\n row ends
    records = []
    for pid in ["prob00", "prob01"]:
        records.append(str(tmp_path / f"{pid}.json"))
        assert run(capsys, "prove", str(CORPUS / f"{pid}.p"),
                   "--record", records[-1])[0] == 0
    examples, model = tmp_path / "ex.txt", tmp_path / "model.bin"
    assert run(capsys, "extract", *records, "-o", str(examples))[0] == 0
    assert run(capsys, "train", str(examples), "-o", str(model))[0] == 0
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"prob{i:02d} {CORPUS / f'prob{i:02d}.p'}\n"
                                for i in range(6)))
    csv_out = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "grid", str(manifest), "--model", str(model),
                       "--gammas", "0,0.2", "--frequencies", "5,50",
                       "--max-processed", "40", "--csv", str(csv_out))
    assert code == 0
    assert out == ("gamma\t0\t5\t50\tinf\n"
                   "0\t3\t4\t3\t2\n"
                   "0.2\t3\t4\t3\t3\n"
                   "solved 5/6; greedy cover: f5:g0, 0\n")
    assert csv_out.read_bytes() == (b"gamma,0,5,50,inf\r\n"
                                    b"0,3,4,3,2\r\n"
                                    b"0.2,3,4,3,3\r\n")


def test_grid_solves_a_problem_that_reuses_a_trained_name_at_another_arity(
        tmp_path, capsys):
    # the round-0 model of the fixture corpus knows p1/1; a held-out copy
    # of prob00 uses p1/2, which the model's table does not hold, so its
    # feature triples are dropped and every guided strategy still runs
    problems = pipeline.load_manifest(str(CORPUS / "manifest.txt"))
    records = pipeline.run_corpus(problems, {"0": baseline_strategy()},
                                  Limits())
    sig = Signature()
    model = tmp_path / "model.bin"
    save_model(pipeline.train_from_examples(
        pipeline.pool_examples(records.values(), sig), sig), str(model))
    assert ("p1", 1, "predicate") in {
        (s.name, s.arity, s.kind)
        for s in load_model(str(model)).signature.symbols}
    clash = tmp_path / "prob00.p"
    clash.write_text((CORPUS / "prob00.p").read_text()
                     .replace("p1(X)", "p1(X,X)"))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"prob00 {clash}\nprob01 {CORPUS / 'prob01.p'}\n"
                        f"prob02 {CORPUS / 'prob02.p'}\n")
    csv_out = tmp_path / "grid.csv"
    code, _, err = run(capsys, "grid", str(manifest), "--model", str(model),
                       "--gammas", "0,0.2", "--frequencies", "1,5,50",
                       "--csv", str(csv_out))
    assert code == 0, err
    assert csv_out.read_text().splitlines() == ["gamma,0,1,5,50,inf",
                                                "0,3,3,3,3,3",
                                                "0.2,3,3,3,3,3"]


def loop_on_one_problem(tmp_path, capsys, text):
    problem = tmp_path / "one.p"
    problem.write_text(text)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"one {problem}\n")
    outdir = tmp_path / "out"
    code, out, _ = run(capsys, "loop", str(manifest), "--rounds", "2",
                       "-o", str(outdir))
    assert code == 0
    assert not list(outdir.glob("*.bin"))
    return out


def test_loop_reports_a_round_with_no_proof_to_train_on(tmp_path, capsys):
    out = loop_on_one_problem(
        tmp_path, capsys, "cnf(a,axiom,(p(a))).\ncnf(b,axiom,(q(b))).\n")
    assert out == ("round 0: solved 0/1 (+0 new), cover [], "
                   "not enough examples to train\n"
                   f"models written to {tmp_path / 'out'}\n")


def test_loop_reports_a_round_with_no_negative_example(tmp_path, capsys):
    # both given clauses are in the proof, so there is no negative example
    out = loop_on_one_problem(
        tmp_path, capsys, "cnf(a,axiom,(p(a))).\ncnf(b,axiom,(~p(a))).\n")
    assert out == ("round 0: solved 1/1 (+1 new), cover [0], "
                   "not enough examples to train\n"
                   f"models written to {tmp_path / 'out'}\n")


CLASH_PROBLEM = "cnf(a, axiom, (p(a))).\ncnf(b, axiom, (~p(a,b))).\n"
CLASH_MESSAGE = ("symbol 'p' already registered as predicate/1, "
                 "cannot re-register as predicate/2")


@pytest.mark.parametrize("text,warning", [
    ("cnf(a,axiom,(p(a) | ).\n", "bad.p:1: expected a term"),
    (CLASH_PROBLEM, f"bad.p:2: {CLASH_MESSAGE}; counted as unsolved"),
    (None, "bad.p: cannot read"),
    ("% only a comment\n", "bad.p: no clauses found; counted as unsolved"),
    # the text prove reports for the same file
    (b"cnf(a, axiom, (p)).\n\xff\n", "bad.p: 'utf-8' codec can't decode "
     "byte 0xff in position 20: invalid start byte; counted as unsolved"),
], ids=["malformed", "arity-clash", "missing", "no-clauses", "not-utf8"])
def test_loop_counts_a_problem_it_cannot_read_as_unsolved(tmp_path, capsys,
                                                          caplog, text,
                                                          warning):
    if isinstance(text, bytes):
        (tmp_path / "bad.p").write_bytes(text)
    elif text is not None:
        (tmp_path / "bad.p").write_text(text)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"prob00 {CORPUS / 'prob00.p'}\nbad bad.p\n")
    results = []
    for jobs in ("1", "2"):
        outdir = tmp_path / f"out{jobs}"
        with caplog.at_level(logging.WARNING, logger="satguide"):
            code, out, err = run(capsys, "loop", str(manifest), "--rounds", "1",
                                 "--jobs", jobs, "-o", str(outdir))
        assert code == 0, err
        assert warning in caplog.text
        caplog.clear()
        results.append((out.replace(str(outdir), "OUT"),
                        (outdir / "model_round0.bin").read_bytes(),
                        (outdir / "grid_round1.csv").read_bytes()))
    assert results[0] == results[1]
    assert results[0][0].startswith("round 0: solved 1/2 (+1 new)")


def test_prove_on_an_arity_clash_names_the_line(tmp_path, capsys):
    problem = tmp_path / "clash.p"
    problem.write_text(CLASH_PROBLEM)
    code, _, err = run(capsys, "prove", str(problem))
    assert code == 2
    assert err == f"error: {problem}:2: {CLASH_MESSAGE}\n"


def test_prove_no_equality_axioms_flag(tmp_path, capsys):
    problem = tmp_path / "eq.p"
    problem.write_text("cnf(a, axiom, (f(a) = b)).\n"
                       "cnf(goal, negated_conjecture, (f(a) != b)).\n")
    counts = []
    for flags in ([], ["--no-equality-axioms"]):
        record = tmp_path / "rec.json"
        assert run(capsys, "prove", str(problem), "--record", str(record),
                   *flags)[0] == 0
        counts.append(json.loads(record.read_text())["stats"]["equality_axioms"])
    assert counts[0] > 0 and counts[1] == 0


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
