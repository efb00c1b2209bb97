"""The benchmark calls and wraps package functions by module and name."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from satguide import cli, pipeline, tptp
from satguide.guidance import format_strategy

ROOT = Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_name_the_tracer_wraps_exists():
    targets = tracer_targets()
    assert targets
    missing = [f"satguide.{module}.{name}" for module, name, _ in targets
               if not callable(getattr(importlib.import_module(
                   f"satguide.{module}"), name, None))]
    assert missing == []


def test_every_library_name_the_workloads_use_exists():
    tree = ast.parse(WORKLOADS.read_text())
    used = set()
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None \
                and node.module.split(".")[0] == "satguide":
            names = {alias.name for alias in node.names}
            if node.module == "satguide":  # submodules, imported below
                modules |= names
            else:
                used |= {(node.module, name) for name in names}
    # attributes of the package modules the workloads import by name,
    # e.g. pipeline.train_from_examples and saturation.OUTCOME_PROOF
    used |= {(f"satguide.{node.value.id}", node.attr)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert ("satguide.pipeline", "train_from_examples") in used
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_a_corpus_run_proves_each_pair_once_and_parses_once_per_problem(
        tmp_path, monkeypatch, capsys):
    # perfbench times each call of pipeline.prove as one attempt, so a corpus
    # run must call it, by that name, once per (strategy, problem) pair
    runs = []
    run_corpus, prove, parse_problem = (
        pipeline.run_corpus, pipeline.prove, tptp.parse_problem)

    def counting_run_corpus(problems, strategies, *args, **kwargs):
        runs.append((problems, strategies, Counter(), Counter()))
        return run_corpus(problems, strategies, *args, **kwargs)

    def counting_prove(problem, strategy, *args, problem_id="", **kwargs):
        runs[-1][2][format_strategy(strategy), problem_id] += 1
        return prove(problem, strategy, *args, problem_id=problem_id, **kwargs)

    def counting_parse(text, sig, path="<string>"):
        runs[-1][3][path] += 1
        return parse_problem(text, sig, path)

    monkeypatch.setattr(pipeline, "run_corpus", counting_run_corpus)
    monkeypatch.setattr(pipeline, "prove", counting_prove)
    # the tracer's span: tptp.read_problem parses by this global name
    monkeypatch.setattr(tptp, "parse_problem", counting_parse)
    manifest = ROOT / "tests" / "fixtures" / "corpus" / "manifest.txt"
    assert cli.main(["loop", str(manifest), "--rounds", "1",
                     "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(runs) == 2  # round 0 and the round-1 grid
    for problems, strategies, proves, parses in runs:
        assert proves == Counter({(format_strategy(s), p.pid): 1
                                  for s in strategies.values()
                                  for p in problems})
        assert parses == Counter({p.path: 1 for p in problems})
    # the grid's base strategy, without a model, and its learned rows
    # share that one parse
    assert all(cef.model is None for _, cef in runs[1][1]["0"].entries)
    assert len(runs[1][1]) > 1
