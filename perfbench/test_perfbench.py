"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import hardtier  # noqa: E402
import run  # noqa: E402
from satguide.clauses import Signature  # noqa: E402
from satguide.guidance import baseline_strategy  # noqa: E402
from satguide.saturation import Limits, prove, record_to_json  # noqa: E402
from satguide.tptp import parse_problem  # noqa: E402


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def proof_record(text: str, cap: int = 200) -> dict:
    sig = Signature()
    record = prove(parse_problem(text, sig), baseline_strategy(),
                   Limits(max_processed=cap), sig)
    return record_to_json(record)


CHAIN = """
cnf(a, axiom, (p(c))).
cnf(r, axiom, (~p(X) | q(f(X)))).
cnf(g, negated_conjecture, (~q(f(c)))).
"""


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["fixture-loop", "hard-prove", "learn"])
def test_smoke_run(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        m = result["metrics"]
        layers = sum(m[f"{layer}.self_s"]["value"] for layer in
                     ("tptp", "saturation", "guidance", "features", "svm",
                      "pipeline"))
        assert layers <= m["trace.wall_s"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench(tmp_path, "--workload", "hard-prove", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.skipif(shutil.which("ps") is None, reason="needs ps")
def test_no_process_outlives_a_run():
    # learn starts a child to make its inputs; a run in its own session
    # must leave no process of that session behind when it exits
    child = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "learn", "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert child.wait(timeout=170) == 0
    sessions = subprocess.run(["ps", "-eo", "sid="], capture_output=True,
                              text=True, check=True).stdout.split()
    assert str(child.pid) not in sessions


def test_a_closed_proof_passes_the_dag_check():
    record = proof_record(CHAIN)
    assert record["outcome"] == "proof_found"
    assert checks.dag_errors(record) == []
    assert checks.verdict_errors(record, checks.THEOREM) == []
    assert checks.example_counts(record)[0] >= 3


@pytest.mark.parametrize("corrupt", ["forward_parent", "missing_parent",
                                     "no_empty_clause", "unknown_given"])
def test_a_corrupted_record_trips_the_dag_check(corrupt):
    record = proof_record(CHAIN)
    empty = str(record["empty_clause"])
    if corrupt == "forward_parent":
        record["dag"][empty] = [int(empty) + 1]
        record["dag"][str(int(empty) + 1)] = []
    elif corrupt == "missing_parent":
        del record["dag"][str(record["dag"][empty][0])]
    elif corrupt == "no_empty_clause":
        record["clauses"][empty] = "p(c)"
    else:
        record["given_sequence"].append(10 ** 6)
    assert checks.dag_errors(record)


def test_verdict_rules():
    record = {"outcome": "proof_found", "stats": {"discarded": 0}}
    assert checks.verdict_errors(record, checks.SATISFIABLE)
    assert not checks.verdict_errors(record, checks.THEOREM)
    record = {"outcome": "saturated", "stats": {"discarded": 0}}
    assert checks.verdict_errors(record, checks.THEOREM)
    assert not checks.verdict_errors(record, checks.SATISFIABLE)
    record = {"outcome": "saturated", "stats": {"discarded": 3}}
    assert not checks.verdict_errors(record, checks.THEOREM)


def test_hard_tier_is_seeded_and_labelled():
    tier = hardtier.generate(11)
    assert tier == hardtier.generate(11)
    assert tier != hardtier.generate(12)
    families = [p.family for p in tier]
    assert families == ["group"] * 4 + ["chain"] * 2 + ["sat"]
    for problem in tier:
        assert f"% status: {problem.status}" in problem.text
        want = checks.SATISFIABLE if problem.family == "sat" else checks.THEOREM
        assert problem.status == want


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sat_problems_have_no_proof(seed):
    (sat,) = [p for p in hardtier.generate(seed) if p.family == "sat"]
    record = proof_record(sat.text, cap=300)
    assert record["outcome"] != "proof_found"
