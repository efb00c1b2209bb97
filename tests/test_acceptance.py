"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import random
import statistics
import time
from pathlib import Path

import numpy as np

from oracles import (
    brute_force_min_cover, ground_entails, ground_instances,
    record_proof_faults, svm_reference_minimizer,
)
from satguide.clauses import (
    App, KIND_FUNCTION, KIND_PREDICATE, NEG_MARKER, POS_MARKER,
    SKOLEM_MARKER, Signature, SymbolMap, VAR_MARKER, clause_len,
)
from satguide.features import (
    EPSILON, feature_index, literal_features,
)
from satguide.guidance import (
    CEF, NEGATIVE_WEIGHT, POSITIVE_WEIGHT, Strategy, baseline_strategy,
    evaluate, learned_cef, next_entry_index,
)
from satguide.pipeline import (
    boost_rows, greedy_cover, load_manifest, pool_examples,
    run_corpus, train_from_examples, training_set,
)
from satguide.saturation import Limits, OUTCOME_PROOF, prove
from satguide.svm import (
    Model, NEG, POS, SolverConfig, accuracy, predict, predict_vector,
    score_vector, solve_l2svm, train_vectors,
)
from satguide.tptp import parse_clause_text, parse_problem

CORPUS = Path(__file__).parent / "fixtures" / "corpus"

GAMMA_GRID = [0, 0.1, 0.2, 0.4, 0.7, 1, 2, 4, 8]
FREQUENCY_GRID = [1, 5, 6, 7, 8, 9, 10, 15, 20, 30, 40, 50]


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {number:2d} PASS: {text}")


def parse_lit(text, sig):
    (lit,) = parse_clause_text(text, sig)
    return lit


def parse_one(text, sig):
    return parse_problem(f"cnf(c, axiom, ({text})).", sig)[0]


def test_criterion_01_feature_extraction_goldens():
    sig = Signature()
    p = parse_lit("p(X)", sig)
    assert literal_features(p, SymbolMap(sig, sig.freeze())) == \
        {(POS_MARKER, p.predicate, VAR_MARKER): 1}
    q = parse_lit("~q(X,Y)", sig)
    assert literal_features(q, SymbolMap(sig, sig.freeze())) == \
        {(NEG_MARKER, q.predicate, VAR_MARKER): 2}
    eq_lit = parse_lit("f(X,Y) = g(sko1,sko2(X))", sig)
    eq = sig.intern_symbol("=", 2, KIND_PREDICATE)
    f = sig.intern_symbol("f", 2, KIND_FUNCTION)
    g = sig.intern_symbol("g", 2, KIND_FUNCTION)
    assert literal_features(eq_lit, SymbolMap(sig, sig.freeze())) == {
        (POS_MARKER, eq, f): 1,
        (POS_MARKER, eq, g): 1,
        (eq, f, VAR_MARKER): 2,
        (eq, g, SKOLEM_MARKER): 2,
        (g, SKOLEM_MARKER, VAR_MARKER): 1,
    }
    report(1, "all three worked-example feature multisets, multiplicities exact")


def test_criterion_02_feature_index_bijectivity():
    sig = Signature()
    sig.intern_symbol("p", 1, KIND_PREDICATE)
    sig.intern_symbol("q", 2, KIND_PREDICATE)
    sig.intern_symbol("f", 2, KIND_FUNCTION)
    sig.intern_symbol("a", 0, KIND_FUNCTION)
    frozen = sig.freeze()
    assert frozen.size == 8
    ids = list(range(frozen.size)) + [EPSILON]
    indices = sorted(feature_index(t, frozen)
                     for t in itertools.product(ids, repeat=3))
    assert indices == list(range(1, frozen.dimension + 1))
    report(2, f"indices over a size-{frozen.size} signature are a permutation "
              f"of 1..{frozen.dimension}")


def test_criterion_03_svm_matches_brute_force_qp():
    rng = random.Random(20240502)
    instances = 0
    for trial in range(25):
        n = rng.randint(2, 6)
        dim = rng.randint(1, 3)
        c = rng.choice([0.5, 1.0, 2.0])
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(n)]
        labels = [rng.choice([1, -1]) for _ in range(n)]
        if 1 not in labels:
            labels[0] = 1
        if -1 not in labels:
            labels[-1] = -1
        vectors = [tuple((j + 1, v) for j, v in enumerate(row) if v)
                   for row in rows]
        cfg = SolverConfig(c=c, tolerance=1e-9, max_epochs=20000, seed=trial)
        w, info = solve_l2svm(vectors, labels, dim, cfg)
        ref = svm_reference_minimizer(np.array(rows, dtype=float),
                                      np.array(labels, dtype=float), c)
        assert np.max(np.abs(w - ref)) < 1e-4
        duals = info.dual_objectives
        assert all(b >= a - 1e-9 for a, b in zip(duals, duals[1:]))
        instances += 1
    assert instances >= 20
    report(3, f"{instances} random instances within 1e-4 of the reference QP "
              "minimizer; dual objective monotone")


def test_criterion_04_prediction_rule_is_strict():
    sig = Signature()
    sig.intern_symbol("p", 1, KIND_PREDICATE)
    sig.intern_symbol("a", 0, KIND_FUNCTION)
    frozen = sig.freeze()
    rng = random.Random(99)
    model = Model({}, frozen, 1.0, 0, 0.0, 0)
    for _ in range(500):
        nnz = rng.randint(0, 8)
        picks = sorted(rng.sample(range(1, frozen.dimension + 1), nnz))
        vec = tuple((i, rng.randint(1, 4)) for i in picks)
        for i, _ in vec:
            model.w[i] = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0])
        score = score_vector(model, vec)
        assert predict_vector(model, vec) == (POS if score > 0.0 else NEG)
    # engineered exact ties classify negative
    model.w.clear()
    model.w[1], model.w[2] = 2.0, -1.0
    tie = ((1, 1), (2, 2))
    assert score_vector(model, tie) == 0.0
    assert predict_vector(model, tie) == NEG
    assert predict_vector(model, ()) == NEG
    empty_clause = parse_problem("cnf(e, axiom, $false).", sig)[0]
    assert predict(empty_clause, model, SymbolMap(sig, frozen)) == NEG
    report(4, "positive iff w'x > 0, strictly; ties and empty vectors negative")


def test_criterion_05_guidance_arithmetic_over_the_grids():
    sig = Signature()
    pos_texts = ["good(a)", "good(f(a,b))"]
    neg_texts = ["bad(a)", "bad(f(a,b))", "bad(f(f(a,a),b))"]
    positives = [parse_one(t, sig) for t in pos_texts]
    negatives = [parse_one(t, sig) for t in neg_texts]
    model = train_from_examples((positives, negatives), sig)
    symbols = SymbolMap(sig, model.signature)
    clauses = positives + negatives
    checked = 0
    for gamma in GAMMA_GRID:
        for clause in clauses:
            positive = predict(clause, model, symbols) == POS
            pre = evaluate(clause, learned_cef(model, 0.0), positive)
            assert pre in (POSITIVE_WEIGHT, NEGATIVE_WEIGHT)
            assert evaluate(clause, learned_cef(model, gamma), positive) == \
                gamma * clause_len(clause) + pre
            checked += 1
    # every frequency in the grid yields an exact round-robin block
    cef = learned_cef(model, 0.2)
    for freq in FREQUENCY_GRID:
        strategy = Strategy(((freq, cef), (1, CEF("ClauseLen"))))
        cycle = strategy.cycle_length
        schedule = [next_entry_index(strategy, s) for s in range(2 * cycle)]
        assert schedule[:freq] == [0] * freq
        for offset in range(cycle):
            window = schedule[offset:offset + cycle]
            assert window.count(0) == freq and window.count(1) == 1
    report(5, f"weight = gamma*len + preweight exact on {checked} "
              "(gamma, clause) pairs; all grid frequencies schedule exactly")


def test_criterion_06_round_robin_window_exactness():
    cefs = [CEF("ClauseLen"), CEF("Fifo"), CEF("SymbolCount")]
    combos = 0
    for k in (1, 2, 3):
        for freqs in itertools.product(range(1, 6), repeat=k):
            strategy = Strategy(tuple(zip(freqs, cefs[:k])))
            cycle = strategy.cycle_length
            schedule = [next_entry_index(strategy, s) for s in range(3 * cycle)]
            for offset in range(2 * cycle):
                window = schedule[offset:offset + cycle]
                for entry, freq in enumerate(freqs):
                    assert window.count(entry) == freq
            combos += 1
    report(6, f"every window of one cycle is exact for all {combos} "
              "frequency combinations (<=3 CEFs, f<=5)")


# (problem text, limits): each fixture is small enough that every clause in
# its derivation has at most 12 ground instances over the problem constants
SOUNDNESS_FIXTURES = [
    ("""
    cnf(f1, axiom, (p0(c))).
    cnf(r1, axiom, (~p0(X) | p1(X))).
    cnf(r2, axiom, (~p1(X) | p2(X))).
    cnf(goal, negated_conjecture, (~p2(c))).
    """, Limits()),
    ("""
    cnf(a, axiom, (human(socrates))).
    cnf(b, axiom, (~human(X) | mortal(X))).
    cnf(goal, negated_conjecture, (~mortal(socrates))).
    """, Limits()),
    ("""
    cnf(a, axiom, (p0 | q0)).
    cnf(b, axiom, (~p0 | r0)).
    cnf(c, axiom, (~q0 | r0)).
    cnf(d, axiom, (~r0)).
    """, Limits()),
    ("""
    cnf(a, axiom, (edge(a, b))).
    cnf(b, axiom, (edge(b, a))).
    cnf(c, axiom, (~edge(X, Y) | ~edge(Y, X) | cycle(X))).
    cnf(goal, negated_conjecture, (~cycle(a))).
    """, Limits(max_literals=3)),
    ("""
    cnf(e1, axiom, (a = b)).
    cnf(f1, axiom, (p(a))).
    cnf(goal, negated_conjecture, (~p(b))).
    """, Limits(max_literals=3)),
]


def test_criterion_07_prover_soundness_against_ground_oracle():
    checked = 0
    for text, limits in SOUNDNESS_FIXTURES:
        sig = Signature()
        clauses = parse_problem(text, sig)
        record = prove(clauses, baseline_strategy(), limits, sig)
        assert record.outcome == OUTCOME_PROOF
        assert record_proof_faults(record, text) == []
        constants = [s.id for s in sig.freeze().symbols
                     if s.kind == KIND_FUNCTION and s.arity == 0]
        for cid, parents in record.dag.items():
            if not parents:
                continue
            clause = record.clause(cid, sig)
            parent_clauses = [record.clause(p, sig) for p in parents]
            # fixture scale guard: every clause stays within 12 instances
            terms = [App(c) for c in constants] or None
            if terms:
                for cl in parent_clauses + [clause]:
                    assert len(ground_instances(cl, terms)) <= 12
            assert ground_entails(parent_clauses, clause, sig), \
                record.clause_texts[cid]
            checked += 1
    assert checked >= 10
    report(7, f"{checked} derived clauses all entailed by their parents "
              "(ground truth-table oracle)")


def test_criterion_08_guided_rerun_improvement():
    problems = load_manifest(str(CORPUS / "manifest.txt"))
    assert len(problems) >= 20
    limits = Limits(max_processed=400, max_generated=50000)
    base_records = run_corpus(problems, {"0": baseline_strategy()}, limits)
    assert all(r.outcome == OUTCOME_PROOF for r in base_records.values()), \
        "the baseline must solve the whole bundled corpus"

    sig = Signature()
    pool = pool_examples(base_records.values(), sig)
    model = train_from_examples(pool, sig)

    guided = Strategy(((1, learned_cef(model, 0.2)),))
    base_counts = []
    guided_counts = []
    for problem in problems:
        baseline_processed = \
            base_records[("0", problem.pid)].stats["processed"]
        run_sig = Signature.from_frozen(model.signature)
        text = Path(problem.path).read_text()
        clauses = parse_problem(text, run_sig, problem.path)
        budget = Limits(max_processed=2 * baseline_processed,
                        max_generated=limits.max_generated)
        record = prove(clauses, guided, budget, run_sig, problem.pid)
        assert record.outcome == OUTCOME_PROOF, \
            f"{problem.pid} became unsolved under a 2x processed budget"
        assert record_proof_faults(record, text) == [], problem.pid
        base_counts.append(baseline_processed)
        guided_counts.append(record.stats["processed"])
    base_median = statistics.median(base_counts)
    guided_median = statistics.median(guided_counts)
    assert guided_median <= 0.8 * base_median, (base_median, guided_median)
    report(8, f"median processed clauses {base_median} -> {guided_median} "
              f"({100 * (1 - guided_median / base_median):.0f}% decrease) on "
              f"{len(problems)} problems; none lost at 2x budget")


def test_criterion_09_boosting_direction_on_skewed_fixture():
    sig = Signature()
    positives, negatives = pool = ([], [])
    texts = [("q(a)", 1)] * 10 + [("q(a)", -1)] * 40 + [("r(b)", 1)] * 2
    for i in range(10):
        texts.extend([(f"junk{i}(z{i})", -1)] * 32)
    for k, (text, label) in enumerate(texts):
        clause = parse_problem(f"cnf(c{k}, axiom, ({text})).", sig)[0]
        (positives if label > 0 else negatives).append(clause)
    ratio = len(negatives) / len(positives)
    assert 25 <= ratio <= 35  # pos:neg about 1:30
    plain_model = train_from_examples(pool, sig)
    boosted_model = train_vectors(
        boost_rows(training_set(pool, sig), 10), sig.freeze())
    ts = training_set(pool, sig)
    plain = accuracy(plain_model, ts)
    boosted = accuracy(boosted_model, ts)
    assert boosted.positive_recall > plain.positive_recall
    assert plain.accuracy >= boosted.accuracy
    report(9, f"10x boosting: positive recall {plain.positive_recall:.3f} -> "
              f"{boosted.positive_recall:.3f}, accuracy "
              f"{plain.accuracy:.3f} -> {boosted.accuracy:.3f}")


def test_criterion_10_featurize_and_predict_throughput():
    sig = Signature()
    rng = random.Random(1)
    clauses = []
    while len(clauses) < 200:
        n = rng.randint(1, 4)
        parts = [rng.choice([
            "p0(f(X,a))", "~q0(X,g(sko1,Y))", "r0", "p0(b)",
            "f(X,Y) = g(sko1,sko2(X))", "~p0(f(f(X,b),a))",
        ]) for _ in range(n)]
        clause = parse_one(" | ".join(parts), sig)
        if clause_len(clause) <= 30:
            clauses.append(clause)
    positives = clauses[:100]
    negatives = clauses[100:]
    model = train_from_examples((positives, negatives), sig)
    symbols = SymbolMap(sig, model.signature)

    def run_once():
        for clause in clauses:
            predict(clause, model, symbols)

    run_once()  # warm up
    repeats = 25
    start = time.perf_counter()
    for _ in range(repeats):
        run_once()
    elapsed = time.perf_counter() - start
    rate = repeats * len(clauses) / elapsed
    assert rate >= 10000, f"only {rate:.0f} clauses/second"
    report(10, f"featurize+predict at {rate:,.0f} clauses/second "
               "(bound: 10,000)")


def test_criterion_11_greedy_cover_matches_exhaustive_oracle():
    rng = random.Random(7)
    cases = 0
    for _ in range(60):
        n_sets = rng.randint(1, 10)
        sets = [set(rng.sample(range(10), rng.randint(0, 5)))
                for _ in range(n_sets)]
        chosen = greedy_cover(list(zip(range(n_sets), sets)))
        covered = set()
        for key in chosen:
            covered |= sets[key]
        oracle_covered = set()
        for i in brute_force_min_cover(sets):
            oracle_covered |= sets[i]
        assert covered == oracle_covered
        cases += 1
    report(11, f"greedy cover equals the brute-force oracle's coverage on "
               f"{cases} random instances (<=10 strategies)")
