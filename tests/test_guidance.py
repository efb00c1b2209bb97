"""Clause evaluation functions and round-robin scheduling."""

import itertools

import pytest

from satguide.clauses import Signature, clause_len
from satguide.guidance import (
    CEF, NEGATIVE_WEIGHT, POSITIVE_WEIGHT, Strategy, baseline_strategy,
    evaluate, format_strategy, learned_cef, next_entry_index, parse_strategy,
)
from satguide.pipeline import train_from_examples
from satguide.svm import save_model
from satguide.tptp import parse_problem

GAMMA_GRID = [0, 0.1, 0.2, 0.4, 0.7, 1, 2, 4, 8]
FREQUENCY_GRID = [1, 5, 6, 7, 8, 9, 10, 15, 20, 30, 40, 50]


@pytest.fixture(scope="module")
def trained():
    sig = Signature()
    text = """
    cnf(p1, axiom, (good(a))).
    cnf(p2, axiom, (good(b))).
    cnf(n1, axiom, (bad(a))).
    cnf(n2, axiom, (bad(c))).
    cnf(x1, axiom, (f(X,Y) = g(sko1,sko2(X)))).
    cnf(x2, axiom, ($false)).
    """
    clauses = parse_problem(text, sig)
    model = train_from_examples((clauses[:2], clauses[2:4]), sig)
    return sig, clauses, model


def test_preweight_is_one_or_ten(trained):
    sig, clauses, model = trained
    pre = learned_cef(model, 0.0)
    assert evaluate(clauses[0], pre, sig) == POSITIVE_WEIGHT
    assert evaluate(clauses[2], pre, sig) == NEGATIVE_WEIGHT
    # the empty clause scores 0, which is a negative classification
    assert evaluate(clauses[5], pre, sig) == NEGATIVE_WEIGHT


def test_weight_formula(trained):
    sig, clauses, model = trained
    good = clauses[0]
    assert clause_len(good) == 2
    assert evaluate(good, learned_cef(model, 0.2), sig) == \
        pytest.approx(0.2 * 2 + 1)
    assert evaluate(good, learned_cef(model, 0.0), sig) == 1.0
    bad = clauses[2]
    assert evaluate(bad, learned_cef(model, 0.0), sig) == 10.0
    assert evaluate(bad, learned_cef(model, 8), sig) == \
        pytest.approx(8 * 2 + 10)


def test_weight_over_full_gamma_grid(trained):
    sig, clauses, model = trained
    for gamma in GAMMA_GRID:
        for clause in clauses[:4]:
            pre = evaluate(clause, learned_cef(model, 0.0), sig)
            assert evaluate(clause, learned_cef(model, gamma), sig) == \
                gamma * clause_len(clause) + pre


def test_weight_monotone_in_length_for_fixed_class(trained):
    sig, _, model = trained
    texts = ["good(a)", "good(f(a,b))", "good(f(f(a,b),b))"]
    clauses = [parse_problem(f"cnf(c, axiom, ({t})).", sig)[0] for t in texts]
    lens = [clause_len(c) for c in clauses]
    assert lens == sorted(lens) and len(set(lens)) == 3
    pres = {evaluate(c, learned_cef(model, 0.0), sig) for c in clauses}
    if len(pres) == 1:  # same classification: strictly increasing weight
        ws = [evaluate(c, learned_cef(model, 0.5), sig) for c in clauses]
        assert ws == sorted(ws) and len(set(ws)) == 3


def test_classification_dominance_at_gamma_zero(trained):
    sig, clauses, model = trained
    cef = learned_cef(model, 0.0)
    positives = [c for c in clauses[:4] if evaluate(c, cef, sig) == 1.0]
    negatives = [c for c in clauses[:4] if evaluate(c, cef, sig) == 10.0]
    assert positives and negatives
    for p in positives:
        for n in negatives:
            assert evaluate(p, cef, sig) < evaluate(n, cef, sig)


def test_round_robin_block_schedule():
    a, b = CEF("ClauseLen"), CEF("Fifo")
    strategy = Strategy(((2, a), (1, b)))
    picks = [next_entry_index(strategy, step) for step in range(6)]
    assert picks == [0, 0, 1, 0, 0, 1]
    single = Strategy(((3, a),))
    assert all(next_entry_index(single, s) == 0 for s in range(10))
    lopsided = Strategy(((1, a), (3, b)))
    assert next_entry_index(lopsided, 7) == 1  # cycle position 3


def test_round_robin_window_exactness_exhaustive():
    cefs = [CEF("ClauseLen"), CEF("Fifo"), CEF("SymbolCount")]
    for k in (1, 2, 3):
        for freqs in itertools.product(range(1, 6), repeat=k):
            strategy = Strategy(tuple(zip(freqs, cefs[:k])))
            cycle = strategy.cycle_length
            schedule = [next_entry_index(strategy, s) for s in range(3 * cycle)]
            for offset in range(2 * cycle):
                window = schedule[offset:offset + cycle]
                for entry, freq in enumerate(freqs):
                    assert window.count(entry) == freq


def test_evaluate_dispatch(trained):
    sig, clauses, model = trained
    clause = clauses[0]
    clause17 = parse_problem("cnf(c, axiom, (good(q))).", sig)[0]
    clause17.id = 17
    assert evaluate(clause17, CEF("Fifo"), sig) == 17.0
    assert evaluate(clause, CEF("ClauseLen"), sig) == 2.0
    pc = parse_problem("cnf(c, axiom, (good(X))).", sig)[0]
    assert evaluate(pc, CEF("SymbolCount"), sig) == 1.5
    cef = learned_cef(model, 0.2)
    assert evaluate(clause, cef, sig) == \
        0.2 * clause_len(clause) + POSITIVE_WEIGHT


def test_learned_weight_on_long_equality_clause(trained):
    sig, clauses, model = trained
    eq_clause = clauses[4]
    assert clause_len(eq_clause) == 8
    got = evaluate(eq_clause, learned_cef(model, 0.2), sig)
    pre = evaluate(eq_clause, learned_cef(model, 0.0), sig)
    assert got == pytest.approx(0.2 * 8 + pre)
    if pre == 1.0:
        assert got == pytest.approx(2.6)


def test_argmin_invariance_under_weight_scaling(trained):
    sig, _, model = trained
    texts = ["good(a)", "bad(f(a,b))", "good(f(a,a))", "bad(c)"]
    clauses = [parse_problem(f"cnf(c, axiom, ({t})).", sig)[0]
               for t in texts]
    for i, c in enumerate(clauses):
        c.id = i
    cef = learned_cef(model, 0.2)

    def argmin(scale):
        best = min(clauses,
                   key=lambda c: (scale * evaluate(c, cef, sig), c.id))
        return best.id

    assert argmin(1.0) == argmin(3.5) == argmin(0.25)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy(())
    with pytest.raises(ValueError):
        Strategy(((0, CEF("Fifo")),))
    with pytest.raises(ValueError):
        learned_cef(None, -0.5)


def test_strategy_parse_format_round_trip(tmp_path, trained):
    sig, clauses, model = trained
    path = tmp_path / "m.bin"
    save_model(model, str(path))
    for freq in FREQUENCY_GRID:
        text = f"1*Learned({path},gamma=0.2),{freq}*ClauseLen,2*Fifo"
        strategy = parse_strategy(text)
        assert format_strategy(strategy) == text
        again = parse_strategy(format_strategy(strategy))
        assert again == strategy


def test_strategy_baseline_aliases(tmp_path, trained):
    sig, clauses, model = trained
    path = tmp_path / "m.bin"
    save_model(model, str(path))
    base = parse_strategy("baseline")
    assert base == baseline_strategy()
    combined = parse_strategy(f"1*Learned({path},gamma=0.2)+baseline")
    assert combined.entries[1:] == base.entries
    assert combined.entries[0][1].kind == "Learned"
    with pytest.raises(ValueError):
        parse_strategy("nonsense")
    with pytest.raises(ValueError):
        parse_strategy("3*Mystery")
