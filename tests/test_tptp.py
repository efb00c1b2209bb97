"""CNF reader and writer."""

import random

import pytest

from satguide.clauses import KIND_FUNCTION, Signature
from satguide.tptp import (
    MAX_TERM_DEPTH, ParseError, format_clause, parse_clause_text,
    parse_problem,
)

SAMPLE = """
% a small problem
cnf(one, axiom, (p(X) | ~q(h(X), a))).
cnf(two, hypothesis, (f(X, Y) = g(sko1, sko2(X)))).
cnf(three, negated_conjecture, (~p(a))).
cnf(four, axiom, (a != b | r)).
cnf(five, axiom, $false).
"""


def test_parse_problem_basics():
    sig = Signature()
    clauses = parse_problem(SAMPLE, sig, "sample.p")
    # the clauses in file order, so a clause's index is its id
    assert clauses == [parse_clause_text(text, sig) for text in (
        "p(X) | ~q(h(X), a)", "f(X, Y) = g(sko1, sko2(X))", "~p(a)",
        "a != b | r", "$false")]
    assert len(clauses[0]) == 2
    assert clauses[0][0].positive
    assert not clauses[0][1].positive
    assert not clauses[4]  # $false is the empty clause
    neq = clauses[3][0]
    assert not neq.positive and sig.name_of(neq.predicate) == "="


def test_negated_equality_forms():
    sig = Signature()
    a = parse_clause_text("a != b", sig)
    b = parse_clause_text("~ a = b", sig)
    assert a == b


def test_variables_are_uppercase_initial():
    sig = Signature()
    (lit,) = parse_clause_text("p(X, x)", sig)
    var, const = lit.args
    assert type(var).__name__ == "Var"
    assert type(const).__name__ == "App"


@pytest.mark.parametrize("bad", [
    "cnf(a, axiom, (p(X)).",          # missing close paren
    "cnf(a, theorem, (p(X))).",       # unsupported role
    "cnf(a, axiom, (X)).",            # bare variable literal
    "cnf(a, axiom, (p(X) | $false)).",
    "cnf(a, axiom, (~$false)).",
    "cnf(a, axiom, (p(X))) .extra",
    "fof(a, axiom, p(X)).",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError, match=r"^bad\.p:1: "):
        parse_problem(bad, Signature(), "bad.p")


def test_trailing_input_after_a_clause_text_names_the_source():
    with pytest.raises(ParseError, match=r"^rec\.json:1: trailing input "
                                         r"after clause \(at '\)'\)"):
        parse_clause_text("p(a) | q(b))", Signature(), "rec.json")


def test_a_missing_term_names_the_line():
    with pytest.raises(ParseError, match=r"^bad\.p:2: expected a term"):
        parse_problem("cnf(a, axiom, (p(a))).\ncnf(b, axiom, (p(,))).",
                      Signature(), "bad.p")


def _nested(levels, inner):
    return "f(" * levels + inner + ")" * levels


@pytest.mark.parametrize("literal", ["p({})", "{} = a"])
def test_nesting_is_bounded(literal):
    # the predicate is one level of a literal's nesting; an equality's
    # sides are not below a predicate
    levels = MAX_TERM_DEPTH - (2 if literal.startswith("p") else 1)
    deepest = literal.format(_nested(levels, "a"))
    parse_problem(f"cnf(a, axiom, ({deepest})).", Signature(), "deep.p")
    too_deep = literal.format(_nested(levels + 1, "a"))
    with pytest.raises(ParseError, match=r"^deep\.p:2: term nested deeper "
                       f"than {MAX_TERM_DEPTH}$"):
        parse_problem(f"% deep\ncnf(a, axiom, ({too_deep})).", Signature(),
                      "deep.p")


def test_arity_clash_is_reported():
    with pytest.raises(ParseError):
        parse_problem("cnf(a, axiom, (p(X) | p(X, Y))).", Signature())


@pytest.mark.parametrize("text,line,symbol", [
    ("cnf(a, axiom, (p(a))).\n\ncnf(b, axiom, (~p(a,b))).\n", 3, "p"),
    ("cnf(a, axiom, (q(f(a)))).\ncnf(b, axiom, (q(f(a,\nb)))).\n", 2, "f"),
], ids=["predicate", "function"])
def test_arity_clash_names_the_file_and_line(text, line, symbol):
    with pytest.raises(ParseError,
                       match=rf"^clash\.p:{line}: symbol '{symbol}' already"):
        parse_problem(text, Signature(), "clash.p")


def test_an_equality_that_clashes_names_the_file_and_line():
    # a signature thawed from a model's table may hold "=" at another kind
    sig = Signature()
    sig.intern_symbol("=", 2, KIND_FUNCTION)
    with pytest.raises(ParseError, match=r"^eq\.p:2: symbol '=' already"):
        parse_problem("cnf(a, axiom, (p(a))).\ncnf(b, axiom, (a = b)).\n",
                      sig, "eq.p")


def random_clause_text(rng):
    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(["X", "Y", "Z", "a", "b", "sko1"])
        name = rng.choice(["f", "g"])
        arity = {"f": 2, "g": 1}[name]
        return f"{name}({','.join(term(depth - 1) for _ in range(arity))})"

    def literal():
        if rng.random() < 0.3:
            op = rng.choice(["=", "!="])
            return f"{term(2)} {op} {term(2)}"
        neg = "~" if rng.random() < 0.5 else ""
        name = rng.choice(["p", "q"])
        arity = {"p": 1, "q": 2}[name]
        return f"{neg}{name}({','.join(term(2) for _ in range(arity))})"

    if rng.random() < 0.05:
        return "$false"
    return " | ".join(literal() for _ in range(rng.randint(1, 4)))


def test_print_parse_round_trip_on_random_clauses():
    rng = random.Random(42)
    sig = Signature()
    for _ in range(200):
        text = random_clause_text(rng)
        clause = parse_problem(f"cnf(c, axiom, ({text})).", sig)[0]
        printed = format_clause(clause, sig)
        again = parse_clause_text(printed, sig)
        assert again == clause


def test_sample_clauses_round_trip():
    sig = Signature()
    sig2 = Signature()
    for clause in parse_problem(SAMPLE, sig):
        printed = format_clause(clause, sig)
        again = parse_clause_text(printed, sig2)
        assert format_clause(again, sig2) == printed
