"""Feature extraction, indexing, and vectorization."""

import itertools
import random
import re

import pytest

from satguide.clauses import (
    KIND_FUNCTION, KIND_PREDICATE, NEG_MARKER, POS_MARKER, SKOLEM_MARKER,
    Signature, SymbolMap, VAR_MARKER,
)
from oracles import FeatureNode, feature_tree, tree_walks
from satguide.features import (
    EPSILON, UnknownSymbol, clause_features, feature_index,
    format_multiset, literal_features, read_examples, vectorize,
    write_examples, FormatError,
)
from satguide.tptp import parse_clause_text, parse_problem


def parse_lit(text, sig):
    (lit,) = parse_clause_text(text, sig)
    return lit


def parse_one(text, sig):
    return parse_problem(f"cnf(c, axiom, ({text})).", sig)[0]


def own(sig):
    """The map of a signature into its own snapshot, as training labels it.

    A map covers the symbols registered when it is built, so each call
    site builds it after its parse."""
    return SymbolMap(sig, sig.freeze())


def test_feature_tree_shapes():
    sig = Signature()
    tree = feature_tree(parse_lit("f(X,Y) = g(sko1,sko2(X))", sig), sig)
    eq = sig.intern_symbol("=", 2, KIND_PREDICATE)
    f = sig.intern_symbol("f", 2, KIND_FUNCTION)
    g = sig.intern_symbol("g", 2, KIND_FUNCTION)
    v, s = VAR_MARKER, SKOLEM_MARKER
    assert tree == FeatureNode(POS_MARKER, (FeatureNode(eq, (
        FeatureNode(f, (FeatureNode(v), FeatureNode(v))),
        FeatureNode(g, (FeatureNode(s), FeatureNode(s, (FeatureNode(v),)))),
    )),))
    prop = feature_tree(parse_lit("~q0", sig), sig)
    assert prop.label == NEG_MARKER and len(prop.children) == 1
    assert not prop.children[0].children


def test_literal_features_golden_singletons():
    sig = Signature()
    p = parse_lit("p(X)", sig)
    pid = p.predicate
    assert literal_features(p, own(sig)) == {(POS_MARKER, pid, VAR_MARKER): 1}
    q = parse_lit("~q(X,Y)", sig)
    assert literal_features(q, own(sig)) == {(NEG_MARKER, q.predicate, VAR_MARKER): 2}


def test_literal_features_golden_equality():
    sig = Signature()
    lit = parse_lit("f(X,Y) = g(sko1,sko2(X))", sig)
    eq = sig.intern_symbol("=", 2, KIND_PREDICATE)
    f = sig.intern_symbol("f", 2, KIND_FUNCTION)
    g = sig.intern_symbol("g", 2, KIND_FUNCTION)
    assert literal_features(lit, own(sig)) == {
        (POS_MARKER, eq, f): 1,
        (POS_MARKER, eq, g): 1,
        (eq, f, VAR_MARKER): 2,
        (eq, g, SKOLEM_MARKER): 2,
        (g, SKOLEM_MARKER, VAR_MARKER): 1,
    }


def test_propositional_literals_are_padded():
    sig = Signature()
    lit = parse_lit("p0", sig)
    assert literal_features(lit, own(sig)) == {(POS_MARKER, lit.predicate, EPSILON): 1}
    neg = parse_lit("~p0", sig)
    assert literal_features(neg, own(sig)) == {(NEG_MARKER, neg.predicate, EPSILON): 1}


def test_clause_features_union_and_empty():
    sig = Signature()
    clause = parse_one("p(X) | p(Y)", sig)
    pid = clause[0].predicate
    assert clause_features(clause, own(sig)) == {(POS_MARKER, pid, VAR_MARKER): 2}
    assert clause_features(parse_one("$false", sig), own(sig)) == {}
    single = parse_one("f(X,Y) = g(sko1,sko2(X))", sig)
    (lit,) = single
    assert clause_features(single, own(sig)) == literal_features(lit, own(sig))


def test_walk_count_conservation_against_tree_oracle():
    sig = Signature()
    rng = random.Random(3)
    texts = ["p(X) | ~q(f(a,X), g(sko1, b))",
             "f(X,X) = g(sko2(sko1), Y) | ~p(c)",
             "r0 | p(X)",
             "~q(X, Y) | q(Y, X)"]
    for _ in range(60):
        texts.append(" | ".join(
            rng.choice(["p(f(X,a))", "~q(X,g(sko1,Y))", "r0", "p(b)"])
            for _ in range(rng.randint(1, 4))))
    for text in texts:
        clause = parse_one(text, sig)
        counts = clause_features(clause, own(sig))
        expected = {}
        total_walks = 0
        for lit in clause:
            tree = feature_tree(lit, sig)
            walks = tree_walks(tree)
            if not walks:  # depth-2 tree: the padded walk
                walks = [(tree.label, tree.children[0].label, EPSILON)]
            total_walks += len(walks)
            for walk in walks:
                expected[walk] = expected.get(walk, 0) + 1
        assert counts == expected
        assert sum(counts.values()) == total_walks
        for s1, s2, s3 in counts:
            # walks start at a marker or an inner symbol, never a variable;
            # padding may only occupy the last slot
            assert s1 != VAR_MARKER and s1 != EPSILON
            assert s2 != EPSILON


def test_literal_order_and_variable_names_do_not_matter():
    sig = Signature()
    a = parse_one("p(X) | ~q(X, f(Y,a))", sig)
    b = parse_one("~q(U, f(V,a)) | p(U)", sig)
    assert clause_features(a, own(sig)) == clause_features(b, own(sig))


def test_feature_index_formula_and_bounds():
    sig = Signature()
    frozen = sig.freeze()  # size 4, base 5
    assert feature_index((0, 0, 0), frozen) == 1
    assert feature_index((1, 2, 3), frozen) == 1 * 25 + 2 * 5 + 3 + 1
    assert feature_index((EPSILON, EPSILON, EPSILON), frozen) == frozen.dimension
    with pytest.raises(UnknownSymbol):
        feature_index((0, 0, 99), frozen)


def test_feature_index_bijective_small_signature():
    sig = Signature()
    sig.intern_symbol("p", 1, KIND_PREDICATE)
    sig.intern_symbol("f", 1, KIND_FUNCTION)
    frozen = sig.freeze()
    ids = list(range(frozen.size)) + [EPSILON]
    seen = sorted(feature_index(t, frozen)
                  for t in itertools.product(ids, repeat=3))
    assert seen == list(range(1, frozen.dimension + 1))


def test_vectorize_golden_and_determinism():
    sig = Signature()
    clause = parse_one("f(X,Y) = g(sko1,sko2(X))", sig)
    frozen = sig.freeze()
    counts = clause_features(clause, own(sig))
    vec = vectorize(counts, frozen)
    assert len(vec) == 5
    assert sum(n for _, n in vec) == 7
    assert list(vec) == sorted(vec)
    assert all(1 <= i <= frozen.dimension for i, _ in vec)
    again = vectorize(clause_features(clause, own(sig)), frozen)
    assert again == vec
    assert vectorize({}, frozen) == ()
    assert vectorize({(0, 0, 0): 3}, frozen) == ((1, 3),)


def test_vectorize_drops_unknown_symbols_with_counter():
    sig = Signature()
    clause = parse_one("p(a)", sig)
    frozen = sig.freeze()
    # new predicate appears only after the freeze
    later = parse_one("brandnew(a) | p(a)", sig)
    stats = {}
    vec = vectorize(clause_features(later, SymbolMap(sig, frozen)), frozen, stats)
    assert stats["dropped_triples"] == 1
    assert sum(n for _, n in vec) == 1  # only the p(a) walk survives
    # unknown Skolem functions collapse to the marker instead of dropping
    sko = parse_one("p(sko99)", sig)
    stats2 = {}
    vec2 = vectorize(clause_features(sko, SymbolMap(sig, frozen)), frozen,
                     stats2)
    assert "dropped_triples" not in stats2
    assert sum(n for _, n in vec2) == 1


def test_examples_file_round_trip(tmp_path):
    sig = Signature()
    frozen = sig.freeze()
    rows = [
        (vectorize({(0, 0, 0): 2, (1, 2, 3): 1}, frozen), 1),
        (vectorize({(2, 2, EPSILON): 4}, frozen), -1),
        ((), 1),
    ]
    path = tmp_path / "ex.txt"
    with open(path, "w") as fp:
        write_examples(fp, rows)
    parsed = read_examples(str(path), frozen.dimension)
    assert parsed == rows
    lines = path.read_text().splitlines()
    assert lines[0].startswith("+1 ")
    assert lines[1].startswith("-1 ")


@pytest.mark.parametrize("line", [
    "0 1:1", "+1 2:1 2:3", "+1 5:x", "+1 999999:1", "+1 0:1",
])
def test_examples_file_rejects_malformed_lines(line, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n")
    with pytest.raises(FormatError):
        read_examples(str(path), 125)


def test_examples_file_rejects_a_count_past_the_float_range(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("-1 2:1\n+1 1:1" + "0" * 400 + "\n")
    with pytest.raises(FormatError, match=re.escape(
            f"{path}:2: count at index 1 is too large")):
        read_examples(str(path), 125)


def test_examples_file_parses_each_distinct_line_once(tmp_path):
    path = tmp_path / "ex.txt"
    path.write_text("+1 1:2\n-1 3:1\n  +1 1:2 \n+1 1:2\n")
    rows = read_examples(str(path), 125)
    assert rows == [(((1, 2),), 1), (((3, 1),), -1)] + [(((1, 2),), 1)] * 2
    assert rows[0] is rows[2] is rows[3]
    # a repeated bad line is reported at its first occurrence
    path.write_text("+1 1:2\n-1 4:x\n+1 1:2\n-1 4:x\n")
    with pytest.raises(FormatError, match=re.escape(
            f"{path}:2: bad entry '4:x'")):
        read_examples(str(path), 125)


def test_format_multiset_debug_view():
    sig = Signature()
    clause = parse_one("p(X)", sig)
    out = format_multiset(clause_features(clause, own(sig)), sig)
    assert out == "{(⊕,p,⊛) ↦ 1}"
