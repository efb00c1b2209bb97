"""Signature, term and clause basics."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import _symbols
from satguide.clauses import (
    App, DEFAULT_SKOLEM_PREFIXES, KIND_FUNCTION,
    KIND_PREDICATE, Literal, NEG_MARKER, POS_MARKER, SKOLEM_MARKER, Signature,
    Symbol, SymbolMap, VAR_MARKER, Var, clause_len, weighted_symbol_count,
)
from satguide.tptp import parse_problem


def parse_one(text, sig):
    return parse_problem(f"cnf(c, axiom, ({text})).", sig)[0]


def test_fresh_signature_has_the_four_markers():
    sig = Signature()
    assert sig.size == 4
    assert (VAR_MARKER, SKOLEM_MARKER, POS_MARKER, NEG_MARKER) == (0, 1, 2, 3)


def test_intern_is_idempotent_and_dense():
    sig = Signature()
    f = sig.intern_symbol("f", 2, KIND_FUNCTION)
    assert f == 4
    assert sig.intern_symbol("f", 2, KIND_FUNCTION) == f
    g = sig.intern_symbol("g", 1, KIND_FUNCTION)
    assert g == 5
    assert sig.name_of(f) == "f"
    assert sig.symbol(g).arity == 1


def test_intern_keys_a_symbol_by_name_arity_and_kind():
    # one name at another arity or kind is another symbol, not a clash
    sig = Signature()
    triples = [("f", 2, KIND_FUNCTION), ("f", 3, KIND_FUNCTION),
               ("f", 2, KIND_PREDICATE)]
    assert [sig.intern_symbol(*t) for t in triples] == [4, 5, 6]
    assert [sig.intern_symbol(*t) for t in reversed(triples)] == [6, 5, 4]
    assert [sig.symbol(i) for i in (4, 5, 6)] == [
        Symbol(i, *t) for i, t in zip((4, 5, 6), triples)]
    with pytest.raises(ValueError, match="symbol name must be nonempty"):
        sig.intern_symbol("", 0, KIND_FUNCTION)


def test_skolem_detection_by_prefix():
    def is_skolem(name, prefixes=DEFAULT_SKOLEM_PREFIXES):
        sig = Signature(prefixes)
        sym_id = sig.intern_symbol(name, 0, KIND_FUNCTION)
        return SymbolMap(sig, sig.freeze()).feature_label(sym_id) == SKOLEM_MARKER

    assert is_skolem("sko1")
    assert is_skolem("esk2_0")
    assert not is_skolem("f")
    assert is_skolem("mysk9", ("mysk",))
    assert not is_skolem("sko1", ("mysk",))


def test_freeze_and_thaw_round_trip():
    for prefixes in (DEFAULT_SKOLEM_PREFIXES, ("f",)):
        sig = Signature(prefixes)
        sig.intern_symbol("f", 2, KIND_FUNCTION)
        sig.intern_symbol("p", 1, KIND_PREDICATE)
        frozen = sig.freeze()
        assert frozen.size == 6
        assert frozen.base == 7
        assert frozen.dimension == 343
        assert frozen.skolem_prefixes == prefixes
        thawed = Signature.from_frozen(frozen)
        assert thawed.size == sig.size
        assert thawed.name_of(4) == "f"
        assert thawed.skolem_prefixes == prefixes
        assert SymbolMap(thawed, frozen).feature_label(4) == \
            SymbolMap(sig, frozen).feature_label(4)
        # the thawed signature keeps growing past the snapshot
        assert thawed.intern_symbol("q", 0, KIND_PREDICATE) == 6


def test_symbol_map_matches_by_name_arity_and_kind():
    model = Signature(("h",))
    for name, arity, kind in (("p", 1, KIND_PREDICATE), ("c", 0, KIND_FUNCTION),
                              ("h", 1, KIND_FUNCTION), ("q", 0, KIND_PREDICATE)):
        model.intern_symbol(name, arity, kind)
    frozen = model.freeze()  # p=4, c=5, h=6, q=7
    sig = Signature()
    ids = {name: sig.intern_symbol(name, arity, kind)
           for name, arity, kind in (
               ("c", 0, KIND_FUNCTION), ("p", 2, KIND_PREDICATE),
               ("hz", 1, KIND_FUNCTION), ("hq", 0, KIND_PREDICATE),
               ("q", 0, KIND_FUNCTION), ("u", 1, KIND_FUNCTION),
               ("sko1", 0, KIND_FUNCTION))}
    symbols = SymbolMap(sig, frozen)
    # the markers keep their ids
    assert [symbols.feature_label(i) for i in range(4)] == [0, 1, 2, 3]
    # a known name of the same arity and kind takes the model's id
    assert symbols.feature_label(ids["c"]) == 5
    # the model's Skolem prefixes decide, for functions only
    assert symbols.feature_label(ids["hz"]) == SKOLEM_MARKER
    # another arity, another kind, an unknown name, or a Skolem name under
    # prefixes the model does not use: each its own id past the table
    unknown = [symbols.feature_label(ids[name])
               for name in ("p", "hq", "q", "u", "sko1")]
    assert all(label >= frozen.size for label in unknown)
    assert len(set(unknown)) == len(unknown)


def test_clause_len_counts_symbols_not_polarity():
    sig = Signature()
    assert clause_len(parse_one("p(X)", sig)) == 2
    assert clause_len(parse_one("~p(X)", sig)) == 2
    # =, f, x, y, g, sko1, sko2, x
    assert clause_len(parse_one("f(X,Y) = g(sko1,sko2(X))", sig)) == 8
    empty = parse_one("$false", sig)
    assert clause_len(empty) == 0 and not empty


def test_clause_len_additive_over_literals():
    sig = Signature()
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        parts = []
        for _ in range(n):
            arity = rng.randint(0, 2)
            args = ",".join(rng.choice(["X", "a", "f(X)"]) for _ in range(arity))
            parts.append(f"p{arity}{'(' + args + ')' if args else ''}")
        whole = parse_one(" | ".join(parts), sig)
        total = sum(clause_len(parse_one(part, sig)) for part in parts)
        assert clause_len(whole) == total


def test_weighted_symbol_count_halves_variables():
    sig = Signature()
    assert weighted_symbol_count(parse_one("p(X)", sig)) == 1.5
    assert weighted_symbol_count(parse_one("p(a)", sig)) == 2.0
    assert weighted_symbol_count(parse_one("f(X,Y) = g(sko1,sko2(X))", sig)) == 6.5


_TERM = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["X", "Y"])),
              st.builds(App, st.integers(4, 6))),
    lambda inner: st.builds(App, st.integers(4, 6),
                            st.lists(inner, min_size=1, max_size=3).map(tuple)),
    max_leaves=12)
_LITERAL = st.builds(Literal, st.booleans(), st.integers(7, 8),
                     st.lists(_TERM, max_size=3).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LITERAL, max_size=4).map(tuple))
def test_symbol_counts_agree_with_the_reference_walker(literals):
    length = clause_len(literals)
    weighted = weighted_symbol_count(literals)
    assert type(length) is int and length == _symbols(literals, 1)
    assert type(weighted) is float and weighted == _symbols(literals, 0.5)
