"""Unification, inference rules, subsumption, and the given-clause loop."""

import hashlib
import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    clause_subsumes, ground_entails, matches, record_proof_faults,
    robinson_unify, selection_faults, substitute,
)
from satguide import saturation
from satguide.clauses import (
    App, Literal, Signature, Var, clause_depth,
)
from satguide.guidance import (
    Strategy, baseline_strategy, learned_cef, parse_strategy,
)
from satguide.pipeline import (
    CorpusProblem, load_manifest, pool_examples, run_corpus, run_problem,
    train_from_examples,
)
from satguide.saturation import (
    Limits, OUTCOME_PROOF, OUTCOME_RESOURCE_OUT, OUTCOME_SATURATED,
    ProofSearchRecord,
    equality_axioms, factors, is_tautology, load_record, prove,
    record_from_json, record_to_json, rename_apart, resolvents, save_record,
    subsumes, unify, apply_subst,
)
from satguide.tptp import (
    MAX_TERM_DEPTH, format_clause, format_term, parse_clause_text,
    parse_problem,
)


def parse_terms(text, sig):
    (lit,) = parse_clause_text(f"wrap({text})", sig)
    return lit.args


def parse_one(text, sig):
    return parse_problem(f"cnf(c, axiom, ({text})).", sig)[0]


class TestUnify:
    def test_textbook_success(self):
        sig = Signature()
        t1, = parse_terms("f(X,a)", sig)
        t2, = parse_terms("f(b,Y)", sig)
        subst = unify(t1, t2)
        assert subst is not None
        assert format_term(apply_subst(t1, subst), sig) == "f(b,a)"
        assert apply_subst(t1, subst) == apply_subst(t2, subst)

    def test_occurs_check(self):
        sig = Signature()
        t2, = parse_terms("g(X)", sig)
        assert unify(Var("X"), t2) is None

    def test_symbol_clash(self):
        sig = Signature()
        t1, = parse_terms("g(X)", sig)
        t2, = parse_terms("h(X)", sig)
        assert unify(t1, t2) is None

    def test_unified_terms_are_equal_after_substitution(self):
        sig = Signature()
        t1, = parse_terms("f(X,g(Y))", sig)
        t2, = parse_terms("f(g(Z),Z)", sig)
        subst = unify(t1, t2)
        assert subst is not None
        assert apply_subst(t1, subst) == apply_subst(t2, subst)


_UNIFY_TERM = st.recursive(
    st.sampled_from(["a", "b", "X", "Y", "Z"]),
    lambda inner: st.one_of(inner.map("f({})".format),
                            st.builds("g({},{})".format, inner, inner)),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(_UNIFY_TERM, _UNIFY_TERM)
@example("g(X,f(Y))", "g(f(Y),X)")
@example("g(X,Y)", "g(f(Y),f(X))")
def test_unify_agrees_with_the_robinson_oracle(t1_text, t2_text):
    sig = Signature()
    t1, t2 = parse_terms(f"{t1_text},{t2_text}", sig)
    got = unify(t1, t2)
    want = robinson_unify(t1, t2)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert apply_subst(t1, got) == apply_subst(t2, got)
    assert substitute(t1, want) == substitute(t2, want)
    # equally general: each unifier's instance of t1 is an instance of the
    # other's
    ours, theirs = apply_subst(t1, got), substitute(t1, want)
    assert matches(ours, theirs) and matches(theirs, ours)


def resolve(given, partner):
    """Resolvents against the primed partner, as ``prove`` passes it."""
    return resolvents(given, rename_apart(partner))


class TestResolvents:
    def test_unit_conflict_gives_empty_clause(self):
        sig = Signature()
        given = parse_one("p(X)", sig)
        partner = parse_one("~p(a)", sig)
        assert resolve(given, partner) == [()]

    def test_textbook_resolvent(self):
        sig = Signature()
        given = parse_one("p(X) | q(X)", sig)
        partner = parse_one("~p(a)", sig)
        assert resolve(given, partner) == [parse_one("q(a)", sig)]

    def test_no_complementary_pair(self):
        sig = Signature()
        given = parse_one("p0 | q0", sig)
        partner = parse_one("~r0", sig)
        assert resolve(given, partner) == []

    def test_self_resolution_renames_apart(self):
        sig = Signature()
        clause = parse_one("~le(X, Y) | le(f(X), Y)", sig)
        out = resolve(clause, clause)
        # the shared variable names must not block the unifications
        assert parse_one("~le(X0,X1) | le(f(f(X0)),X1)", sig) in out


_TERM = st.recursive(st.sampled_from(["a", "b", "X", "Y", "Z"]),
                     lambda inner: inner.map("f({})".format), max_leaves=3)
_ATOM = st.one_of(st.builds("p({})".format, _TERM),
                  st.builds("q({},{})".format, _TERM, _TERM))
_CLAUSE = st.lists(st.builds("{}{}".format, st.sampled_from(["", "~"]), _ATOM),
                   min_size=1, max_size=3).map(" | ".join)
# target names for a renaming; several are the given clause's own names
_NAMES = ["X", "Y", "Z", "X0", "X1", "U"]


def _renamed(clause, mapping):
    def walk(t):
        if isinstance(t, Var):
            return Var(mapping[t.name])
        return App(t.symbol, tuple(walk(a) for a in t.args))

    return tuple(
        Literal(lit.positive, lit.predicate, tuple(walk(a) for a in lit.args))
        for lit in clause)


@settings(max_examples=300, deadline=None)
@given(_CLAUSE, _CLAUSE, st.booleans(), st.permutations(_NAMES))
def test_resolvents_ignore_the_partners_variable_names(g_text, p_text, same,
                                                        names):
    sig = Signature()
    g = parse_one(g_text, sig)
    p = g if same else parse_one(p_text, sig)
    rho_p = _renamed(p, dict(zip("XYZ", names)))
    assert resolve(g, p) == resolve(g, rho_p)


def _oracle_derived(literals, subst):
    """Substitute, drop repeated literals, then name variables X0, X1, ...
    by first occurrence."""
    kept = []
    for lit in literals:
        lit = Literal(lit.positive, lit.predicate,
                      tuple(substitute(a, subst) for a in lit.args))
        if lit not in kept:
            kept.append(lit)
    names = {}

    def walk(t):
        if isinstance(t, Var):
            return Var(names.setdefault(t.name, f"X{len(names)}"))
        return App(t.symbol, tuple(walk(a) for a in t.args))

    return tuple(Literal(lit.positive, lit.predicate,
                         tuple(walk(a) for a in lit.args))
                 for lit in kept)


def _oracle_unify_atoms(a, b):
    subst = {}
    for x, y in zip(a.args, b.args):
        subst = robinson_unify(x, y, subst)
        if subst is None:
            return None
    return subst


def _oracle_resolvents(given, partner):
    primed = _renamed(partner, {v: v + "'" for v in "XYZ"})
    out = []
    for i, lit_g in enumerate(given):
        for j, lit_p in enumerate(primed):
            if lit_g.positive == lit_p.positive \
                    or lit_g.predicate != lit_p.predicate:
                continue
            subst = _oracle_unify_atoms(lit_g, lit_p)
            if subst is not None:
                rest = [l for k, l in enumerate(given) if k != i]
                rest += [l for k, l in enumerate(primed) if k != j]
                out.append(_oracle_derived(rest, subst))
    return out


def _oracle_factors(lits):
    out = []
    for i, j in itertools.combinations(range(len(lits)), 2):
        if lits[i].positive != lits[j].positive \
                or lits[i].predicate != lits[j].predicate:
            continue
        subst = _oracle_unify_atoms(lits[i], lits[j])
        if subst is not None:
            rest = [l for k, l in enumerate(lits) if k != j]
            out.append(_oracle_derived(rest, subst))
    return out


@settings(max_examples=300, deadline=None)
@given(_CLAUSE, _CLAUSE, st.booleans())
@example("q(X) | ~p(X)", "p(a) | q(a)", False)
@example("p(X) | q(X) | p(a) | q(a)", "~q(b)", False)
def test_derived_clauses_agree_with_the_oracle_construction(g_text, p_text,
                                                            same):
    # most general unifiers differ only by a renaming, so the normalized
    # clauses must be equal, literal for literal
    sig = Signature()
    g = parse_one(g_text, sig)
    p = g if same else parse_one(p_text, sig)
    assert resolve(g, p) == _oracle_resolvents(g, p)
    assert factors(g) == _oracle_factors(g)


class TestFactors:
    def test_basic_factoring(self):
        sig = Signature()
        clause = parse_one("p(X) | p(a)", sig)
        assert factors(clause) == [parse_one("p(a)", sig)]

    def test_opposite_polarity_does_not_factor(self):
        sig = Signature()
        assert factors(parse_one("p(X) | ~p(a)", sig)) == []

    def test_different_predicates_do_not_factor(self):
        sig = Signature()
        assert factors(parse_one("p(a) | q(b)", sig)) == []


class TestSubsumes:
    def test_unit_subsumes_superset(self):
        sig = Signature()
        assert subsumes(parse_one("p(X)", sig), parse_one("p(a) | q(b)", sig))

    def test_ground_does_not_subsume_general(self):
        sig = Signature()
        assert not subsumes(parse_one("p(a)", sig), parse_one("p(X)", sig))

    def test_reflexive(self):
        sig = Signature()
        clause = parse_one("p(X) | ~q(X, f(a,X))", sig)
        assert subsumes(clause, clause)

    def test_multiset_semantics_requires_distinct_targets(self):
        sig = Signature()
        double = parse_one("p(X) | p(Y)", sig)
        single = parse_one("p(a)", sig)
        assert not subsumes(double, single)
        assert subsumes(double, parse_one("p(a) | p(b)", sig))

    def test_wide_clauses_are_checked_exactly(self):
        sig = Signature()
        wide = parse_one(" | ".join(f"p(X,a{i})" for i in range(9)), sig)
        target = parse_one(" | ".join(f"p(b,a{i})" for i in range(9)), sig)
        assert subsumes(wide, target)


_DEEP_TERM = st.recursive(
    st.sampled_from(["a", "b", "X", "Y", "Z"]),
    lambda inner: st.one_of(inner.map("f({})".format),
                            st.builds("g({},{})".format, inner, inner),
                            st.builds("h({},{},{})".format, inner, inner,
                                      inner)),
    max_leaves=6)
_LITERAL_TEXT = st.builds(
    "{}{}".format, st.sampled_from(["", "~"]),
    st.one_of(st.just("r"), st.builds("p({})".format, _DEEP_TERM),
              st.builds("q({},{})".format, _DEEP_TERM, _DEEP_TERM),
              st.builds("s({},{},{})".format, _DEEP_TERM, _DEEP_TERM,
                        _DEEP_TERM)))
_LITERAL_TEXTS = st.lists(_LITERAL_TEXT, min_size=1, max_size=4)
# patterns that repeat a variable inside a literal, and across literals
# when drawn together
_PATTERN_TEXTS = st.lists(
    st.one_of(_LITERAL_TEXT, st.sampled_from(
        ["q(X,X)", "q(g(a,X),X)", "~q(X,f(X))", "p(X)", "~s(Y,X,g(X,Y))"])),
    min_size=1, max_size=4)


def _target(c, d_texts, instance, subst_texts, seed, sig):
    """The clause of ``d_texts``; with ``instance``, an instance of every
    literal of ``c`` is shuffled in among them."""
    d_literals = list(parse_one(" | ".join(d_texts), sig))
    if instance:
        # a simultaneous substitution, as apply_subst would chase X -> f(X)
        subst = dict(zip("XYZ", parse_terms(",".join(subst_texts), sig)))
        d_literals += [Literal(lit.positive, lit.predicate,
                               tuple(substitute(a, subst) for a in lit.args))
                       for lit in c]
        random.Random(seed).shuffle(d_literals)
    return tuple(d_literals)


@settings(max_examples=300, deadline=None)
@given(_PATTERN_TEXTS, _LITERAL_TEXTS, st.booleans(),
       st.lists(_DEEP_TERM, min_size=3, max_size=3), st.integers(0, 99))
@example(["X = X"], ["a = b"], False, ["a", "a", "a"], 0)
@example(["p(X)", "p(Y)"], ["p(a)"], False, ["a", "a", "a"], 0)
@example(["p(X)", "p(Y)"], ["p(a)", "r"], False, ["a", "a", "a"], 0)
# found only once both p literals give their targets back and swap them
@example(["p(X)", "p(Y)", "q(Y,Y)"], ["p(b)", "p(a)", "q(b,b)"], False,
         ["a", "a", "a"], 0)
# p(X) takes p(a) first, where q(X) finds no target; only the retry on
# p(b) fills X's slot with the binding that q(b) matches
@example(["p(X)", "q(X,a)"], ["p(a)", "p(b)", "q(b,a)"], False,
         ["a", "a", "a"], 0)
@example(["q(g(a,X),X)", "~q(X,f(X))"], ["~q(b,f(b))", "q(g(a,b),b)"],
         False, ["a", "a", "a"], 0)
# one pattern literal: the first q target fails on X's repeat, a later one
# matches
@example(["q(X,X)"], ["q(a,b)", "r", "q(b,b)"], False, ["a", "a", "a"], 0)
# a ground argument nested in a pattern with a variable
@example(["p(f(a),X)"], ["p(f(b),c)", "p(f(a),c)"], False, ["a", "a", "a"], 0)
# a pattern of constants only
@example(["q(a,f(b))", "~r"], ["q(a,f(a))", "~r", "q(a,f(b))"], False,
         ["a", "a", "a"], 0)
def test_subsumes_agrees_with_the_brute_force_oracle(
        c_texts, d_texts, instance, subst_texts, seed):
    sig = Signature()
    c = parse_one(" | ".join(c_texts), sig)
    d = _target(c, d_texts, instance, subst_texts, seed, sig)
    want = clause_subsumes(c, d)
    assert subsumes(c, d) == want
    # one matcher serves many targets: a call leaves nothing behind
    match = saturation.compile_matcher(c)
    assert match(c)
    assert subsumes(c, d, match) == want


@settings(max_examples=200, deadline=None)
@given(_LITERAL_TEXTS, _LITERAL_TEXTS, st.booleans(),
       st.lists(_DEEP_TERM, min_size=3, max_size=3), st.integers(0, 99))
# a variable top instantiated to a constant; p(X) has no key of p(a)
@example(["p(X)"], ["r"], True, ["a", "b", "b"], 0)
def test_subsumption_implies_the_literal_key_filter_passes(
        c_texts, d_texts, instance, subst_texts, seed):
    sig = Signature()
    c = parse_one(" | ".join(c_texts), sig)
    d = _target(c, d_texts, instance, subst_texts, seed, sig)
    assert not instance or subsumes(c, d)
    if not subsumes(c, d):
        return
    # each content made first, before the other's keys have bits
    for first, second in ((c, d), (d, c)):
        memo = saturation.ContentMemo(sig)
        memo.content(first)
        memo.content(second)
        assert (memo.content(c).pattern & ~memo.content(d).mask == 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CLAUSE, min_size=1, max_size=6), _CLAUSE)
# the last given clause has two complementary keys, whose slots interleave
@example(["~q(b)", "p(a)", "~q(a)", "q(X) | ~p(X)"], "q(a)")
def test_processed_index_agrees_with_a_scan_of_every_clause(texts, cand_text):
    # partners: every processed clause with a literal complementary in sign
    # and predicate, in selection order; subsumed: whether any processed
    # clause, repeats included, subsumes the candidate
    sig = Signature()
    memo = saturation.ContentMemo(sig)
    processed = saturation._Processed()
    cand = memo.content(parse_one(cand_text, sig))
    scanned = []
    for k, text in enumerate(texts):
        given = parse_one(text, sig)
        content = memo.content(given)
        processed.add(k, content)
        scanned.append(given)
        partners = [cid for cid, _ in processed.partners(content)]
        assert partners == [
            cid for cid, c in enumerate(scanned)
            if any(g.positive != lit.positive and g.predicate == lit.predicate
                   for g in given for lit in c)]
        assert set(partners) >= {
            cid for cid, part in processed.slots
            if resolvents(given, part.primed)}
        assert processed.subsumed(cand, 0) == \
            any(subsumes(c, cand.literals) for c in scanned)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CLAUSE, max_size=4), st.lists(_CLAUSE, min_size=1, max_size=6),
       _CLAUSE)
# the candidate's mask, made before p(X) had a key bit, must not skip p(X)
@example(["q(b)"], ["p(X)"], "p(a)")
def test_processed_index_agrees_with_a_scan_over_a_memo_another_search_filled(
        others, texts, cand_text):
    # another search first fills the memo with primed copies, key bits and
    # an instance mask of the candidate, none of which this search made;
    # partners and subsumed read them from the contents and must still agree
    # with a scan of this search's clauses
    sig = Signature()
    memo = saturation.ContentMemo(sig)
    cand = memo.content(parse_one(cand_text, sig))
    other = saturation._Processed()
    for k, text in enumerate(others):
        content = memo.content(parse_one(text, sig))
        other.add(k, content)
        other.partners(content)
        other.subsumed(cand, 0)
    processed = saturation._Processed()
    scanned = []
    for k, text in enumerate(texts):
        given = parse_one(text, sig)
        content = memo.content(given)
        processed.add(k, content)
        scanned.append(given)
        partners = [cid for cid, _ in processed.partners(content)]
        assert partners == [
            cid for cid, c in enumerate(scanned)
            if any(g.positive != lit.positive and g.predicate == lit.predicate
                   for g in given for lit in c)]
        assert processed.subsumed(cand, 0) == \
            any(subsumes(c, cand.literals) for c in scanned)


def _nested(levels, inner):
    return "f(" * levels + inner + ")" * levels


# input at the parser's bound whose factor binds X0 to 396 nested fs
DEEP_FACTOR = [f"p(X0,X1,X2) | p({_nested(198, 'X1')},{_nested(198, 'X2')},c)",
               "~q(c)"]


def _problem(texts, sig):
    return parse_problem("".join(f"cnf(c{k}, axiom, ({text})).\n"
                                 for k, text in enumerate(texts)), sig)


@pytest.mark.parametrize("levels,built", [(98, True), (99, False)])
def test_a_resolvent_is_built_up_to_the_parser_bound(levels, built):
    sig = Signature()
    given = parse_one(f"q({_nested(100, 'X')})", sig)
    partner = parse_one(f"~q(Y) | q({_nested(levels, 'Y')})", sig)
    (out,) = resolve(given, partner)
    if built:
        assert out == parse_one(f"q({_nested(198, 'X0')})", sig)
        assert clause_depth(out) == MAX_TERM_DEPTH
    else:
        assert out is None


@pytest.mark.parametrize("max_depth", [6, MAX_TERM_DEPTH])
def test_a_factor_nested_past_the_parser_bound_is_discarded(max_depth):
    sig = Signature()
    memo = saturation.ContentMemo(sig)
    record = prove(_problem(DEEP_FACTOR, sig), baseline_strategy(),
                   Limits(max_depth=max_depth), sig, memo=memo)
    assert record.outcome == OUTCOME_SATURATED
    assert record.stats["generated"] == record.stats["discarded"] == 1
    # the memo keeps the too-deep factor for the problem's other searches
    content = memo.content(_problem(DEEP_FACTOR[:1], Signature())[0])
    assert memo.derived[(content,)] == [None]


_LEAF = st.sampled_from(["a", "c", "X", "Y", "Z"])
# terms of any depth a literal may have within the parser's bound, with
# shallow and deepest ones drawn more often
_CHAIN = st.builds(_nested, st.one_of(
    st.integers(0, 2), st.integers(0, MAX_TERM_DEPTH - 2),
    st.integers(MAX_TERM_DEPTH - 12, MAX_TERM_DEPTH - 2)), _LEAF)
_NESTED_LITERAL = st.builds(
    "{}{}".format, st.sampled_from(["", "~"]),
    st.one_of(st.builds("p({},{},{})".format, _CHAIN, _CHAIN, _CHAIN),
              st.builds("q({})".format, _CHAIN),
              st.builds("{} = {}".format, _CHAIN, _CHAIN)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_NESTED_LITERAL, min_size=1, max_size=3)
                .map(" | ".join), min_size=1, max_size=4),
       st.sampled_from([6, MAX_TERM_DEPTH]))
@example(DEEP_FACTOR, 6)
@example([f"q({_nested(198, 'X')})", f"~q(Y) | q({_nested(198, 'Y')})"],
         MAX_TERM_DEPTH)
def test_problems_nested_up_to_the_parser_bound_end_without_raising(
        texts, max_depth):
    sig = Signature()
    record = prove(_problem(texts, sig), baseline_strategy(),
                   Limits(max_processed=25, max_generated=400,
                          max_depth=max_depth), sig)
    assert record.outcome in (OUTCOME_PROOF, OUTCOME_SATURATED,
                              OUTCOME_RESOURCE_OUT)
    # every kept clause is written and parses back within the bound
    again = record_from_json(json.loads(json.dumps(record_to_json(record))))
    for cid in again.clause_texts:
        again.clause(cid, sig)


def test_tautology_detection():
    sig = Signature()
    assert is_tautology(parse_one("p(a) | ~p(a)", sig))
    assert not is_tautology(parse_one("p(a) | ~p(b)", sig))


def test_equality_axioms_generated_only_when_needed():
    sig = Signature()
    plain = [parse_one("p(a)", sig)]
    assert equality_axioms(plain, sig) == []
    eq = parse_problem("cnf(a, axiom, (f(a) = b)).\ncnf(b, axiom, (p(a))).", sig)
    axioms = equality_axioms(eq, sig)
    texts = [format_clause(literals, sig) for literals in axioms]
    assert "X = X" in texts
    assert any("p(" in t for t in texts)  # predicate congruence
    assert any("f(" in t for t in texts)  # function congruence


class TestProve:
    def test_unit_contradiction(self):
        sig = Signature()
        clauses = parse_problem(
            "cnf(a, axiom, (p0)).\ncnf(b, axiom, (~p0)).", sig)
        record = prove(clauses, baseline_strategy(), Limits(), sig, "tiny")
        assert record.outcome == OUTCOME_PROOF
        assert len(record.given_sequence) == 2
        assert record.empty_clause is not None
        parents = set(record.dag[record.empty_clause])
        assert parents == set(record.given_sequence)

    def test_single_fact_saturates(self):
        sig = Signature()
        clauses = parse_problem("cnf(a, axiom, (p(a))).", sig)
        record = prove(clauses, baseline_strategy(), Limits(), sig)
        assert record.outcome == OUTCOME_SATURATED

    def test_resource_out(self):
        sig = Signature()
        text = """
        cnf(f1, axiom, (p(a))).
        cnf(r1, axiom, (~p(X) | p(f(X)))).
        cnf(g, negated_conjecture, (~q(a))).
        """
        clauses = parse_problem(text, sig)
        record = prove(clauses, baseline_strategy(),
                       Limits(max_processed=5), sig)
        assert record.outcome == OUTCOME_RESOURCE_OUT
        assert record.stats["processed"] == 5

    def test_chain_proof_and_dag_acyclicity(self):
        sig = Signature()
        text = """
        cnf(f1, axiom, (p0(c))).
        cnf(r1, axiom, (~p0(X) | p1(X))).
        cnf(r2, axiom, (~p1(X) | p2(X))).
        cnf(goal, negated_conjecture, (~p2(c))).
        """
        clauses = parse_problem(text, sig)
        record = prove(clauses, baseline_strategy(), Limits(), sig)
        assert record.outcome == OUTCOME_PROOF
        for cid, parents in record.dag.items():
            assert all(p < cid for p in parents)

    def test_determinism_bit_for_bit(self):
        sig_a, sig_b = Signature(), Signature()
        text = """
        cnf(d1, axiom, (junk0(e))).
        cnf(d2, axiom, (~junk0(X) | junk1(X))).
        cnf(f1, axiom, (p0(c))).
        cnf(r1, axiom, (~p0(X) | p1(X))).
        cnf(r2, axiom, (~p1(X) | p2(X))).
        cnf(goal, negated_conjecture, (~p2(c))).
        """
        r1 = prove(parse_problem(text, sig_a), baseline_strategy(), Limits(),
                   sig_a, "fixture")
        r2 = prove(parse_problem(text, sig_b), baseline_strategy(), Limits(),
                   sig_b, "fixture")
        assert record_to_json(r1) == record_to_json(r2)

    def test_propositional_six_clause_fixture_is_deterministic(self):
        text = """
        cnf(a, axiom, (p0 | q0)).
        cnf(b, axiom, (~p0 | r0)).
        cnf(c, axiom, (~q0 | r0)).
        cnf(d, axiom, (~r0)).
        cnf(e, axiom, (s0 | t0)).
        cnf(f, axiom, (~s0 | t0)).
        """
        records = []
        for _ in range(2):
            sig = Signature()
            records.append(record_to_json(prove(
                parse_problem(text, sig), baseline_strategy(), Limits(),
                sig, "prop6")))
        assert records[0] == records[1]
        assert records[0]["outcome"] == OUTCOME_PROOF

    def test_empty_problem_is_rejected(self):
        with pytest.raises(ValueError):
            prove([], baseline_strategy(), Limits(), Signature())

    def test_signature_mismatch_is_observable_in_drop_counter(self):
        train_text = """
        cnf(d1, axiom, (junk0(e))).
        cnf(d2, axiom, (~junk0(X) | junk1(X))).
        cnf(f1, axiom, (p0(c))).
        cnf(r1, axiom, (~p0(X) | p1(X))).
        cnf(goal, negated_conjecture, (~p1(c))).
        """
        sig = Signature()
        record = prove(parse_problem(train_text, sig), baseline_strategy(),
                       Limits(), sig)
        positives, negatives = pool_examples([record], sig)
        model = train_from_examples((positives, negatives), sig)

        alien_text = """
        cnf(f1, axiom, (brand(new))).
        cnf(r1, axiom, (~brand(X) | shiny(X))).
        cnf(goal, negated_conjecture, (~shiny(new))).
        """
        run_sig = Signature.from_frozen(model.signature)
        guided = Strategy(((1, learned_cef(model, 0.2)),))
        alien = prove(parse_problem(alien_text, run_sig), guided, Limits(),
                      run_sig, "alien")
        assert alien.outcome == OUTCOME_PROOF
        assert alien.stats["dropped_triples"] > 0

    def test_empty_input_clause_is_immediate_proof(self):
        sig = Signature()
        clauses = parse_problem("cnf(a, axiom, $false).", sig)
        record = prove(clauses, baseline_strategy(), Limits(), sig)
        assert record.outcome == OUTCOME_PROOF
        assert record.given_sequence == []

    def test_equality_problem_with_axiom_injection(self):
        sig = Signature()
        text = """
        cnf(e1, axiom, (a = b)).
        cnf(f1, axiom, (p(a))).
        cnf(goal, negated_conjecture, (~p(b))).
        """
        clauses = parse_problem(text, sig)
        record = prove(clauses, baseline_strategy(), Limits(), sig)
        assert record.outcome == OUTCOME_PROOF
        assert record.stats["equality_axioms"] >= 3

    def test_soundness_every_derived_clause_entailed_by_parents(self):
        problems = [
            """
            cnf(f1, axiom, (p0(c))).
            cnf(r1, axiom, (~p0(X) | p1(X))).
            cnf(r2, axiom, (~p1(X) | p2(X))).
            cnf(goal, negated_conjecture, (~p2(c))).
            """,
            """
            cnf(a, axiom, (human(socrates))).
            cnf(b, axiom, (~human(X) | mortal(X))).
            cnf(goal, negated_conjecture, (~mortal(socrates))).
            """,
            """
            cnf(a, axiom, (p0 | q0)).
            cnf(b, axiom, (~p0 | r0)).
            cnf(c, axiom, (~q0 | r0)).
            cnf(d, axiom, (~r0)).
            """,
            """
            cnf(e1, axiom, (a = b)).
            cnf(f1, axiom, (p(a))).
            cnf(goal, negated_conjecture, (~p(b))).
            """,
        ]
        for text in problems:
            sig = Signature()
            clauses = parse_problem(text, sig)
            record = prove(clauses, baseline_strategy(), Limits(), sig)
            checked = 0
            for cid, parents in record.dag.items():
                if not parents:
                    continue
                clause = record.clause(cid, sig)
                parent_clauses = [record.clause(p, sig) for p in parents]
                assert ground_entails(parent_clauses, clause, sig), \
                    (text, record.clause_texts[cid])
                checked += 1
            assert checked > 0

    def test_guided_rerun_does_not_process_more(self):
        text = """
        cnf(d1, axiom, (junk0(e))).
        cnf(d2, axiom, (~junk0(X) | junk1(X))).
        cnf(d3, axiom, (~junk1(X) | junk2(X))).
        cnf(d4, axiom, (~junk2(X) | junk3(X))).
        cnf(f1, axiom, (p0(c))).
        cnf(r1, axiom, (~p0(X) | p1(X))).
        cnf(r2, axiom, (~p1(X) | p2(X))).
        cnf(goal, negated_conjecture, (~p2(c))).
        """
        sig = Signature()
        clauses = parse_problem(text, sig)
        baseline_record = prove(clauses, baseline_strategy(), Limits(), sig,
                                "fixture")
        assert baseline_record.outcome == OUTCOME_PROOF

        positives, negatives = pool_examples([baseline_record], sig)
        model = train_from_examples((positives, negatives), sig)
        guided = Strategy(((1, learned_cef(model, 0.2)),))
        sig2 = Signature.from_frozen(model.signature)
        guided_record = prove(parse_problem(text, sig2), guided, Limits(),
                              sig2, "fixture")
        assert guided_record.outcome == OUTCOME_PROOF
        assert guided_record.stats["processed"] <= \
            baseline_record.stats["processed"]


def random_function_free_problem(rng):
    predicates = [("p", 1), ("q", 2), ("r", 0)]
    constants = ["a", "b"]
    lines = []
    for k in range(rng.randint(4, 8)):
        literals = []
        for _ in range(rng.randint(1, 3)):
            name, arity = rng.choice(predicates)
            args = [rng.choice(constants + ["X", "Y"]) for _ in range(arity)]
            neg = "~" if rng.random() < 0.5 else ""
            atom = f"{name}({','.join(args)})" if args else name
            literals.append(f"{neg}{atom}")
        lines.append(f"cnf(c{k}, axiom, ({' | '.join(literals)})).")
    return "\n".join(lines) + "\n"


def test_prover_outcome_matches_ground_satisfiability_oracle():
    """Differential test: proof_found iff the ground oracle says unsat.

    Function-free problems make grounding over the constants complete, so
    a saturation that misses a proof (or finds a bogus one) shows up here.
    """
    from oracles import ground_unsatisfiable
    rng = random.Random(20240503)
    limits = Limits(max_processed=3000, max_generated=300000,
                    max_literals=12, max_depth=6)
    outcomes = {"proof_found": 0, "saturated": 0}
    for _ in range(40):
        text = random_function_free_problem(rng)
        sig = Signature()
        clauses = parse_problem(text, sig)
        record = prove(clauses, baseline_strategy(), limits, sig)
        assert record.outcome != OUTCOME_RESOURCE_OUT, text
        expected_unsat = ground_unsatisfiable(clauses, sig)
        assert (record.outcome == OUTCOME_PROOF) == expected_unsat, text
        if expected_unsat:
            assert record_proof_faults(record, text) == [], text
        outcomes[record.outcome] += 1
    # the generator must exercise both outcomes to test anything
    assert outcomes["proof_found"] >= 5
    assert outcomes["saturated"] >= 5


def test_subsumption_implies_entailment():
    from oracles import ground_entails, matches, robinson_unify, substitute
    rng = random.Random(6)
    sig = Signature()
    pool = [
        "p(X)", "p(a)", "p(b)", "~p(X)", "~p(a)",
        "q(X,Y)", "q(X,X)", "q(a,b)", "~q(a,X)",
    ]
    pairs = checked = 0
    for _ in range(300):
        c_lits = rng.sample(pool, rng.randint(1, 2))
        d_lits = rng.sample(pool, rng.randint(1, 3))
        c = parse_one(" | ".join(c_lits), sig)
        d = parse_one(" | ".join(d_lits), sig)
        pairs += 1
        if subsumes(c, d):
            assert ground_entails([c], d, sig), (c_lits, d_lits)
            checked += 1
    assert checked >= 10


def test_parser_never_crashes_on_garbage():
    from satguide.tptp import ParseError
    rng = random.Random(13)
    alphabet = "cnf(axiom,p~|XY=!.$ %\n\t01_"
    good = "cnf(a, axiom, (p(X) | ~q(X, a))).\n"
    for trial in range(400):
        if trial % 2:
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 60)))
        else:
            chars = list(good)
            for _ in range(rng.randint(1, 4)):
                chars[rng.randrange(len(chars))] = rng.choice(alphabet)
            text = "".join(chars)
        sig = Signature()
        try:
            parse_problem(text, sig, "fuzz.p")
        except Exception as exc:
            assert isinstance(exc, ParseError), (text, type(exc))


# two copies of p(a) give each dropped content two parent pairs
DROPPED_TWICE = """
cnf(p1, axiom, (p(a))).
cnf(p2, axiom, (p(a))).
cnf(sub, axiom, (u(X))).
cnf(long, axiom, (~p(a) | q | r | s)).
cnf(inst, axiom, (~p(X) | u(X))).
cnf(w1, axiom, (w(a) | ~t(a))).
cnf(w2, axiom, (w(a) | ~t(a))).
cnf(taut, axiom, (~w(X) | t(X))).
"""


def test_each_occurrence_of_a_dropped_content_counts_once():
    """In id order, ``long`` derives the over-long ``q | r | s`` once per
    copy of p(a), ``inst`` derives ``u(a)``, which ``sub`` subsumes, and
    ``taut`` derives the tautologies ``t(a) | ~t(a)`` and ``~w(a) | w(a)``
    once per copy of ``w1``.  Every occurrence bumps its counter once, in a
    fresh search and in one that reuses the first one's memo."""
    sig = Signature()
    clauses = parse_problem(DROPPED_TWICE, sig)
    memo = saturation.ContentMemo(sig)
    for _ in range(2):
        record = prove(clauses, parse_strategy("1*Fifo"),
                       Limits(max_literals=2), sig, memo=memo)
        assert record.outcome == OUTCOME_SATURATED
        assert record.given_sequence == list(range(len(clauses)))
        stats = record.stats
        assert (stats["discarded"], stats["subsumed"],
                stats["tautologies"]) == (2, 2, 4)
        assert stats["generated"] == 8
        assert stats["kept"] == len(clauses) == 8


def test_record_json_round_trip(tmp_path, fixture_baseline_records):
    sig = Signature()
    text = """
    cnf(f1, axiom, (p0(c))).
    cnf(r1, axiom, (~p0(X) | p1(X))).
    cnf(goal, negated_conjecture, (~p1(c))).
    """
    record = prove(parse_problem(text, sig), baseline_strategy(), Limits(),
                   sig, "roundtrip")
    path = tmp_path / "record.json"
    save_record(record, str(path))
    loaded = load_record(str(path))
    assert record_to_json(loaded) == record_to_json(record)
    raw = json.loads(path.read_text())
    assert raw["format"] == "proof-search-record v1"
    assert set(raw) >= {"outcome", "given_sequence", "dag", "clauses", "stats"}
    with pytest.raises(ValueError):
        record_from_json({"format": "something else"})
    for record in fixture_baseline_records:
        data = record_to_json(record)
        again = record_from_json(json.loads(json.dumps(data)))
        assert record_to_json(again) == data


CORPUS = Path(__file__).parent / "fixtures" / "corpus"

GROUP_AXIOMS = """
cnf(left_identity, axiom, (m(u,X) = X)).
cnf(left_inverse, axiom, (m(i(X),X) = u)).
cnf(associativity, axiom, (m(m(X,Y),Z) = m(X,m(Y,Z)))).
"""
GROUP_RIGHT_IDENTITY = (GROUP_AXIOMS
                        + "cnf(goal, negated_conjecture, (m(a,u) != a)).\n")

# the other three group goals and one implication chain buried under decoy
# rules, each run at max_processed=60
HARD_PROBLEMS = {
    "group-right-inverse": GROUP_AXIOMS
    + "cnf(goal, negated_conjecture, (m(a,i(a)) != u)).\n",
    "group-double-inverse": GROUP_AXIOMS
    + "cnf(goal, negated_conjecture, (i(i(a)) != a)).\n",
    "group-idempotent-is-identity": GROUP_AXIOMS
    + "cnf(idempotent, hypothesis, (m(a,a) = a)).\n"
    + "cnf(goal, negated_conjecture, (a != u)).\n",
    "chain": """
cnf(decoy_seed_0, axiom, (d2(k0))).
cnf(decoy_seed_1, axiom, (d0(k1))).
cnf(decoy_seed_2, axiom, (d3(k2))).
cnf(decoy_rule_0, axiom, (~d3(X) | d3(g(X)))).
cnf(decoy_rule_1, axiom, (~d5(X) | d3(X))).
cnf(decoy_rule_2, axiom, (~d1(X) | d0(g(X)))).
cnf(decoy_rule_3, axiom, (~d3(X) | d0(X))).
cnf(decoy_rule_4, axiom, (~d3(X) | d3(g(X)))).
cnf(decoy_rule_5, axiom, (~d4(X) | d0(X))).
cnf(decoy_rule_6, axiom, (~d5(X) | d3(g(X)))).
cnf(decoy_rule_7, axiom, (~d2(X) | d5(X))).
cnf(cross_0, axiom, (~p1(X) | d4(X))).
cnf(cross_1, axiom, (~p0(X) | d2(X))).
cnf(chain_start, axiom, (p0(f1(f0(c))))).
cnf(chain_rule_0, axiom, (~p0(X) | p1(X))).
cnf(chain_rule_1, axiom, (~p1(X) | p2(X))).
cnf(chain_rule_2, axiom, (~p2(X) | p3(X))).
cnf(chain_rule_3, axiom, (~p3(X) | p4(X))).
cnf(chain_rule_4, axiom, (~p4(X) | p5(X))).
cnf(goal, negated_conjecture, (~p5(f1(f0(c))))).
""",
}

# sha256 over the records' JSON, in order; pinned so that a refactor of the
# prover core shows up as soon as any record changes by one byte
RECORD_DIGESTS = {
    "fixture-baseline":
        "8a0202f248b327a822fe963e002f8f221cce53419f6a5899b42f05abd40b44b7",
    "fixture-repeated-cefs":
        "30ca506285a9fea4636ddc7d0521ad3f1b34fb94b960112e18c2fdd648916420",
    "group-right-identity":
        "b65f06b342f1116ca66749c6b45de4b303d4c56bc52cda62f2ba93376bc6b43d",
    "group-right-inverse":
        "53df82ab386aadd716d5869791dc489eb4ad0522a817e21c794a3b23031d770c",
    "group-double-inverse":
        "c3e49213b2b8d9b3140a5bf04ec426d24b632ea9c3144b253daee83775790ab0",
    "group-idempotent-is-identity":
        "98fca5c237f5c6988ab4783e60049fa433201d8c4e2b2dd989d712fc0a175f4d",
    "chain":
        "e7ae2b505c744424a1bf77d509f29f568e14613fd4a48d8f30c77aa350235477",
    "group-double-inverse-guided":
        "14d16991c50de48f037b5f55d6e63a5edeee258af37119e4f61314964da6ba4c",
}

# the same five group and chain problems at max_processed=120, where a
# search selects many given clauses whose literals equal an earlier given
# clause's (36-49 per group problem, against 6-11 at the cap of 60)
DEEP_RECORD_DIGESTS = {
    "group-right-identity":
        "3ae54735d12a7e7a8c8a7ff391a08750a515bec8940d68e369a6741caae270dc",
    "group-right-inverse":
        "f3a310649728cd5267fb34461f51014ba87aec6775f90010d0a88f25760c4ee2",
    "group-double-inverse":
        "9853ecc39b0322b13bad0c7e9d7a7735223d1cee0f267ca6492e62179132a347",
    "group-idempotent-is-identity":
        "85fd75f8cad18a97b599dedd8dc34f5298d04563fbfb57f6305f124c62439171",
    "chain":
        "13f841b9d329bb33d2c69965b7e3d214fd7bc8f1ea1dd901625895a49c0fbbde",
}


def _records_digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record_to_json(record), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def fixture_problems():
    return load_manifest(str(CORPUS / "manifest.txt"))


@pytest.fixture(scope="module")
def fixture_baseline_records(fixture_problems):
    return [run_problem(p, baseline_strategy(), Limits())
            for p in fixture_problems]


def test_fixture_baseline_records_are_pinned(fixture_baseline_records):
    assert len(fixture_baseline_records) == 24
    assert _records_digest(fixture_baseline_records) == \
        RECORD_DIGESTS["fixture-baseline"]


@pytest.fixture(scope="module")
def fixture_model(fixture_baseline_records):
    sig = Signature()
    return train_from_examples(
        pool_examples(fixture_baseline_records, sig), sig)


# two entries share one learned CEF, so they share one ordering
REPEATED_CEFS = \
    "2*Learned(m,gamma=0.2),5*ClauseLen,1*Fifo,3*Learned(m,gamma=0.2)"


@pytest.fixture(scope="module")
def repeated_cef_records(fixture_problems, fixture_model):
    strategy = parse_strategy(REPEATED_CEFS,
                              model_loader=lambda path: fixture_model)
    return [run_problem(p, strategy, Limits()) for p in fixture_problems]


def test_repeated_cef_records_are_pinned(repeated_cef_records):
    assert _records_digest(repeated_cef_records) == \
        RECORD_DIGESTS["fixture-repeated-cefs"]


def test_group_problem_record_is_pinned():
    sig = Signature()
    record = prove(parse_problem(GROUP_RIGHT_IDENTITY, sig),
                   baseline_strategy(), Limits(max_processed=40), sig, "group")
    assert record.outcome == OUTCOME_RESOURCE_OUT
    assert _records_digest([record]) == RECORD_DIGESTS["group-right-identity"]


def test_guided_equality_record_is_pinned(fixture_baseline_records):
    # parsed into the model's signature, as a corpus run does: the group
    # symbols take ids after the model's, and the congruence axioms follow
    # symbol-id order
    train_sig = Signature()
    model = train_from_examples(
        pool_examples(fixture_baseline_records, train_sig), train_sig)
    sig = Signature.from_frozen(model.signature)
    strategy = Strategy(baseline_strategy().entries
                        + ((5, learned_cef(model, 0.2)),))
    record = prove(parse_problem(HARD_PROBLEMS["group-double-inverse"], sig),
                   strategy, Limits(max_processed=40), sig, "group")
    assert record.stats["equality_axioms"] > 0
    assert _records_digest([record]) == \
        RECORD_DIGESTS["group-double-inverse-guided"]


@pytest.mark.parametrize("name", sorted(HARD_PROBLEMS))
def test_hard_problem_record_is_pinned(name):
    sig = Signature()
    record = prove(parse_problem(HARD_PROBLEMS[name], sig),
                   baseline_strategy(), Limits(max_processed=60), sig, name)
    assert record.outcome == OUTCOME_RESOURCE_OUT
    assert _records_digest([record]) == RECORD_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DEEP_RECORD_DIGESTS))
def test_deeper_record_is_pinned(name):
    sig = Signature()
    text = {**HARD_PROBLEMS, "group-right-identity": GROUP_RIGHT_IDENTITY}
    record = prove(parse_problem(text[name], sig), baseline_strategy(),
                   Limits(max_processed=120), sig, name)
    assert record.outcome == (OUTCOME_PROOF if name == "chain"
                              else OUTCOME_RESOURCE_OUT)
    assert _records_digest([record]) == DEEP_RECORD_DIGESTS[name]


def test_searches_sharing_a_memo_in_either_order_equal_private_searches(
        fixture_model):
    # the second search through a memo finds the first one's primed
    # copies, key bits, masks and candidate facts; neither order may change
    # a record
    text = HARD_PROBLEMS["group-double-inverse"]
    base = baseline_strategy()
    strategies = [base, Strategy(base.entries
                                 + ((5, learned_cef(fixture_model, 0.2)),))]
    limits = Limits(max_processed=60)

    def private(strategy):
        sig = Signature()
        return record_to_json(prove(parse_problem(text, sig), strategy,
                                    limits, sig))

    alone = [private(strategy) for strategy in strategies]
    assert alone[0] != alone[1]
    for order in ([0, 1], [1, 0]):
        sig = Signature()
        clauses = parse_problem(text, sig)
        memo = saturation.ContentMemo(sig)
        for k in order:
            assert record_to_json(prove(clauses, strategies[k], limits, sig,
                                        memo=memo)) == alone[k]


def test_matchers_are_made_lazily_once_per_content_for_all_searches(
        tmp_path, monkeypatch):
    text = HARD_PROBLEMS["group-double-inverse"]
    path = tmp_path / "group.p"
    path.write_text(text)
    strategies = {"base": baseline_strategy(),
                  "symbols": parse_strategy("3*SymbolCount,1*Fifo")}
    limits = Limits(max_processed=60)
    compiled = []
    primed = []
    compile_matcher = saturation.compile_matcher
    rename_apart = saturation.rename_apart

    def counting(clause):
        compiled.append(clause)
        return compile_matcher(clause)

    def counting_primes(literals):
        primed.append(literals)
        return rename_apart(literals)

    monkeypatch.setattr(saturation, "compile_matcher", counting)
    monkeypatch.setattr(saturation, "rename_apart", counting_primes)
    records = run_corpus([CorpusProblem("group", str(path))], strategies,
                         limits)
    given = {record.clause_texts[cid] for record in records.values()
             for cid in record.given_sequence}
    assert 0 < len(compiled) == len(set(compiled)) <= len(given)
    # one primed copy per processed content, for both strategies
    assert 0 < len(primed) == len(set(primed)) <= len(given)

    # a search whose candidates never pass a subsumer's key mask
    unmasked = ("cnf(a, axiom, (p(a))).\n"
                "cnf(r, axiom, (~p(X) | q(X))).\n"
                "cnf(g, negated_conjecture, (~q(a))).\n")
    compiled.clear()
    sig = Signature()
    record = prove(parse_problem(unmasked, sig), baseline_strategy(),
                   limits, sig)
    assert record.outcome == OUTCOME_PROOF and record.stats["generated"] > 0
    assert compiled == []

    monkeypatch.undo()
    for (key, _), record in records.items():
        sig = Signature()
        alone = prove(parse_problem(text, sig), strategies[key], limits, sig,
                      "group")
        assert json.dumps(record_to_json(record)) \
            == json.dumps(record_to_json(alone))


def forward_subsumed(record):
    """(kept clause, subsumer) pairs that break forward subsumption.

    A derived clause's first parent is the given clause it came from; no
    clause selected up to that one may subsume it.
    """
    sig = Signature()
    literals = {cid: parse_clause_text(text, sig)
                for cid, text in record.clause_texts.items()}
    selected = {cid: k for k, cid in enumerate(record.given_sequence)}
    found = []
    for cid, parents in record.dag.items():
        if parents:
            found += [(cid, old) for old
                      in record.given_sequence[:selected[parents[0]] + 1]
                      if clause_subsumes(literals[old], literals[cid])]
    return found


def test_no_kept_clause_is_subsumed_by_an_earlier_given_clause(
        fixture_baseline_records):
    records = list(fixture_baseline_records)
    for name, text in sorted(HARD_PROBLEMS.items()):
        sig = Signature()
        records.append(prove(parse_problem(text, sig), baseline_strategy(),
                             Limits(max_processed=60), sig, name))
    for record in records:
        assert forward_subsumed(record) == [], record.problem


def test_forward_subsumption_check_rejects_a_subsumed_kept_clause():
    # clause 3 is derived from given clause 1 after p(X0) was selected;
    # q(a) subsumes it too, but is selected only after 3 is kept
    record = ProofSearchRecord(
        problem="hand-built", strategy="1*Fifo", outcome=OUTCOME_SATURATED,
        given_sequence=[0, 1, 2], empty_clause=None, stats={},
        dag={0: (), 1: (), 2: (), 3: (1, 0)},
        clause_texts={0: "p(X0)", 1: "~r(X0) | s(X0)", 2: "q(a)",
                      3: "q(a) | p(b)"})
    assert forward_subsumed(record) == [(3, 0)]
    record.given_sequence = [1, 2, 0]
    assert forward_subsumed(record) == []


def hard_tier():
    """The problems of the benchmark's seed-1 hard tier."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_hardtier",
        Path(__file__).parent.parent / "perfbench" / "hardtier.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(1)


def hard_tier_chains():
    """The chain problems of the benchmark's seed-1 hard tier."""
    return [p.text for p in hard_tier() if p.family == "chain"]


def test_every_step_of_the_fixture_proofs_checks(
        fixture_problems, fixture_baseline_records, repeated_cef_records):
    # the guided searches reuse derivations made for earlier content
    # pairs, copied under the ids of their own parents
    texts = {p.pid: Path(p.path).read_text() for p in fixture_problems}
    records = fixture_baseline_records + repeated_cef_records
    proofs = [r for r in records if r.outcome == OUTCOME_PROOF]
    assert len(proofs) == 48
    for record in proofs:
        assert record_proof_faults(record, texts[record.problem]) == [], \
            record.problem


def test_every_step_of_the_hard_tier_chain_proofs_checks():
    texts = [HARD_PROBLEMS["chain"]] + hard_tier_chains()
    assert len(texts) == 3
    for text in texts:
        sig = Signature()
        record = prove(parse_problem(text, sig), baseline_strategy(),
                       Limits(max_processed=120), sig)
        assert record.outcome == OUTCOME_PROOF
        assert record_proof_faults(record, text) == []


def test_every_selection_of_the_fixture_records_replays(
        fixture_baseline_records, repeated_cef_records, fixture_model):
    base = baseline_strategy()
    for record in fixture_baseline_records:
        assert selection_faults(record, base, {}) == [], record.problem
    repeated = parse_strategy(REPEATED_CEFS,
                              model_loader=lambda path: fixture_model)
    for record in repeated_cef_records:
        assert selection_faults(record, repeated, {"m": fixture_model}) \
            == [], record.problem


def test_every_selection_of_a_two_model_grid_sharing_a_memo_replays(
        fixture_problems, fixture_model, repeated_cef_records):
    # each problem's searches share one memo, which keeps both models'
    # predictions and every CEF's weights by content
    sig = Signature()
    other = train_from_examples(pool_examples(repeated_cef_records, sig), sig)
    assert other.w != fixture_model.w
    models = {"m": fixture_model, "n": other}
    strategies = {key: parse_strategy(text, model_loader=models.__getitem__)
                  for key, text in [
                      ("base", "baseline"),
                      ("m", "5*Learned(m,gamma=0.2)+baseline"),
                      ("n", "5*Learned(n,gamma=0.2)+baseline"),
                      ("mn", "1*Learned(m,gamma=0.5),1*Learned(n,gamma=0.5),"
                             "1*SymbolCount")]}
    records = run_corpus(fixture_problems, strategies, Limits())
    assert len(records) == len(strategies) * len(fixture_problems)
    for (key, pid), record in records.items():
        assert selection_faults(record, strategies[key], models) == [], \
            (key, pid)


def test_every_selection_of_the_hard_tier_replays():
    # the baseline makes one Fifo pick in six; 1*Fifo makes every pick by
    # age, against the replay's own id weights
    for strategy in (baseline_strategy(), parse_strategy("1*Fifo")):
        for problem in hard_tier():
            sig = Signature()
            record = prove(parse_problem(problem.text, sig), strategy,
                           Limits(max_processed=60), sig)
            assert record.stats["processed"] > 0
            assert selection_faults(record, strategy, {}) == [], \
                (record.strategy, problem.family)


def test_the_selection_replay_rejects_a_swapped_pick_or_a_flipped_prediction(
        fixture_problems, fixture_baseline_records, fixture_model):
    base = baseline_strategy()
    swaps = 0
    for record in fixture_baseline_records:
        given = record.given_sequence
        assert len(given) >= 2
        for k in sorted({0, len(given) // 2 - 1, len(given) - 2}):
            swapped = ProofSearchRecord(**{**vars(record), "given_sequence": [
                *given[:k], given[k + 1], given[k], *given[k + 2:]]})
            swaps += 1
            assert selection_faults(swapped, base, {})[0][0] == k
    assert swaps >= 48

    # a prediction flipped in a scratch memo, the weights made again from it
    models = {"m": fixture_model}
    strategy = parse_strategy("2*Learned(m,gamma=0.2)+baseline",
                              model_loader=models.__getitem__)
    changed = 0
    for problem in fixture_problems:
        sig = Signature()
        clauses = parse_problem(Path(problem.path).read_text(), sig)
        honest = prove(clauses, strategy, Limits(), sig)
        assert selection_faults(honest, strategy, models) == []
        for flip in range(3):
            memo = saturation.ContentMemo(sig)
            prove(clauses, strategy, Limits(), sig, memo=memo)
            (_, predictions), = memo.models.values()
            content = list(predictions)[flip]
            positive, dropped = predictions[content]
            predictions[content] = (not positive, dropped)
            memo.weights.clear()
            record = prove(clauses, strategy, Limits(), sig, memo=memo)
            if record.given_sequence != honest.given_sequence:
                changed += 1
                assert selection_faults(record, strategy, models) != []
    assert changed >= 10


def proof_ancestors(record):
    """The ids of the empty clause and every clause its proof rests on."""
    seen = set()
    todo = [record.empty_clause]
    while todo:
        cid = todo.pop()
        if cid not in seen:
            seen.add(cid)
            todo.extend(record.dag[cid])
    return seen


def test_the_proof_step_checker_rejects_a_swapped_parent_or_dropped_literal(
        fixture_problems, fixture_baseline_records):
    # each derived step of each fixture proof, once with a parent swapped
    # for an input clause it does not use, and once a literal short
    texts = {p.pid: Path(p.path).read_text() for p in fixture_problems}
    accepted = []
    mutations = 0
    for record in fixture_baseline_records:
        text = texts[record.problem]
        inputs = [cid for cid, parents in record.dag.items() if not parents]
        for cid in sorted(proof_ancestors(record)):
            parents = record.dag[cid]
            if not parents:
                continue
            other = next(i for i in inputs if i not in parents)
            swapped = ProofSearchRecord(**{**vars(record), "dag": {
                **record.dag, cid: (other,) + parents[1:]}})
            mutants = [swapped]
            if record.clause_texts[cid] != "$false":
                literals = record.clause_texts[cid].split(" | ")
                mutants.append(ProofSearchRecord(**{
                    **vars(record), "clause_texts": {
                        **record.clause_texts,
                        cid: " | ".join(literals[1:]) or "$false"}}))
            for mutant in mutants:
                mutations += 1
                faults = record_proof_faults(mutant, text)
                if not any(f[0] == cid for f in faults):
                    accepted.append((record.problem, cid))
    assert mutations >= 100
    assert accepted == []


def test_max_generated_stops_before_the_clause_past_it():
    sig = Signature()
    record = prove(parse_problem(HARD_PROBLEMS["group-double-inverse"], sig),
                   baseline_strategy(), Limits(max_generated=5000), sig)
    assert record.outcome == OUTCOME_RESOURCE_OUT
    assert record.stats["generated"] == 5000


def test_timeout_is_checked_before_each_generated_clause(monkeypatch):
    # a clock that reads one second later at every call; prove reads it at
    # the start, then before each given clause and each generated clause,
    # and stops at the first reading past the timeout
    ticks = itertools.count()
    monkeypatch.setattr(saturation.time, "monotonic",
                        lambda: float(next(ticks)))
    sig = Signature()
    record = prove(parse_problem(HARD_PROBLEMS["group-double-inverse"], sig),
                   baseline_strategy(), Limits(timeout=1000.0), sig)
    assert record.outcome == OUTCOME_RESOURCE_OUT
    assert record.stats["generated"] + record.stats["processed"] == 1000
