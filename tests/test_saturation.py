"""Unification, inference rules, subsumption, and the given-clause loop."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ground_entails, matches, robinson_unify, substitute
from satguide.clauses import App, Clause, Literal, Signature, Var
from satguide.guidance import (
    Strategy, baseline_strategy, learned_cef, parse_strategy,
)
from satguide.pipeline import (
    load_manifest, pool_examples, run_problem, train_from_examples,
)
from satguide.saturation import (
    Limits, OUTCOME_PROOF, OUTCOME_RESOURCE_OUT, OUTCOME_SATURATED,
    equality_axioms, factors, instance_mask, is_tautology, load_record,
    pattern_mask, prove, record_from_json, record_to_json, rename_apart,
    resolvents, save_record, subsumes, unify, apply_subst,
)
from satguide.tptp import format_clause, format_term, parse_clause_text, parse_problem


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
    return resolvents(given, partner, rename_apart(partner.literals))


class TestResolvents:
    def test_unit_conflict_gives_empty_clause(self):
        sig = Signature()
        given = parse_one("p(X)", sig)
        partner = parse_one("~p(a)", sig)
        partner.id = 1
        out = resolve(given, partner)
        assert len(out) == 1
        assert out[0].literals == ()
        assert out[0].parents == (given.id, partner.id)

    def test_textbook_resolvent(self):
        sig = Signature()
        given = parse_one("p(X) | q(X)", sig)
        partner = parse_one("~p(a)", sig)
        out = resolve(given, partner)
        assert [format_clause(c, sig) for c in out] == ["q(a)"]

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
        texts = {format_clause(c, sig) for c in out}
        assert "~le(X0,X1) | le(f(f(X0)),X1)" in texts


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

    return Clause(clause.id, tuple(
        Literal(lit.positive, lit.predicate, tuple(walk(a) for a in lit.args))
        for lit in clause.literals))


@settings(max_examples=300, deadline=None)
@given(_CLAUSE, _CLAUSE, st.booleans(), st.permutations(_NAMES))
def test_resolvents_ignore_the_partners_variable_names(g_text, p_text, same,
                                                        names):
    sig = Signature()
    g = parse_one(g_text, sig)
    p = g if same else Clause(1, parse_one(p_text, sig).literals)
    rho_p = _renamed(p, dict(zip("XYZ", names)))

    def printed(clauses):
        return [(format_clause(c, sig), c.parents) for c in clauses]

    assert printed(resolve(g, p)) == printed(resolve(g, rho_p))


class TestFactors:
    def test_basic_factoring(self):
        sig = Signature()
        clause = parse_one("p(X) | p(a)", sig)
        out = factors(clause)
        assert [format_clause(c, sig) for c in out] == ["p(a)"]

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


@settings(max_examples=200, deadline=None)
@given(_LITERAL_TEXTS, _LITERAL_TEXTS, st.booleans(),
       st.lists(_DEEP_TERM, min_size=3, max_size=3), st.integers(0, 99))
# a variable top instantiated to a constant; p(X) has no key of p(a)
@example(["p(X)"], ["r"], True, ["a", "b", "b"], 0)
def test_subsumption_implies_the_literal_key_filter_passes(
        c_texts, d_texts, instance, subst_texts, seed):
    sig = Signature()
    c = parse_one(" | ".join(c_texts), sig)
    d_literals = list(parse_one(" | ".join(d_texts), sig).literals)
    if instance:
        # d holds an instance of every literal of c among other literals;
        # a simultaneous substitution, as apply_subst would chase X -> f(X)
        subst = dict(zip("XYZ", parse_terms(",".join(subst_texts), sig)))
        d_literals += [Literal(lit.positive, lit.predicate,
                               tuple(substitute(a, subst) for a in lit.args))
                       for lit in c.literals]
        random.Random(seed).shuffle(d_literals)
    d = Clause(1, tuple(d_literals))
    assert not instance or subsumes(c, d)
    key_bits: dict = {}
    pattern = pattern_mask(c, key_bits)
    if subsumes(c, d):
        assert pattern & ~instance_mask(d, key_bits) == 0


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
    from satguide.clauses import Clause
    texts = [format_clause(Clause(0, literals), sig) for literals in axioms]
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
        from satguide.pipeline import extract_examples
        positives, negatives = extract_examples(record, sig)
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

        from satguide.pipeline import extract_examples
        positives, negatives = extract_examples(baseline_record, sig)
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
            from satguide.clauses import ArityClash
            assert isinstance(exc, (ParseError, ArityClash)), \
                (text, type(exc))


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


def test_repeated_cef_records_are_pinned(fixture_problems,
                                         fixture_baseline_records):
    sig = Signature()
    model = train_from_examples(
        pool_examples(fixture_baseline_records, sig), sig)
    # two entries share one learned CEF, so they share one ordering
    strategy = parse_strategy(
        "2*Learned(m,gamma=0.2),5*ClauseLen,1*Fifo,3*Learned(m,gamma=0.2)",
        model_loader=lambda path: model)
    records = [run_problem(p, strategy, Limits()) for p in fixture_problems]
    assert _records_digest(records) == RECORD_DIGESTS["fixture-repeated-cefs"]


def test_group_problem_record_is_pinned():
    sig = Signature()
    record = prove(parse_problem(GROUP_RIGHT_IDENTITY, sig),
                   baseline_strategy(), Limits(max_processed=40), sig, "group")
    assert record.outcome == OUTCOME_RESOURCE_OUT
    assert _records_digest([record]) == RECORD_DIGESTS["group-right-identity"]


@pytest.mark.parametrize("name", sorted(HARD_PROBLEMS))
def test_hard_problem_record_is_pinned(name):
    sig = Signature()
    record = prove(parse_problem(HARD_PROBLEMS[name], sig),
                   baseline_strategy(), Limits(max_processed=60), sig, name)
    assert record.outcome == OUTCOME_RESOURCE_OUT
    assert _records_digest([record]) == RECORD_DIGESTS[name]
