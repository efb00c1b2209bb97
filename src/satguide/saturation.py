"""Given-clause saturation with binary resolution and factoring.

Each selection step asks the strategy's round-robin schedule for a CEF,
takes that CEF's lowest-weight unprocessed clause as the given clause,
moves it to the processed set, and generates all binary resolvents against
the processed clauses plus all factors of the given clause.  New clauses
that are too large, tautological, or subsumed by a processed clause are
dropped; the exact subsumption check runs only on processed clauses whose
literal keys all generalise some literal key of the new clause.  The
search stops on the empty clause, an empty unprocessed set, or a resource
limit, and always returns a full record of the derivation.

Equality is an ordinary predicate here; when it occurs, the standard
equality axioms (reflexivity, symmetry, transitivity, and congruence for
the problem's symbols) are added as extra input clauses.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, fields
from itertools import product

from .clauses import (
    App, Clause, EQUALITY, Literal, Signature, Term, Var, clause_depth,
)
from .guidance import (
    CEF, Strategy, evaluate, format_strategy, next_entry_index,
)
from .tptp import format_clause, parse_clause_text

OUTCOME_PROOF = "proof_found"
OUTCOME_SATURATED = "saturated"
OUTCOME_RESOURCE_OUT = "resource_out"

RECORD_FORMAT = "proof-search-record v1"


@dataclass
class Limits:
    max_processed: int = 1000
    max_generated: int = 100000
    timeout: float | None = None
    # caps on generated clauses; larger ones are discarded (and counted)
    max_literals: int = 8
    max_depth: int = 6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not value >= 0:  # NaN fails too
                raise ValueError(f"{f.name} must be >= 0, not {value}")


@dataclass
class ProofSearchRecord:
    problem: str
    strategy: str
    outcome: str
    given_sequence: list[int]
    dag: dict[int, tuple[int, ...]]
    empty_clause: int | None
    stats: dict[str, int]
    # printed form of every kept clause, keyed by id
    clause_texts: dict[int, str]

    def clause(self, cid: int, sig: Signature) -> Clause:
        literals = parse_clause_text(self.clause_texts[cid], sig)
        return Clause(cid, literals, self.dag[cid])


def _deref(t: Term, subst: dict) -> Term:
    while isinstance(t, Var):
        bound = subst.get(t.name)
        if bound is None:
            return t
        t = bound
    return t


def _occurs(name: str, t: Term, subst: dict) -> bool:
    stack = [t]
    while stack:
        cur = _deref(stack.pop(), subst)
        if isinstance(cur, Var):
            if cur.name == name:
                return True
        else:
            stack.extend(cur.args)
    return False


def unify(t1: Term, t2: Term, subst: dict | None = None) -> dict | None:
    """Most general unifier of two terms, or None; occurs-check enforced.

    The caller is responsible for renaming the terms apart.
    """
    subst = {} if subst is None else subst
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = _deref(a, subst)
        b = _deref(b, subst)
        if isinstance(a, Var):
            if isinstance(b, Var) and a.name == b.name:
                continue
            if _occurs(a.name, b, subst):
                return None
            subst[a.name] = b
        elif isinstance(b, Var):
            if _occurs(b.name, a, subst):
                return None
            subst[b.name] = a
        else:
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))
    return subst


def unify_atoms(l1: Literal, l2: Literal) -> dict | None:
    if l1.predicate != l2.predicate or len(l1.args) != len(l2.args):
        return None
    subst: dict = {}
    for a, b in zip(l1.args, l2.args):
        if unify(a, b, subst) is None:
            return None
    return subst


def apply_subst(t: Term, subst: dict) -> Term:
    t = _deref(t, subst)
    if isinstance(t, Var):
        return t
    return App(t.symbol, tuple(apply_subst(a, subst) for a in t.args))


def apply_subst_literal(lit: Literal, subst: dict) -> Literal:
    return Literal(lit.positive, lit.predicate,
                   tuple(apply_subst(a, subst) for a in lit.args))


def _rename_variables(literals, rename) -> tuple[Literal, ...]:
    """Replace every variable ``v`` by ``rename(v)``, left to right."""

    def walk(t: Term) -> Term:
        if isinstance(t, Var):
            return rename(t)
        return App(t.symbol, tuple(walk(a) for a in t.args))

    return tuple(Literal(lit.positive, lit.predicate,
                         tuple(walk(a) for a in lit.args))
                 for lit in literals)


def rename_apart(literals) -> tuple[Literal, ...]:
    """Prime every variable (``X`` becomes ``X'``).

    Parsed and normalized variable names never contain a quote, so the
    result shares no variable with any stored clause.
    """
    return _rename_variables(literals, lambda v: Var(v.name + "'"))


def normalize_variables(literals) -> tuple[Literal, ...]:
    """Rename variables to X0, X1, ... in first-occurrence order."""
    mapping: dict[str, Var] = {}

    def fresh(v: Var) -> Var:
        if v.name not in mapping:
            mapping[v.name] = Var(f"X{len(mapping)}")
        return mapping[v.name]

    return _rename_variables(literals, fresh)


def _dedup_literals(literals) -> tuple[Literal, ...]:
    seen = set()
    out = []
    for lit in literals:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def _derived(literals, parents: tuple[int, ...]) -> Clause:
    literals = normalize_variables(_dedup_literals(literals))
    return Clause(-1, literals, parents)


def resolvents(given: Clause, partner: Clause,
               primed: tuple[Literal, ...]) -> list[Clause]:
    """All binary resolvents of the two clauses (ids unassigned).

    ``primed`` is ``rename_apart(partner.literals)``: resolving against it
    keeps the partner's variables apart from the given clause's, so the
    same clause may be passed on both sides.
    """
    out = []
    for i, lit_g in enumerate(given.literals):
        for j, lit_p in enumerate(partner.literals):
            if lit_g.positive == lit_p.positive \
                    or lit_g.predicate != lit_p.predicate:
                continue
            subst = unify_atoms(lit_g, primed[j])
            if subst is None:
                continue
            rest = [apply_subst_literal(l, subst)
                    for k, l in enumerate(given.literals) if k != i]
            rest.extend(apply_subst_literal(l, subst)
                        for k, l in enumerate(primed) if k != j)
            out.append(_derived(rest, (given.id, partner.id)))
    return out


def factors(clause: Clause) -> list[Clause]:
    """All binary factors: unify two same-polarity literals, drop one."""
    out = []
    lits = clause.literals
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            if lits[i].positive != lits[j].positive:
                continue
            subst = unify_atoms(lits[i], lits[j])
            if subst is None:
                continue
            rest = [apply_subst_literal(l, subst)
                    for k, l in enumerate(lits) if k != j]
            out.append(_derived(rest, (clause.id,)))
    return out


def _match_term(pattern: Term, target: Term, subst: dict) -> bool:
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = target
            return True
        return bound == target
    if isinstance(target, Var) or pattern.symbol != target.symbol:
        return False
    return all(_match_term(a, b, subst) for a, b in zip(pattern.args, target.args))


def subsumes(c: Clause, d: Clause) -> bool:
    """Whether some substitution makes ``c`` a sub-multiset of ``d``."""
    if len(c.literals) > len(d.literals):
        return False
    used = [False] * len(d.literals)

    def backtrack(i: int, subst: dict) -> bool:
        if i == len(c.literals):
            return True
        lit = c.literals[i]
        for j, cand in enumerate(d.literals):
            if used[j] or cand.positive != lit.positive \
                    or cand.predicate != lit.predicate:
                continue
            attempt = dict(subst)
            if all(_match_term(a, b, attempt)
                   for a, b in zip(lit.args, cand.args)):
                used[j] = True
                if backtrack(i + 1, attempt):
                    return True
                used[j] = False
        return False

    return backtrack(0, {})


def _literal_key(lit: Literal) -> tuple:
    """(sign, predicate, top symbols of the first two arguments).

    A variable top is None.
    """
    return (lit.positive, lit.predicate,
            tuple(a.symbol if isinstance(a, App) else None
                  for a in lit.args[:2]))


def pattern_mask(clause: Clause, key_bits: dict) -> int:
    """Bitmask of the clause's literal keys; unseen keys get a new bit."""
    mask = 0
    for lit in clause.literals:
        key = _literal_key(lit)
        bit = key_bits.get(key)
        if bit is None:
            bit = key_bits[key] = 1 << len(key_bits)
        mask |= bit
    return mask


def instance_mask(clause: Clause, key_bits: dict) -> int:
    """Bits of every known key that generalises one of the clause's keys.

    A generalisation keeps each top symbol or replaces it by None.
    Instantiation keeps the sign, the predicate and every non-variable
    top, so if ``c`` subsumes ``d`` then
    ``pattern_mask(c, bits) & ~instance_mask(d, bits) == 0``.
    """
    mask = 0
    for lit in clause.literals:
        sign, predicate, tops = _literal_key(lit)
        for gen in product(*((t, None) for t in tops)):
            mask |= key_bits.get((sign, predicate, gen), 0)
    return mask


def is_tautology(clause: Clause) -> bool:
    atoms = {(lit.predicate, lit.args, lit.positive) for lit in clause.literals}
    return any((pred, args, not pos) in atoms for pred, args, pos in atoms)


def _symbols_in_clauses(clauses) -> tuple[set, set]:
    functions: set = set()
    predicates: set = set()

    def scan(t: Term) -> None:
        if isinstance(t, App):
            functions.add(t.symbol)
            for a in t.args:
                scan(a)

    for clause in clauses:
        for lit in clause.literals:
            predicates.add(lit.predicate)
            for a in lit.args:
                scan(a)
    return functions, predicates


def equality_axioms(clauses, sig: Signature) -> list[tuple[Literal, ...]]:
    """Equality/congruence axioms for the symbols the clauses use.

    Returns an empty list when no clause mentions the equality predicate.
    """
    functions, predicates = _symbols_in_clauses(clauses)
    eq = next((p for p in predicates if sig.name_of(p) == EQUALITY), None)
    if eq is None:
        return []
    x, y, z = Var("X"), Var("Y"), Var("Z")
    axioms = [
        (Literal(True, eq, (x, x)),),
        (Literal(False, eq, (x, y)), Literal(True, eq, (y, x))),
        (Literal(False, eq, (x, y)), Literal(False, eq, (y, z)),
         Literal(True, eq, (x, z))),
    ]
    # congruence: functions first, then predicates, each in id order
    for sym in sorted(functions) + sorted(predicates - {eq}):
        arity = sig.symbol(sym).arity
        if arity == 0:
            continue
        xs = tuple(Var(f"X{k}") for k in range(arity))
        ys = tuple(Var(f"Y{k}") for k in range(arity))
        body = tuple(Literal(False, eq, (a, b)) for a, b in zip(xs, ys))
        if sym in functions:
            head = (Literal(True, eq, (App(sym, xs), App(sym, ys))),)
        else:
            head = (Literal(False, sym, xs), Literal(True, sym, ys))
        axioms.append(body + head)
    return axioms


class _CefQueue:
    """Lazy per-CEF ordering view over the unprocessed set.

    ``seen`` is a watermark into the search's id-ordered clause list: the
    clauses past it are weighed, once each, the next time this CEF is asked
    to select, and those still unprocessed are pushed on a heap, ties
    broken by id.  Heap entries for clauses that were selected by another
    CEF in the meantime are skipped on pop.
    """

    def __init__(self, cef: CEF, sig: Signature, stats: dict):
        self.cef = cef
        self.sig = sig
        self.stats = stats
        self.heap: list[tuple[float, int]] = []
        self.seen = 0

    def pop(self, clauses: list, unprocessed: dict) -> Clause | None:
        for clause in clauses[self.seen:]:
            if clause.id in unprocessed:
                w = evaluate(clause, self.cef, self.sig, self.stats)
                heapq.heappush(self.heap, (w, clause.id))
        self.seen = len(clauses)
        while self.heap:
            _, cid = heapq.heappop(self.heap)
            clause = unprocessed.get(cid)
            if clause is not None:
                return clause
        return None


def prove(problem, strategy: Strategy, limits: Limits, sig: Signature,
          problem_id: str = "", inject_equality: bool = True) -> ProofSearchRecord:
    """Run the given-clause loop on a list of input clauses.

    The record stores the full given-clause sequence and derivation DAG
    regardless of outcome; hitting a limit is the ``resource_out`` outcome,
    not an error.
    """
    if not problem:
        raise ValueError("problem must contain at least one clause")
    started = time.monotonic()
    stats = {"generated": 0, "processed": 0, "kept": 0, "subsumed": 0,
             "discarded": 0, "tautologies": 0, "equality_axioms": 0,
             "dropped_triples": 0}
    # (clause, primed copy, pattern mask) in selection order; no clause
    # is both processed and unprocessed
    processed: list[tuple[Clause, tuple[Literal, ...], int]] = []
    unprocessed: dict[int, Clause] = {}
    # literal key -> bit of the pattern masks, for this search only
    key_bits: dict = {}
    # every kept clause; a clause's id is its index
    clauses: list[Clause] = []
    empty_clause: int | None = None

    # entries with equal CEFs share one queue: they would pick alike.  A
    # learned CEF is told apart by its model object, not its model path.
    queues: dict = {}
    entry_queues = [
        queues.setdefault((cef.kind, cef.gamma, id(cef.model)),
                          _CefQueue(cef, sig, stats))
        for _, cef in strategy.entries]

    def register(literals, parents) -> Clause:
        clause = Clause(len(clauses), tuple(literals), tuple(parents))
        clauses.append(clause)
        return clause

    def admit(clause: Clause) -> None:
        unprocessed[clause.id] = clause
        stats["kept"] += 1

    input_literal_sets = [clause.literals for clause in problem]
    if inject_equality:
        eq_axioms = equality_axioms(problem, sig)
        stats["equality_axioms"] = len(eq_axioms)
        input_literal_sets.extend(eq_axioms)
    for literals in input_literal_sets:
        clause = register(literals, ())
        if not clause.literals and empty_clause is None:
            empty_clause = clause.id
        admit(clause)

    outcome = None
    if empty_clause is not None:
        outcome = OUTCOME_PROOF

    while outcome is None:
        if not unprocessed:
            outcome = OUTCOME_SATURATED
            break
        if stats["processed"] >= limits.max_processed \
                or stats["generated"] >= limits.max_generated:
            outcome = OUTCOME_RESOURCE_OUT
            break
        if limits.timeout is not None and time.monotonic() - started > limits.timeout:
            outcome = OUTCOME_RESOURCE_OUT
            break
        entry = next_entry_index(strategy, stats["processed"])
        given = entry_queues[entry].pop(clauses, unprocessed)
        assert given is not None, "unprocessed nonempty but queue is dry"
        del unprocessed[given.id]
        processed.append((given, rename_apart(given.literals),
                          pattern_mask(given, key_bits)))
        stats["processed"] += 1

        candidates = []
        for partner, primed, _ in processed:
            candidates.extend(resolvents(given, partner, primed))
        candidates.extend(factors(given))
        for cand in candidates:
            stats["generated"] += 1
            if len(cand.literals) > limits.max_literals \
                    or clause_depth(cand) > limits.max_depth:
                stats["discarded"] += 1
                continue
            if is_tautology(cand):
                stats["tautologies"] += 1
                continue
            missing = ~instance_mask(cand, key_bits)
            if any(not pattern & missing and subsumes(old, cand)
                   for old, _, pattern in processed):
                stats["subsumed"] += 1
                continue
            clause = register(cand.literals, cand.parents)
            if not clause.literals:
                empty_clause = clause.id
                outcome = OUTCOME_PROOF
                break
            admit(clause)

    return ProofSearchRecord(
        problem=problem_id,
        strategy=format_strategy(strategy),
        outcome=outcome,
        given_sequence=[given.id for given, _, _ in processed],
        dag={clause.id: clause.parents for clause in clauses},
        empty_clause=empty_clause,
        stats=stats,
        clause_texts={clause.id: format_clause(clause, sig)
                      for clause in clauses},
    )


def record_to_json(record: ProofSearchRecord) -> dict:
    return {
        "format": RECORD_FORMAT,
        "problem": record.problem,
        "strategy": record.strategy,
        "outcome": record.outcome,
        "empty_clause": record.empty_clause,
        "given_sequence": list(record.given_sequence),
        "dag": {str(cid): list(parents) for cid, parents in record.dag.items()},
        "clauses": {str(cid): text for cid, text in record.clause_texts.items()},
        "stats": dict(record.stats),
    }


def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind``, else a ValueError naming ``what``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {kind.__name__}, "
                         f"not {type(value).__name__}")
    return value


def _all_typed(mapping: dict, kind: type, what: str) -> dict:
    """``mapping`` if every value is a ``kind``, else a ValueError naming
    the first key whose value is not."""
    for key, value in mapping.items():
        if not isinstance(value, kind):
            _typed(value, kind, f"{what} {key}")
    return mapping


def record_from_json(data) -> ProofSearchRecord:
    """Inverse of :func:`record_to_json`; a ValueError names what is wrong."""
    if _typed(data, dict, "a record").get("format") != RECORD_FORMAT:
        raise ValueError(f"not a proof-search record: {data.get('format')!r}")

    def get(key: str, kind: type = object):
        try:
            return _typed(data[key], kind, f"field {key!r}")
        except KeyError:
            raise ValueError(f"record has no {key!r} key") from None

    record = ProofSearchRecord(
        problem=get("problem", str),
        strategy=get("strategy", str),
        outcome=get("outcome", str),
        given_sequence=get("given_sequence", list),
        dag={int(cid): tuple(parents) for cid, parents
             in _all_typed(get("dag", dict), list, "dag entry").items()},
        empty_clause=get("empty_clause"),
        stats=_all_typed(get("stats", dict), int, "stat"),
        clause_texts={int(cid): text for cid, text
                      in _all_typed(get("clauses", dict), str, "clause").items()},
    )
    # example extraction reads these clauses and walks the DAG from the
    # empty clause
    named = list(record.given_sequence)
    if record.empty_clause is not None:
        named.append(record.empty_clause)
    for cid in named:
        if not isinstance(cid, int) or cid not in record.dag \
                or cid not in record.clause_texts:
            raise ValueError(f"clause {cid!r} has no dag entry or no text")
    for parents in record.dag.values():
        for parent in parents:
            if not isinstance(parent, int) or parent not in record.dag:
                raise ValueError(f"dag parent {parent!r} has no dag entry")
    return record


def save_record(record: ProofSearchRecord, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(record_to_json(record), fp, indent=1)
        fp.write("\n")


def load_record(path: str) -> ProofSearchRecord:
    with open(path, "r", encoding="utf-8") as fp:
        return record_from_json(json.load(fp))
