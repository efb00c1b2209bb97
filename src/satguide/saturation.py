"""Given-clause saturation with binary resolution and factoring.

Each selection step asks the strategy's round-robin schedule for a CEF,
takes that CEF's lowest-weight unprocessed clause as the given clause,
moves it to the processed set, and generates all binary resolvents against
the processed clauses plus all factors of the given clause, each built in
one walk through its unifier (variables named X0, X1, ... by first
occurrence, repeated literals merged) as a literal tuple.  A kept clause
is its index in the search's lists of kept contents and parent ids, and
the unprocessed set holds such indices.  A clause whose terms would
nest past the parser's bound is not built.  New clauses that are too
large, tautological, or subsumed by a processed clause are dropped; the
exact subsumption check runs only on processed clauses whose literal keys
all generalise some literal key of the new clause, and each processed
content takes part in it as a matcher compiled once
(:func:`compile_matcher`).
The search stops on the empty clause, an empty unprocessed set, or a
resource limit (the generated-clause cap and the timeout are checked
before each new clause), and always returns a full record of the
derivation.

A search does each piece of repeated work once per *content*, a clause's
literal tuple.  Resolvents are made once per (given content, partner
content) pair and factors once per given content; a repeat reuses the
derived contents under its own parent ids, since derived literals depend
only on the parents' literals.  A candidate content that was subsumed
stays so, because the processed set only grows; a kept one is checked
again only against the subsumers processed since, and only the first
processed clause of each content is a subsumer.
The same literal-key masks pick the partners: only processed clauses with
a literal complementary in sign and predicate can resolve with the given
clause, and visiting them in slot order keeps the candidate order, so
clause ids and records are the same as without any of this.  The memo
alone numbers the key bits and makes each literal key's masks
(:meth:`ContentMemo._key_masks`).

Each content is one :class:`_Content`, which holds what every search of
the problem knows of it: literal count, depth, tautology flag and key
masks; once processed, its primed copy; its matcher and printed text once
first needed.  The contents, the derived contents and each CEF's weights
(for a learned CEF, the model's predictions) live in a
:class:`ContentMemo`.  All of it depends only on a content and the
problem's signature, so a corpus run gives each problem one memo for all
its strategies.  A search keeps only what depends on its own processed
set: its kept clauses, its processed ones and, per kept content, how many
subsumers it was checked against.  A search without a memo makes its own,
and the records are the same either way.

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
    App, EQUALITY, Literal, Signature, SymbolMap, Term, Var,
    clause_depth,
)
from .guidance import (
    CEF, Strategy, evaluate, format_strategy, next_entry_index,
)
from .svm import POS, Model, predict
from .tptp import MAX_TERM_DEPTH, format_clause, parse_clause_text

OUTCOME_PROOF = "proof_found"
OUTCOME_SATURATED = "saturated"
OUTCOME_RESOURCE_OUT = "resource_out"

RECORD_FORMAT = "proof-search-record v1"


@dataclass(frozen=True)
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
        # records store clauses as text, and deeper ones would not parse back
        if self.max_depth > MAX_TERM_DEPTH:
            raise ValueError(f"max_depth must be at most {MAX_TERM_DEPTH}")


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

    def clause(self, cid: int, sig: Signature) -> tuple[Literal, ...]:
        return parse_clause_text(self.clause_texts[cid], sig)


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


def rename_apart(literals) -> tuple[Literal, ...]:
    """Prime every variable (``X`` becomes ``X'``).

    Parsed and kept variable names never contain a quote, so the result
    shares no variable with any stored clause.
    """

    def walk(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(t.name + "'")
        return App(t.symbol, tuple(walk(a) for a in t.args))

    return tuple(Literal(lit.positive, lit.predicate,
                         tuple(walk(a) for a in lit.args))
                 for lit in literals)


class _TooDeep(Exception):
    """A derived term would nest deeper than ``MAX_TERM_DEPTH``."""


def _derived(literals, subst: dict) -> tuple[Literal, ...] | None:
    """The literals of ``literals`` under ``subst``, built in one walk.

    Variables are renamed to X0, X1, ... in first-occurrence order and
    repeated literals are dropped.  Renaming is injective, so literals
    equal after substitution are equal after renaming, and a repeat adds
    no variable number.  The walk stops, and gives None, once a term would
    nest deeper than ``MAX_TERM_DEPTH`` (its predicate counting as one
    level, as in ``clause_depth``): no record could hold such a clause,
    and every later walk of it would recurse that deep.
    """
    names: dict[str, Var] = {}

    def walk(t: Term, depth: int) -> Term:
        if depth > MAX_TERM_DEPTH:
            raise _TooDeep
        t = _deref(t, subst)
        if isinstance(t, Var):
            var = names.get(t.name)
            if var is None:
                var = names[t.name] = Var(f"X{len(names)}")
            return var
        return App(t.symbol, tuple(walk(a, depth + 1) for a in t.args))

    try:
        kept = dict.fromkeys(Literal(lit.positive, lit.predicate,
                                     tuple(walk(a, 2) for a in lit.args))
                             for lit in literals)
    except _TooDeep:
        return None
    return tuple(kept)


def resolvents(lits: tuple[Literal, ...],
               primed: tuple[Literal, ...]) -> list:
    """The literals of every binary resolvent of a clause with ``lits`` and
    a partner with ``primed``, its ``rename_apart`` copy, which keeps the
    partner's variables apart, so a clause may resolve with itself.  None
    stands for a resolvent too deep to build (see :func:`_derived`)."""
    out = []
    for i, lit_g in enumerate(lits):
        for j, lit_p in enumerate(primed):
            if lit_g.positive == lit_p.positive \
                    or lit_g.predicate != lit_p.predicate:
                continue
            subst = unify_atoms(lit_g, lit_p)
            if subst is None:
                continue
            rest = lits[:i] + lits[i + 1:] + primed[:j] + primed[j + 1:]
            out.append(_derived(rest, subst))
    return out


def factors(lits: tuple[Literal, ...]) -> list:
    """The literals of every binary factor: unify two same-polarity
    literals, drop one.  None stands for a factor too deep to build."""
    out = []
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            if lits[i].positive != lits[j].positive:
                continue
            subst = unify_atoms(lits[i], lits[j])
            if subst is None:
                continue
            out.append(_derived(lits[:j] + lits[j + 1:], subst))
    return out


def compile_matcher(clause: tuple[Literal, ...]):
    """``match(literals)``: whether one substitution maps the clause's
    literals injectively onto some of ``literals``.

    The pattern's literals are matched in clause order and each term left
    to right, so every variable's first occurrence is known here: it gets
    a slot of a list made per call, which the first occurrence fills with
    the target subterm and every later occurrence compares with ``==``.
    Trying a literal on another target fills that literal's own slots
    again before anything reads them, so no substitution is ever copied.
    ``used`` marks the target literals already taken, since each pattern
    literal needs a target of its own.
    """
    slots: dict[str, int] = {}

    def term(p: Term):
        """``m(t, s)``: whether ``p`` matches ``t`` under the slots ``s``."""
        if isinstance(p, Var):
            k = slots.get(p.name)
            if k is not None:
                return lambda t, s: s[k] == t
            k = slots[p.name] = len(slots)

            def bind(t, s) -> bool:
                s[k] = t
                return True
            return bind
        sym, ms = p.symbol, arguments(p.args)
        # a symbol has one arity, so a target App of it has len(p.args) args
        return lambda t, s: t.__class__ is App and t.symbol == sym \
            and ms(t.args, s)

    def arguments(args: tuple):
        """``ms(targets, s)``: whether every argument pattern matches."""
        ms = [term(a) for a in args]
        if not ms:
            return lambda ts, s: True
        if len(ms) == 1:
            m0, = ms
            return lambda ts, s: m0(ts[0], s)
        if len(ms) == 2:
            m0, m1 = ms

            def both(ts, s) -> bool:
                a, b = ts
                return m0(a, s) and m1(b, s)
            return both
        return lambda ts, s: all(m(t, s) for m, t in zip(ms, ts))

    steps = [(lit.positive, lit.predicate, arguments(lit.args))
             for lit in clause]
    size = len(slots)

    def literal_step(positive: bool, predicate: int, ms, rest):
        """``step(literals, used, s)``: whether this pattern literal takes
        an unused target literal after which ``rest`` matches too."""
        def step(literals, used, s) -> bool:
            for j, t in enumerate(literals):
                if t.predicate == predicate and t.positive == positive \
                        and not used[j] and ms(t.args, s):
                    used[j] = True
                    if rest(literals, used, s):
                        return True
                    used[j] = False
            return False
        return step

    def done(literals, used, s) -> bool:
        return True

    first = done
    for positive, predicate, ms in reversed(steps):
        first = literal_step(positive, predicate, ms, first)
    return lambda literals: first(literals, [False] * len(literals),
                                  [None] * size)


def subsumes(c: tuple[Literal, ...], d: tuple[Literal, ...],
             match=None) -> bool:
    """Whether some substitution makes ``c`` a sub-multiset of ``d``.

    ``match`` is ``compile_matcher(c)``, made here when not given.
    """
    if len(c) > len(d):
        return False
    if match is None:
        match = compile_matcher(c)
    return match(d)


def _literal_key(lit: Literal) -> tuple:
    """(sign, predicate, top symbols of the first two arguments), a
    variable top as None."""
    return (lit.positive, lit.predicate,
            tuple([a.symbol if isinstance(a, App) else None
                   for a in lit.args[:2]]))


def is_tautology(clause: tuple[Literal, ...]) -> bool:
    atoms = {(lit.predicate, lit.args, lit.positive) for lit in clause}
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
        for lit in clause:
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


class _Content:
    """One distinct literal tuple of a problem and what every search of the
    problem knows of it.

    The literal count, depth, tautology flag and key masks are made with
    the content: the instance mask of every generalisation of its literal
    keys, the pattern mask of its keys, and the opposite mask of each
    literal's key with the other sign and variable tops, which a clause's
    instance mask meets just when the two can resolve on sign and
    predicate.  The primed copy is filled when the content is first
    processed, the matcher on the first exact subsumption check that
    reaches it, the text when a record first prints it.  It hashes by
    identity, so no order may come from iterating a set of contents.
    """

    __slots__ = ("literals", "size", "depth", "tautology", "mask", "pattern",
                 "opposite", "primed", "match", "text")

    def __init__(self, literals: tuple[Literal, ...], mask: int,
                 pattern: int, opposite: int):
        self.literals = literals
        self.size = len(literals)
        self.depth = clause_depth(literals)
        self.tautology = is_tautology(literals)
        self.mask, self.pattern, self.opposite = mask, pattern, opposite
        self.primed = self.match = self.text = None


class _Processed:
    """The processed clauses of one search and the loop's lookups into them.

    Each processed clause takes the next *slot*, a ``(clause id, content)``
    pair.  :meth:`partners` keeps the slots whose content's instance mask
    meets the given content's opposite mask, in slot order.  Only the
    first processed clause of each content is a subsumer: equal clauses
    subsume the same candidates.  What depends only on a content lives on
    its :class:`_Content`, shared with the problem's other searches; the
    slots and the subsumers are this search's own.
    """

    def __init__(self):
        self.slots: list[tuple[int, _Content]] = []
        # one per processed content, in processing order
        self.subsumers: list[_Content] = []
        self.subsuming: set[_Content] = set()

    def add(self, cid: int, content: _Content) -> None:
        if content.primed is None:
            content.primed = rename_apart(content.literals)
        self.slots.append((cid, content))
        if content not in self.subsuming:
            self.subsuming.add(content)
            self.subsumers.append(content)

    def partners(self, content: _Content) -> list:
        """The slots holding a literal complementary in sign and predicate
        to one of the given content's, in slot order."""
        opposite = content.opposite
        return [slot for slot in self.slots if slot[1].mask & opposite]

    def subsumed(self, cand: _Content, since: int) -> bool:
        """Whether a subsumer added at or after index ``since`` subsumes
        ``cand``.  Subsumers with more literals than ``cand`` or a key
        outside its instance mask cannot subsume it and are not tried."""
        missing = ~cand.mask
        width = cand.size
        for old in self.subsumers[since:]:
            if old.size <= width and not old.pattern & missing:
                if old.match is None:
                    old.match = compile_matcher(old.literals)
                if subsumes(old.literals, cand.literals, old.match):
                    return True
        return False


class ContentMemo:
    """Per-content work shared by the searches of one problem.

    What a search derives and weighs depends only on a clause's literals
    and the problem's signature, so every search of the problem can share
    it: :meth:`content` gives each distinct literal tuple one
    :class:`_Content`, and the memo keeps the contents that resolution and
    factoring derive per content pair, each CEF's weight per content and
    each model's prediction per content.  Tables are keyed by the objects
    they describe: a CEF by ``(kind, gamma, model)``, a model by itself
    (a :class:`Model` hashes by identity).  The memo is the one place that
    asks a model for a prediction: each model gets one :class:`SymbolMap`
    of the signature into its snapshot, which its predictions read feature
    labels through, and ``evaluate`` is handed the prediction.  A
    prediction keeps the number of feature triples it dropped, which every
    search that uses it, the first included, adds to its own
    ``dropped_triples``.

    :meth:`_key_masks` is the one place that numbers key bits and makes a
    literal key's masks: ``key_bits`` gives every key a mask uses one bit
    for good, so masks made at any time agree, and ``key_masks`` keeps
    each literal key's masks, so none is made again.  Per-search state
    (kept and processed clauses, queues, subsumption watermarks) stays in
    :func:`prove`.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.contents: dict[tuple[Literal, ...], _Content] = {}
        # (given content, partner content) or (given content,) -> the
        # contents resolution or factoring derives, None for one too deep
        self.derived: dict[tuple, list[_Content | None]] = {}
        # (kind, gamma, model) of a CEF -> content -> weight
        self.weights: dict[tuple, dict[_Content, float]] = {}
        # model -> (the signature's map into it, content -> (positive,
        # triples dropped))
        self.models: dict[Model, tuple[SymbolMap, dict]] = {}
        # literal key, a generalisation of one, or an opposite key -> its
        # bit in the masks
        self.key_bits: dict = {}
        # literal key -> the instance, pattern and opposite masks of a
        # literal with that key
        self.key_masks: dict[tuple, tuple[int, int, int]] = {}

    def content(self, literals: tuple[Literal, ...]) -> _Content:
        content = self.contents.get(literals)
        if content is None:
            mask = pattern = opposite = 0
            for lit in literals:
                key = _literal_key(lit)
                masks = self.key_masks.get(key)
                if masks is None:
                    masks = self.key_masks[key] = self._key_masks(key)
                mask |= masks[0]
                pattern |= masks[1]
                opposite |= masks[2]
            content = self.contents[literals] = _Content(literals, mask,
                                                         pattern, opposite)
        return content

    def _key_masks(self, key: tuple) -> tuple[int, int, int]:
        """The instance, pattern and opposite masks of a literal with
        ``key``; a key without a bit gets a new one in ``key_bits``.

        The instance mask has the bit of every generalisation of the key,
        which keeps each top symbol or replaces it by None; the pattern
        mask has the bit of the key itself, the first of them.
        Instantiation keeps the sign, the predicate and every non-variable
        top, so if ``c`` subsumes ``d`` then every key of ``c`` generalises
        a key of ``d``, and the pattern mask of ``c``'s content has no bit
        outside the instance mask of ``d``'s, whichever content was made
        first.  The opposite mask is the bit of ``(not sign, predicate,
        None tops)``, which the instance mask of every literal that can
        resolve with this one holds.
        """
        sign, predicate, tops = key
        bits = self.key_bits
        instance = 0
        for gen in product(*((t, None) for t in tops)):
            instance |= bits.setdefault((sign, predicate, gen), 1 << len(bits))
        opposite = (not sign, predicate, (None,) * len(tops))
        return (instance, bits[key],
                bits.setdefault(opposite, 1 << len(bits)))

    def weigher(self, cef: CEF, stats: dict):
        """``weigh(content)``, the CEF's weight of a kept clause with that
        content, that reuses what the memo knows of the content."""
        weights = self.weights.setdefault((cef.kind, cef.gamma, cef.model), {})
        model = cef.model
        if model is None:
            def weigh(content: _Content) -> float:
                weight = weights.get(content)
                if weight is None:
                    weight = weights[content] = evaluate(content.literals, cef)
                return weight
            return weigh
        if model not in self.models:
            self.models[model] = (SymbolMap(self.sig, model.signature), {})
        symbols, predictions = self.models[model]

        def weigh_learned(content: _Content) -> float:
            prediction = predictions.get(content)
            if prediction is None:
                counts: dict[str, int] = {}
                positive = predict(content.literals, model, symbols,
                                   counts) == POS
                prediction = predictions[content] = (
                    positive, counts.get("dropped_triples", 0))
            stats["dropped_triples"] += prediction[1]
            weight = weights.get(content)
            if weight is None:
                weight = weights[content] = evaluate(content.literals, cef,
                                                     prediction[0])
            return weight
        return weigh_learned


class _CefQueue:
    """Lazy per-CEF ordering view over the unprocessed set.

    ``seen`` is a watermark into the search's list of kept contents, whose
    indices are the clause ids: the clauses past it are weighed, once
    each, the next time this CEF is asked to select, and those still
    unprocessed are pushed on a heap as ``(weight, id)``, so equal weights
    pop the oldest clause first.  Heap entries for clauses that were
    selected by another CEF in the meantime are skipped on pop.
    """

    def __init__(self, weigh):
        # content -> weight under this queue's CEF
        self.weigh = weigh
        self.heap: list[tuple[float, int]] = []
        self.seen = 0

    def pop(self, kept: list, unprocessed: set) -> int | None:
        """Remove from ``unprocessed`` and return the id this CEF picks."""
        weigh = self.weigh
        for cid, content in enumerate(kept[self.seen:], self.seen):
            if cid in unprocessed:
                heapq.heappush(self.heap, (weigh(content), cid))
        self.seen = len(kept)
        while self.heap:
            _, cid = heapq.heappop(self.heap)
            if cid in unprocessed:
                unprocessed.remove(cid)
                return cid
        return None


def prove(problem, strategy: Strategy, limits: Limits, sig: Signature,
          problem_id: str = "", inject_equality: bool = True,
          memo: ContentMemo | None = None) -> ProofSearchRecord:
    """Run the given-clause loop on a list of input clauses, literal tuples.

    The record stores the full given-clause sequence and derivation DAG
    regardless of outcome; hitting a limit is the ``resource_out`` outcome,
    not an error.  ``memo`` shares per-content work with other searches on
    the same problem and signature; without it the search keeps its own.
    The record is the same either way.
    """
    if not problem:
        raise ValueError("problem must contain at least one clause")
    if memo is None:
        memo = ContentMemo(sig)
    elif memo.sig is not sig:
        raise ValueError("the memo belongs to another signature")
    started = time.monotonic()
    stats = {"generated": 0, "processed": 0, "kept": 0, "subsumed": 0,
             "discarded": 0, "tautologies": 0, "equality_axioms": 0,
             "dropped_triples": 0}
    processed = _Processed()
    # the content and the parent ids of every kept clause; a clause's id
    # is its index in both
    kept: list[_Content] = []
    parents: list[tuple[int, ...]] = []
    derived = memo.derived
    # a candidate content -> the number of subsumers it had been checked
    # against when last kept, or None once subsumed, which is final since
    # the processed set only grows
    checked: dict[_Content, int | None] = {}

    # entries with equal CEFs share one queue: they would pick alike.  A
    # learned CEF is told apart by its model object, not its model path.
    queues: dict = {}
    entry_queues = []
    for _, cef in strategy.entries:
        key = (cef.kind, cef.gamma, cef.model)
        if key not in queues:
            queues[key] = _CefQueue(memo.weigher(cef, stats))
        entry_queues.append(queues[key])

    def derive(key: tuple, ids: tuple[int, ...], make, *args) -> list:
        made = derived.get(key)
        if made is None:
            made = derived[key] = [None if literals is None
                                   else memo.content(literals)
                                   for literals in make(*args)]
        return [(cand, ids) for cand in made]

    input_literal_sets = list(problem)
    if inject_equality:
        eq_axioms = equality_axioms(problem, sig)
        stats["equality_axioms"] = len(eq_axioms)
        input_literal_sets.extend(eq_axioms)
    for literals in input_literal_sets:
        kept.append(memo.content(tuple(literals)))
        parents.append(())
    # the ids of the kept clauses not yet processed
    unprocessed = set(range(len(kept)))
    stats["kept"] = len(kept)
    empty_clause = next((cid for cid, content in enumerate(kept)
                         if not content.literals), None)

    def spent() -> bool:
        return stats["generated"] >= limits.max_generated \
            or limits.timeout is not None \
            and time.monotonic() - started > limits.timeout

    outcome = None
    if empty_clause is not None:
        outcome = OUTCOME_PROOF

    while outcome is None:
        if not unprocessed:
            outcome = OUTCOME_SATURATED
            break
        if stats["processed"] >= limits.max_processed or spent():
            outcome = OUTCOME_RESOURCE_OUT
            break
        entry = next_entry_index(strategy, stats["processed"])
        given = entry_queues[entry].pop(kept, unprocessed)
        assert given is not None, "unprocessed nonempty but queue is dry"
        given_content = kept[given]
        processed.add(given, given_content)
        stats["processed"] += 1

        candidates = []
        for partner, partner_content in processed.partners(given_content):
            candidates += derive((given_content, partner_content),
                                 (given, partner), resolvents,
                                 given_content.literals, partner_content.primed)
        candidates += derive((given_content,), (given,), factors,
                             given_content.literals)
        for cand, ids in candidates:
            if spent():
                outcome = OUTCOME_RESOURCE_OUT
                break
            stats["generated"] += 1
            if cand is None or cand.size > limits.max_literals \
                    or cand.depth > limits.max_depth:
                stats["discarded"] += 1
                continue
            if cand.tautology:
                stats["tautologies"] += 1
                continue
            since = checked.get(cand, 0)
            if since is None or processed.subsumed(cand, since):
                checked[cand] = None
                stats["subsumed"] += 1
                continue
            checked[cand] = len(processed.subsumers)
            cid = len(kept)
            kept.append(cand)
            parents.append(ids)
            if not cand.literals:
                empty_clause = cid
                outcome = OUTCOME_PROOF
                break
            unprocessed.add(cid)
            stats["kept"] += 1

    # one text per content
    for content in kept:
        if content.text is None:
            content.text = format_clause(content.literals, sig)
    return ProofSearchRecord(
        problem=problem_id,
        strategy=format_strategy(strategy),
        outcome=outcome,
        given_sequence=[cid for cid, _ in processed.slots],
        dag=dict(enumerate(parents)),
        empty_clause=empty_clause,
        stats=stats,
        clause_texts={cid: content.text for cid, content in enumerate(kept)},
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
    """``value`` if it is a ``kind``, else a ValueError naming ``what``;
    JSON ``true`` is no int."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise ValueError(f"{what} must be {kind.__name__}, "
                         f"not {type(value).__name__}")
    return value


def _all_typed(mapping: dict, kind: type, what: str) -> dict:
    """``mapping`` if every value is a ``kind``, else a ValueError naming
    the first key whose value is not."""
    for key, value in mapping.items():
        if not isinstance(value, kind) or isinstance(value, bool):
            _typed(value, kind, f"{what} {key}")
    return mapping


def _known(cid, ids) -> bool:
    """Whether ``cid`` is an int in ``ids``; JSON ``true`` is no clause 1."""
    if isinstance(cid, bool):
        raise ValueError(f"clause id {cid!r} must be int, not bool")
    return isinstance(cid, int) and cid in ids


def _clause_id(key: str, field: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"field {field!r} has key {key!r}, "
                         f"not a clause id") from None


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
        dag={_clause_id(cid, "dag"): tuple(parents) for cid, parents
             in _all_typed(get("dag", dict), list, "dag entry").items()},
        empty_clause=get("empty_clause"),
        stats=_all_typed(get("stats", dict), int, "stat"),
        clause_texts={_clause_id(cid, "clauses"): text for cid, text
                      in _all_typed(get("clauses", dict), str, "clause").items()},
    )
    # example extraction reads these clauses and walks the DAG from the
    # empty clause
    named = list(record.given_sequence)
    if record.empty_clause is not None:
        named.append(record.empty_clause)
    for cid in named:
        if not _known(cid, record.dag) or cid not in record.clause_texts:
            raise ValueError(f"clause {cid!r} has no dag entry or no text")
    # a search gives each clause once; dag parents may repeat
    given = set()
    for cid in record.given_sequence:
        if cid in given:
            raise ValueError(f"clause {cid} is given twice")
        given.add(cid)
    if record.outcome == OUTCOME_PROOF and (
            record.empty_clause is None
            or record.clause_texts[record.empty_clause] != "$false"):
        raise ValueError("field 'empty_clause' of a proof must name a $false "
                         f"clause, not {record.empty_clause!r}")
    for parents in record.dag.values():
        for parent in parents:
            if not _known(parent, record.dag):
                raise ValueError(f"dag parent {parent!r} has no dag entry")
    return record


def save_record(record: ProofSearchRecord, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(record_to_json(record), fp, indent=1)
        fp.write("\n")


def load_record(path: str) -> ProofSearchRecord:
    with open(path, "r", encoding="utf-8") as fp:
        return record_from_json(json.load(fp))
