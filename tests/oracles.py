"""Independent reference implementations used only to check the real ones.

Nothing here shares code with the solver or prover under test: the SVM
oracle minimizes the primal objective directly (active-set Newton steps
with a gradient-descent fallback), and the entailment oracle grounds
clauses over a finite universe and enumerates truth assignments.  The one
exception is :func:`numpy_dcd_reference`, a numpy form of the dual
coordinate-descent solver, which shares only the solver's result and error
types and its sweep threshold; it pins the plain-Python loop to the same
arithmetic and schedule.  The
feature tree builds each literal's tree explicitly and shares only the
signature's symbol labels with the featurizer.  The unifier is the
textbook recursive Robinson algorithm over the term classes alone, and
clause subsumption tries every injective map of literals.  The proof-step
checker re-derives each step of a proof with that unifier and its own
resolution, factoring and equality axioms, and compares clauses as
literal sets up to a renaming of variables; it reads a record's clause
texts with the package's parser.  The selection replay weighs a
record's clauses by its own clause length, weighted symbol count and
feature walks, and takes only the round-robin schedule from the package.
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from satguide.clauses import (
    App, KIND_FUNCTION, Literal, NEG_MARKER, POS_MARKER, SKOLEM_MARKER,
    VAR_MARKER, Signature, Var,
)
from satguide.svm import _ACTIVE_FRACTION, NonFinite, SolverInfo
from satguide.tptp import parse_clause_text, parse_problem

_PG_FLOOR = 1e-12


def svm_primal_value(w, x_rows, y, c):
    w = np.asarray(w, dtype=float)  # the solver returns a list
    margins = 1.0 - y * (x_rows @ w)
    hinge = np.maximum(margins, 0.0)
    return 0.5 * float(w @ w) + c * float(hinge @ hinge)


def svm_primal_grad(w, x_rows, y, c):
    margins = 1.0 - y * (x_rows @ w)
    active = margins > 0
    return w - 2.0 * c * (x_rows[active].T @ (y[active] * margins[active]))


def svm_reference_minimizer(x_rows, y, c, grad_tol=1e-10):
    """Minimize 0.5 w'w + c sum max(1 - y x'w, 0)^2 from first principles.

    The objective is piecewise quadratic and convex: on each active set it
    is an exact quadratic, so solving the active-set normal equations and
    falling back to damped steps when the value would rise converges to the
    global minimum for these small dense instances.
    """
    x_rows = np.asarray(x_rows, dtype=float)
    y = np.asarray(y, dtype=float)
    _, dim = x_rows.shape
    w = np.zeros(dim)
    for _ in range(200):
        margins = 1.0 - y * (x_rows @ w)
        active = margins > 0
        a = np.eye(dim) + 2.0 * c * (x_rows[active].T @ x_rows[active])
        b = 2.0 * c * (x_rows[active].T @ y[active])
        target = np.linalg.solve(a, b)
        if np.allclose(target, w, atol=1e-15, rtol=0.0):
            break
        step = 1.0
        value = svm_primal_value(w, x_rows, y, c)
        while step > 1e-12:
            candidate = w + step * (target - w)
            if svm_primal_value(candidate, x_rows, y, c) <= value + 1e-15:
                break
            step /= 2.0
        w = w + step * (target - w)
    # polish: plain gradient descent mops up any active-set cycling
    for _ in range(200000):
        g = svm_primal_grad(w, x_rows, y, c)
        if np.max(np.abs(g)) < grad_tol:
            break
        w = w - 0.05 / (1.0 + 2.0 * c * np.abs(x_rows).sum()) * g
    assert np.max(np.abs(svm_primal_grad(w, x_rows, y, c))) < 1e-6, \
        "oracle failed to reach first-order optimality"
    return w


def numpy_dcd_reference(vectors, labels, dimension, cfg):
    """Dual coordinate descent over numpy arrays, on the solver's schedule.

    Same signature and result as ``solve_l2svm``.  Rows are grouped by
    vector, in first-occurrence order; the k rows of a (vector, label)
    pair share one dual with diagonal term 1/(2kc).  Each step makes numpy
    calls on the vector's few entries, and ``@`` goes to the BLAS ``ddot``.
    A vector with both labels moves its two duals together, to the exact
    minimizer over the nonnegative quadrant.

    Each epoch visits every vector in an order reshuffled by
    ``random.Random(seed)``.  An epoch whose largest projected-gradient
    violation is not below the tolerance is followed by reshuffled sweeps
    over the connected components, in the graph whose edges join vectors
    that share a feature, that hold a violation of at least
    ``tolerance * _ACTIVE_FRACTION``: at most (rows // their vectors)
    sweeps, and none after one that finds them all below that.
    """
    first: dict = {}
    for k, (vec, label) in enumerate(zip(vectors, labels)):
        first.setdefault(vec, [k, 0, 0])[1 if label > 0 else 2] += 1
    m = len(first)
    idxs = []
    vals = []
    q = np.empty(m)
    diag = np.zeros((m, 2))  # column 0 for label +1, column 1 for -1
    for u, (vec, (k, n_pos, n_neg)) in enumerate(first.items()):
        idx = np.array([i - 1 for i, _ in vec], dtype=np.intp)
        val = np.array([v for _, v in vec], dtype=np.float64)
        idxs.append(idx)
        vals.append(val)
        q[u] = float(val @ val)
        if not np.isfinite(val).all() or not np.isfinite(q[u]):
            raise NonFinite(f"example {k} has non-finite or overflowing "
                            "feature values; rescale the input")
        for col, count in ((0, n_pos), (1, n_neg)):
            if count:
                diag[u, col] = 1.0 / (2.0 * count * cfg.c)

    component = np.full(m, -1)
    by_feature: dict = {}
    for u, idx in enumerate(idxs):
        for j in idx.tolist():
            by_feature.setdefault(j, []).append(u)
    for start in range(m):
        if component[start] < 0:
            component[start] = start
            queue = [start]
            while queue:
                for j in idxs[queue.pop()].tolist():
                    for u in by_feature[j]:
                        if component[u] < 0:
                            component[u] = start
                            queue.append(u)

    w = np.zeros(dimension)
    alpha = np.zeros((m, 2))

    def step(u):
        xi, vi = idxs[u], vals[u]
        dot = float(w[xi] @ vi)
        old = alpha[u].copy()
        g = np.array([dot - 1.0 + diag[u, 0] * old[0],
                      -dot - 1.0 + diag[u, 1] * old[1]])
        pg = np.where(old == 0.0, np.minimum(g, 0.0), g)
        violation = float(np.max(np.abs(pg[diag[u] != 0.0])))
        if violation <= _PG_FLOOR:
            return violation
        new = old.copy()
        for col in (0, 1):
            if diag[u, 1 - col] == 0.0:  # one label: a one-variable step
                new[col] = old[col] - g[col] / (q[u] + diag[u, col])
                if new[col] < 0.0:
                    new[col] = 0.0
        if diag[u, 0] != 0.0 and diag[u, 1] != 0.0:
            new = _quadrant_minimizer(q[u], diag[u], old, g)
        alpha[u] = new
        change = (new[0] - old[0]) - (new[1] - old[1])
        if change != 0.0:
            w[xi] += change * vi
        return violation

    rng = random.Random(cfg.seed)
    order = list(range(m))
    duals = [0.0]
    converged = False
    violation = float("inf")
    epochs = 0
    for _ in range(cfg.max_epochs):
        rng.shuffle(order)
        seen = [step(u) for u in order]
        violation = max(seen)
        epochs += 1
        if violation >= cfg.tolerance:
            floor = cfg.tolerance * _ACTIVE_FRACTION
            hot = set(component[[u for u, v in zip(order, seen) if v >= floor]])
            active = [u for u in order if component[u] in hot]
            for _ in range(max(1, len(vectors) // len(active))):
                rng.shuffle(active)
                if max([step(u) for u in active]) < floor:
                    break
        dual = math.fsum(alpha[:, 0]) + math.fsum(alpha[:, 1]) \
            - 0.5 * math.fsum(w * w) \
            - 0.5 * math.fsum(diag[:, 0] * alpha[:, 0] * alpha[:, 0]) \
            - 0.5 * math.fsum(diag[:, 1] * alpha[:, 1] * alpha[:, 1])
        duals.append(dual)
        if not np.isfinite(dual):
            raise NonFinite("dual objective diverged; rescale the input")
        if violation < cfg.tolerance:
            converged = True
            break
    if not np.isfinite(w).all():
        raise NonFinite("weight vector contains non-finite values")
    return w, SolverInfo(epochs, float(violation), converged, duals)


def _quadrant_minimizer(q, diag, old, g):
    """Minimize g'd + d'Hd/2 over old + d >= 0, H = [[q+D+, -q], [-q, q+D-]]:
    the Newton point if it is feasible, else the better of the two edges."""
    hp, hn = q + diag[0], q + diag[1]
    det = q * (diag[0] + diag[1]) + diag[0] * diag[1]
    newton = np.array([old[0] - (hn * g[0] + q * g[1]) / det,
                       old[1] - (q * g[0] + hp * g[1]) / det])
    if newton[0] >= 0.0 and newton[1] >= 0.0:
        return newton
    edges = [np.array([max(old[0] - (g[0] + q * old[1]) / hp, 0.0), 0.0]),
             np.array([0.0, max(old[1] - (g[1] + q * old[0]) / hn, 0.0)])]

    def change(point):
        d = point - old
        return g[0] * d[0] + g[1] * d[1] + 0.5 * (
            hp * d[0] * d[0] - 2.0 * q * d[0] * d[1] + hn * d[1] * d[1])

    return edges[0] if change(edges[0]) <= change(edges[1]) else edges[1]


def brute_force_min_cover(sets):
    """Smallest sub-collection covering the union, by exhaustive search."""
    universe = set()
    for s in sets:
        universe |= s
    indices = range(len(sets))
    for size in range(len(sets) + 1):
        for combo in itertools.combinations(indices, size):
            covered = set()
            for i in combo:
                covered |= sets[i]
            if covered == universe:
                return list(combo)
    raise AssertionError("unreachable: the full collection always covers")


@dataclass(frozen=True)
class FeatureNode:
    """Node of a literal feature tree."""
    label: int
    children: tuple["FeatureNode", ...] = ()


def _label(sym_id, sig):
    """A function symbol named with one of the signature's Skolem prefixes
    labels as the Skolem marker; every other symbol labels as its id."""
    sym = sig.symbol(sym_id)
    if sym.kind == KIND_FUNCTION and sym.name.startswith(sig.skolem_prefixes):
        return SKOLEM_MARKER
    return sym_id


class OwnLabels:
    """A signature's own feature labels, by the rule of :func:`_label`; it
    reads the symbol table at each call, so it covers later symbols too."""

    def __init__(self, sig):
        self.sig = sig

    def feature_label(self, sym_id):
        return _label(sym_id, self.sig)


def _term_node(t, sig):
    if isinstance(t, Var):
        return FeatureNode(VAR_MARKER)
    return FeatureNode(_label(t.symbol, sig),
                       tuple(_term_node(a, sig) for a in t.args))


def feature_tree(lit, sig):
    """The literal's syntax tree with polarity root and relabeled leaves.

    Built as an explicit tree, with symbol labels by its own rule, so its
    walks check the direct walk in ``features.literal_features`` and the
    labels of ``clauses.SymbolMap``.
    """
    root = POS_MARKER if lit.positive else NEG_MARKER
    pred = FeatureNode(_label(lit.predicate, sig),
                       tuple(_term_node(a, sig) for a in lit.args))
    return FeatureNode(root, (pred,))


def tree_walks(node):
    """All 3-node directed chains of a tree, parent first."""
    walks = []

    def visit(n):
        for child in n.children:
            for grand in child.children:
                walks.append((n.label, child.label, grand.label))
            visit(child)

    visit(node)
    return walks


def _symbols(literals, var_weight):
    """Symbol occurrences of a clause, each variable counting
    ``var_weight``; a literal's predicate counts, its polarity does not."""
    def term(t):
        if isinstance(t, Var):
            return var_weight
        return 1 + sum(term(a) for a in t.args)
    return sum(1 + sum(term(a) for a in lit.args) for lit in literals)


def _predicts_positive(literals, model, sig):
    """Whether the model's weights score the clause's feature walks above
    zero.  ``sig`` extends the model's snapshot, so a symbol the snapshot
    lacks has an id past its end and its walks are dropped; a literal
    without arguments has one walk, padded with ``None``."""
    size = model.signature.size
    counts = {}
    for lit in literals:
        tree = feature_tree(lit, sig)
        walks = tree_walks(tree) or [(tree.label, tree.children[0].label,
                                      None)]
        for walk in walks:
            if any(x is not None and x >= size for x in walk):
                continue
            a, b, c = (size if x is None else x for x in walk)
            index = (a * (size + 1) + b) * (size + 1) + c + 1
            counts[index] = counts.get(index, 0) + 1
    score = 0.0
    for index in sorted(counts):
        score += model.w.get(index, 0.0) * counts[index]
    return score > 0.0


def selection_faults(record, strategy, models):
    """The selection steps of a record that ``strategy`` would not make,
    as (step, reason) pairs.

    A clause is born at the step where its latest parent was given, an
    input clause before step 0.  At step k the given clause must be the
    (weight, id) minimum among the clauses born before k and not yet given,
    under the CEF that the strategy's round-robin schedules for step k.
    The weights are the clause length, the weighted symbol count (a
    variable counts one half), the FIFO id, and for a learned CEF gamma
    times the length plus 1 if its model scores the clause positive, else
    10.  The model a learned CEF names by path is read from ``models``.
    After a fault the replay goes on from the record's own pick.
    """
    given = record.given_sequence
    step_of = {cid: k for k, cid in enumerate(given)}
    never = len(given)
    born = {cid: max((step_of.get(p, never) for p in parents), default=-1)
            for cid, parents in record.dag.items()}
    parsed = {}

    def literals(cid, sig):
        if (cid, sig) not in parsed:
            parsed[cid, sig] = parse_clause_text(record.clause_texts[cid], sig)
        return parsed[cid, sig]

    plain = Signature()
    sigs = {path: Signature.from_frozen(model.signature)
            for path, model in models.items()}
    weights = {}

    def weight(cef, cid):
        key = (cef.kind, cef.gamma, cef.model_path, cid)
        if key not in weights:
            if cef.kind == "Fifo":
                weights[key] = float(cid)
            elif cef.kind == "ClauseLen":
                weights[key] = float(_symbols(literals(cid, plain), 1))
            elif cef.kind == "SymbolCount":
                weights[key] = _symbols(literals(cid, plain), 0.5)
            else:
                sig = sigs[cef.model_path]
                lits = literals(cid, sig)
                positive = _predicts_positive(lits, models[cef.model_path],
                                              sig)
                weights[key] = cef.gamma * _symbols(lits, 1) \
                    + (1.0 if positive else 10.0)
        return weights[key]

    # the round-robin schedule written out: each cycle gives an entry of
    # frequency f the next f steps, in entry order
    cycle = [cef for freq, cef in strategy.entries for _ in range(freq)]
    by_birth = sorted(record.dag, key=lambda cid: (born[cid], cid))
    nborn = 0
    waiting = set()
    faults = []
    for k, cid in enumerate(given):
        while nborn < len(by_birth) and born[by_birth[nborn]] < k:
            waiting.add(by_birth[nborn])
            nborn += 1
        cef = cycle[k % len(cycle)]
        want = min(waiting, key=lambda c: (weight(cef, c), c), default=None)
        if cid != want:
            faults.append((k, f"gave clause {cid}, not {want}"))
        waiting.discard(cid)
    return faults


def _ground_terms(sig, constants, functions, depth):
    """Herbrand terms over the given constants, up to a term depth."""
    from satguide.clauses import App
    layers = [App(c) for c in constants]
    all_terms = list(layers)
    for _ in range(depth - 1):
        new = []
        for fn, arity in functions:
            for args in itertools.product(all_terms, repeat=arity):
                new.append(App(fn, args))
        all_terms.extend(t for t in new if t not in all_terms)
    return all_terms


def _clause_vars(clause):
    from satguide.clauses import Var

    def walk(t, out):
        if isinstance(t, Var):
            out.add(t.name)
        else:
            for a in t.args:
                walk(a, out)

    out = set()
    for lit in clause:
        for a in lit.args:
            walk(a, out)
    return sorted(out)


def _ground_literal(lit, assignment):
    from satguide.clauses import App, Literal, Var

    def walk(t):
        if isinstance(t, Var):
            return assignment[t.name]
        return App(t.symbol, tuple(walk(a) for a in t.args))

    return Literal(lit.positive, lit.predicate, tuple(walk(a) for a in lit.args))


def ground_instances(clause, terms):
    """All groundings of a clause's variables over the given terms."""
    names = _clause_vars(clause)
    instances = []
    for combo in itertools.product(terms, repeat=len(names)):
        assignment = dict(zip(names, combo))
        instances.append(tuple(_ground_literal(lit, assignment)
                               for lit in clause))
    return instances


def ground_unsatisfiable(clauses, sig, max_atoms=18):
    """Truth-table unsatisfiability of function-free clauses.

    Grounds every clause over the constants occurring in the problem and
    enumerates assignments; exact for function-free inputs, where the
    constant universe is the whole Herbrand universe.
    """
    from satguide.clauses import App, KIND_FUNCTION

    constants = set()
    for c in clauses:
        for lit in c:
            for a in lit.args:
                stack = [a]
                while stack:
                    t = stack.pop()
                    if isinstance(t, App):
                        assert not t.args, "oracle only handles function-free input"
                        constants.add(t.symbol)
    if not constants:
        constants.add(sig.intern_symbol("o_default", 0, KIND_FUNCTION))
    terms = [App(c) for c in sorted(constants)]

    instances = [inst for c in clauses for inst in ground_instances(c, terms)]
    atoms = sorted({(lit.predicate, lit.args)
                    for inst in instances for lit in inst}, key=repr)
    assert len(atoms) <= max_atoms, f"fixture too large: {len(atoms)} atoms"
    index = {atom: k for k, atom in enumerate(atoms)}
    for values in itertools.product((False, True), repeat=len(atoms)):
        if all(any(values[index[(lit.predicate, lit.args)]] == lit.positive
                   for lit in inst)
               for inst in instances):
            return False
    return True


def ground_entails(parents, clause, sig, depth=2, max_atoms=18):
    """Whether every truth assignment satisfying all ground instances of the
    parents (over the bounded Herbrand universe) satisfies every ground
    instance of the clause.

    Sound for spotting bad inferences: genuine entailment can never fail
    this check, so any failure is a real soundness bug.
    """
    from satguide.clauses import App, KIND_FUNCTION

    constants = []
    functions = []
    seen = set()

    def scan(t):
        if isinstance(t, App):
            if t.symbol not in seen:
                seen.add(t.symbol)
                sym = sig.symbol(t.symbol)
                if sym.arity == 0:
                    constants.append(t.symbol)
                elif sym.kind == KIND_FUNCTION:
                    functions.append((t.symbol, sym.arity))
            for a in t.args:
                scan(a)

    for c in list(parents) + [clause]:
        for lit in c:
            for a in lit.args:
                scan(a)
    if not constants:
        constants.append(sig.intern_symbol("o_default", 0, KIND_FUNCTION))
    terms = _ground_terms(sig, sorted(constants), sorted(functions), depth)

    parent_instances = [inst for p in parents for inst in ground_instances(p, terms)]
    clause_instances = ground_instances(clause, terms)

    atoms = sorted({(lit.predicate, lit.args)
                    for inst in parent_instances + clause_instances
                    for lit in inst}, key=repr)
    assert len(atoms) <= max_atoms, f"fixture too large: {len(atoms)} atoms"
    index = {atom: k for k, atom in enumerate(atoms)}

    def satisfied(inst, values):
        return any(values[index[(lit.predicate, lit.args)]] == lit.positive
                   for lit in inst)

    for values in itertools.product((False, True), repeat=len(atoms)):
        if all(satisfied(inst, values) for inst in parent_instances):
            if not all(satisfied(inst, values) for inst in clause_instances):
                return False
    return True


def substitute(t, subst):
    """Replace each variable bound in ``subst`` once, without chasing."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    return App(t.symbol, tuple(substitute(a, subst) for a in t.args))


def _occurs_in(name, t):
    if isinstance(t, Var):
        return t.name == name
    return any(_occurs_in(name, a) for a in t.args)


def robinson_unify(t1, t2, subst=None):
    """Most general unifier as an idempotent ``{name: term}`` dict, or None.

    Each binding is applied to the terms and to the earlier bindings at
    once, so a variable never appears both bound and in a binding.
    """
    subst = {} if subst is None else subst
    t1, t2 = substitute(t1, subst), substitute(t2, subst)
    if isinstance(t1, Var) and isinstance(t2, Var) and t1.name == t2.name:
        return subst
    if isinstance(t1, Var) or isinstance(t2, Var):
        var, term = (t1, t2) if isinstance(t1, Var) else (t2, t1)
        if _occurs_in(var.name, term):
            return None
        binding = {var.name: term}
        return {**{k: substitute(v, binding) for k, v in subst.items()},
                **binding}
    if t1.symbol != t2.symbol or len(t1.args) != len(t2.args):
        return None
    for a, b in zip(t1.args, t2.args):
        subst = robinson_unify(a, b, subst)
        if subst is None:
            return None
    return subst


def matches(pattern, target, subst=None):
    """Whether some substitution turns ``pattern`` into ``target``."""
    subst = {} if subst is None else subst
    if isinstance(pattern, Var):
        return subst.setdefault(pattern.name, target) == target
    return (isinstance(target, App) and pattern.symbol == target.symbol
            and len(pattern.args) == len(target.args)
            and all(matches(a, b, subst)
                    for a, b in zip(pattern.args, target.args)))


def clause_subsumes(c, d):
    """Whether one substitution maps the literals of ``c`` injectively onto
    literals of ``d`` (sequences of literals).

    Brute force over the injective maps; each literal's targets are first
    narrowed to the literals it matches on its own.
    """

    def fits(lit, target, subst):
        return (lit.positive == target.positive
                and lit.predicate == target.predicate
                and len(lit.args) == len(target.args)
                and all(matches(a, b, subst)
                        for a, b in zip(lit.args, target.args)))

    options = [[j for j, target in enumerate(d) if fits(lit, target, {})]
               for lit in c]
    for choice in itertools.product(*options):
        if len(set(choice)) < len(choice):
            continue
        subst = {}
        if all(fits(lit, d[j], subst) for lit, j in zip(c, choice)):
            return True
    return False


def _renames(pattern, target, renaming):
    """Whether ``renaming`` extends, variable to variable, to turn
    ``pattern`` into ``target``."""
    if isinstance(pattern, Var):
        return isinstance(target, Var) \
            and renaming.setdefault(pattern.name, target.name) == target.name
    return (isinstance(target, App) and pattern.symbol == target.symbol
            and len(pattern.args) == len(target.args)
            and all(_renames(a, b, renaming)
                    for a, b in zip(pattern.args, target.args)))


def _is_variant(c, d):
    """Whether a one-to-one renaming of variables maps the literal set of
    ``c`` onto the literal set of ``d``."""
    c, d = list(dict.fromkeys(c)), list(dict.fromkeys(d))

    def extend(i, renaming, free):
        if i == len(c):
            return len(set(renaming.values())) == len(renaming)
        lit = c[i]
        for j in free:
            target = d[j]
            attempt = dict(renaming)
            if (lit.positive == target.positive
                    and lit.predicate == target.predicate
                    and len(lit.args) == len(target.args)
                    and all(_renames(a, b, attempt)
                            for a, b in zip(lit.args, target.args))
                    and extend(i + 1, attempt, free - {j})):
                return True
        return False

    return len(c) == len(d) and extend(0, {}, frozenset(range(len(d))))


def _substituted(literals, subst):
    return [Literal(lit.positive, lit.predicate,
                    tuple(substitute(a, subst) for a in lit.args))
            for lit in literals]


def _renamed_apart(t):
    """``t`` with a name no parsed variable has for each variable."""
    if isinstance(t, Var):
        return Var(t.name + "#")
    return App(t.symbol, tuple(_renamed_apart(a) for a in t.args))


def _unify_literals(l1, l2):
    if l1.predicate != l2.predicate or len(l1.args) != len(l2.args):
        return None
    subst = {}
    for a, b in zip(l1.args, l2.args):
        subst = robinson_unify(a, b, subst)
        if subst is None:
            return None
    return subst


def _resolvents(c1, c2):
    """Every binary resolvent of two literal sequences, ``c2`` renamed
    apart first."""
    c2 = [Literal(lit.positive, lit.predicate,
                  tuple(_renamed_apart(a) for a in lit.args)) for lit in c2]
    out = []
    for i, l1 in enumerate(c1):
        for j, l2 in enumerate(c2):
            if l1.positive == l2.positive:
                continue
            subst = _unify_literals(l1, l2)
            if subst is not None:
                out.append(_substituted(
                    c1[:i] + c1[i + 1:] + c2[:j] + c2[j + 1:], subst))
    return out


def _factors(c):
    """Every clause made by unifying two literals of ``c`` of one sign."""
    out = []
    for i, j in itertools.combinations(range(len(c)), 2):
        if c[i].positive == c[j].positive:
            subst = _unify_literals(c[i], c[j])
            if subst is not None:
                out.append(_substituted(c, subst))
    return out


def _equality_axioms(problem, sig):
    """Reflexivity, symmetry, transitivity and congruence for every symbol
    of the problem's literal sequences, or nothing without ``=``."""
    eq = next((lit.predicate for c in problem for lit in c
               if sig.symbol(lit.predicate).name == "="), None)
    if eq is None:
        return []
    functions, predicates = set(), set()

    def scan(t):
        if isinstance(t, App):
            if t.args:
                functions.add((t.symbol, len(t.args)))
            for a in t.args:
                scan(a)

    for c in problem:
        for lit in c:
            if lit.args and lit.predicate != eq:
                predicates.add((lit.predicate, len(lit.args)))
            for a in lit.args:
                scan(a)
    x, y, z = Var("A"), Var("B"), Var("C")
    axioms = [[Literal(True, eq, (x, x))],
              [Literal(False, eq, (x, y)), Literal(True, eq, (y, x))],
              [Literal(False, eq, (x, y)), Literal(False, eq, (y, z)),
               Literal(True, eq, (x, z))]]
    for symbol, arity in sorted(functions | predicates):
        xs = tuple(Var(f"A{k}") for k in range(arity))
        ys = tuple(Var(f"B{k}") for k in range(arity))
        body = [Literal(False, eq, (a, b)) for a, b in zip(xs, ys)]
        if (symbol, arity) in functions:
            axioms.append(body + [Literal(True, eq, (App(symbol, xs),
                                                     App(symbol, ys)))])
        else:
            axioms.append(body + [Literal(False, symbol, xs),
                                  Literal(True, symbol, ys)])
    return axioms


def proof_step_faults(dag, clauses, empty_clause, problem, sig):
    """The steps of a proof that do not check, as (clause id, reason) pairs.

    ``dag`` maps clause ids to parent ids and ``clauses`` maps them to
    literal sequences; ``problem`` holds the problem's literal sequences.
    Every ancestor of ``empty_clause`` is checked.  A clause without
    parents must be a variant of a problem clause or of an equality axiom
    of the problem's symbols; a clause with one parent, of a binary factor
    of it; one with two, of a binary resolvent of them.  Parents must have
    smaller ids, so the proof is well founded.
    """
    faults = []
    if clauses[empty_clause]:
        faults.append((empty_clause, "not empty"))
    inputs = [list(c) for c in problem] + _equality_axioms(problem, sig)
    seen = set()
    todo = [empty_clause]
    while todo:
        cid = todo.pop()
        if cid in seen:
            continue
        seen.add(cid)
        parents = dag[cid]
        todo.extend(parents)
        derived = clauses[cid]
        if any(parent >= cid for parent in parents):
            faults.append((cid, "a parent is not older"))
        elif len(parents) == 0:
            if not any(_is_variant(derived, c) for c in inputs):
                faults.append((cid, "not an input clause"))
        elif len(parents) == 1:
            if not any(_is_variant(derived, c)
                       for c in _factors(list(clauses[parents[0]]))):
                faults.append((cid, "not a factor of its parent"))
        elif len(parents) == 2:
            if not any(_is_variant(derived, c) for c in _resolvents(
                    list(clauses[parents[0]]), list(clauses[parents[1]]))):
                faults.append((cid, "not a resolvent of its parents"))
        else:
            faults.append((cid, f"{len(parents)} parents"))
    return sorted(faults)


def record_proof_faults(record, problem_text):
    """:func:`proof_step_faults` of a proof-search record's proof, the
    record's clauses parsed beside the problem's."""
    sig = Signature()
    problem = parse_problem(problem_text, sig)
    clauses = {cid: parse_clause_text(text, sig)
               for cid, text in record.clause_texts.items()}
    return proof_step_faults(record.dag, clauses, record.empty_clause,
                             problem, sig)
