"""Independent reference implementations used only to check the real ones.

Nothing here shares code with the solver or prover under test: the SVM
oracle minimizes the primal objective directly (active-set Newton steps
with a gradient-descent fallback), and the entailment oracle grounds
clauses over a finite universe and enumerates truth assignments.  The one
exception is :func:`numpy_dcd_reference`, the earlier numpy form of the
dual coordinate-descent solver, which shares only the solver's result and
error types; it pins the plain-Python loop to the same arithmetic.  The
feature tree builds each literal's tree explicitly and shares only the
signature's symbol labels with the featurizer.  The unifier is the
textbook recursive Robinson algorithm over the term classes alone.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from satguide.clauses import App, NEG_MARKER, POS_MARKER, VAR_MARKER, Var
from satguide.svm import NonFinite, SolverInfo

_PG_FLOOR = 1e-12


def svm_primal_value(w, x_rows, y, c):
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
    """The numpy dual coordinate descent that ``solve_l2svm`` replaced.

    Same signature and result.  Each step makes numpy calls on the row's
    few entries, and ``@`` goes to the BLAS ``ddot``.

    Stops when the largest projected-gradient violation seen in an epoch
    drops below the tolerance, or after ``max_epochs`` epochs.  Example
    order is reshuffled each epoch from the configured seed.
    """
    n = len(vectors)
    d_diag = 1.0 / (2.0 * cfg.c)
    idxs = []
    vals = []
    qdiag = np.empty(n)
    for k, vec in enumerate(vectors):
        idx = np.array([i - 1 for i, _ in vec], dtype=np.intp)
        val = np.array([v for _, v in vec], dtype=np.float64)
        idxs.append(idx)
        vals.append(val)
        qdiag[k] = float(val @ val) + d_diag
        if not np.isfinite(val).all() or not np.isfinite(qdiag[k]):
            raise NonFinite(f"example {k} has non-finite or overflowing "
                            "feature values; rescale the input")
    y = np.array(labels, dtype=np.float64)

    w = np.zeros(dimension)
    alpha = np.zeros(n)
    rng = np.random.default_rng(cfg.seed)
    duals = [0.0]
    converged = False
    violation = float("inf")
    epochs = 0
    for _ in range(cfg.max_epochs):
        violation = 0.0
        for i in rng.permutation(n):
            xi, vi = idxs[i], vals[i]
            g = y[i] * float(w[xi] @ vi) - 1.0 + d_diag * alpha[i]
            pg = min(g, 0.0) if alpha[i] == 0.0 else g
            if abs(pg) > violation:
                violation = abs(pg)
            if abs(pg) > _PG_FLOOR:
                old = alpha[i]
                new = old - g / qdiag[i]
                if new < 0.0:
                    new = 0.0
                alpha[i] = new
                if new != old:
                    w[xi] += (new - old) * y[i] * vi
        epochs += 1
        dual = float(alpha.sum()) - 0.5 * float(w @ w) \
            - 0.5 * d_diag * float(alpha @ alpha)
        duals.append(dual)
        if not np.isfinite(dual):
            raise NonFinite("dual objective diverged; rescale the input")
        if violation < cfg.tolerance:
            converged = True
            break
    if not np.isfinite(w).all():
        raise NonFinite("weight vector contains non-finite values")
    return w, SolverInfo(epochs, float(violation), converged, duals)


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


def _term_node(t, sig):
    if isinstance(t, Var):
        return FeatureNode(VAR_MARKER)
    label = sig.feature_label(t.symbol)
    return FeatureNode(label, tuple(_term_node(a, sig) for a in t.args))


def feature_tree(lit, sig):
    """The literal's syntax tree with polarity root and relabeled leaves.

    Built as an explicit tree, so its walks check the direct walk in
    ``features.literal_features``; only the symbol labels come from the
    signature.
    """
    root = POS_MARKER if lit.positive else NEG_MARKER
    pred = FeatureNode(sig.feature_label(lit.predicate),
                       tuple(_term_node(a, sig) for a in lit.args))
    return FeatureNode(root, (pred,))


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
    for lit in clause.literals:
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
                               for lit in clause.literals))
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
        for lit in c.literals:
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
        for lit in c.literals:
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
