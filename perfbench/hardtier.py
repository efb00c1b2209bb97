"""Seeded generator of the hard problem tier used by the ``hard-prove`` workload.

The three family rules below were fixed before the tier was ever timed and
are not tuned to prover results.  A seed only picks among the choices each
rule allows.  What one tier holds was settled after a first timing, for
steadiness and not for prover results: the four group problems, two
``chain`` problems and one ``sat`` problem, so every seed yields a tier of
the same shape.  Group problems are the majority on purpose.  They cost ten
times more than the others, and with fewer cheap than expensive attempts
the median attempt time falls inside the group cluster instead of in the
gap between the two clusters, where it would jump from seed to seed.

``group`` (status ``theorem``)
    The three group axioms over one binary operation, one unary inverse
    and one identity constant: left identity ``m(u,X) = X``, left inverse
    ``m(i(X),X) = u`` and associativity.  The negated goal is one of four
    group theorems about a constant ``a``: right identity, right inverse,
    double inverse, or cancellation of ``m(a,a) = a`` to ``a = u``.  The
    prover adds the equality axioms itself.  Under a processed-clause cap
    these run out of resources, and forward subsumption dominates their
    cost.  Every tier holds each of the four goals once; the seed does not
    pick among them, because their costs differ by a factor of three and a
    seeded pick would swing the cost of a whole tier from seed to seed.

``chain`` (status ``theorem``)
    An implication chain ``p0 -> p1 -> ... -> pm`` (m from 4 to 7) applied
    to a subject nested two or three functions deep, such as
    ``f1(f0(c))``.  It is buried under 2-literal decoy rules over decoy
    predicates.  Half the decoy rules wrap their argument in a decoy
    function, so decoys breed ever deeper terms until the depth limit.
    Cross rules feed chain facts into the decoys.  Decoys come first in
    the file and the goal ``~pm(subject)`` comes last.

``sat`` (status ``satisfiable``)
    A ``chain`` problem with one chain rule removed.  Decoy and cross
    rules never conclude a chain predicate, so the goal's atom is not
    derivable and the clause set has a model.  A proof here is unsound.

Every problem carries its status in a ``% status:`` header line and in
the :class:`HardProblem` tuple.
"""

from __future__ import annotations

import random
from typing import NamedTuple

THEOREM = "theorem"
SATISFIABLE = "satisfiable"

# How many seeded problems of each chain family one tier holds, next to
# one group problem per goal.
CHAIN_SHAPE = (("chain", 2), ("sat", 1))

GROUP_GOALS = (
    ("right_identity", ["cnf(goal, negated_conjecture, (m(a,u) != a))."]),
    ("right_inverse", ["cnf(goal, negated_conjecture, (m(a,i(a)) != u))."]),
    ("double_inverse", ["cnf(goal, negated_conjecture, (i(i(a)) != a))."]),
    ("idempotent_is_identity", [
        "cnf(idempotent, hypothesis, (m(a,a) = a)).",
        "cnf(goal, negated_conjecture, (a != u)).",
    ]),
)

DECOY_PREDICATES = 6
DECOY_RULES = 8
DECOY_SEEDS = 3
CROSS_RULES = 2


class HardProblem(NamedTuple):
    name: str
    family: str
    status: str
    text: str


def group_problem(goal_name: str, goal_lines: list[str]) -> str:
    lines = [
        f"% group theory: {goal_name}",
        f"% status: {THEOREM}",
        "cnf(left_identity, axiom, (m(u,X) = X)).",
        "cnf(left_inverse, axiom, (m(i(X),X) = u)).",
        "cnf(associativity, axiom, (m(m(X,Y),Z) = m(X,m(Y,Z)))).",
        *goal_lines,
    ]
    return "\n".join(lines) + "\n"


def chain_problem(rng: random.Random, satisfiable: bool) -> str:
    m = rng.randint(4, 7)
    depth = rng.randint(2, 3)
    subject = "c"
    for k in range(depth):
        subject = f"f{k}({subject})"
    gap = rng.randrange(m) if satisfiable else None
    status = SATISFIABLE if satisfiable else THEOREM
    lines = [f"% implication chain of length {m} over {subject}"
             + (f", rule {gap} removed" if satisfiable else ""),
             f"% status: {status}"]
    for s in range(DECOY_SEEDS):
        lines.append(f"cnf(decoy_seed_{s}, axiom, "
                     f"(d{rng.randrange(DECOY_PREDICATES)}(k{s}))).")
    for r in range(DECOY_RULES):
        src = rng.randrange(DECOY_PREDICATES)
        dst = rng.randrange(DECOY_PREDICATES)
        arg = "g(X)" if r % 2 == 0 else "X"
        lines.append(f"cnf(decoy_rule_{r}, axiom, (~d{src}(X) | d{dst}({arg}))).")
    for r in range(CROSS_RULES):
        lines.append(f"cnf(cross_{r}, axiom, "
                     f"(~p{rng.randrange(m)}(X) | d{rng.randrange(DECOY_PREDICATES)}(X))).")
    lines.append(f"cnf(chain_start, axiom, (p0({subject}))).")
    for i in range(m):
        if i != gap:
            lines.append(f"cnf(chain_rule_{i}, axiom, (~p{i}(X) | p{i + 1}(X))).")
    lines.append(f"cnf(goal, negated_conjecture, (~p{m}({subject}))).")
    return "\n".join(lines) + "\n"


def generate(seed: int) -> list[HardProblem]:
    """The hard tier for ``seed``; the same seed gives the same problems."""
    rng = random.Random(seed)
    problems = [HardProblem(f"group{k}", "group", THEOREM, group_problem(*goal))
                for k, goal in enumerate(GROUP_GOALS)]
    for family, count in CHAIN_SHAPE:
        sat = family == "sat"
        for k in range(count):
            problems.append(HardProblem(
                f"{family}{k}", family, SATISFIABLE if sat else THEOREM,
                chain_problem(rng, satisfiable=sat)))
    return problems
