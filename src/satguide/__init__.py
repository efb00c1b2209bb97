"""Saturation prover with learned clause-selection guidance.

The pieces, bottom up: ``clauses`` and ``tptp`` define terms, clauses and
the CNF reader; ``features`` encodes clauses as term-walk count vectors;
``svm`` trains the linear classifier; ``guidance`` wraps it (and simpler
heuristics) as clause evaluation functions scheduled round-robin;
``saturation`` is the given-clause prover; ``pipeline`` extracts training
data from proof records and drives grid evaluation and the retrain loop;
``cli`` exposes everything as subcommands.
"""

from .clauses import (
    FrozenSignature, Literal, Signature, Symbol, Term, Var, App,
    clause_len,
)
from .features import (
    EPSILON, FeatureMultiset, FeatureTriple, SparseVector, UnknownSymbol,
    clause_features, feature_index, literal_features, vectorize,
)
from .guidance import (
    CEF, Strategy, baseline_strategy, evaluate, format_strategy, learned_cef,
    parse_strategy,
)
from .pipeline import (
    GridSpec, NoProof, greedy_cover, loop, pool_examples, run_grid,
    train_from_examples,
)
from .saturation import (
    Limits, ProofSearchRecord, factors, prove, resolvents,
    subsumes, unify,
)
from .svm import (
    AccuracyReport, EmptyClass, Model, NonFinite, SolverConfig, accuracy,
    load_model, predict, save_model,
)
from .tptp import ParseError, format_clause, parse_problem, read_problem

__version__ = "0.1.0"
