"""First-order terms, literals, clauses, and the shared interned signature.

A clause is a tuple of :class:`Literal`, read as their disjunction; the
empty tuple is the empty clause.  Every symbol that appears in a term or
literal is registered in a :class:`Signature`, the symbol table, which
hands out dense, stable integer ids.  Four marker symbols are reserved at
ids 0-3: one standing for all variables, one for all Skolem functions, and
one for each literal polarity.  The featurizer relies on these ids being
fixed.  A :class:`SymbolMap` is the one thing that turns a signature's
symbol ids into feature labels: the ids of a snapshot's table, with Skolem
functions collapsed to their marker.  A name registered again at another
arity or kind is a ValueError; the parser reports it as a ParseError.
"""

from __future__ import annotations

from dataclasses import dataclass

KIND_FUNCTION = "function"
KIND_PREDICATE = "predicate"
KIND_VARIABLE_MARKER = "variable-marker"
KIND_SKOLEM_MARKER = "skolem-marker"
KIND_POS_MARKER = "pos-marker"
KIND_NEG_MARKER = "neg-marker"

# Reserved ids of the marker symbols.
VAR_MARKER = 0
SKOLEM_MARKER = 1
POS_MARKER = 2
NEG_MARKER = 3

DEFAULT_SKOLEM_PREFIXES = ("sko", "esk")

EQUALITY = "="


@dataclass(frozen=True)
class Symbol:
    id: int
    name: str
    arity: int
    kind: str


# The marker symbols, in id order: every symbol table starts with them.
MARKERS = (
    Symbol(VAR_MARKER, "$var", 0, KIND_VARIABLE_MARKER),
    Symbol(SKOLEM_MARKER, "$sko", 0, KIND_SKOLEM_MARKER),
    Symbol(POS_MARKER, "$pos", 0, KIND_POS_MARKER),
    Symbol(NEG_MARKER, "$neg", 0, KIND_NEG_MARKER),
)

# How the marker symbols and the padding slot render in debug output.
MARKER_DISPLAY = {VAR_MARKER: "⊛", SKOLEM_MARKER: "⊙",
                  POS_MARKER: "⊕", NEG_MARKER: "⊖"}


@dataclass(frozen=True)
class FrozenSignature:
    """Immutable snapshot of a signature, taken when a model is trained.

    The feature space of a model is fixed by this snapshot: symbols
    registered later do not get feature indices.  The Skolem prefixes are
    part of it, since they decide which symbols label as the Skolem marker.
    """

    symbols: tuple[Symbol, ...]
    skolem_prefixes: tuple[str, ...] = DEFAULT_SKOLEM_PREFIXES

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def base(self) -> int:
        # one extra slot for the padding symbol
        return len(self.symbols) + 1

    @property
    def dimension(self) -> int:
        return self.base ** 3


class Signature:
    """Append-only symbol table with stable dense ids.

    A signature is single-writer while clauses are being read or generated;
    once frozen into a :class:`FrozenSignature` the snapshot is immutable and
    can be shared freely.  Its Skolem prefixes are not used here; they go
    into the snapshot, where a :class:`SymbolMap` reads them.
    """

    def __init__(self, skolem_prefixes: tuple[str, ...] = DEFAULT_SKOLEM_PREFIXES):
        self.skolem_prefixes = tuple(skolem_prefixes)
        self._symbols: list[Symbol] = []
        self._lookup: dict[str, int] = {}
        for marker in MARKERS:
            self._append(marker.name, marker.arity, marker.kind)

    def _append(self, name: str, arity: int, kind: str) -> int:
        sym_id = len(self._symbols)
        self._symbols.append(Symbol(sym_id, name, arity, kind))
        self._lookup[name] = sym_id
        return sym_id

    @property
    def size(self) -> int:
        return len(self._symbols)

    def intern_symbol(self, name: str, arity: int, kind: str) -> int:
        """Return the id for ``name``, registering it on first sight; a
        name already held at another arity or kind is a ValueError."""
        if not name:
            raise ValueError("symbol name must be nonempty")
        existing = self._lookup.get(name)
        if existing is not None:
            sym = self._symbols[existing]
            if sym.arity != arity or sym.kind != kind:
                raise ValueError(
                    f"symbol {name!r} already registered as {sym.kind}/{sym.arity}, "
                    f"cannot re-register as {kind}/{arity}")
            return existing
        return self._append(name, arity, kind)

    def symbol(self, sym_id: int) -> Symbol:
        return self._symbols[sym_id]

    def name_of(self, sym_id: int) -> str:
        return self._symbols[sym_id].name

    def display_name(self, sym_id: int) -> str:
        """Name used in debug output; markers render as their glyphs."""
        return MARKER_DISPLAY.get(sym_id, self._symbols[sym_id].name)

    def freeze(self) -> FrozenSignature:
        return FrozenSignature(tuple(self._symbols), self.skolem_prefixes)

    @classmethod
    def from_frozen(cls, frozen: FrozenSignature) -> "Signature":
        """A live signature whose ids and Skolem prefixes extend the snapshot."""
        sig = cls(frozen.skolem_prefixes)
        for sym in frozen.symbols[len(MARKERS):]:
            got = sig.intern_symbol(sym.name, sym.arity, sym.kind)
            if got != sym.id:
                raise ValueError(f"snapshot ids are not dense at {sym.name!r}")
        return sig


class SymbolMap:
    """The feature labels that a model's snapshot gives a signature's
    symbols, matched by name, arity and kind.

    This is the one labeller: training and ``featurize`` map a signature
    into its own snapshot, where every symbol keeps its id, and a guided
    search maps the problem's signature into its model's.  A function
    symbol that the snapshot's Skolem prefixes match labels as the Skolem
    marker.  A symbol the snapshot does not know gets its own id past the
    snapshot's end, so vectorizing against the snapshot drops its feature
    triples.  The map covers the symbols registered when it is built.
    """

    def __init__(self, sig: Signature, frozen: FrozenSignature):
        known = {(s.name, s.arity, s.kind): s.id for s in frozen.symbols}
        self._labels = [
            SKOLEM_MARKER if s.kind == KIND_FUNCTION
            and s.name.startswith(frozen.skolem_prefixes)
            else known.get((s.name, s.arity, s.kind), frozen.size + s.id)
            for s in sig._symbols]

    def feature_label(self, sym_id: int) -> int:
        return self._labels[sym_id]


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class App:
    symbol: int
    args: tuple = ()


Term = Var | App


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    predicate: int
    args: tuple = ()


def _symbols(clause: tuple[Literal, ...], var: float):
    """Symbol occurrences in the clause, each variable counting ``var``; a
    literal's predicate counts, its polarity is not a symbol."""

    def term(t: Term):
        if isinstance(t, Var):
            return var
        return 1 + sum(term(a) for a in t.args)

    return sum(1 + sum(term(a) for a in lit.args) for lit in clause)


def clause_len(clause: tuple[Literal, ...]) -> int:
    """Number of symbol occurrences in the clause (its "length")."""
    return _symbols(clause, 1)


def term_depth(t: Term) -> int:
    if isinstance(t, Var) or not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def clause_depth(clause: tuple[Literal, ...]) -> int:
    """A literal's predicate is one level above its arguments; the empty
    clause has depth 0, so that no depth cap discards a proof."""
    depths = [term_depth(a) for lit in clause for a in lit.args]
    return 1 + max(depths, default=0) if clause else 0


def weighted_symbol_count(clause: tuple[Literal, ...]) -> float:
    """Like :func:`clause_len` but variable occurrences count one half."""
    return float(_symbols(clause, 0.5))
