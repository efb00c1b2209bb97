"""Clause features: directed three-node walks over literal feature trees.

A literal's feature tree is its syntax tree with a polarity marker grafted
above the predicate, every variable relabeled to the variable marker, and
every Skolem function relabeled to the Skolem marker.  The features of the
literal are all parent/child/grandchild label chains in that tree, counted
with multiplicity; a clause's features are the multiset union over its
literals.  Trees too shallow to contain a three-node chain (propositional
atoms) yield a single chain padded with the reserved symbol EPSILON, so no
literal is featureless.  Symbols are labelled through a :class:`SymbolMap`
of their signature into a snapshot: the training signature's own for
training and ``featurize``, the model's for guided proving.  Examples
files are written by :func:`write_examples` and read, from their path, by
:func:`read_examples` alone.
"""

from __future__ import annotations

import sys

from .clauses import (
    FrozenSignature, Literal, NEG_MARKER, POS_MARKER, Signature,
    SymbolMap, Term, VAR_MARKER, Var,
)

# Padding label for walks in trees of depth < 3.  It is never a real symbol
# id; its numeric code is assigned at vectorization time.
EPSILON = -1

EPSILON_DISPLAY = "ε"

FeatureTriple = tuple[int, int, int]
FeatureMultiset = dict[FeatureTriple, int]
# numeric clause encoding: sorted (index, count) pairs, indices >= 1
SparseVector = tuple[tuple[int, int], ...]


class UnknownSymbol(Exception):
    """A feature component is not part of the frozen signature."""


class FormatError(Exception):
    """A data file (examples, model) is malformed."""


def literal_features(lit: Literal, symbols: SymbolMap) -> FeatureMultiset:
    """All three-node directed walks of the literal's feature tree."""
    return clause_features((lit,), symbols)


def clause_features(clause: tuple[Literal, ...],
                    symbols: SymbolMap) -> FeatureMultiset:
    """All three-node directed walks of the clause's literal feature trees,
    counted across its literals, keys in order of first occurrence."""
    counts: FeatureMultiset = {}

    def walk(a: int, b: int, t: Term) -> None:
        if isinstance(t, Var):
            c = VAR_MARKER
            args = ()
        else:
            c = symbols.feature_label(t.symbol)
            args = t.args
        key = (a, b, c)
        counts[key] = counts.get(key, 0) + 1
        for arg in args:
            walk(b, c, arg)

    for lit in clause:
        root = POS_MARKER if lit.positive else NEG_MARKER
        pred = symbols.feature_label(lit.predicate)
        if not lit.args:
            key = (root, pred, EPSILON)
            counts[key] = counts.get(key, 0) + 1
        for arg in lit.args:
            walk(root, pred, arg)
    return counts


def feature_index(triple: FeatureTriple, frozen: FrozenSignature) -> int:
    """Bijective index of a feature triple in [1, (size+1)^3].

    Symbol ids code as themselves, EPSILON codes as ``size``; the index is
    computed by :func:`vectorize`.
    """
    for component in triple:
        if component != EPSILON and not 0 <= component < frozen.size:
            raise UnknownSymbol(f"symbol id {component} is not in the frozen signature")
    ((index, _),) = vectorize({triple: 1}, frozen)
    return index


def vectorize(counts: FeatureMultiset, frozen: FrozenSignature,
              stats: dict | None = None) -> SparseVector:
    """Fixed-index sparse encoding of a feature multiset.

    A triple's index is code1*base^2 + code2*base + code3 + 1 with
    base = size + 1, where symbol ids code as themselves and EPSILON codes
    as ``size``.  Triples naming symbols outside the frozen signature are
    dropped; the drop is tallied in ``stats['dropped_triples']`` when a
    stats dict is given, so signature mismatch is observable.
    """
    base = frozen.base
    size = frozen.size
    entries = []
    dropped = 0
    for (a, b, c), n in counts.items():
        if (a >= size and a != EPSILON) or (b >= size and b != EPSILON) \
                or (c >= size and c != EPSILON):
            dropped += 1
            continue
        index = ((size if a == EPSILON else a) * base
                 + (size if b == EPSILON else b)) * base \
            + (size if c == EPSILON else c) + 1
        entries.append((index, n))
    if dropped and stats is not None:
        stats["dropped_triples"] = stats.get("dropped_triples", 0) + dropped
    entries.sort()
    return tuple(entries)


def format_triple(triple: FeatureTriple, sig: Signature) -> str:
    parts = [EPSILON_DISPLAY if s == EPSILON else sig.display_name(s)
             for s in triple]
    return f"({','.join(parts)})"


def format_multiset(counts: FeatureMultiset, sig: Signature) -> str:
    """Debug rendering, e.g. ``{(⊕,P,⊛) ↦ 1}``."""
    items = ", ".join(f"{format_triple(t, sig)} ↦ {n}"
                      for t, n in counts.items())
    return "{" + items + "}"


def write_examples(fp, rows) -> None:
    """Write ``(vector, label)`` rows in the sparse text format.

    One line per example: ``<label> <idx>:<count> ...`` with label +1/-1 and
    strictly increasing indices.
    """
    for vec, label in rows:
        cells = [("+1" if label > 0 else "-1")]
        cells.extend(f"{i}:{v}" for i, v in vec)
        fp.write(" ".join(cells) + "\n")


def read_examples(path: str, dimension: int):
    """Read the examples file at ``path`` back into (vector, label) pairs.

    Each distinct line is parsed once, and its repeats share that row."""
    rows = []
    parsed: dict[str, tuple] = {}
    with open(path, "r", encoding="utf-8") as fp:
        try:
            for lineno, line in enumerate(fp, start=1):
                line = line.strip()
                if not line:
                    continue
                row = parsed.get(line)
                if row is None:
                    row = parsed[line] = _example_row(line, dimension,
                                                      f"{path}:{lineno}")
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return rows


def _example_row(line: str, dimension: int, where: str):
    """One ``(vector, label)`` row; errors name ``where``, the file and line."""
    cells = line.split()
    if cells[0] == "+1":
        label = 1
    elif cells[0] == "-1":
        label = -1
    else:
        raise FormatError(f"{where}: bad label {cells[0]!r}")
    entries = []
    last = 0
    for cell in cells[1:]:
        try:
            idx_text, val_text = cell.split(":")
            idx, val = int(idx_text), int(val_text)
        except ValueError:
            raise FormatError(f"{where}: bad entry {cell!r}") from None
        if abs(val) > sys.float_info.max:
            raise FormatError(f"{where}: count at index {idx} is too large")
        if idx <= last:
            raise FormatError(f"{where}: indices must be strictly increasing")
        if not 1 <= idx <= dimension:
            raise FormatError(f"{where}: index {idx} outside [1, {dimension}]")
        last = idx
        entries.append((idx, val))
    return tuple(entries), label
