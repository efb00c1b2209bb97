"""Reader and writer for a CNF subset of the TPTP syntax.

Supported input: ``cnf(name, role, ( lit | lit | ... )).`` statements with
``%`` line comments.  Literals are predicate applications ``p(t,...)``, their
negations ``~p(t,...)``, and equalities ``t = s`` / ``t != s``.  Identifiers
starting with an uppercase letter are variables; everything else is a
function or predicate symbol.  ``$false`` stands for the empty clause.
A parsed clause is its tuple of literals, and a problem is the list of its
clauses in file order, so a clause's index is its id.  A problem file is
read in one place, :func:`read_problem`; every malformed problem, whether
its text does not decode, does not parse or uses a symbol at two arities,
is one :class:`ParseError` naming the file.
"""

from __future__ import annotations

import re

from .clauses import (
    App, EQUALITY, KIND_FUNCTION, KIND_PREDICATE, Literal,
    Signature, Term, Var,
)

ACCEPTED_ROLES = ("axiom", "hypothesis", "negated_conjecture")

# Deepest nesting the parser accepts in a literal, its predicate counting
# as one level.  Terms are walked recursively throughout, so much deeper
# input would exhaust the interpreter stack.
MAX_TERM_DEPTH = 200


class ParseError(Exception):
    """Raised on malformed input; the message names file and line."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<neq>!=)
  | (?P<punct>[(),.|~=])
  | (?P<false>\$false)
  | (?P<upper>[A-Z][A-Za-z0-9_]*)
  | (?P<lower>[a-z][A-Za-z0-9_]*)
""", re.VERBOSE)


def _tokenize(text: str, path: str) -> list[tuple[str, str, int]]:
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"{path}:{line}: unexpected character {text[pos]!r}")
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            line += value.count("\n")
        elif kind == "punct" or kind == "neq":
            tokens.append((value, value, line))
        else:
            tokens.append((kind, value, line))
        pos = m.end()
    tokens.append(("eof", "", line))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature, path: str):
        self.tokens = _tokenize(text, path)
        self.sig = sig
        self.path = path
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> str:
        tok_kind, value, line = self.next()
        if tok_kind != kind:
            raise ParseError(
                f"{self.path}:{line}: expected {kind!r}, found {value!r}")
        return value

    def error(self, message: str) -> ParseError:
        _, value, line = self.peek()
        return ParseError(f"{self.path}:{line}: {message} (at {value!r})")

    def intern(self, name: str, arity: int, kind: str, line: int) -> int:
        """Intern a symbol; a clash names the file and line of this use."""
        try:
            return self.sig.intern_symbol(name, arity, kind)
        except ValueError as exc:
            raise ParseError(f"{self.path}:{line}: {exc}") from None

    # raw terms are (name, args-or-None, line) triples; args None marks a
    # variable

    def parse_raw_term(self, depth: int = 1):
        kind, value, line = self.next()
        if kind == "upper":
            return (value, None, line)
        if kind != "lower":
            raise ParseError(
                f"{self.path}:{line}: expected a term, found {value!r}")
        args = []
        if self.peek()[0] == "(":
            if depth == MAX_TERM_DEPTH:
                raise ParseError(f"{self.path}:{line}: term nested deeper "
                                 f"than {MAX_TERM_DEPTH}")
            self.next()
            args.append(self.parse_raw_term(depth + 1))
            while self.peek()[0] == ",":
                self.next()
                args.append(self.parse_raw_term(depth + 1))
            self.expect(")")
        return (value, args, line)

    def to_term(self, raw) -> Term:
        name, args, line = raw
        if args is None:
            return Var(name)
        sym = self.intern(name, len(args), KIND_FUNCTION, line)
        return App(sym, tuple(self.to_term(a) for a in args))

    def parse_literal(self) -> Literal | None:
        negated = False
        if self.peek()[0] == "~":
            self.next()
            negated = True
        if self.peek()[0] == "false":
            if negated:
                raise self.error("negated $false is not supported")
            self.next()
            return None
        raw = self.parse_raw_term()
        op = self.peek()[0]
        if op == "=" or op == "!=":
            self.next()
            rhs = self.parse_raw_term()
            pred = self.intern(EQUALITY, 2, KIND_PREDICATE, raw[2])
            positive = (op == "=") != negated
            return Literal(positive, pred, (self.to_term(raw), self.to_term(rhs)))
        name, args, line = raw
        if args is None:
            raise self.error(f"variable {name!r} cannot be a literal")
        pred = self.intern(name, len(args), KIND_PREDICATE, line)
        return Literal(not negated, pred, tuple(self.to_term(a) for a in args))

    def parse_disjunction(self) -> tuple[Literal, ...]:
        literals = []
        lit = self.parse_literal()
        if lit is None:
            return ()
        literals.append(lit)
        while self.peek()[0] == "|":
            self.next()
            lit = self.parse_literal()
            if lit is None:
                raise self.error("$false may only appear alone")
            literals.append(lit)
        return tuple(literals)

    def parse_formula(self) -> tuple[Literal, ...]:
        if self.peek()[0] == "(":
            self.next()
            literals = self.parse_disjunction()
            self.expect(")")
            return literals
        return self.parse_disjunction()

    def parse_cnf_statement(self) -> tuple[str, str, tuple[Literal, ...]]:
        kind, value, line = self.next()
        if kind != "lower" or value != "cnf":
            raise ParseError(
                f"{self.path}:{line}: expected 'cnf', found {value!r}")
        self.expect("(")
        name = self.expect("lower")
        self.expect(",")
        role = self.expect("lower")
        if role not in ACCEPTED_ROLES:
            raise ParseError(
                f"{self.path}:{line}: unsupported role {role!r} in cnf({name},...)")
        self.expect(",")
        literals = self.parse_formula()
        self.expect(")")
        self.expect(".")
        return name, role, literals


def parse_problem(text: str, sig: Signature,
                  path: str = "<string>") -> list[tuple[Literal, ...]]:
    """Parse a whole problem file into its clauses' literals, in file order."""
    parser = _Parser(text, sig, path)
    clauses = []
    while parser.peek()[0] != "eof":
        _, _, literals = parser.parse_cnf_statement()
        clauses.append(literals)
    return clauses


def read_problem(path: str, sig: Signature) -> list[tuple[Literal, ...]]:
    """Read and parse the problem file at ``path``; text that does not
    decode is a ParseError naming the file, and an OSError propagates."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            text = fp.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return parse_problem(text, sig, path)


def parse_clause_text(text: str, sig: Signature, path: str = "<clause>") -> tuple[Literal, ...]:
    """Parse a bare disjunction such as ``p(X) | ~q(a)`` or ``$false``."""
    parser = _Parser(text, sig, path)
    literals = parser.parse_formula()
    if parser.peek()[0] != "eof":
        raise parser.error("trailing input after clause")
    return literals


def format_term(t: Term, sig: Signature) -> str:
    if isinstance(t, Var):
        return t.name
    name = sig.name_of(t.symbol)
    if not t.args:
        return name
    return f"{name}({','.join(format_term(a, sig) for a in t.args)})"


def format_literal(lit: Literal, sig: Signature) -> str:
    if sig.name_of(lit.predicate) == EQUALITY:
        op = "=" if lit.positive else "!="
        left, right = lit.args
        return f"{format_term(left, sig)} {op} {format_term(right, sig)}"
    atom = f"{sig.name_of(lit.predicate)}"
    if lit.args:
        atom += f"({','.join(format_term(a, sig) for a in lit.args)})"
    return atom if lit.positive else f"~{atom}"


def format_clause(clause: tuple[Literal, ...], sig: Signature) -> str:
    if not clause:
        return "$false"
    return " | ".join(format_literal(lit, sig) for lit in clause)


