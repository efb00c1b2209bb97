"""Clause evaluation functions and the weighted round-robin strategy.

A strategy is an ordered list of (frequency, CEF) pairs.  Selection step k
uses the CEF whose block contains position k mod (sum of frequencies): the
first CEF runs for its frequency's worth of consecutive picks, then the
next, and so on.  Each CEF ranks unprocessed clauses by its own weight;
lower weights are selected first, and equal weights go to the oldest
clause.  Fifo weighs every clause alike, so it picks in age order.

The learned CEF scores a clause as gamma * len(C) + 1 if the model
classifies it positive, gamma * len(C) + 10 otherwise.  :func:`evaluate`
takes that classification from its caller and does not ask the model.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .clauses import Literal, clause_len, weighted_symbol_count
from .svm import Model, load_model

LEARNED = "Learned"
# weight of a clause's literals under each CEF that needs no model, keyed
# by the CEF's name in strategy strings; Fifo leaves the order to the ties
PLAIN_WEIGHTS = {
    "ClauseLen": lambda clause: float(clause_len(clause)),
    "Fifo": lambda clause: 0.0,
    "SymbolCount": weighted_symbol_count,
}

POSITIVE_WEIGHT = 1.0
NEGATIVE_WEIGHT = 10.0

# Stand-in for the usual hand-tuned prover heuristics: mostly smallest
# clause first, with a FIFO pick every sixth selection.
BASELINE_SPEC = "5*ClauseLen,1*Fifo"


@dataclass(frozen=True)
class CEF:
    # the CEF's name in strategy strings: LEARNED or a PLAIN_WEIGHTS key
    kind: str
    gamma: float = 0.0
    model_path: str = ""
    model: Model | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind != LEARNED and self.kind not in PLAIN_WEIGHTS:
            raise ValueError(f"unknown CEF kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind == LEARNED:
            return f"Learned({self.model_path},gamma={self.gamma!r})"
        return self.kind


@dataclass(frozen=True)
class Strategy:
    entries: tuple[tuple[int, CEF], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a strategy needs at least one CEF")
        if any(freq < 1 for freq, _ in self.entries):
            raise ValueError("frequencies must be >= 1")

    @property
    def cycle_length(self) -> int:
        return sum(freq for freq, _ in self.entries)


def learned_cef(model: Model, gamma: float, model_path: str = "<memory>") -> CEF:
    if not 0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and nonnegative")
    return CEF(LEARNED, gamma, model_path, model)


def next_entry_index(strategy: Strategy, step: int) -> int:
    """Index of the strategy entry that owns selection ``step``."""
    r = step % strategy.cycle_length
    for k, (freq, _) in enumerate(strategy.entries):
        if r < freq:
            return k
        r -= freq
    raise AssertionError("unreachable: cycle position out of range")


def evaluate(clause: tuple[Literal, ...], cef: CEF,
             positive: bool | None = None) -> float:
    """The CEF's weight for a clause; lower means selected earlier.

    A learned CEF needs ``positive``, its model's prediction for the clause.
    """
    if cef.kind != LEARNED:
        return PLAIN_WEIGHTS[cef.kind](clause)
    if not isinstance(positive, bool):
        raise ValueError(f"{cef.name} needs the model's prediction, a bool, "
                         f"not {type(positive).__name__}")
    if positive:
        return cef.gamma * clause_len(clause) + POSITIVE_WEIGHT
    return cef.gamma * clause_len(clause) + NEGATIVE_WEIGHT


_ENTRY_RE = re.compile(r"(\d+)\*(.+)", re.DOTALL)
_LEARNED_RE = re.compile(r"Learned\((.*),gamma=([^,()]+)\)")


def _split_entries(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
    parts.append("".join(current))
    return parts


STRATEGY_GRAMMAR = f"""\
strategy grammar:
  strategy  := "baseline" | entries | entries "+baseline"
  entries   := entry ("," entry)*
  entry     := FREQ "*" cef                  (FREQ a positive integer)
  cef       := {" | ".join(f'"{name}"' for name in PLAIN_WEIGHTS)}
             | "Learned(" PATH ",gamma=" GAMMA ")"
"baseline" stands for {BASELINE_SPEC}; "+baseline" appends those entries.
Each frequency says how many consecutive selections its CEF makes per
round-robin cycle.
"""


def parse_strategy(text: str, model_loader=load_model) -> Strategy:
    """Parse a strategy description string (grammar: STRATEGY_GRAMMAR).

    Model files are loaded once per distinct path.
    """
    spec = text.strip()
    append_baseline = False
    if spec == "baseline":
        spec = BASELINE_SPEC
    elif spec.endswith("+baseline"):
        spec = spec[: -len("+baseline")]
        append_baseline = True
    models: dict[str, Model] = {}
    entries = []
    for part in _split_entries(spec):
        part = part.strip()
        m = _ENTRY_RE.fullmatch(part)
        if m is None:
            raise ValueError(f"bad strategy entry {part!r} (expected FREQ*CEF)")
        freq = int(m.group(1))
        cef_text = m.group(2).strip()
        if cef_text in PLAIN_WEIGHTS:
            cef = CEF(cef_text)
        else:
            lm = _LEARNED_RE.fullmatch(cef_text)
            if lm is None:
                raise ValueError(f"bad CEF {cef_text!r} in strategy")
            path = lm.group(1).strip()
            try:
                gamma = float(lm.group(2))
            except ValueError:
                raise ValueError(f"bad gamma {lm.group(2)!r} in {cef_text!r}") from None
            if path not in models:
                models[path] = model_loader(path)
            cef = learned_cef(models[path], gamma, path)
        entries.append((freq, cef))
    if append_baseline:
        entries.extend(parse_strategy(BASELINE_SPEC).entries)
    return Strategy(tuple(entries))


def format_strategy(strategy: Strategy) -> str:
    """Canonical description string; parse_strategy round-trips it."""
    return ",".join(f"{freq}*{cef.name}" for freq, cef in strategy.entries)


def baseline_strategy() -> Strategy:
    return parse_strategy(BASELINE_SPEC)
