"""Correctness checks on proof-search records, independent of satguide code.

Records are checked in their JSON form (``proof-search-record v1``), so a
bug in the program's own record classes cannot hide a bad record.
"""

from __future__ import annotations

import hashlib
import json

from hardtier import SATISFIABLE, THEOREM

# Record fields that define the search; a digest over them changes when the
# prover's behaviour does, and not when a record only gains new keys.
DIGEST_FIELDS = ("strategy", "outcome", "empty_clause", "given_sequence",
                 "dag", "clauses")
DIGEST_STATS = ("generated", "processed", "kept", "subsumed", "discarded",
                "tautologies", "equality_axioms")


def verdict_errors(record: dict, status: str) -> list[str]:
    """A proof of a satisfiable problem, or saturation of a theorem with
    nothing discarded by the size limits, is a wrong verdict."""
    outcome = record["outcome"]
    if outcome == "proof_found" and status == SATISFIABLE:
        return ["proof_found on a satisfiable problem"]
    if outcome == "saturated" and status == THEOREM \
            and int(record["stats"]["discarded"]) == 0:
        return ["saturated on a theorem with discarded == 0"]
    return []


def dag_errors(record: dict) -> list[str]:
    """Every parent exists and has a smaller id; a proof reaches ``$false``."""
    dag = {int(cid): [int(p) for p in parents]
           for cid, parents in record["dag"].items()}
    errors = []
    for cid, parents in dag.items():
        for parent in parents:
            if parent not in dag:
                errors.append(f"clause {cid} has missing parent {parent}")
            elif parent >= cid:
                errors.append(f"clause {cid} has parent {parent} with a larger id")
    for cid in record["given_sequence"]:
        if int(cid) not in dag:
            errors.append(f"given clause {cid} is not in the DAG")
    if record["outcome"] == "proof_found":
        empty = record["empty_clause"]
        if empty is None or int(empty) not in dag:
            errors.append("proof without an empty clause in the DAG")
        elif record["clauses"].get(str(empty)) != "$false":
            errors.append(f"empty clause {empty} is printed as "
                          f"{record['clauses'].get(str(empty))!r}")
    return errors


def ancestors(record: dict) -> set[int]:
    """Ids reachable backwards from the empty clause."""
    empty = record["empty_clause"]
    if empty is None:
        return set()
    dag = record["dag"]
    seen = {int(empty)}
    stack = [int(empty)]
    while stack:
        for parent in dag[str(stack.pop())]:
            if int(parent) not in seen:
                seen.add(int(parent))
                stack.append(int(parent))
    return seen


def example_counts(record: dict) -> tuple[int, int]:
    """(positives, negatives) that extraction must produce from a proof."""
    proof = ancestors(record)
    pos = sum(1 for cid in record["given_sequence"] if int(cid) in proof)
    return pos, len(record["given_sequence"]) - pos


def record_digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        core = {key: record[key] for key in DIGEST_FIELDS}
        core["stats"] = {key: int(record["stats"][key]) for key in DIGEST_STATS}
        h.update(json.dumps(core, sort_keys=True).encode())
    return h.hexdigest()


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()
