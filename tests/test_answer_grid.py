"""A frozen grid of ex_exact answers: value and witness, no node counts.

Each cell is one (pattern, weight, n) with the optimum and the graph6 of
the witness that ex_exact returned at the commit recorded in
answer_grid.json. A rewrite of the labeled search may change how many
nodes it visits, but not what it answers, so the grid holds no node
counts. An exact value is stored as the string of its Fraction, a float
one as float.hex(), so every bit is compared.

Regenerate, from a checkout with no uncommitted change under src/:

    PYTHONPATH=src python tests/test_answer_grid.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dwturan import ex_exact, graph6_encode, parse_weight
from dwturan.cli import parse_graph_spec

GRID = Path(__file__).with_name("answer_grid.json")

PATTERNS = ["K3", "K4", "C4", "C5", "P4", "P5", "K2,3", "K3s:2", "K1,4"]
WEIGHTS = ["pow:mu=2", "half", "log:floor=0", "pow:mu=0.5", "pow:mu=0"]
# n = 8 runs only the cliques, and not under the constant weight, where
# maximality prunes nothing (K4 alone took minutes)
EIGHT = [(spec, weight) for spec in ("K3", "K4") for weight in WEIGHTS[:4]]


def cells():
    for spec in PATTERNS:
        for weight in WEIGHTS:
            for n in range(1, 8):
                yield spec, weight, n
    for spec, weight in EIGHT:
        yield spec, weight, 8


def answer(spec: str, weight: str, n: int) -> tuple[str, str]:
    """(value, witness graph6) of ex_exact, the value as Fraction text or
    float hex."""
    res = ex_exact(n, parse_graph_spec(spec), parse_weight(weight))
    value = res.value
    text = str(value.exact) if value.is_exact else value.approx.hex()
    return text, graph6_encode(res.witness)


def _source_commit() -> str:
    src = Path(sys.modules["dwturan"].__file__).resolve().parent
    git = ["git", "-C", str(src)]
    if subprocess.run(git + ["status", "--porcelain", "--", "."],
                      capture_output=True, text=True, check=True).stdout:
        raise SystemExit(f"{src} has uncommitted changes; commit them first")
    return subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()


def main():
    head = {"commit": _source_commit(),
            "fields": ["pattern", "weight", "n", "value", "witness"]}
    rows = ",\n".join(json.dumps([spec, weight, n, *answer(spec, weight, n)])
                      for spec, weight, n in cells())
    # one cell per line, so a changed answer shows as a one-line diff
    GRID.write_text(json.dumps(head)[:-1] + ', "cells": [\n' + rows + "\n]}\n")


def _frozen():
    return json.loads(GRID.read_text())["cells"]


def test_grid_covers_every_cell():
    assert [tuple(cell[:3]) for cell in _frozen()] == list(cells())


@pytest.mark.slow
@pytest.mark.parametrize("spec", PATTERNS)
def test_answers_match_the_frozen_grid(spec):
    for _, weight, n, value, witness in (c for c in _frozen() if c[0] == spec):
        assert answer(spec, weight, n) == (value, witness), (weight, n)


if __name__ == "__main__":
    main()
