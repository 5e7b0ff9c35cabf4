"""The benchmark's search pins, checked in tier-1.

perfbench/pins.json pins the value, witness and node count of every
``ex_exact`` task the benchmark runs. A change that moves a pinned tree
fails here before a benchmark run finds it. The file is only read.
"""

import json
import re
from pathlib import Path

import pytest

from dwturan import ex_exact, graph6_encode, parse_weight
from dwturan.cli import parse_graph_spec

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
TASK = re.compile(r"ex_exact (\S+) n=(\d+) f=(\S+)")


def _search_pins() -> dict:
    with open(PINS) as fh:
        pins = json.load(fh)
    return {name: pin for name, pin in pins.items() if TASK.fullmatch(name)}


SEARCH_PINS = _search_pins()


def test_every_search_task_is_pinned():
    # six clique tasks (exact-clique) and four pattern tasks (exact-pattern)
    assert len(SEARCH_PINS) == 10


@pytest.mark.parametrize("name", sorted(SEARCH_PINS))
def test_search_pin_holds(name):
    spec, n, weight = TASK.fullmatch(name).groups()
    res = ex_exact(int(n), parse_graph_spec(spec), parse_weight(weight), workers=1)
    # formatted as the benchmark digests it: the exact rational, else the float's repr
    value = str(res.value.exact) if res.value.is_exact else repr(res.value.approx)
    assert {"value": value,
            "witness_graph6": graph6_encode(res.witness),
            "nodes": res.nodes_explored} == SEARCH_PINS[name]
