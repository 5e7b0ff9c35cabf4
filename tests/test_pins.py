"""The benchmark's search and command-line pins, checked in tier-1.

perfbench/pins.json pins the value, witness and node count of every
``ex_exact`` task the benchmark runs, the stdout of every command of its
``cli`` workload, and the report of its ``counterexample`` run. A change
that moves a pinned tree or report fails here before a benchmark run
finds it. The file is only read.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from dwturan import cli, ex_exact, graph6_encode, parse_weight
from dwturan.cli import parse_graph_spec

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
TASK = re.compile(r"ex_exact (\S+) n=(\d+) f=(\S+)")
COMMAND = re.compile(r"(cli|cli\.main) (.+)")
# the benchmark's counterexample run, named there by q, t and s only
COUNTEREXAMPLE = ("cli.run counterexample q=3 t=2 s=3",
                  ["--workers", "1", "counterexample", "--q", "3", "--t", "2",
                   "--s", "3", "--f", "staircase:c=0.5,seeds=9,base=1"])


def _pins(pattern: re.Pattern) -> dict:
    with open(PINS) as fh:
        pins = json.load(fh)
    return {name: pin for name, pin in pins.items() if pattern.fullmatch(name)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SEARCH_PINS = _pins(TASK)
COMMAND_PINS = _pins(COMMAND)


def test_every_search_task_is_pinned():
    # six clique tasks (exact-clique) and four pattern tasks (exact-pattern)
    assert len(SEARCH_PINS) == 10


def test_every_command_is_pinned():
    # twelve commands, each run as a fresh process and in process
    assert len(COMMAND_PINS) == 24


@pytest.mark.parametrize("name", sorted(SEARCH_PINS))
def test_search_pin_holds(name):
    spec, n, weight = TASK.fullmatch(name).groups()
    res = ex_exact(int(n), parse_graph_spec(spec), parse_weight(weight), workers=1)
    # formatted as the benchmark digests it: the exact rational, else the float's repr
    value = str(res.value.exact) if res.value.is_exact else repr(res.value.approx)
    assert {"value": value,
            "witness_graph6": graph6_encode(res.witness),
            "nodes": res.nodes_explored} == SEARCH_PINS[name]


@pytest.mark.parametrize("name", sorted(COMMAND_PINS))
def test_command_pin_holds(name, monkeypatch, capsys):
    runner, argv = COMMAND.fullmatch(name).groups()
    if runner == "cli":
        # the fresh process runs with DWTURAN_WORKERS=2
        monkeypatch.setenv("DWTURAN_WORKERS", "2")
    code = cli.main(argv.split(" "))
    assert {"exit": code, "stdout_sha256": _sha(capsys.readouterr().out)} == COMMAND_PINS[name]


def test_counterexample_report_pin_holds():
    name, argv = COUNTEREXAMPLE
    code, report = cli.run(argv)
    with open(PINS) as fh:
        pin = json.load(fh)[name]
    assert {"exit": code, "report_sha256": _sha(json.dumps(report, sort_keys=True))} == pin
