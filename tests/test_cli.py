"""CLI: report structure, schema validation, determinism, exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import dwturan
from dwturan import cli, complete_graph, cycle_graph, graph6_encode, partitions, weights
from dwturan.graphs import SubgraphMatcher
from dwturan.cli import parse_graph_spec


def run_json(argv):
    code, report = cli.run(["--workers", "1"] + argv)
    return code, report


@pytest.fixture(scope="module")
def schema():
    text = resources.files("dwturan").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


class TestGraphSpec:
    def test_shorthands(self):
        assert parse_graph_spec("K4") == complete_graph(4)
        assert parse_graph_spec("C5") == cycle_graph(5)
        from dwturan import blowup_k3, complete_bipartite, path_graph

        assert parse_graph_spec("K3s:2") == blowup_k3(2)
        assert parse_graph_spec("K2,3") == complete_bipartite(2, 3)
        assert parse_graph_spec("P4") == path_graph(4)

    def test_graph6_fallback(self):
        assert parse_graph_spec("Bw") == complete_graph(3)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_graph_spec("totally-not-a-graph")


class TestCommands:
    def test_exprime(self, schema):
        code, report = run_json(
            ["exprime", "--n", "4", "--k", "2", "--f", "pow:mu=4"])
        assert code == 0
        assert report["result"]["value"] == 84
        assert report["result"]["witness"] == [3, 1]
        assert report["result"]["ties_flag"] is False
        jsonschema.validate(report, schema)

    def test_exact(self, schema):
        code, report = run_json(
            ["exact", "--n", "5", "--forbidden", "K3", "--f", "pow:mu=1"])
        assert code == 0
        assert report["result"]["value"] == 12
        assert report["result"]["nodes"] > 0
        jsonschema.validate(report, schema)

    def test_ratio(self, schema):
        code, report = run_json(
            ["ratio", "--nmin", "4", "--nmax", "5", "--forbidden", "C5",
             "--f", "pow:mu=2"])
        assert code == 0
        rows = report["result"]["rows"]
        assert rows[0] == {"n": 4, "ex": 36, "ex_prime": 16, "ratio": 2.25}
        assert all(r["ratio"] >= 1 for r in rows)
        jsonschema.validate(report, schema)

    def test_majorize(self, schema):
        g6 = graph6_encode(cycle_graph(5))
        code, report = run_json(["majorize", "--graph", g6, "--r", "3"])
        assert code == 0
        assert report["result"]["dominated"] is True
        assert sorted(len(c) for c in report["result"]["classes"]) == [2, 3]
        jsonschema.validate(report, schema)

    def test_normgraph(self, schema):
        code, report = run_json(["normgraph", "--q", "3", "--t", "2"])
        assert code == 0
        res = report["result"]
        assert res["n"] == 9 and res["edges"] == 16
        assert res["degree_histogram"] == {"3": 4, "4": 5}
        assert res["kab_free"] == {"2,2": False, "2,3": True}
        jsonschema.validate(report, schema)

    def test_counterexample(self, schema):
        code, report = run_json(
            ["counterexample", "--q", "3", "--t", "2", "--s", "3",
             "--f", "staircase:c=0.5,seeds=9,base=1"])
        assert code == 0
        res = report["result"]
        assert res["n"] == 18 and res["edges"] == 113
        assert res["side_kab_free"] is True
        assert res["forbidden_free"] is True
        assert res["gap"] == {"value": 36, "bound": 27, "exceeds": True}
        jsonschema.validate(report, schema)

    def test_counterexample_builds_once(self, monkeypatch):
        from dwturan import normgraphs

        calls = {"norm_graph": 0, "kab_free_check": 0, "counterexample_graph": 0}
        for name in calls:
            original = getattr(normgraphs, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(normgraphs, name, counted)
        hosts = []
        exists_in = SubgraphMatcher.exists_in

        def recorded(self, host):
            hosts.append(host.n)
            return exists_in(self, host)

        monkeypatch.setattr(SubgraphMatcher, "exists_in", recorded)
        code, _ = run_json(["counterexample", "--q", "3", "--t", "2", "--s", "3",
                            "--f", "staircase:c=0.5,seeds=9,base=1"])
        assert code == 0
        assert calls == {"norm_graph": 1, "kab_free_check": 1, "counterexample_graph": 1}
        # the blow-up is looked for in one side at a time, never in the whole graph
        assert hosts and set(hosts) == {9}

    def test_counterexample_reach(self):
        # a 338-vertex construction: the direct search for K(5,5,5) in the
        # whole graph already ran past 120 s on the 50-vertex (5, 2, 3) one
        code, report = run_json(["counterexample", "--q", "13", "--t", "2", "--s", "3",
                                 "--f", "staircase:c=0.5,seeds=9,base=1"])
        assert code == 0
        assert report["result"]["n"] == 338
        assert report["result"]["forbidden_free"] is True

    def test_checkf(self, schema):
        code, report = run_json(
            ["checkf", "--f", "staircase:c=0.5,seeds=9,base=1",
             "--range", "1:64", "--growth-c", "0.5"])
        assert code == 0
        res = report["result"]
        assert res["nondecreasing"] is True
        assert res["growth"]["ok"] is False
        assert res["growth"]["first_violation"] == 9
        bad = [row for row in res["growth"]["rows"] if not row["ok"]]
        assert [row["n"] for row in bad] == [9]
        jsonschema.validate(report, schema)

    @pytest.mark.parametrize("argv", [
        # 48/47 == 1 + 1/47 exactly: the row is ok, so the verdict is too
        ["--f", "pow:mu=1", "--range", "47:47", "--growth-c", "1"],
        ["--f", "pow:mu=1", "--range", "1:300", "--growth-c", "1"],
        ["--f", "pow:mu=2", "--range", "1:300", "--growth-c", "0.9"],
        ["--f", "staircase:c=0.5,seeds=9,base=1", "--range", "1:64", "--growth-c", "0.5"],
        ["--f", "staircase:c=0.5,seeds=9;100,base=1", "--range", "1:300",
         "--growth-c", "0.3"],
    ])
    def test_checkf_verdict_matches_rows(self, argv):
        code, report = run_json(["checkf"] + argv)
        assert code == 0
        growth = report["result"]["growth"]
        bad = [row["n"] for row in growth["rows"] if not row["ok"]]
        assert all(row["ok"] == (row["ratio"] <= row["bound"]) for row in growth["rows"])
        assert growth["ok"] == (not bad)
        assert growth["first_violation"] == (bad[0] if bad else None)

    def test_exprime_exact_below_a_climb(self, capsys):
        argv = ["--workers", "1", "exprime", "--n", "101", "--k", "2",
                "--f", "staircase:c=0.5,seeds=100,base=1"]
        assert cli.main(argv) == 0
        assert '"value": 101,' in capsys.readouterr().out

    def test_exprime_float_totals_past_1e7(self):
        # the witness descent matches regrouped sums up to rounding, which
        # at totals past 1e7 is more than any fixed 1e-9
        code, report = run_json(["exprime", "--n", "56", "--k", "3", "--f", "pow:mu=3.3"])
        assert code == 0
        assert report["result"]["witness"] == [19, 19, 18]

    def test_ratio_float_row_at_one(self):
        # the two K5 optima tie up to rounding and print one ulp apart
        code, report = run_json(["ratio", "--nmin", "5", "--nmax", "5",
                                 "--forbidden", "K5", "--f", "pow:mu=1.7"])
        assert code == 0
        assert report["result"]["rows"][0]["ratio"] == pytest.approx(1.0, abs=1e-15)

    def test_checkf_log_continuity(self, schema):
        code, report = run_json(
            ["checkf", "--f", "pow:mu=2", "--range", "1:1000",
             "--eps", "0.21", "--delta", "0.1"])
        assert code == 0
        assert report["result"]["log_continuity"]["ok"] is True
        jsonschema.validate(report, schema)


class TestConfigEmbedding:
    def test_full_config_present(self):
        code, report = run_json(
            ["exprime", "--n", "4", "--k", "2", "--f", "pow:mu=1"])
        cfg = report["config"]
        assert cfg["command"] == "exprime"
        assert cfg["workers"] == 1
        assert cfg["n"] == 4 and cfg["k"] == 2 and cfg["f"] == "pow:mu=1"
        assert cfg["format"] == "json"

    def test_workers_env(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("exprime started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("DWTURAN_WORKERS", "3")
        code, report = cli.run(["exprime", "--n", "4", "--k", "2", "--f", "pow:mu=1"])
        assert code == 0
        assert report["config"]["workers"] == 3
        assert "out" not in report["config"]

    @pytest.mark.parametrize("affinity,cpu_count,workers,nodes", [
        ({0}, 2, 1, 408), ({0, 1}, 1, 2, 515), (None, 2, 2, 515), (None, None, 1, 408),
    ], ids=["one-of-two", "two-pinned", "no-affinity", "no-count"])
    def test_default_workers_are_the_usable_cpus(self, monkeypatch, affinity,
                                                 cpu_count, workers, nodes):
        # no --workers and no DWTURAN_WORKERS: the affinity set, where the OS
        # keeps one, decides, not the machine's core count
        import concurrent.futures

        monkeypatch.delenv("DWTURAN_WORKERS", raising=False)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        # the pool itself is not under test; its subtrees run here in order
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        code, report = cli.run(["exact", "--n", "5", "--forbidden", "K3",
                                "--f", "pow:mu=1"])
        assert code == 0
        assert report["config"]["workers"] == workers
        assert report["result"]["nodes"] == nodes
        assert report["result"]["witness_graph6"] == "DFw"

    def test_threads_alias(self):
        code, report = cli.run(
            ["--threads", "2", "exact", "--n", "4", "--forbidden", "K3",
             "--f", "pow:mu=1"])
        assert code == 0
        assert report["config"]["workers"] == 2
        assert report["result"]["value"] == 8


class _InlinePool:
    """Stands in for ProcessPoolExecutor: maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestExitCodes:
    def test_unknown_command(self):
        code, _ = cli.run(["frobnicate"])
        assert code == 2

    def test_bad_weight_spec(self):
        code, report = run_json(
            ["exprime", "--n", "4", "--k", "2", "--f", "pow:nu=1"])
        assert code == 2
        assert report["kind"] == "input"

    @pytest.mark.parametrize("argv", [
        ["exprime", "--n", "5", "--k", "2", "--f", "pow:mu=1e300"],
        ["exprime", "--n", "5", "--k", "2", "--f", "pow:mu=nan"],
        ["exprime", "--n", "5", "--k", "2", "--f", "log:floor=nan"],
        ["exact", "--n", "4", "--forbidden", "K3", "--f", "log:floor=nan"],
        ["exprime", "--n", "5", "--k", "2", "--f", "log:floor=-inf"],
    ])
    def test_weight_parameter_not_finite_or_too_large(self, argv):
        code, report = run_json(argv)
        assert code == 2
        assert report["kind"] == "input"
        assert ("mu" if "pow" in argv[-1] else "floor") in report["error"]

    def test_malformed_graph6(self):
        code, report = run_json(
            ["exact", "--n", "4", "--forbidden", "zzz~", "--f", "half"])
        assert code == 2

    def test_bipartite_ratio_rejected(self):
        code, report = run_json(
            ["ratio", "--nmin", "3", "--nmax", "4", "--forbidden", "K2,2",
             "--f", "half"])
        assert code == 2
        assert "non-bipartite" in report["error"]

    def test_empty_ratio_range(self):
        code, report = run_json(
            ["ratio", "--nmin", "6", "--nmax", "4", "--forbidden", "C5",
             "--f", "pow:mu=2"])
        assert code == 2
        assert report["kind"] == "input"
        assert "--nmin 6" in report["error"] and "--nmax 4" in report["error"]

    def test_negative_scan_range(self):
        # weights take degrees; a step table has no level below its first jump
        code, report = run_json(["checkf", "--f", "step:0:1;5:3", "--range=-3:6"])
        assert code == 2
        assert report["kind"] == "input"
        assert "'-3:6'" in report["error"] and "below 0" in report["error"]

    def test_over_limit(self):
        code, report = run_json(
            ["exact", "--n", "12", "--forbidden", "K3", "--f", "half"])
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_worker_count_below_one(self, count):
        code, report = cli.run(["--workers", count, "exprime", "--n", "4",
                                "--k", "2", "--f", "pow:mu=1"])
        assert code == 2
        assert report["error"] == "worker count must be >= 1"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_worker_env_below_one(self, monkeypatch, count):
        # the environment variable is held to the same rule as --workers
        monkeypatch.setenv("DWTURAN_WORKERS", count)
        code, report = cli.run(["exprime", "--n", "4", "--k", "2",
                                "--f", "pow:mu=1"])
        assert code == 2
        assert report["error"] == "worker count must be >= 1"

    def test_worker_env_not_a_number(self, monkeypatch):
        monkeypatch.setenv("DWTURAN_WORKERS", "abc")
        code, report = cli.run(["exprime", "--n", "4", "--k", "2",
                                "--f", "pow:mu=1"])
        assert code == 2
        assert report["kind"] == "input"
        assert "DWTURAN_WORKERS" in report["error"] and "'abc'" in report["error"]

    def test_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        argv = ["--workers", "1", "--out", str(target), "exprime", "--n", "4",
                "--k", "2", "--f", "pow:mu=1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["kind"] == "input"
        assert str(target) in report["error"]
        assert not target.exists()

    def test_gate_refuses_343_vertex_side(self):
        # the K_{3,3} gate answers within the scan budget and refuses
        code, report = run_json(
            ["counterexample", "--q", "7", "--t", "3", "--s", "3",
             "--f", "half"])
        assert code == 2
        assert "contains a K_{3,3}" in report["error"]

    def test_refused_construction(self):
        code, report = run_json(
            ["counterexample", "--q", "3", "--t", "2", "--s", "2",
             "--f", "half"])
        assert code == 2
        assert "K_{2,2}" in report["error"]

    @pytest.mark.parametrize("extra, name", [
        (["--growth-c", "nan"], "exponent c"),
        (["--growth-c", "inf"], "exponent c"),
        (["--eps", "nan", "--delta", "nan"], "eps"),
        (["--eps", "1", "--delta", "nan"], "delta"),
        (["--eps", "inf", "--delta", "0.5"], "eps"),
        (["--eps", "1", "--delta", "inf"], "delta"),
    ])
    def test_checkf_parameter_not_finite(self, monkeypatch, extra, name):
        # a NaN or infinite parameter would print as NaN or Infinity, which
        # is not JSON; it is refused before any scan
        def no_scan(*args):
            raise AssertionError("scanned before the parameter check")

        monkeypatch.setattr(weights, "is_nondecreasing", no_scan)
        code, report = run_json(["checkf", "--f", "pow:mu=2", "--range", "1:4"] + extra)
        assert code == 2
        assert report["kind"] == "input"
        assert report["error"].startswith(f"{name} must be finite and positive")

    @pytest.mark.parametrize("scan", [
        ["--range", "1:100000000000"],
        ["--range", f"0:{cli.CHECKF_MAX_POINTS}"],
        ["--range", "1:60000", "--eps", "1", "--delta", "1"],
        ["--range", "1:4", "--eps", "1", "--delta", "1e300"],
    ])
    def test_checkf_range_over_budget(self, monkeypatch, scan):
        def no_scan(*args):
            raise AssertionError("scanned before the budget check")

        monkeypatch.setattr(weights, "is_nondecreasing", no_scan)
        code, report = run_json(["checkf", "--f", "pow:mu=2"] + scan)
        assert code == 2
        assert report["kind"] == "input"
        assert f"no more than {cli.CHECKF_MAX_POINTS} degrees" in report["error"]

    def test_checkf_bad_exponent_refused_before_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned before the exponent check")

        monkeypatch.setattr(weights, "is_nondecreasing", no_scan)
        code, report = run_json(["checkf", "--f", "pow:mu=2", "--range", "1:4",
                                 "--growth-c", "nan"])
        assert code == 2
        assert report["error"].startswith("exponent c must be finite and positive")

    def test_exprime_parts_over_budget(self, monkeypatch):
        def no_dp(*args):
            raise AssertionError("ran the DP before the budget check")

        monkeypatch.setattr(partitions, "ex_prime", no_dp)
        code, report = run_json(["exprime", "--n", "5", "--k", str(cli.EXPRIME_MAX_K + 1),
                                 "--f", "pow:mu=2"])
        assert code == 2
        assert report["kind"] == "input"
        assert f"no more than {cli.EXPRIME_MAX_K} parts" in report["error"]

    def test_exprime_parts_at_budget(self):
        code, report = run_json(["exprime", "--n", "5", "--k", str(cli.EXPRIME_MAX_K),
                                 "--f", "pow:mu=2"])
        assert code == 0
        witness = report["result"]["witness"]
        assert len(witness) == cli.EXPRIME_MAX_K
        assert witness[:6] == [1, 1, 1, 1, 1, 0]

    def test_checkf_range_at_budget(self):
        code, report = run_json(["checkf", "--f", "pow:mu=2", "--range",
                                 f"1:{cli.CHECKF_MAX_POINTS}"])
        assert code == 0
        assert report["result"]["nondecreasing"] is True

    def test_growth_scan_rejects_zero_weight(self):
        code, report = run_json(
            ["checkf", "--f", "step:0:0;5:1", "--range", "1:10",
             "--growth-c", "0.5"])
        assert code == 2
        assert "not positive" in report["error"]


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ["--workers", "1", "exprime", "--n", "6", "--k", "3",
                "--f", "pow:mu=2"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

    def test_csv_ratio(self, capsys):
        argv = ["--workers", "1", "--format", "csv", "ratio", "--nmin", "4",
                "--nmax", "5", "--forbidden", "C5", "--f", "pow:mu=2"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "n,ex,ex_prime,ratio"
        assert lines[1].startswith("4,36,16,")

    def test_csv_growth_rows(self, capsys):
        argv = ["--workers", "1", "--format", "csv", "checkf", "--f", "pow:mu=1",
                "--range", "1:3", "--growth-c", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "n,ratio,bound,ok\n"
            "1,2.0,2.0,True\n"
            "2,1.5,1.5,True\n"
            "3,1.3333333333333333,1.3333333333333333,True\n"
        )

    def test_csv_key_value(self, capsys):
        argv = ["--workers", "1", "--format", "csv", "exprime", "--n", "4",
                "--k", "2", "--f", "pow:mu=1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "key,value\n"
            "ties_flag,false\n"
            "value,8\n"
            'witness,"[2, 2]"\n'
        )

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        argv = ["--workers", "1", "--out", str(target), "exprime", "--n", "4",
                "--k", "2", "--f", "pow:mu=4"]
        assert cli.main(argv) == 0
        data = json.loads(target.read_text())
        assert data["result"]["value"] == 84


# runs cli.main in a fresh interpreter, pinned to the CPUs listed in its
# first argument (JSON; null leaves it unpinned), and reports its stdout and
# what it left in sys.modules
_FOOTPRINT = """
import contextlib, io, json, os, sys
cpus = json.loads(sys.argv[1])
if cpus is not None:
    os.sched_setaffinity(0, cpus)
from dwturan import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[2:])
print(json.dumps({
    "code": code,
    "layers": sorted(m for m in sys.modules if m.startswith("dwturan.")),
    "pool": "concurrent.futures" in sys.modules,
    # dataclasses imports inspect, which imports ast, dis and tokenize
    "slow_imports": [m for m in ("dataclasses", "inspect") if m in sys.modules],
    "stdout": out.getvalue(),
}))
"""
_SRC = os.path.dirname(os.path.dirname(dwturan.__file__))


def _pin_cpus(count):
    """The first count CPUs this process may run on; skips the test if fewer."""
    usable = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(usable) < count:
        pytest.skip(f"needs {count} usable CPUs to pin a child to")
    return usable[:count]


_EXACT_TWO_WORKERS = ["--workers", "2", "exact", "--n", "4", "--forbidden", "K3",
                      "--f", "pow:mu=1"]


def _fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestImportFootprint:
    """A command loads only the layers it runs, and the pool module only for a
    pool, which needs more than one usable CPU. Children that can start a pool
    pin their own CPUs, so the runner's affinity does not decide the outcome."""

    @pytest.mark.parametrize("argv, layers, pool, cpus", [
        (["checkf", "--f", "pow:mu=1", "--range", "1:5"], {"weights"}, False, None),
        (["exprime", "--n", "4", "--k", "2", "--f", "pow:mu=1"],
         {"weights", "graphs", "partitions"}, False, None),
        (["normgraph", "--q", "3", "--t", "2"], {"weights", "graphs", "normgraphs"},
         False, None),
        (["counterexample", "--q", "3", "--t", "2", "--s", "3",
          "--f", "staircase:c=0.5,seeds=9,base=1"],
         {"weights", "graphs", "normgraphs"}, False, None),
        (["majorize", "--graph", "Dhc", "--r", "3"],
         {"weights", "graphs", "partitions", "majorize"}, False, None),
        (["exact", "--n", "4", "--forbidden", "K3", "--f", "pow:mu=1"],
         {"weights", "graphs", "partitions", "search"}, False, None),
        (["ratio", "--nmin", "3", "--nmax", "4", "--forbidden", "K3", "--f", "pow:mu=1"],
         {"weights", "graphs", "partitions", "search"}, False, None),
        (_EXACT_TWO_WORKERS, {"weights", "graphs", "partitions", "search"}, True, 2),
        (_EXACT_TWO_WORKERS, {"weights", "graphs", "partitions", "search"}, False, 1),
    ], ids=["checkf", "exprime", "normgraph", "counterexample", "majorize", "exact",
            "ratio", "exact-pool", "exact-one-cpu"])
    def test_command_loads_its_layers(self, argv, layers, pool, cpus):
        if argv[0] != "--workers":
            argv = ["--workers", "1"] + argv
        pin = None if cpus is None else _pin_cpus(cpus)
        seen = _fresh_python("-c", _FOOTPRINT, json.dumps(pin), *argv)
        assert seen["code"] == 0
        assert seen["layers"] == sorted(
            {"dwturan.cli", "dwturan.errors"} | {f"dwturan.{m}" for m in layers})
        assert seen["pool"] is pool
        assert seen["slow_imports"] == []

    def test_one_cpu_prints_the_pool_report(self):
        pooled = _fresh_python("-c", _FOOTPRINT, json.dumps(_pin_cpus(2)),
                               *_EXACT_TWO_WORKERS)
        alone = _fresh_python("-c", _FOOTPRINT, json.dumps(_pin_cpus(1)),
                              *_EXACT_TWO_WORKERS)
        assert (pooled["pool"], alone["pool"]) == (True, False)
        assert alone["stdout"] == pooled["stdout"]

    def test_package_import_loads_no_layer(self):
        seen = _fresh_python("-c", "import dwturan, json, sys; print(json.dumps("
                             "[m for m in sys.modules if m.startswith('dwturan')]))")
        assert seen == ["dwturan"]

    def test_package_import_loads_neither_dataclasses_nor_inspect(self):
        seen = _fresh_python("-c", "import dwturan, json, sys; print(json.dumps("
                             "[m for m in ('dataclasses', 'inspect') if m in sys.modules]))")
        assert seen == []
