"""CLI: report structure, schema validation, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import dwturan
import dwturan.graphs
from dwturan import (
    Graph,
    cli,
    complete_graph,
    cycle_graph,
    graph6_encode,
    partitions,
    search,
    weights,
)
from dwturan.cli import parse_graph_spec
from test_graphs import dense_random_graph


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

    def test_majorize_refuses_a_clique(self):
        # graph6 input carries no clique-freeness hint, so the gate runs
        code, report = run_json(["majorize", "--graph", graph6_encode(complete_graph(4)),
                                 "--r", "4"])
        assert code == 2
        assert "clique of size 4" in report["error"]

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
        scan = normgraphs._multipartite_scan

        def recorded(host, *args):
            hosts.append(host)
            return scan(host, *args)

        monkeypatch.setattr(normgraphs, "_multipartite_scan", recorded)
        code, _ = run_json(["counterexample", "--q", "3", "--t", "2", "--s", "3",
                            "--f", "staircase:c=0.5,seeds=9,base=1"])
        assert code == 0
        assert calls == {"norm_graph": 1, "kab_free_check": 1, "counterexample_graph": 1}
        # the gate and the blow-up check scan the one side graph that was
        # built, orbit representatives kept, never the whole graph
        assert len(hosts) == 2 and hosts[0] is hosts[1]
        assert hosts[0].n == 9 and hosts[0].orbit_reps is not None

    def test_counterexample_reach(self):
        # a 338-vertex construction: the direct search for K(5,5,5) in the
        # whole graph already ran past 120 s on the 50-vertex (5, 2, 3) one
        code, report = run_json(["counterexample", "--q", "13", "--t", "2", "--s", "3",
                                 "--f", "staircase:c=0.5,seeds=9,base=1"])
        assert code == 0
        assert report["result"]["n"] == 338
        assert report["result"]["forbidden_free"] is True

    @pytest.mark.parametrize("q,t,s", [(5, 3, 4), (7, 3, 4), (7, 3, 7)])
    def test_counterexample_on_t3_sides(self, q, t, s):
        # the K_{s,s} gate passes on these sides, and the K(s+2, s+2, s+2)
        # check scans from the orbit representatives within seconds
        start = time.perf_counter()
        code, report = run_json(["counterexample", "--q", str(q), "--t", str(t),
                                 "--s", str(s), "--f", "half"])
        assert time.perf_counter() - start < 10
        assert code == 0
        assert report["result"]["n"] == 2 * q ** t
        assert report["result"]["forbidden_free"] is True

    @pytest.mark.parametrize("q,t,checks", [
        (7, 3, {"3,3": False, "3,7": True}),
        (5, 4, {"4,4": False, "4,25": True}),
    ])
    def test_normgraph_past_the_plain_scan(self, schema, q, t, checks):
        # the K_{t,t!+1} scan from every vertex runs past the 5e6-set
        # budget; from one vertex per orbit of x -> u*x, N(u) = 1, it fits
        code, report = run_json(["normgraph", "--q", str(q), "--t", str(t)])
        assert code == 0
        assert report["result"]["n"] == q ** t
        assert report["result"]["kab_free"] == checks
        jsonschema.validate(report, schema)

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
        # at totals past 1e7 one ulp is more than any fixed 1e-9, so the
        # witness descent matches exact integer totals
        code, report = run_json(["exprime", "--n", "56", "--k", "3", "--f", "pow:mu=3.3"])
        assert code == 0
        assert report["result"]["witness"] == [19, 19, 18]

    def test_ratio_float_row_at_one(self):
        # the two K5 optima are one exact total, correctly rounded on both sides
        code, report = run_json(["ratio", "--nmin", "5", "--nmax", "5",
                                 "--forbidden", "K5", "--f", "pow:mu=1.7"])
        assert code == 0
        assert report["result"]["rows"][0]["ratio"] == 1.0

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
        monkeypatch.setenv("DWTURAN_WORKERS", "3")
        code, report = cli.run(["exprime", "--n", "4", "--k", "2", "--f", "pow:mu=1"])
        assert code == 0
        assert report["config"]["workers"] == 3
        assert "out" not in report["config"]

    @pytest.mark.parametrize("affinity,cpu_count", [
        ({0}, 2), ({0, 1}, 1), (None, 2), (None, None),
    ], ids=["one-of-two", "two-pinned", "no-affinity", "no-count"])
    def test_default_workers_are_the_usable_cpus(self, monkeypatch, affinity,
                                                 cpu_count):
        # no --workers and no DWTURAN_WORKERS: the whole tree, unsplit, however
        # many CPUs the affinity set or the machine offers
        monkeypatch.delenv("DWTURAN_WORKERS", raising=False)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        code, report = cli.run(["exact", "--n", "5", "--forbidden", "K3",
                                "--f", "pow:mu=1"])
        assert code == 0
        assert report["config"]["workers"] == 1
        assert report["result"]["nodes"] == 408
        assert report["result"]["witness_graph6"] == "DFw"


def _refuse_build(*args):
    raise AssertionError("built a graph before the order check")


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

    def test_exprime_float_overflow(self):
        code, report = run_json(
            ["exprime", "--n", "8", "--k", "4", "--f", "pow:mu=364.5"])
        assert code == 2
        assert report["kind"] == "input"
        assert "n=8" in report["error"] and "overflows" in report["error"]

    def test_exact_float_overflow(self):
        # the search's leaves pass the largest float as the DP's optimum does
        code, report = run_json(
            ["exact", "--n", "8", "--forbidden", "K4", "--f", "pow:mu=364.5"])
        assert code == 2
        assert report["kind"] == "input"
        assert report["error"] == ("the optimum at n=8 free of 'C~' (graph6) under "
                                   "PowerWeight(mu=364.5) overflows float")

    def test_exact_non_dyadic_witness_reproduces_optimum(self):
        # f is 3/10 up to 5, irrational at 6 and 3/5 from 7 on; the search's
        # table and the witness's degrees 7 and 1 alone give one exact total
        code, report = run_json(
            ["exact", "--n", "8", "--forbidden", "K3", "--f", "staircase:c=0.9,seeds=5,base=0.3"])
        assert code == 0
        assert report["result"]["value"] == 2.7
        assert report["result"]["witness_graph6"] == "G???F{"

    def test_pow_overflow_names_weight_and_degree(self):
        code, report = run_json(
            ["exprime", "--n", "9", "--k", "4", "--f", "pow:mu=364.5"])
        assert code == 2
        assert report["error"] == "PowerWeight(mu=364.5) overflows float at degree 8"

    @pytest.mark.parametrize("argv", [
        ["--f", "staircase:c=0.5,seeds=9,base=1e400", "--range", "1:12", "--growth-c", "0.5"],
        ["--f", "step:0:1e400", "--range", "1:3", "--eps", "0.5", "--delta", "0.5"],
    ])
    def test_checkf_overflow_names_weight_and_degree(self, argv):
        code, report = run_json(["checkf", *argv])
        assert code == 2
        assert report["error"] == f"{weights.parse_weight(argv[1])!r} overflows float at degree 1"

    def test_counterexample_total_overflow_names_weight(self):
        f = "staircase:c=0.5,seeds=9,base=1e400"
        code, report = run_json(
            ["counterexample", "--q", "3", "--t", "2", "--s", "3", "--f", f])
        assert code == 2
        assert report["error"] == f"the total of {weights.parse_weight(f)!r} overflows float"

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

    @pytest.mark.parametrize("weight,ex,ex_prime", [
        ("step:0:0;1:1;2:-2", 2, 0), ("step:0:-3;1:-1;2:-4", -5, -6)])
    def test_ratio_over_non_positive_multipartite_optimum(self, weight, ex, ex_prime):
        # the quotient would be Infinity, not JSON, or below the schema's 1
        code, report = run_json(
            ["ratio", "--nmin", "3", "--nmax", "3", "--forbidden", "K3", "--f", weight])
        assert code == 2
        assert report == {"error": f"no ratio at n=3: the optimum is {ex} and the "
                                   f"multipartite optimum {ex_prime}, which is not positive",
                          "kind": "input"}

    def test_ratio_past_largest_float(self):
        # 2e300 over 3e-300, the edgeless graph's total: Infinity is not JSON
        code, report = run_json(
            ["ratio", "--nmin", "3", "--nmax", "3", "--forbidden", "K3",
             "--f", "step:0:1e-300;1:1e300;2:-3e300"])
        assert code == 2
        assert report["error"] == ("no ratio at n=3: the optimum 2e+300 over the "
                                   "multipartite optimum 3e-300 passes the largest float")

    def test_ratio_over_limit_refused_before_search(self, monkeypatch):
        calls = []
        ex_exact = search.ex_exact
        monkeypatch.setattr(search, "ex_exact",
                            lambda *args, **kw: calls.append(args[0]) or ex_exact(*args, **kw))
        code, report = run_json(
            ["ratio", "--nmin", "3", "--nmax", "9", "--forbidden", "K3", "--f", "pow:mu=2"])
        assert code == 2
        assert report["error"].startswith("order 9 above limit 8")
        assert calls == []

    def test_ratio_over_limit_refused_before_colouring(self, monkeypatch):
        # chi(F) of a large F can take longer than the refusal is worth
        def no_colouring(F):
            raise AssertionError("coloured F before the limit check")

        monkeypatch.setattr(search, "chromatic_number", no_colouring)
        code, report = run_json(
            ["ratio", "--nmin", "3", "--nmax", "9", "--forbidden", "K3", "--f", "pow:mu=2"])
        assert code == 2
        assert report["error"].startswith("order 9 above limit 8")

    def test_ratio_refuses_a_forbidden_graph_too_hard_to_colour(self):
        code, report = run_json(["ratio", "--nmin", "3", "--nmax", "3", "--forbidden",
                                 graph6_encode(dense_random_graph()), "--f", "pow:mu=2"])
        assert code == 2
        cap = dwturan.graphs.CHROMATIC_MAX_PLACEMENTS
        assert report == {"error": "chromatic number of a graph on 50 vertices needs "
                                   f"more than {cap} colour placements", "kind": "input"}

    @pytest.mark.parametrize("forbidden", ["C999", "K3s:330"])
    def test_ratio_colours_a_forbidden_graph_of_a_thousand_vertices(self, forbidden):
        # a fresh interpreter, at its default recursion limit, colours F
        # (chi = 3, so the rows compare against 2-partite graphs) within
        # the budget and without a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "dwturan.cli", "--workers", "1", "ratio", "--nmin", "3",
             "--nmax", "4", "--forbidden", forbidden, "--f", "pow:mu=2"],
            env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        f = weights.parse_weight("pow:mu=2")
        assert [row["ex_prime"] for row in json.loads(proc.stdout)["result"]["rows"]] == [
            partitions.ex_prime(n, 2, f).value.exact for n in (3, 4)]

    def test_staircase_seed_not_positive(self):
        code, report = run_json(
            ["checkf", "--f", "staircase:c=0.5,seeds=-4", "--range", "1:5"])
        assert code == 2
        assert report["kind"] == "input"
        assert report["error"] == "seed -4 is not a positive integer"

    @pytest.mark.parametrize("spec,family,key", [
        ("staircase:c=0.5,seeds=100.7", "staircase", "seeds"),
        ("step:0.5:1", "step", "jump"),
        ("pow:mu=abc", "pow", "mu"),
        ("log:floor=abc", "log", "floor"),
        ("staircase:c=abc,seeds=9", "staircase", "c"),
    ])
    def test_unparsable_number_names_family_and_parameter(self, spec, family, key):
        code, report = run_json(["checkf", "--f", spec, "--range", "1:5"])
        assert code == 2
        assert report["kind"] == "input"
        assert f"{family} parameter {key} " in report["error"]

    @pytest.mark.parametrize("spec,order", [("C5000", 5000), ("K3s:2000", 6000),
                                            ("K2,5000", 5002)])
    def test_shorthand_over_cap_refused_before_building(self, monkeypatch, spec, order):
        for name in ("complete_graph", "cycle_graph", "path_graph", "blowup_k3",
                     "complete_bipartite"):
            monkeypatch.setattr(dwturan.graphs, name, _refuse_build)
        code, report = run_json(["exact", "--n", "5", "--forbidden", spec, "--f", "half"])
        assert code == 2
        assert report["kind"] == "input"
        assert report["error"] == (f"{spec} names a graph on {order} vertices; shorthands "
                                   f"take no more than {cli.SHORTHAND_MAX_ORDER}")

    def test_shorthand_at_cap(self):
        cap = cli.SHORTHAND_MAX_ORDER
        for spec in (f"K{cap}", f"P{cap}", f"K1,{cap - 1}"):
            assert parse_graph_spec(spec).n == cap

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

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_worker_count_above_max(self, monkeypatch, source):
        # refused before any search: the split would have 2^ceil(log2(4 *
        # workers)) subtrees, none sharing another's incumbent
        def no_search(*args, **kwargs):
            raise AssertionError("searched before the worker check")

        monkeypatch.setattr(search, "ex_exact", no_search)
        count = str(cli.MAX_WORKERS + 1)
        argv = ["exact", "--n", "5", "--forbidden", "K3", "--f", "pow:mu=1"]
        if source == "flag":
            argv = ["--workers", count] + argv
        else:
            monkeypatch.setenv("DWTURAN_WORKERS", count)
        code, report = cli.run(argv)
        assert code == 2
        assert report == {"error": f"worker count must be <= {cli.MAX_WORKERS}, "
                                   f"got {count}", "kind": "input"}

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

    def test_join_budget_refuses_hint_free_side(self, monkeypatch):
        # the K(6,6,6) check on the 343-vertex side, its first members
        # taken from every vertex instead of the 7 orbit representatives,
        # runs past the 5e6-set budget
        from dwturan import normgraphs

        build = normgraphs.counterexample_graph

        def hint_free(spec):
            G, side = build(spec)
            return G, Graph._from_adj(side.n, side.adj)

        monkeypatch.setattr(normgraphs, "counterexample_graph", hint_free)
        code, report = run_json(
            ["counterexample", "--q", "7", "--t", "3", "--s", "4", "--f", "half"])
        assert code == 2
        assert report["error"] == ("K(6,6,6) check examined more than 5000000 sets "
                                   "of the 343-vertex side")

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
        # the growth rows read f(hi + 1) too
        ["--range", f"1:{cli.CHECKF_MAX_POINTS}", "--growth-c", "0.5"],
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

    def test_checkf_growth_range_at_budget(self):
        code, report = run_json(["checkf", "--f", "pow:mu=1", "--range",
                                 f"1:{cli.CHECKF_MAX_POINTS - 1}", "--growth-c", "0.5"])
        assert code == 0
        assert report["result"]["growth"]["rows"][-1]["n"] == cli.CHECKF_MAX_POINTS - 1

    def test_growth_scan_rejects_zero_weight(self):
        code, report = run_json(
            ["checkf", "--f", "step:0:0;5:1", "--range", "1:10",
             "--growth-c", "0.5"])
        assert code == 2
        assert "not positive" in report["error"]


# each family's spec with one parameter left open, and the strings put there:
# bad, degenerate, or at the edge of a float
_SPEC_TEMPLATES = [
    "pow:mu={}", "log:floor={}", "half:{}", "staircase:c={},seeds=9;100",
    "staircase:c=0.5,seeds={};100", "staircase:c=0.5,seeds=9;{}",
    "staircase:c=0.5,seeds=9,base={}", "step:{}:1;5:3", "step:0:{};5:3", "step:0:1;5:{}",
]
_PARAMS = ["-4", "0", "nan", "inf", "1e400", "1/0", "0.5", ""]


@given(st.sampled_from(_SPEC_TEMPLATES), st.sampled_from(_PARAMS))
@settings(max_examples=100, deadline=None)
def test_weight_specs_fail_only_with_exit_2(template, param):
    spec = template.format(param)
    try:
        weights.parse_weight(spec)
    except ValueError:
        pass
    code, _report = cli.run(["--workers", "1", "checkf", "--f", spec, "--range", "1:12"])
    assert code in (0, 2)


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


# runs cli.main in a fresh interpreter and reports its exit code and what it
# left in sys.modules
_FOOTPRINT = """
import contextlib, io, json, sys
from dwturan import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "layers": sorted(m for m in sys.modules if m.startswith("dwturan.")),
    "processes": [m for m in ("concurrent.futures", "multiprocessing")
                  if m in sys.modules],
    # dataclasses imports inspect, which imports ast, dis and tokenize
    "slow_imports": [m for m in ("dataclasses", "inspect") if m in sys.modules],
}))
"""
_SRC = os.path.dirname(os.path.dirname(dwturan.__file__))


def _fresh_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))


def _fresh_python(*args):
    proc = subprocess.run([sys.executable, *args], env=_fresh_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestImportFootprint:
    """A command loads only the layers it runs, and no command, a split
    search included, loads a process pool's modules."""

    @pytest.mark.parametrize("argv, layers", [
        (["checkf", "--f", "pow:mu=1", "--range", "1:5"], {"weights"}),
        (["exprime", "--n", "4", "--k", "2", "--f", "pow:mu=1"],
         {"weights", "graphs", "partitions"}),
        (["normgraph", "--q", "3", "--t", "2"], {"weights", "graphs", "normgraphs"}),
        (["counterexample", "--q", "3", "--t", "2", "--s", "3",
          "--f", "staircase:c=0.5,seeds=9,base=1"],
         {"weights", "graphs", "normgraphs"}),
        (["majorize", "--graph", "Dhc", "--r", "3"],
         {"weights", "graphs", "partitions", "majorize"}),
        (["exact", "--n", "4", "--forbidden", "K3", "--f", "pow:mu=1"],
         {"weights", "graphs", "partitions", "search"}),
        (["ratio", "--nmin", "3", "--nmax", "4", "--forbidden", "K3", "--f", "pow:mu=1"],
         {"weights", "graphs", "partitions", "search"}),
        (["--workers", "2", "exact", "--n", "4", "--forbidden", "K3", "--f", "pow:mu=1"],
         {"weights", "graphs", "partitions", "search"}),
    ], ids=["checkf", "exprime", "normgraph", "counterexample", "majorize", "exact",
            "ratio", "exact-split"])
    def test_command_loads_its_layers(self, argv, layers):
        if argv[0] != "--workers":
            argv = ["--workers", "1"] + argv
        seen = _fresh_python("-c", _FOOTPRINT, *argv)
        assert seen["code"] == 0
        assert seen["layers"] == sorted(
            {"dwturan.cli", "dwturan.errors"} | {f"dwturan.{m}" for m in layers})
        assert seen["processes"] == []
        assert seen["slow_imports"] == []

    def test_package_import_loads_no_layer(self):
        seen = _fresh_python("-c", "import dwturan, json, sys; print(json.dumps("
                             "[m for m in sys.modules if m.startswith('dwturan')]))")
        assert seen == ["dwturan"]

    def test_package_import_loads_neither_dataclasses_nor_inspect(self):
        seen = _fresh_python("-c", "import dwturan, json, sys; print(json.dumps("
                             "[m for m in ('dataclasses', 'inspect') if m in sys.modules]))")
        assert seen == []
