import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from ksubmax import (
    ExplicitTableFunction,
    InstanceSpec,
    ModularFunction,
    UniformMatroid,
    serialize_instance,
)
import ksubmax.cli
import ksubmax.solvers
from ksubmax.cli import BENCH_COLUMNS, _check_config, build_parser, main, run_bench
from ksubmax.solvers import DEFAULT_BRUTE_CAP

from helpers import eager_threshold_solve


HAND_INSTANCE = InstanceSpec(
    n=2, k=2,
    function=ModularFunction([[5.0, -3.0], [2.0, 2.0]]),
    matroid=UniformMatroid(2, 1),
)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(serialize_instance(HAND_INSTANCE))
    return str(path)


GOOD_ENTRY = {"family": "modular", "n": 4, "k": 2, "matroid": "uniform",
              "budget": 2, "seeds": [0]}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    def test_threshold_human(self, instance_file, capsys, monkeypatch):
        """The eager reference loop's bill, printed through the CLI."""
        monkeypatch.setattr(ksubmax.cli, "threshold_decreasing_solve",
                            eager_threshold_solve)
        assert main(["solve", instance_file, "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "value: 5.0" in out
        assert "eo_calls: 6" in out
        assert "io_calls: 4" in out

    def test_threshold_human_lazy(self, instance_file, capsys):
        """The shipped lazy solver: 4 EO scan + 2 IO rank scan, then one
        visit to element 0 (1 EO for the one pair that can clear the bar,
        1 IO) fills the budget and ends the run, so element 1 is never
        visited."""
        assert main(["solve", instance_file, "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "value: 5.0" in out
        assert "eo_calls: 5" in out
        assert "io_calls: 3" in out

    def test_threshold_json(self, instance_file, capsys):
        assert main(["solve", instance_file, "--epsilon", "0.5",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 5.0
        assert doc["assignment"] == [1, 0]
        assert doc["rounds_detail"] == [[5.0, 1]]

    def test_solve_csv(self, instance_file, capsys):
        assert main(["solve", instance_file, "--solver", "greedy",
                     "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "solver"
        record = dict(zip(rows[0], rows[1]))
        # budget 1: greedy takes the single best element and stops
        assert record["value"] == "5.0"
        assert record["eo_calls"] == "4"

    def test_brute(self, instance_file, capsys):
        assert main(["solve", instance_file, "--solver", "brute",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 5.0
        assert doc["max_opt_support_size"] == 1

    def test_brute_json_leaves_counts_null(self, instance_file, capsys):
        """Brute force counts no oracle calls, so it reports no counts."""
        assert main(["solve", instance_file, "--solver", "brute",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["eo_calls"], doc["io_calls"], doc["rounds"]) == (None, None, None)

    def test_missing_epsilon_exits_4(self, instance_file, capsys):
        assert main(["solve", instance_file]) == 4
        assert "epsilon" in capsys.readouterr().err

    def test_out_of_range_epsilon_exits_4(self, instance_file):
        assert main(["solve", instance_file, "--epsilon", "1.5"]) == 4
        assert main(["solve", instance_file, "--epsilon", "0"]) == 4

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1,')
        assert main(["solve", str(bad), "--epsilon", "0.5"]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"), "--epsilon", "0.5"]) == 2

    def test_brute_cap_exits_3(self, instance_file, capsys):
        assert main(["solve", instance_file, "--solver", "brute", "--cap", "3"]) == 3
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["threshold", "greedy", "brute"])
    @pytest.mark.parametrize("epsilon", ["7", "0", "1", "-0.5", "nan"])
    def test_out_of_range_epsilon_exits_4_with_every_solver(self, instance_file, capsys,
                                                            solver, epsilon):
        """``--solver greedy --epsilon 7`` used to exit 0."""
        assert main(["solve", instance_file, "--solver", solver, "--epsilon", epsilon]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon must lie strictly between 0 and 1" in captured.err

    def test_in_range_epsilon_is_accepted_by_every_solver(self, instance_file, capsys):
        for solver in ("greedy", "brute"):
            assert main(["solve", instance_file, "--solver", solver, "--epsilon", "0.5",
                         "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == 5.0

    @pytest.mark.parametrize("solver", ["greedy", "brute"])
    def test_seed_refused_by_solvers_without_one(self, instance_file, capsys, solver):
        """``--solver greedy --seed 3`` used to exit 0 and ignore the seed."""
        for extra in ([], ["--epsilon", "0.5"]):
            assert main(["solve", instance_file, "--solver", solver, "--seed", "3",
                         *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"the {solver} solver takes no seed" in captured.err
        assert main(["solve", instance_file, "--solver", "threshold", "--epsilon", "0.5",
                     "--seed", "3"]) == 0

    def test_bad_epsilon_is_reported_before_a_refused_seed(self, instance_file):
        """As with the threshold solver, an out-of-range epsilon exits 4."""
        assert main(["solve", instance_file, "--solver", "greedy",
                     "--epsilon", "7", "--seed", "3"]) == 4


COVER_DOC = {"n": 2, "k": 2, "matroid": {"uniform": 1},
             "function": {"coverage": {"weights": [1.0] * 6, "sets": [["25", [1]], ["3", "0"]]}}}


@pytest.mark.parametrize("cover_set", ["0x1f", "-1", "1_0", " 1f", "1F", "", "40", 5])
def test_malformed_cover_mask_exits_2(tmp_path, capsys, cover_set):
    """A cover-set bitmask must be lowercase hex digits only (``int(s, 16)``
    also reads ``0x``, signs, ``_`` and whitespace) and set no bit at or past
    the universe size (6 here, so ``"40"``, bit 6, is out); a JSON number is
    no cover set."""
    doc = json.loads(json.dumps(COVER_DOC))
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--solver", "greedy", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3.0
    doc["function"]["coverage"]["sets"][0][1] = cover_set
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--solver", "greedy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ksubmax: {path}: function.coverage: ")
    assert "sets[0][1]" in captured.err
    assert "Traceback" not in captured.err


class TestVerify:
    def test_clean_instance(self, instance_file, capsys):
        assert main(["verify", instance_file]) == 0
        out = capsys.readouterr().out
        assert "k-submodularity (lattice inequality): holds" in out
        assert "characterizations agree: yes" in out
        assert "rank: 1" in out
        assert "OPT: 5.0" in out
        assert "max optimal support size: 1" in out

    def test_corrupted_table_prints_counterexample(self, tmp_path, capsys):
        spec = InstanceSpec(
            n=1, k=2,
            function=ExplicitTableFunction(1, 2, [0.0, 1.0, -2.0]),
            matroid=UniformMatroid(1, 1),
        )
        path = tmp_path / "bad_table.json"
        path.write_text(serialize_instance(spec))
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "k-submodularity (lattice inequality): fails" in out
        assert "counterexample" in out
        assert "characterizations agree: yes" in out

    def test_large_domain_needs_sample_flag(self, tmp_path, capsys):
        spec = InstanceSpec(
            n=30, k=2,
            function=ModularFunction([[1.0, 1.0]] * 30),
            matroid=UniformMatroid(30, 5),
        )
        path = tmp_path / "large.json"
        path.write_text(serialize_instance(spec))
        assert main(["verify", str(path)]) == 3
        assert "--sample" in capsys.readouterr().err
        # the flag rule comes before the size rule: this used to exit 3
        assert main(["verify", str(path), "--seed", "5"]) == 2
        assert "--seed seeds sampled verification" in capsys.readouterr().err
        assert main(["verify", str(path), "--sample", "200"]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out

    def test_sampled_lattice_work_does_not_grow_with_k_squared(self, tmp_path, capsys):
        """The sampled lattice check used to build two (k+1) x (k+1) label
        tables before its first draw, 10^8 entries each at k = 10^4.  Join
        and meet are now label arithmetic on the pair."""
        k = 10 ** 4
        spec = InstanceSpec(n=1, k=k, function=ModularFunction([[1.0] * k]),
                            matroid=UniformMatroid(1, 1))
        path = tmp_path / "wide_k.json"
        path.write_text(serialize_instance(spec))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code = main(["verify", str(path), "--sample", "3"])
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert elapsed < 2.0 and peak < 20 * 2 ** 20, (elapsed, peak)
        out = capsys.readouterr().out
        assert "k-submodularity (lattice inequality): holds [sampled, 3 checks]" in out

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_sample_below_one_exits_2(self, tmp_path, capsys, size):
        """No verdict on zero checks: the table fails exhaustively, and a
        sampled run of no checks must not print "holds" instead."""
        spec = InstanceSpec(
            n=1, k=2,
            function=ExplicitTableFunction(1, 2, [0.0, 1.0, -2.0]),
            matroid=UniformMatroid(1, 1),
        )
        path = tmp_path / "bad_table.json"
        path.write_text(serialize_instance(spec))
        assert main(["verify", str(path), "--sample", size]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sample must be at least 1" in captured.err

    def test_seed_without_sample_exits_2(self, instance_file, capsys):
        """An exhaustive run draws nothing: ``--seed 5`` used to exit 0 with
        output byte-identical to the run without it."""
        assert main(["verify", instance_file, "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed seeds sampled verification" in captured.err
        assert main(["verify", instance_file, "--seed", "5", "--sample", "3"]) == 0
        assert "sampled, 3 checks" in capsys.readouterr().out

    def test_oversized_opt_skipped(self, tmp_path, capsys):
        spec = InstanceSpec(
            n=4, k=1,
            function=ModularFunction([[1.0]] * 4),
            matroid=UniformMatroid(4, 2),
        )
        path = tmp_path / "small.json"
        path.write_text(serialize_instance(spec))
        assert main(["verify", str(path), "--cap", "10"]) == 0
        assert "OPT: skipped" in capsys.readouterr().out


class TestBench:
    def test_empty_grid_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": [], "solvers": ["greedy"]})
        assert main(["bench", cfg]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "instance,solver,n,k,r,epsilon,value,opt,ratio,"
            "eo_calls,io_calls,rounds,elapsed,error"
        ]

    def test_rows_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": [
                {"family": "modular", "n": 4, "k": 2, "matroid": "uniform",
                 "budget": 2, "seeds": [0, 1]},
                {"family": "coverage", "n": 3, "k": 2, "matroid": "partition",
                 "seeds": [5]},
            ],
            "solvers": ["threshold", "greedy", "brute"],
            "epsilons": [0.2, 0.5],
        })

        def strip_elapsed(text):
            rows = list(csv.reader(io.StringIO(text)))
            idx = rows[0].index("elapsed")
            return [r[:idx] + r[idx + 1:] for r in rows]

        assert main(["bench", cfg]) == 0
        first = capsys.readouterr().out
        assert main(["bench", cfg]) == 0
        second = capsys.readouterr().out
        assert strip_elapsed(first) == strip_elapsed(second)

        rows = list(csv.reader(io.StringIO(first)))
        header, body = rows[0], rows[1:]
        # 2 uniform seeds + 1 partition seed, each: 2 eps + greedy + brute
        assert len(body) == 3 * 4
        records = [dict(zip(header, r)) for r in body]
        for rec in records:
            assert rec["error"] == ""
            if rec["solver"] == "brute":
                assert rec["value"] == rec["opt"]
            # ratio is filled only when OPT > 0 (the opt column may read "0.0")
            if rec["opt"] and float(rec["opt"]) > 0:
                assert float(rec["ratio"]) <= 1.0

    def test_brute_force_runs_once_per_instance(self, tmp_path, capsys, monkeypatch):
        """One enumeration gives both the opt column and the brute row."""
        calls = []
        brute = ksubmax.cli.brute_force_solve

        def counting(f, m, cap):
            calls.append(f)
            return brute(f, m, cap=cap)

        monkeypatch.setattr(ksubmax.cli, "brute_force_solve", counting)
        cfg = write_config(tmp_path, {
            "grid": [dict(GOOD_ENTRY, seeds=[0, 1]),
                     dict(GOOD_ENTRY, family="coverage", n=3, seeds=[5])],
            "solvers": ["threshold", "greedy", "brute"],
            "epsilons": [0.2],
        })
        assert main(["bench", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(calls) == 3
        brute_rows = [r for r in rows if r["solver"] == "brute"]
        assert len(brute_rows) == 3
        for row in brute_rows:
            assert (row["eo_calls"], row["io_calls"], row["rounds"]) == (None, None, None)
            assert row["value"] == row["opt"]
            assert row["ratio"] == 1.0

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": [{"family": "modular", "n": 3, "k": 1, "matroid": "uniform",
                      "budget": 1, "seeds": [0]}],
            "solvers": ["greedy"],
        })
        assert main(["bench", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["solver"] == "greedy"
        assert rows[0]["ratio"] == 1.0

    def test_row_error_does_not_abort(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": [
                {"family": "modular", "n": 12, "k": 1, "matroid": "explicit",
                 "seeds": [0]},  # explicit generation refuses n > 10
                {"family": "modular", "n": 2, "k": 1, "matroid": "uniform",
                 "budget": 1, "seeds": [0]},
            ],
            "solvers": ["greedy"],
        })
        assert main(["bench", cfg]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        records = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert len(records) == 2
        assert "generation failed" in records[0]["error"]
        assert records[1]["error"] == ""

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": [{"family": "nope", "n": 1, "k": 1,
                                               "matroid": "uniform", "budget": 1,
                                               "seeds": [0]}],
                                      "solvers": ["greedy"]})
        assert main(["bench", cfg]) == 2
        assert "family" in capsys.readouterr().err

    def test_missing_epsilons_for_threshold_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [], "solvers": ["threshold"]})
        assert main(["bench", cfg]) == 2

    def test_non_integer_cap_exits_2(self, tmp_path, capsys):
        """Used to reach ``(k + 1) ** n <= cap`` and die with a TypeError."""
        cfg = write_config(tmp_path, {"grid": [GOOD_ENTRY], "solvers": ["greedy"],
                                      "cap": "x"})
        assert main(["bench", cfg]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "k", "budget"])
    def test_non_integer_grid_field_exits_2(self, tmp_path, capsys, key):
        """Used to become an "instance generation failed" row with exit 0."""
        entry = dict(GOOD_ENTRY, **{key: str(GOOD_ENTRY[key])})
        cfg = write_config(tmp_path, {"grid": [entry], "solvers": ["greedy"]})
        assert main(["bench", cfg]) == 2
        assert f"grid[0].{key}" in capsys.readouterr().err

    def test_boolean_seed_exits_2(self, tmp_path, capsys):
        """Used to run as seed 1 under the instance id ``...-sTrue``."""
        cfg = write_config(tmp_path, {"grid": [dict(GOOD_ENTRY, seeds=[True])],
                                      "solvers": ["greedy"]})
        assert main(["bench", cfg]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_unreadable_json_exits_2(self, tmp_path, capsys):
        """An integer past the digit limit used to end in a ValueError traceback."""
        path = tmp_path / "config.json"
        path.write_text('{"grid": [], "cap": ' + "9" * 5000 + "}")
        assert main(["bench", str(path)]) == 2
        assert "unreadable JSON" in capsys.readouterr().err

    def test_non_list_epsilons_exits_2(self, tmp_path, capsys):
        """Used to die iterating over the number with a TypeError."""
        cfg = write_config(tmp_path, {"grid": [GOOD_ENTRY], "solvers": ["threshold"],
                                      "epsilons": 5})
        assert main(["bench", cfg]) == 2
        assert "epsilons" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("monotone", "false"),     # a truthy string built a monotone instance
        ("monotone", 0),
        ("universe_size", True),   # ran as universe size 1
        ("universe_size", 4.0),
        ("density", True),         # ran as density 1
        ("density", "0.5"),
        ("value_range", "ab"),     # an "instance generation failed" row, exit 0
        ("value_range", [0, "1"]),
        ("value_range", [0, 1, 2]),
        ("value_range", [False, 1]),
    ])
    def test_mistyped_optional_grid_field_exits_2(self, tmp_path, capsys, key, value):
        entry = dict(GOOD_ENTRY, **{key: value})
        if key in ("universe_size", "density"):
            entry["family"] = "coverage"
        cfg = write_config(tmp_path, {"grid": [entry], "solvers": ["greedy"]})
        assert main(["bench", cfg]) == 2
        err = capsys.readouterr().err
        assert f"grid[0].{key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry,cells", [
        (dict(GOOD_ENTRY, k=10**8), 4 * 10**8),
        (dict(GOOD_ENTRY, family="coverage", universe_size=10**12), 4 * 2 * 10**12),
        (dict(GOOD_ENTRY, n=10**8, budget=1), 2 * 10**8),
    ])
    def test_oversize_entry_exits_2_before_generating(self, tmp_path, capsys, entry, cells):
        """Each of these used to generate unbounded: k = 10**8 and a 10**12
        point universe ended in a MemoryError traceback with exit 1, and
        n = 10**8 was still generating after 20 s.  The size rule refuses
        the whole config at check time, naming the entry, within 1 s and
        1 MB of traced allocation."""
        cfg = write_config(tmp_path, {"grid": [GOOD_ENTRY, entry], "solvers": ["greedy"]})
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code = main(["bench", cfg])
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert elapsed < 1.0 and peak < 2 ** 20, (elapsed, peak)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid[1]: generates {cells} cells" in captured.err
        assert "Traceback" not in captured.err

    def test_entry_at_the_size_limit_is_accepted(self):
        """The rule is n*k (times universe_size for coverage) at most
        MAX_BENCH_CELLS; one cell more is refused."""
        limit = ksubmax.cli.MAX_BENCH_CELLS
        for entry in (dict(GOOD_ENTRY, n=limit // 4, k=4),
                      dict(GOOD_ENTRY, family="coverage", n=64, k=4, universe_size=limit // 256)):
            assert _check_config({"grid": [entry], "solvers": ["greedy"]}) is None
            entry["k"] += 1
            assert "above the bench limit" in _check_config({"grid": [entry],
                                                             "solvers": ["greedy"]})

    def test_well_typed_optional_grid_fields_run(self, tmp_path, capsys):
        grid = [
            dict(GOOD_ENTRY, monotone=False, value_range=[-1, 2.5]),
            dict(GOOD_ENTRY, family="coverage", universe_size=6, density=1),
        ]
        cfg = write_config(tmp_path, {"grid": grid, "solvers": ["greedy"]})
        assert main(["bench", cfg]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        records = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert [r["error"] for r in records] == ["", ""]


SOLVE_KEYS = ["solver", "n", "k", "value", "assignment", "support",
              "eo_calls", "io_calls", "rounds", "elapsed"]


class TestJsonOutput:
    """``--format json`` prints one compact line; the keys keep their order
    and an absent measurement prints as null."""

    def test_solve_prints_one_line_in_key_order(self, instance_file, capsys):
        for argv, extra in (
            (["--epsilon", "0.5"], ["rounds_detail"]),
            (["--solver", "greedy"], []),
            (["--solver", "brute"], ["max_opt_support_size"]),
        ):
            assert main(["solve", instance_file, *argv, "--format", "json"]) == 0
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and out.endswith("\n")
            assert list(json.loads(out)) == SOLVE_KEYS + extra

    def test_bench_prints_one_line_of_rows_in_column_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": [dict(GOOD_ENTRY, seeds=[0, 1])],
            "solvers": ["threshold", "greedy", "brute"],
            "epsilons": [0.2],
        })
        for cap, opt_known in (("10", False), (str(DEFAULT_BRUTE_CAP), True)):
            assert main(["bench", cfg, "--format", "json", "--cap", cap]) == 0
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and out.endswith("\n")
            rows = json.loads(out)
            assert len(rows) == 2 * 3
            for row in rows:
                assert list(row) == list(BENCH_COLUMNS)
                if not opt_known:
                    # 3^4 assignments exceed the cap: no OPT, no ratio
                    assert (row["opt"], row["ratio"]) == (None, None)
                if row["solver"] == "brute":
                    assert (row["eo_calls"], row["io_calls"], row["rounds"]) == (None, None, None)
                    assert (row["value"] is not None) == opt_known


class ClosedPipe:
    """An unbuffered standard output whose reader has gone away: every
    write fails, and a flush has nothing to write."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


PIPE_ARGVS = [
    ["verify", "{inst}"],
    ["solve", "{inst}", "--epsilon", "0.5"],
    ["solve", "{inst}", "--solver", "brute", "--format", "json"],
    ["bench", "{cfg}"],
]


class TestClosedStdout:
    """A closed standard output ends every subcommand with exit code 1 and
    nothing on stderr; it used to end in a ``BrokenPipeError`` traceback."""

    @pytest.mark.parametrize("argv", PIPE_ARGVS, ids=[a[0] for a in PIPE_ARGVS])
    def test_in_process(self, argv, instance_file, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"grid": [GOOD_ENTRY], "solvers": ["greedy"]})
        argv = [a.format(inst=instance_file, cfg=cfg) for a in argv]
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == ksubmax.cli.EXIT_PIPE == 1
        assert capsys.readouterr().err == ""

    def test_refusals_keep_their_codes(self, instance_file, monkeypatch):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", instance_file]) == 4
        assert main(["verify", instance_file, "--seed", "1"]) == 2

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", PIPE_ARGVS, ids=[a[0] for a in PIPE_ARGVS])
    def test_subprocess(self, argv, unbuffered, instance_file, tmp_path):
        """The read end is closed before the child writes.  Buffered, the
        error comes from the flush before exit; unbuffered, from the first
        write."""
        cfg = write_config(tmp_path, {"grid": [GOOD_ENTRY], "solvers": ["greedy"]})
        argv = [a.format(inst=instance_file, cfg=cfg) for a in argv]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(ksubmax.cli.__file__)), env.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run([sys.executable, "-m", "ksubmax.cli", *argv],
                                   stdout=write_end, stderr=subprocess.PIPE, env=env,
                                   timeout=120)
        finally:
            os.close(write_end)
        assert child.stderr == b""
        assert child.returncode == 1


@pytest.mark.parametrize("argv", [["solve", "--epsilon", "0.5"], ["verify"], ["bench"]],
                         ids=["solve", "verify", "bench"])
def test_file_that_is_not_utf8_exits_2(argv, tmp_path, capsys):
    """A file that starts with the bytes ``ff fe`` used to end in a
    ``UnicodeDecodeError`` traceback and exit 1, the code of a closed
    stdout; it is refused like an unreadable file."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 1}'.encode("utf-16-le"))
    assert main([argv[0], str(path), *argv[1:]]) == ksubmax.cli.EXIT_PARSE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ksubmax: cannot read {path}: 'utf-8' codec can't decode")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("body", [5, "table", None, [1]], ids=["int", "str", "null", "list"])
def test_family_body_that_is_not_an_object_exits_2(body, tmp_path, capsys):
    """A tagged family body must be an object; anything else is refused
    with one line that says so, not with text made by Python's ``in`` or
    ``[]`` on the body."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": 1, "k": 1, "function": {"modular": body},
                                "matroid": {"uniform": 1}}))
    assert main(["verify", str(path)]) == ksubmax.cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ksubmax: {path}: function.modular: expected an object, "
                            f"got {type(body).__name__}\n")


class TestParserReuse:
    """``main`` builds its parser once per process; every later call must
    behave as if it had a parser of its own."""

    def test_reused_parser_matches_a_fresh_one(self, instance_file, tmp_path, capsys,
                                               monkeypatch):
        # Six elements of equal value under budget 2: --seed picks which two
        # are taken, so a seed left over from an earlier call would show.
        tied = tmp_path / "tied.json"
        tied.write_text(serialize_instance(InstanceSpec(
            n=6, k=2, function=ModularFunction([[1.0, 0.5]] * 6),
            matroid=UniformMatroid(6, 2))))
        inst = str(tied)
        cfg = write_config(tmp_path, {"grid": [GOOD_ENTRY], "solvers": ["greedy", "brute"]})
        argvs = [
            ["solve", inst, "--epsilon", "0.5", "--seed", "3", "--format", "json"],
            ["solve", inst, "--epsilon", "0.5", "--format", "json"],
            ["solve", "--epsilon", "0.5"],  # no instance: argparse exits 2
            ["solve", inst, "--solver", "brute", "--cap", "10"],
            ["solve", inst, "--solver", "brute"],
            ["bench", cfg, "--cap", "10", "--format", "json"],
            ["bench", cfg, "--format", "json"],
            ["bench", cfg],
            ["verify", instance_file, "--sample", "5", "--seed", "2", "--cap", "1"],
            ["verify", instance_file],
            ["solve", inst, "--epsilon", "0.5", "--seed", "3"],
        ]
        # every run reports elapsed 0.0, so outputs compare byte for byte
        monkeypatch.setattr(ksubmax.solvers, "time",
                            types.SimpleNamespace(perf_counter=lambda: 0.0))

        def run(entry, argv):
            try:
                code = entry(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr().out

        def fresh(argv):
            args = build_parser().parse_args(argv)
            return args.func(args)

        expected = [run(fresh, argv) for argv in argvs]
        assert [code for code, _ in expected] == [0, 0, 2, 3, 0, 0, 0, 0, 0, 0, 0]
        # each option left out differs from its value in the call before
        for set_, left_out in ((0, 1), (5, 6), (6, 7), (8, 9)):
            assert expected[set_] != expected[left_out]

        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(ksubmax.cli, "build_parser", counting)
        ksubmax.cli._parser.cache_clear()
        try:
            assert [run(main, argv) for argv in argvs] == expected
        finally:
            ksubmax.cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


OVERFLOWING_FUNCTIONS = {
    # each value is finite, but a value or a sum of two is not
    "modular": (2, 1, {"modular": {"table": [[1.7e308], [1.7e308]]}}),
    "coverage": (2, 1, {"coverage": {"weights": [1.7e308, 1.7e308],
                                     "sets": [[[0]], [[1]]]}}),
    "explicit": (3, 1, {"explicit": {"values": [0.0] + [1.7e308] * 6 + [1.75e308]}}),
}


@pytest.mark.parametrize("family", sorted(OVERFLOWING_FUNCTIONS))
def test_overflowing_values_exit_2(tmp_path, capsys, family):
    """Used to print Infinity from solve, and two verifiers that disagree."""
    n, k, function = OVERFLOWING_FUNCTIONS[family]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "k": k, "function": function,
                                "matroid": {"uniform": n}}))
    for argv in (["solve", str(path), "--solver", "greedy", "--format", "json"],
                 ["verify", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"function.{family}" in captured.err
        assert "overflows a float" in captured.err
        assert "Traceback" not in captured.err


# Mostly well-typed small values, with junk of every JSON kind mixed in.
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.floats(allow_nan=False), st.lists(st.integers(0, 3), max_size=2))
small = st.integers(-1, 5)


def field(valid):
    return st.one_of(valid, valid, valid, junk)


bench_entries = st.fixed_dictionaries(
    {
        "family": field(st.sampled_from(["modular", "coverage"])),
        "n": field(small),
        "k": field(st.integers(0, 3)),
        "matroid": field(st.sampled_from(["uniform", "partition", "explicit"])),
        "seeds": field(st.lists(field(st.integers(-1, 50)), max_size=2)),
    },
    optional={
        "budget": field(small),
        "monotone": field(st.booleans()),
        "value_range": field(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2)),
        "universe_size": field(small),
        "density": field(st.floats(-0.5, 1.5)),
    },
)
bench_configs = st.fixed_dictionaries(
    {"grid": field(st.lists(bench_entries, max_size=2))},
    optional={
        "solvers": field(st.lists(field(st.sampled_from(["threshold", "greedy", "brute"])),
                                  max_size=3)),
        "epsilons": field(st.lists(field(st.floats(0.0, 1.0)), max_size=2)),
        "cap": field(st.integers(-1, 10_000)),
    },
)


@settings(max_examples=300, deadline=None)
@given(bench_configs)
@example({"grid": [dict(GOOD_ENTRY, value_range=[1e308, 1e308])], "solvers": ["greedy"]})
def test_checked_bench_config_runs_without_raising(config):
    """A config either gets a message from the checker or runs to the end;
    failures of single instances become rows, never exceptions."""
    if _check_config(config) is None:
        for row in run_bench(config, cap=DEFAULT_BRUTE_CAP):
            assert row.error or row.value is not None
