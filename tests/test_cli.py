import csv
import io
import json

import pytest

from ksubmax import (
    ExplicitTableFunction,
    InstanceSpec,
    ModularFunction,
    UniformMatroid,
    serialize_instance,
)
from ksubmax.cli import main


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


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    def test_threshold_human(self, instance_file, capsys):
        assert main(["solve", instance_file, "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "value: 5.0" in out
        assert "eo_calls: 6" in out
        assert "io_calls: 4" in out

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
        assert main(["verify", str(path), "--sample", "200"]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out

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
