import json
import os
import subprocess
import sys

import pytest

import wblocks
from wblocks.cli import main, parse_block, parse_composition, parse_window
from wblocks.combinat import Composition

# the directory holding the wblocks this process imported, so the CLI child
# runs the same code whether or not PYTHONPATH was set
SRC = os.path.dirname(os.path.dirname(os.path.abspath(wblocks.__file__)))


def run_cli(args, stdin=None, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "wblocks.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=full_env,
    )
    return proc


class TestParsing:
    def test_composition_zero(self):
        assert parse_composition("0") == Composition()

    def test_composition_full(self):
        assert parse_composition("offset=-1;parts=2,0,1") == Composition([2, 0, 1], -1)

    def test_block_zero_cores(self):
        xi = parse_block("mu=0;nu=0;t=1", 1, 1)
        assert xi.t == 1 and xi.mu.is_zero() and xi.nu.is_zero()

    def test_block_dotted_cores(self):
        xi = parse_block("mu.parts=1;nu.offset=2;nu.parts=1,1;t=1", 2, 3)
        assert xi.mu == Composition([1]) and xi.nu == Composition([1, 1], 2)

    def test_window(self):
        w = parse_window("-2..2")
        assert (w.lo, w.hi) == (-2, 2)


class TestCommands:
    def test_cartan_csv_neighbor_pattern(self, capsys):
        code = main(
            [
                "cartan", "--m", "1", "--n", "1",
                "--block", "mu=0;nu=0;t=1", "--window", "-2..2", "--format", "csv",
            ]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")
        body = [r.split(",")[1:] for r in rows[1:]]
        matrix = [[int(x) for x in row] for row in body]
        for i in range(5):
            for j in range(5):
                expect = 2 if i == j else (1 if abs(i - j) == 1 else 0)
                assert matrix[i][j] == expect
                assert matrix[i][j] == matrix[j][i]

    def test_h_value(self, capsys):
        assert main(["h", "--lambda", "offset=0;parts=1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"h": 3}

    def test_cb_dual_canonical(self, capsys):
        code = main(["cb", "--N", "2", "--signs", "+-", "--key", "2;2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["terms"] == [
            {"coeff": {"0": "1"}, "key": [2, 2]},
            {"coeff": {"1": "-1"}, "key": [1, 1]},
        ]

    def test_cb_pairing(self, capsys):
        code = main(
            ["cb", "--N", "3", "--signs", "+-", "--key", "2;2",
             "--basis", "canonical", "--pair-with", "2;2"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"pairing": {"coeffs": {"0": "1", "2": "1"}}}

    def test_graded_cartan_q_at_1(self, capsys):
        main(
            ["graded-cartan", "--m", "1", "--n", "1", "--block", "mu=0;nu=0;t=1",
             "--window", "0..1", "--q-at-1"]
        )
        data = json.loads(capsys.readouterr().out)
        assert data["matrix"] == [[2, 1], [1, 2]]

    def test_recover_pipeline(self, capsys):
        main(
            ["cartan", "--m", "1", "--n", "1", "--block", "mu=0;nu=0;t=1",
             "--window", "-3..3"]
        )
        matrix_json = capsys.readouterr().out
        proc = run_cli(["recover"], stdin=matrix_json)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out == {"gamma": {"offset": 0, "parts": []}, "t": 1}

    def test_char_and_verma_mult(self, capsys):
        main(["char", "--m", "1", "--n", "1", "--block", "mu=0;nu=0;t=1",
              "--lambda", "offset=2;parts=1", "--kind", "simple"])
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 1
        main(["verma-mult", "--m", "1", "--n", "1", "--block", "mu=0;nu=0;t=1",
              "--lambda", "offset=2;parts=1", "--kappa", "offset=1;parts=1"])
        assert json.loads(capsys.readouterr().out) == {"multiplicity": 1}

    def test_blocks_window(self, capsys):
        main(["blocks", "--m", "1", "--n", "1", "--window", "1..2"])
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 3

    def test_equiv_signature(self, capsys):
        main(["equiv", "--m", "2", "--n", "2",
              "--block", "mu.parts=1;nu.offset=1;nu.parts=1;t=1"])
        data = json.loads(capsys.readouterr().out)
        assert data["signature"] == {"gamma_transpose": [2], "m": 2, "n": 2, "t": 1}

    def test_center_command(self, capsys):
        main(["center", "--m", "1", "--n", "1", "--r", "2"])
        data = json.loads(capsys.readouterr().out)
        assert data["in_I"] and data["in_J"] and data["series_matches"]


class TestExitCodes:
    def test_usage_error(self):
        assert main(["h"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_computation_error(self):
        assert main(["h", "--lambda", "offset=0;parts=-2"]) == 2

    def test_signs_mismatch(self):
        assert main(["cb", "--N", "2", "--signs", "--", "--key", "2;2"]) == 1

    def test_cb_weight_space_too_large(self, capsys):
        # N=10 +++--- at weight 0 has 5140 vectors
        assert main(["cb", "--N", "10", "--signs", "+++---", "--key", "1,2,3;3,2,1"]) == 2
        assert "ResourceError" in capsys.readouterr().err

    def test_cb_weight_space_within_bound(self, capsys):
        # N=4 +++--- at weight 0 has 256 vectors
        assert main(["cb", "--N", "4", "--signs", "+++---", "--key", "1,2,3;3,2,1"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert {"key": [1, 2, 3, 3, 2, 1], "coeff": {"0": "1"}} in terms

    @pytest.mark.parametrize("key,bad", [("5;5", 5), ("0;0", 0), ("1;4", 4), ("1;-1", -1)])
    def test_cb_key_entry_out_of_range(self, capsys, key, bad):
        assert main(["cb", "--N", "3", "--signs", "+-", "--key", key]) == 1
        assert f"key entry {bad} outside 1..3" in capsys.readouterr().err

    def test_cb_pair_key_entry_out_of_range(self, capsys):
        argv = ["cb", "--N", "3", "--signs", "+-", "--key", "1;2", "--pair-with", "2;4"]
        assert main(argv) == 1
        assert "key entry 4 outside 1..3" in capsys.readouterr().err

    def test_verify_failure_exit_code(self):
        code = main(["verify", "--profile", "quick", "--inject-fault", "h-count"])
        assert code == 3


class TestDeterminismAndCache:
    def test_byte_identical_runs(self):
        args = ["graded-cartan", "--m", "1", "--n", "1", "--block", "mu=0;nu=0;t=1",
                "--window", "-1..1"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_cache_changes_no_bytes(self, tmp_path):
        args = ["cb", "--N", "3", "--signs", "++-", "--key", "2,2;2"]
        plain = run_cli(["--no-cache", *args])
        warm = run_cli(["--cache-dir", str(tmp_path), *args])
        cached = run_cli(["--cache-dir", str(tmp_path), *args])
        assert plain.stdout == warm.stdout == cached.stdout
        assert list(tmp_path.iterdir()), "cache populated"

    def test_cache_env_var(self, tmp_path):
        args = ["cb", "--N", "2", "--signs", "+-", "--key", "2;1"]
        out = run_cli(args, env={"WBLOCKS_CACHE": str(tmp_path)})
        assert out.returncode == 0
        assert list(tmp_path.iterdir())

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        args = ["--config", str(cfg), "cartan", "--m", "1", "--n", "1",
                "--block", "mu=0;nu=0;t=1", "--window", "0..1"]
        proc = run_cli(args)
        assert proc.returncode == 0
        assert proc.stdout.startswith(","), "config switched output to csv"
        explicit = run_cli([*args, "--format", "json"])
        assert explicit.stdout.startswith("{"), "explicit flag beats config"


def test_verify_quick_passes(capsys):
    assert main(["verify", "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert "12/12 criteria passed" in out
