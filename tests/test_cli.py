import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wblocks
from wblocks import cache, cli, combinat, qcanon
from wblocks.cli import (COMMANDS, UsageError, _scan_front, build_parser, main, parse_block,
                         parse_composition, parse_window)
from wblocks.combinat import Composition
from wblocks.qcanon import TensorVec

# the directory holding the wblocks this process imported, so the CLI child
# runs the same code whether or not PYTHONPATH was set
SRC = os.path.dirname(os.path.dirname(os.path.abspath(wblocks.__file__)))


def call_main(argv):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(args, stdin=None, env=None, timeout=None, python=("-m", "wblocks.cli")):
    """The finished `python -m wblocks.cli args` process, or with python set
    to ("-c", code), that code run with args as sys.argv[1:]."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, *python, *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=full_env,
        timeout=timeout,
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

    # argparse drops the '--' of '--flag=--' and stores []; the line ends the
    # same way whether or not the table could read the global flags
    @pytest.mark.parametrize("argv,flag", [
        (["char", "--m", "1", "--n", "1", "--block=--", "--lambda", "0"], "--block"),
        (["blocks", "--m=--", "--n", "1", "--window", "0..1"], "--m"),
        (["char", "--m", "1", "--n", "1", "--block", "mu=0;nu=0;t=1", "--lambda", "0", "--kind=--"],
         "--kind"),
    ])
    def test_flag_given_dashes_has_no_value(self, argv, flag):
        for front in ("--no-c", "--no-cache"):
            assert call_main([front, *argv]) == \
                (1, "", f"usage error: argument {flag}: expected one argument\n"), front

    # nor has a global flag, in any spelling, so no cache directory or config
    # file named '--' is used
    @pytest.mark.parametrize("front,flag", [
        (["--cache-dir=--"], "--cache-dir"), (["--cache=--"], "--cache-dir"),
        (["--config=--"], "--config"), (["--conf=--"], "--config"), (["--config", "--"], "--config"),
    ])
    def test_global_flag_given_dashes_has_no_value(self, monkeypatch, tmp_path, front, flag):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cache, "_cache_dir", None)
        assert call_main([*front, "cb", "--N", "2", "--signs", "+-", "--key", "2;1"]) == \
            (1, "", f"usage error: argument {flag}: expected one argument\n")
        assert cache.current_dir() is None and not (tmp_path / "--").exists()

    # an empty entry of an integer list is a usage error; an entry int()
    # cannot read stays a computation error
    @pytest.mark.parametrize("argv,code", [
        (["h", "--lambda", "offset=0;parts=2,,1"], 1),
        (["h", "--lambda", "offset=0;parts=,1"], 1),
        (["end-dim", "--m", "2", "--n", "2", "--block", "mu.parts=1,;nu=0;t=1", "--i", "1"], 1),
        (["cb", "--N", "3", "--signs", "++-", "--key", "1,,2;2"], 1),
        (["cb", "--N", "3", "--signs", "++-", "--key", "1,2;2,"], 1),
        (["cb", "--N", "3", "--signs", "+-", "--key", "1;x"], 2),
    ])
    def test_integer_list_entries(self, argv, code):
        exit_code, out, err = call_main(argv)
        assert (exit_code, out) == (code, "")
        assert ("empty entry" in err) == (code == 1), err

    def test_empty_parts_is_the_zero_composition(self):
        assert call_main(["h", "--lambda", "offset=0;parts="]) == call_main(["h", "--lambda", "0"])

    @pytest.mark.parametrize(
        "m,n,r,exit_code,err_start",
        [("-1", "2", "2", 1, "usage error: invalid pyramid shape: need 0 <= m <= n"),
         ("2", "-3", "2", 1, "usage error: invalid pyramid shape: need 0 <= m <= n"),
         ("3", "4", "0", 2, "error: ValueError: ")],
        ids=["-1-2-2", "2--3-2", "3-4-0"],
    )
    def test_center_bad_shape_or_degree(self, m, n, r, exit_code, err_start):
        code, out, err = call_main(["center", "--m", m, "--n", n, "--r", r])
        assert (code, out) == (exit_code, "")
        assert err.startswith(err_start)

    @pytest.mark.parametrize(
        "argv,bound",
        [(["--m", "3", "--n", "2", "--r", "2"], "0 <= m <= n"),
         (["--m", "1", "--n", "3", "--r", "2", "--s-minus", "-1"], "0 <= s_minus <= n - m"),
         (["--m", "1", "--n", "3", "--r", "2", "--s-minus", "3"], "0 <= s_minus <= n - m")],
        ids=["m-above-n", "s-minus-negative", "s-minus-above-n-minus-m"],
    )
    def test_center_shape_is_checked_before_any_computation(self, monkeypatch, argv, bound):
        from wblocks import center

        def computed(*args, **kwargs):
            raise AssertionError("center computed before the shape check")

        for name in ("e_super", "in_I", "in_J", "hc_series_coeff"):
            monkeypatch.setattr(center, name, computed)
        code, out, err = call_main(["center", *argv])
        assert (code, out) == (1, "")
        assert err == f"usage error: invalid pyramid shape: need {bound}\n"

    @pytest.mark.parametrize(
        "argv",
        [["--m", "2", "--n", "2", "--r", "2"], ["--m", "1", "--n", "3", "--r", "2", "--s-minus", "2"],
         ["--m", "0", "--n", "2", "--r", "1", "--s-minus", "2"]],
        ids=["m-equals-n", "s-minus-at-n-minus-m", "m-zero"],
    )
    def test_center_accepts_every_pyramid_shape(self, argv):
        code, out, err = call_main(["center", *argv])
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["in_I"] and data["in_J"] and data["series_matches"]

    def test_cb_weight_space_too_large(self, capsys):
        # N=10 +++--- at weight 0 has 5140 vectors
        assert main(["cb", "--N", "10", "--signs", "+++---", "--key", "1,2,3;3,2,1"]) == 2
        assert "ResourceError" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["cartan", "graded-cartan"])
    def test_cartan_cells_over_bound(self, cmd):
        # t=2 over -15..16 has 528 labels, 278,784 cells
        argv = [cmd, "--m", "2", "--n", "2", "--block", "mu=0;nu=0;t=2", "--window=-15..16"]
        assert 528 ** 2 > cli.CARTAN_MAX_CELLS
        code, out, err = call_main(argv)
        assert (code, out) == (2, "")
        assert err == ("error: ResourceError: window yields 528 labels (278784 cells); "
                       "narrow it\n")

    def test_cartan_cells_within_bound(self):
        # t=2 over -15..15 has 496 labels, 246,016 cells
        argv = ["--no-cache", "cartan", "--m", "2", "--n", "2", "--block", "mu=0;nu=0;t=2",
                "--window=-15..15"]
        assert 496 ** 2 <= cli.CARTAN_MAX_CELLS
        code, out, err = call_main(argv)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert len(data["labels"]) == 496 and len(data["matrix"]) == 496

    def test_cb_weight_space_within_bound(self, capsys):
        # N=4 +++--- at weight 0 has 256 vectors
        assert main(["cb", "--N", "4", "--signs", "+++---", "--key", "1,2,3;3,2,1"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert {"key": [1, 2, 3, 3, 2, 1], "coeff": {"0": "1"}} in terms

    @pytest.mark.parametrize("key,bad", [("5;5", 5), ("0;0", 0), ("1;4", 4), ("1;-1", -1)])
    def test_cb_key_entry_out_of_range(self, capsys, key, bad):
        assert main(["cb", "--N", "3", "--signs", "+-", "--key", key]) == 1
        assert f"key entry {bad} outside 1..3" in capsys.readouterr().err

    @pytest.mark.parametrize("N", ["0", "-1"])
    def test_cb_N_below_1(self, N):
        # an empty key has no entry to check against 1..N
        assert call_main(["--no-cache", "cb", "--N", N, "--signs", "", "--key", ";"]) == \
            (1, "", f"usage error: --N {N} is below 1\n")

    def test_cb_pair_key_entry_out_of_range(self, capsys):
        argv = ["cb", "--N", "3", "--signs", "+-", "--key", "1;2", "--pair-with", "2;4"]
        assert main(argv) == 1
        assert "key entry 4 outside 1..3" in capsys.readouterr().err

    def test_recover_inconsistent_end_dims_fails_fast(self):
        # the middle End dim is far below the others, so the inversion
        # searches many gamma values before it reports the data inconsistent
        data = {"labels": ["a", "b", "c", "d", "e"],
                "matrix": [[100, 1, 0, 0, 0], [1, 100, 1, 0, 0], [0, 1, 1, 1, 0],
                           [0, 0, 1, 100, 1], [0, 0, 0, 1, 100]]}
        start = time.perf_counter()
        proc = run_cli(["recover"], stdin=json.dumps(data))
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert "inconsistent End-dim data" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_recover_target_just_above_the_limit_fails_fast(self):
        # the middle End dim puts its target 1 + 2e-12 just above the limit 1,
        # so gamma there is 5e11 - 1 and the first slot has no solution
        big = 10**12
        data = {"labels": ["a", "b", "c", "d", "e"],
                "matrix": [[big, 1, 0, 0, 0], [1, big, 1, 0, 0], [0, 1, big // 2 + 1, 1, 0],
                           [0, 0, 1, big, 1], [0, 0, 0, 1, big]]}
        proc = run_cli(["recover"], stdin=json.dumps(data), timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "inconsistent End-dim data" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_failure_exit_code(self):
        code = main(["verify", "--profile", "quick", "--inject-fault", "h-count"])
        assert code == 3


B11 = "mu=0;nu=0;t=1"
# per command: a line every parser accepts and a malformed one
PARSER_LINES = {
    "blocks": (["blocks", "--m", "1", "--n", "1", "--window=0..2"],
               ["blocks", "--m", "x", "--n", "1", "--window=0..2"]),
    "char": (["char", "--m", "1", "--n", "1", "--block", B11, "--lambda", "0", "--kind", "simple"],
             ["char", "--m", "1", "--n", "1", "--block", B11, "--lambda", "0", "--kind", "odd"]),
    "verma-mult": (["verma-mult", "--m", "1", "--n", "1", "--block", B11, "--lambda", "0",
                    "--kappa", "0"],
                   ["verma-mult", "--m", "1", "--n", "1", "--block", B11, "--lambda", "0"]),
    "cartan": (["cartan", "--m", "1", "--n", "1", "--block", B11, "--window=0..1", "--format", "csv"],
               ["cartan", "--m", "1", "--n", "1", "--block", B11, "--window=0..1", "--format", "xml"]),
    "graded-cartan": (["graded-cartan", "--m", "1", "--n", "1", "--block", B11, "--window=0..1",
                       "--q-at-1"],
                      ["graded-cartan", "--m", "1", "--n", "1", "--block", B11, "--window=0..1",
                       "--q-at-1=yes"]),
    "h": (["h", "--lambda", "offset=0;parts=1"], ["h"]),
    "end-dim": (["end-dim", "--m", "1", "--n", "1", "--block", B11, "--i", "1", "--d-invariant"],
                ["end-dim", "--m", "1", "--n", "1", "--block", B11, "--i", "1.5"]),
    "recover": (["recover"], ["recover", "--bogus"]),
    "equiv": (["equiv", "--m", "1", "--n", "1", "--block", B11, "--closure-width", "3"],
              ["equiv", "--m", "1", "--n", "1", "--block", B11, "--closure-width"]),
    "center": (["center", "--m", "1", "--n", "1", "--r", "2", "--s-minus", "1"],
               ["center", "--m", "1", "--n", "1", "--r", "2", "extra"]),
    "cb": (["cb", "--N", "2", "--signs", "+-", "--key", "1;1", "--pair-with", "2;2"],
           ["cb", "--N", "2", "--signs", "+-", "--key", "1;1", "--basis", "both"]),
    "verify": (["verify", "--profile", "quick", "--json", "--inject-fault", "h-count"],
               ["verify", "--profile", "slow"]),
}


def _parse(parser, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return parser.parse_args(argv)
    except UsageError as exc:
        return f"usage error: {exc}"
    except SystemExit as exc:  # help
        return f"exit {exc.code}"


def _table(argv):
    """What cli._read_table makes of argv: its namespace, its usage error as
    main prints it, or None."""
    try:
        return cli._read_table(_scan_front(argv))
    except UsageError as exc:
        return f"usage error: {exc}"


# tokens for the flags of one spec: each value spelling in both forms, the
# flag without its value, and store_true's explicit values
_VALUES = {int: ["0", "2", " 3", "-1", "x", "1.5", "", "--"],
           str: ["0", "a;b", "", "0..2", "-1..1", "-d", "--"]}


def _flag_tokens(spec):
    flag, kwargs = spec
    if "action" in kwargs:
        return st.sampled_from([[flag], [flag + "=yes"], [flag + "="]])
    values = ([*kwargs["choices"], "odd", "--"] if "choices" in kwargs
              else _VALUES[kwargs.get("type", str)])
    return st.sampled_from([[flag]] + [[flag, v] for v in values] + [[f"{flag}={v}"] for v in values])


def _required_tokens(spec):
    flag, kwargs = spec
    if "choices" in kwargs:
        return [flag, kwargs["choices"][0]]
    return [flag, "1" if kwargs.get("type") is int else "mu=0;nu=0;t=1"]


@st.composite
def _lines(draw):
    """(argv, plain): a line of one command drawn from its flag specs, with
    flags repeated and bad values among them, or a line with no command or
    an unknown one.  It is plain when no separated value starts with '-', no
    token is one that argparse may read although it is not a full flag of
    the command, and no '--flag=--' (a usage error) is given a value again
    later in the line."""
    command = draw(st.sampled_from([*COMMANDS, None, "frobnicate"]))
    fronts = draw(st.lists(st.sampled_from([["--no-cache"], ["--cache-dir", "d"], ["--cache-dir=d"],
                                            ["--cache-dir=--"], ["--config", "c.json"]]),
                           max_size=2))
    front = [t for g in fronts for t in g]
    if command not in COMMANDS:
        rest = draw(st.lists(st.sampled_from(["extra", "", "h", "--bogus", "--c", "-h", "--m=1"]),
                             max_size=2))
        return front + ([command] if command else []) + rest, True
    specs = COMMANDS[command][2]
    groups = [_required_tokens(spec) for spec in specs if spec[1].get("required")
              and draw(st.integers(0, 9))]
    if specs:
        groups += draw(st.lists(st.sampled_from(specs).flatmap(_flag_tokens), max_size=4))
    groups += draw(st.lists(st.sampled_from([["extra"], ["--bogus"], ["--help"], ["-h"], ["--"],
                                             ["--lam", "0"], ["--m=1", "2"]]), max_size=1))
    groups = draw(st.permutations(groups))
    plain = not (_dashes_given_again(fronts) or _dashes_given_again(groups)
                 or any(len(g) == 2 and g[1].startswith("-") or g[0] in ("--", "--lam")
                        for g in groups))
    return front + [command] + [t for g in groups for t in g], plain


def _dashes_given_again(groups):
    """Whether a '--flag=--' among the token groups is given again later."""
    flags = [g[0].split("=", 1)[0] for g in groups]
    return any(g[0].endswith("=--") and flags[i] in flags[i + 1:] for i, g in enumerate(groups))


class TestParserTable:
    def test_table_covers_every_command(self):
        assert set(PARSER_LINES) == set(COMMANDS) and len(COMMANDS) == 12

    # the malformed PARSER_LINES whose tokens the table cannot all read: a
    # store_true flag with a value, an unknown flag, a flag without its
    # value and a stray token
    LEFT_TO_ARGPARSE = {"graded-cartan", "recover", "equiv", "center"}

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "malformed"])
    @pytest.mark.parametrize("command", list(PARSER_LINES))
    def test_one_command_parser_agrees_with_full(self, command, valid):
        # the table reads each command's lines as the parser does
        argv = PARSER_LINES[command][0 if valid else 1]
        for line in (argv, ["--no-cache", "--cache-dir", "d", *argv]):
            full = _parse(build_parser(), line)
            assert isinstance(full, str) != valid, full
            table = _table(line)
            if valid:
                assert vars(table) == vars(full)
            else:
                assert table == (None if command in self.LEFT_TO_ARGPARSE else full)

    @settings(max_examples=500, deadline=None)
    @given(_lines())
    def test_table_read_agrees_with_argparse(self, line):
        argv, plain = line
        table = _table(argv)
        parsed = _parse(build_parser(), argv)
        if isinstance(table, str):
            assert table == parsed
        elif table is not None:
            assert vars(table) == vars(parsed)
        elif plain:
            assert isinstance(parsed, str), parsed

    @pytest.mark.parametrize("argv,command", [
        (["h", "--lambda", "0"], "h"),
        (["--cache-dir", "d", "--no-cache", "cb"], "cb"),
        (["--cache-dir=d", "--config=c.json", "center"], "center"),
        (["--config", "c.json", "verify", "--json"], "verify"),
        (["--cache-dir", "h", "end-dim"], "end-dim"),
    ])
    def test_command_of_names_the_command(self, argv, command):
        front = _scan_front(argv)
        assert front.exact and front.command == command

    @pytest.mark.parametrize("argv", [
        ["--cache", "d", "h"], ["--conf", "c.json", "h"], ["--help"], ["-h", "cb"], [],
        ["frobnicate"], ["--no-cache"], ["--cache-dir", "-d", "h"], ["--no-cache=1", "h"],
        ["--", "h"], ["--cache-dir=--", "h"], ["--config=--", "h"],
    ])
    def test_command_of_leaves_the_rest_to_argparse(self, argv):
        front = _scan_front(argv)
        assert not (front.exact and front.command)

    @pytest.mark.parametrize("argv", [
        ["--cache-dir", "d", "--no-cache", "h"], ["--cache", "d", "h"], ["--no", "--cache-d=e", "h"],
        ["--conf", "c.json", "--cach", "h", "h"], ["--config=c.json", "h"], ["h"],
    ])
    def test_front_reads_the_global_flags_as_argparse(self, argv):
        front = _scan_front(argv)
        args = build_parser().parse_args([*argv, "--lambda", "0"])
        assert front.command == args.command == "h" and front.rest == []
        assert front.config == args.config
        assert front.given.get("--cache-dir") == args.cache_dir
        assert ("--no-cache" in front.given) == args.no_cache

    def test_main_builds_a_parser_only_for_lines_the_table_leaves(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cache, "_cache_dir", None)
        real, calls = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
        # (line, exit code, parsers built)
        for argv, code, built in [
            (["h", "--lambda", "0"], 0, 0),
            (["--no-cache", "cartan", "--m", "1", "--n", "1", "--block", B11, "--window", "-1..1",
              "--format=csv"], 0, 0),
            (["h"], 1, 0),
            (["h", "--lambda", "0", "extra"], 1, 1),
            (["h", "--lam", "0"], 0, 1),
            (["h", "--lambda=--"], 1, 1),
            (["end-dim", "--m", "1", "--n", "1", "--block", B11, "--i", "-1"], 0, 1),
            (["--cache", str(tmp_path), "h", "--lambda", "0"], 0, 1),
            (["frobnicate"], 1, 0),
            (["frobnicate", "--c"], 1, 1),
        ]:
            calls.clear()
            assert call_main(argv)[0] == code, argv
            assert len(calls) == built, argv

    # the 8 usage errors of the cli-session benchmark that argparse worded
    # before the table did, with argparse's stderr for each
    ARGPARSE_WORDED = [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'blocks', "
         "'char', 'verma-mult', 'cartan', 'graded-cartan', 'h', 'end-dim', 'recover', 'equiv', "
         "'center', 'cb', 'verify')"),
        (["h"], "the following arguments are required: --lambda"),
        (["blocks", "--m", "2"], "the following arguments are required: --n, --window"),
        (["blocks", "--m", "x", "--n", "2", "--window", "0..2"],
         "argument --m: invalid int value: 'x'"),
        (["char", "--m", "2", "--n", "2", "--block", "mu=0;nu=0;t=2", "--lambda", "0", "--kind",
          "odd"], "argument --kind: invalid choice: 'odd' (choose from 'verma', 'simple')"),
        (["verma-mult", "--m", "2", "--n", "2", "--block", "mu=0;nu=0;t=2", "--lambda",
          "offset=0;parts=2"], "the following arguments are required: --kappa"),
        (["end-dim", "--m", "2", "--n", "2", "--block", "mu=0;nu=0;t=2", "--i", "x"],
         "argument --i: invalid int value: 'x'"),
    ]

    def test_lines_the_table_reads_load_no_argparse(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        # the flag is written after help's SystemExit too
        code = ("import sys\nfrom wblocks import cli\ntry:\n    sys.exit(cli.main(sys.argv[1:]))\n"
                "finally:\n    print('argparse' in sys.modules, file=sys.stderr)")

        def run(argv):
            return run_cli(argv, python=("-c", code), env={"WBLOCKS_CACHE": ""})

        for argv in (["h", "--lambda", "0"], ["--config", str(cfg), *TestConfig.CARTAN]):
            proc = run(argv)
            assert (proc.returncode, proc.stderr) == (0, "False\n"), argv
        assert proc.stdout.startswith(',"offset=0;parts=1"')
        for argv, message in self.ARGPARSE_WORDED:
            proc = run(argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == \
                (1, "", f"usage error: {message}\nFalse\n"), argv
        # help and an abbreviated flag are still read by argparse
        for argv in (["--help"], ["h", "--lam", "0"]):
            proc = run(argv)
            assert (proc.returncode, proc.stderr) == (0, "True\n"), argv

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_names_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: wblocks {command} ")
        for flag, _ in COMMANDS[command][2]:
            assert re.search(rf"{re.escape(flag)}(?![\w-])", out), flag

    def test_help_lists_every_command(self):
        # in a process of its own, where argparse is first imported for help
        proc = run_cli(["--help"])
        assert proc.returncode == 0
        for name, (_, help_text, _) in COMMANDS.items():
            assert re.search(rf"^    {re.escape(name)} .*{re.escape(help_text[:20])}", proc.stdout,
                             re.M)


class TestConfig:
    def _config(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_key_of_another_command_is_skipped(self, tmp_path):
        cfg = self._config(tmp_path, {"format": "csv"})
        assert call_main(["--config", cfg, "h", "--lambda", "0"]) == call_main(["h", "--lambda", "0"])

    def test_global_keys(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_cache_dir", str(tmp_path / "from-env"))
        monkeypatch.setattr(qcanon, "_family_memo", {})
        argv = ["cb", "--N", "2", "--signs", "+-", "--key", "2;1"]
        cfg = self._config(tmp_path, {"no_cache": True})
        assert call_main(["--config", cfg, *argv])[0] == 0
        assert cache.current_dir() is None
        assert not (tmp_path / "from-env").exists()
        monkeypatch.setattr(qcanon, "_family_memo", {})
        cfg = self._config(tmp_path, {"cache_dir": str(tmp_path / "from-config")})
        assert call_main(["--config", cfg, *argv])[0] == 0
        assert list((tmp_path / "from-config").iterdir())
        assert call_main(["--config", cfg, "--cache-dir", str(tmp_path / "explicit"), *argv])[0] == 0
        assert cache.current_dir() == str(tmp_path / "explicit")

    def test_unknown_key_is_a_usage_error(self, tmp_path):
        cfg = self._config(tmp_path, {"frobnicate": 1})
        code, out, err = call_main(["--config", cfg, "h", "--lambda", "0"])
        assert (code, out) == (1, "") and "'frobnicate' names no flag" in err

    @pytest.mark.parametrize("data", [[1, 2], "csv", 3, None])
    def test_config_not_an_object(self, tmp_path, data):
        cfg = self._config(tmp_path, data)
        code, out, err = call_main(["--config", cfg, "h", "--lambda", "0"])
        assert (code, out) == (1, "") and err.startswith("usage error: config ")

    def test_missing_config_file(self, tmp_path):
        code, out, err = call_main(["--config", str(tmp_path / "none.json"), "h", "--lambda", "0"])
        assert (code, out) == (2, "") and "FileNotFoundError" in err

    @pytest.mark.parametrize("argv", [["--config"], ["--conf"], ["--no-cache", "--co"]])
    def test_config_without_a_path(self, argv):
        code, out, err = call_main(argv)
        assert (code, out) == (1, "") and "expected one argument" in err

    CARTAN = ["cartan", "--m", "1", "--n", "1", "--block", "mu=0;nu=0;t=1", "--window", "0..1"]

    @pytest.mark.parametrize("spelling", [["--co", "{}"], ["--con", "{}"], ["--conf", "{}"],
                                          ["--conf={}"], ["--config={}"]])
    def test_abbreviated_config_is_read(self, tmp_path, spelling):
        cfg = self._config(tmp_path, {"format": "csv"})
        expected = call_main(["--config", cfg, *self.CARTAN])
        assert expected[0] == 0 and expected[1].startswith(',"offset=0;parts=1"')
        assert call_main([s.format(cfg) for s in spelling] + self.CARTAN) == expected

    @pytest.mark.parametrize("explicit", [["--format", "json"], ["--form", "json"], ["--fo=json"],
                                          ["--f", "json"]])
    def test_explicit_flag_in_any_spelling_beats_the_config(self, tmp_path, explicit):
        cfg = self._config(tmp_path, {"format": "csv"})
        expected = call_main(self.CARTAN)
        assert expected[0] == 0 and expected[1].startswith('{"block"')
        assert call_main(["--conf", cfg, *self.CARTAN, *explicit]) == expected
        assert call_main(["--config", cfg, *self.CARTAN, *explicit]) == expected

    # a separated value is the config path only where argparse reads it as
    # the value; '-x' is a flag to argparse, so no file of that name is opened
    @pytest.mark.parametrize("value", ["-x", "-h1", "-1.", "--co"])
    def test_config_given_a_flag_is_not_opened(self, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / value).write_text(json.dumps({"format": "csv"}))
        for flag in ("--config", "--cache-dir"):
            assert call_main([flag, value, *self.CARTAN]) == \
                (1, "", f"usage error: argument {flag}: expected one argument\n")

    @pytest.mark.parametrize("value", ["-1", "-.5", "-a b"])
    def test_config_path_that_argparse_reads_as_a_value(self, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / value).write_text(json.dumps({"format": "csv"}))
        got = call_main(["--config", value, *self.CARTAN])
        assert got[0] == 0 and got[1].startswith(',"offset=0;parts=1"')
        assert got == call_main(["--config", self._config(tmp_path, {"format": "csv"}), *self.CARTAN])

    @pytest.mark.parametrize("value", ["-x", "-h", "-h1", "-1", "-1.", "-.5", "-1.5", "-1e3", "-\uff11",
                                       "-a b", "-", "", "x", "--", "--co", "--c", "--no-cache=1",
                                       "--cache-dir x", "--cache-dir=a b", "--x y"])
    def test_front_takes_a_value_where_argparse_does(self, value):
        argv = ["--config", value, "h", "--lambda", "0"]
        try:
            taken = cli.build_parser().parse_args(argv).config == value
        except cli.UsageError:
            taken = False
        assert (cli._scan_front(argv).config == value) == taken

    def test_abbreviated_global_flag_beats_the_config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qcanon, "_family_memo", {})
        cfg = self._config(tmp_path, {"cache_dir": str(tmp_path / "from-config")})
        argv = ["cb", "--N", "2", "--signs", "+-", "--key", "2;1"]
        assert call_main(["--con", cfg, "--cache", str(tmp_path / "explicit"), *argv])[0] == 0
        assert cache.current_dir() == str(tmp_path / "explicit")
        assert not (tmp_path / "from-config").exists()


class TestCbLines:
    def test_pair_with_other_shape(self):
        argv = ["cb", "--N", "3", "--signs", "+-", "--key", "1;1", "--pair-with", "2;2,1"]
        code, out, err = call_main(argv)
        assert (code, out) == (1, "")
        assert "signs '+-' do not match --pair-with rows ('+--')" in err

    def test_pair_with_weight_space_too_large(self):
        # the key's weight space has 1 vector, the paired key's 5140
        argv = ["cb", "--N", "10", "--signs", "+++---", "--key", "1,1,1;2,2,2",
                "--pair-with", "1,2,3;3,2,1"]
        code, out, err = call_main(argv)
        assert (code, out) == (2, "") and "ResourceError" in err


CB_ARGV = ["cb", "--N", "3", "--signs", "++--", "--key", "1,2;2,1"]


def _read_signed(path):
    """The JSON below a cache file's digest line."""
    return json.loads(path.read_bytes().partition(b"\n")[2])


def _write_signed(path, blob):
    """Write the bytes blob under a digest line that matches them, so a read
    gets past the digest to the checks behind it."""
    path.write_bytes(hashlib.sha256(blob).hexdigest().encode() + b"\n" + blob)


class TestCachedFamilies:
    """Reads of a family file: one vector decoded per key asked for, and a
    file whose keys or coefficients are wrong never changes an output byte."""

    @pytest.fixture
    def warm(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qcanon, "_family_memo", {})
        plain = call_main(["--no-cache", *CB_ARGV])
        assert plain[0] == 0
        monkeypatch.setattr(qcanon, "_family_memo", {})
        assert call_main(["--cache-dir", str(tmp_path), *CB_ARGV]) == plain
        (path,) = tmp_path.iterdir()
        monkeypatch.setattr(qcanon, "_family_memo", {})
        return path, plain

    def _edit(self, path, result):
        """Rewrite the file with its result replaced by result, or changed in
        place by it when it is a function."""
        data = _read_signed(path)
        if callable(result):
            result(data["result"])
        else:
            data["result"] = result
        _write_signed(path, json.dumps(data, sort_keys=True).encode())

    @pytest.mark.parametrize("extra,decoded", [([], 1), (["--pair-with", "2,1;1,2"], 2)])
    def test_warm_call_decodes_only_what_it_prints(self, warm, monkeypatch, extra, decoded):
        path, _ = warm
        calls = []
        real = qcanon._decode_vec
        monkeypatch.setattr(qcanon, "_decode_vec", lambda *a: calls.append(a) or real(*a))
        code, out, _ = call_main(["--cache-dir", str(path.parent), *CB_ARGV, *extra])
        assert code == 0 and len(calls) == decoded
        monkeypatch.setattr(qcanon, "_family_memo", {})
        assert call_main(["--no-cache", *CB_ARGV, *extra])[1] == out

    # a whole result of another shape, or a change to the file's own result
    @pytest.mark.parametrize("result", [
        {"fam": []}, [], {"keys": 3, "vecs": []}, {"keys": {"k": 1}, "vecs": {}},
        {"keys": [[1, 2]], "vecs": ["[]"]}, {"keys": [[1, 2, 2, 1]]}, {"keys": 5, "vecs": {}},
        pytest.param(lambda r: (r["keys"].reverse(), r["vecs"].reverse()), id="permuted-keys"),
        pytest.param(lambda r: r["vecs"].pop(), id="vecs-short"),
        pytest.param(lambda r: r["vecs"].append("[]"), id="vecs-long"),
        pytest.param(lambda r: r["vecs"].__setitem__(0, []), id="vec-list"),
        pytest.param(lambda r: r["vecs"].__setitem__(-1, None), id="vec-null"),
        pytest.param(lambda r: r.pop("vecs"), id="no-vecs"),
        pytest.param(lambda r: r["keys"].__setitem__(0, 5), id="key-int"),
        pytest.param(lambda r: r["keys"][0].append(1), id="key-long"),
    ])
    def test_family_of_another_shape_is_recomputed(self, warm, result):
        path, plain = warm
        original = path.read_bytes()
        self._edit(path, result)
        assert call_main(["--cache-dir", str(path.parent), *CB_ARGV]) == plain
        assert path.read_bytes() == original

    # JSON values, and bytes that are not UTF-8, nest too deep or are cut
    # short, each under a digest line that matches it
    @pytest.mark.parametrize("stored", [
        [], "family", 3, None, pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"[" * 200_000, id="too-deep"),
        pytest.param(b'{"request": {"kind": "du', id="truncated"),
    ])
    def test_file_that_is_not_an_object_is_a_miss(self, warm, stored):
        path, plain = warm
        original = path.read_bytes()
        _write_signed(path, stored if isinstance(stored, bytes) else json.dumps(stored).encode())
        assert call_main(["--cache-dir", str(path.parent), *CB_ARGV]) == plain
        assert path.read_bytes() == original

    def test_family_missing_a_key_is_recomputed(self, warm):
        path, plain = warm
        original = path.read_bytes()

        def drop_last(result):
            result["keys"].pop()
            result["vecs"].pop()
        self._edit(path, drop_last)
        assert call_main(["--cache-dir", str(path.parent), *CB_ARGV]) == plain
        assert path.read_bytes() == original

    def test_old_format_file_is_ignored(self, warm, monkeypatch):
        # a file in the layout before "format": 2, at the path of its request
        # and with every coefficient wrong: never read, never rewritten
        path, plain = warm
        path.unlink()
        weight = combinat.weight_of((1, 2), (2, 1))
        request = {"kind": "dual_family", "N": 3, "signs": "++--",
                   "weight": [list(p) for p in weight]}
        family = [{"key": list(k), "vec": TensorVec.unit(3, "++--", k).scaled(7).to_json()}
                  for k in sorted(qcanon._weight_space_keys(3, "++--", weight))]
        monkeypatch.setattr(cache, "_cache_dir", str(path.parent))
        old = path.parent / os.path.basename(cache._path(request))
        _write_signed(old, json.dumps({"request": request, "result": {"family": family}}).encode())
        blob = old.read_bytes()
        assert call_main(["--cache-dir", str(path.parent), *CB_ARGV]) == plain
        assert path.exists() and old.read_bytes() == blob

    # poisons of one vector string, each found only when that vector is decoded
    POISONS = {
        "coeff-string": lambda items: items[0].__setitem__(2, "x"),
        "coeff-true": lambda items: items[0].__setitem__(2, True),
        "coeff-zero": lambda items: items[0].__setitem__(2, 0),
        "exp-float": lambda items: items[0].__setitem__(1, 0.5),
        "rank-high": lambda items: items[-1].__setitem__(0, 15),  # the space has 15 keys
        "rank-negative": lambda items: items[0].__setitem__(0, -1),
        "rank-bool": lambda items: items[0].__setitem__(0, False),
        "rank-repeated": lambda items: items.append(list(items[-1])),
        "pair-incomplete": lambda items: items[0].append(1),
        "exp-repeated": lambda items: items[0].extend(items[0][1:3]),
        "not-items": lambda items: items.__setitem__(0, 1),
        "not-json": None,
    }

    def _each_poison(self, path, key, monkeypatch):
        """Yield the name of each poison after writing it into key's vector
        of a fresh copy of the file."""
        original = path.read_bytes()
        for name, poison in self.POISONS.items():
            data = json.loads(original.partition(b"\n")[2])
            i = data["result"]["keys"].index(key)
            if poison is None:
                data["result"]["vecs"][i] = data["result"]["vecs"][i][:-1]
            else:
                items = json.loads(data["result"]["vecs"][i])
                poison(items)
                data["result"]["vecs"][i] = json.dumps(items)
            _write_signed(path, json.dumps(data, sort_keys=True).encode())
            monkeypatch.setattr(qcanon, "_family_memo", {})
            yield name

    def test_poisoned_requested_vector_fails(self, warm, monkeypatch):
        path, _ = warm
        for name in self._each_poison(path, [1, 2, 2, 1], monkeypatch):
            code, out, err = call_main(["--cache-dir", str(path.parent), *CB_ARGV])
            assert (code, out) == (2, "") and "ValueError" in err, name

    def test_poisoned_other_vector_changes_no_byte(self, warm, monkeypatch):
        path, plain = warm
        for name in self._each_poison(path, [2, 1, 1, 2], monkeypatch):
            assert call_main(["--cache-dir", str(path.parent), *CB_ARGV]) == plain, name

    @pytest.mark.parametrize("keep_digest", [True, False], ids=["digest-stale", "digest-gone"])
    def test_tampered_coefficient_is_recomputed(self, tmp_path, monkeypatch, keep_digest):
        # key (1, 2, 2) of the N=3 ++- dual family, its coefficient -1 edited
        # to -7 below the file's digest line, or with that line removed
        argv = ["cb", "--N", "3", "--signs", "++-", "--key", "1,2;2"]
        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qcanon, "_family_memo", {})
        plain = call_main(["--no-cache", *argv])
        assert plain[0] == 0 and '"-1"' in plain[1]
        monkeypatch.setattr(qcanon, "_family_memo", {})
        assert call_main(["--cache-dir", str(tmp_path), *argv]) == plain
        (path,) = tmp_path.iterdir()
        original = path.read_bytes()
        digest, _, blob = original.partition(b"\n")
        edited = blob.replace(b'"[[0,1,-1],[1,0,1]]"', b'"[[0,1,-7],[1,0,1]]"')
        assert edited.count(b"-7") == 1
        path.write_bytes(digest + b"\n" + edited if keep_digest else edited)
        monkeypatch.setattr(qcanon, "_family_memo", {})
        assert call_main(["--cache-dir", str(tmp_path), *argv]) == plain
        assert path.read_bytes() == original


# Flag values built from the value parsers' own vocabulary.  A number is
# always followed by a non-digit piece, so numbers stay one digit and every
# well-formed value is cheap to compute.
_NUMBER = st.integers(-2, 4).map(str)
_PIECE = st.sampled_from([",", ";", "=", ".", "..", " ", "x", ",,", ";;", "offset=", "parts=",
                          "mu=", "nu=", "t=", "mu.parts=", "mu.offset=", "nu.parts=",
                          "nu.offset="])
VALUES = st.builds(
    lambda pairs, last: "".join(a + b for a, b in pairs) + last,
    st.lists(st.tuples(st.one_of(_NUMBER, st.just("")), _PIECE), max_size=8),
    st.one_of(_NUMBER, st.just("")),
)


def check_outcome(argv):
    code, out, err = call_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert code == 0 or out == "", (argv, code, out)


class TestValueParsersThroughMain:
    @settings(max_examples=150, deadline=None)
    @given(VALUES)
    def test_composition(self, text):
        check_outcome(["h", f"--lambda={text}"])

    @settings(max_examples=150, deadline=None)
    @given(VALUES)
    def test_block(self, text):
        check_outcome(["end-dim", "--m", "2", "--n", "2", f"--block={text}", "--i", "1"])

    @settings(max_examples=150, deadline=None)
    @given(VALUES)
    def test_window(self, text):
        check_outcome(["blocks", "--m", "1", "--n", "1", f"--window={text}"])

    @settings(max_examples=150, deadline=None)
    @given(VALUES, st.one_of(st.none(), VALUES),
           st.sampled_from(["+-", "++-", "+--", "++--", "+", "-", ""]))
    def test_key(self, key, pair, signs):
        pair_flag = [] if pair is None else [f"--pair-with={pair}"]
        check_outcome(["cb", "--N", "3", f"--signs={signs}", f"--key={key}", *pair_flag])


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

    def test_cache_dir_that_cannot_be_written_changes_no_bytes(self, tmp_path):
        # a cache write that fails is skipped, and the answer still printed
        args = ["cb", "--N", "3", "--signs", "++-", "--key", "1,2;2"]
        (tmp_path / "file").write_text("")
        plain = run_cli(["--no-cache", *args])
        unwritable = run_cli(["--cache-dir", str(tmp_path / "file"), *args])
        assert (unwritable.returncode, unwritable.stdout, unwritable.stderr) == (0, plain.stdout, "")
        assert plain.returncode == 0 and (tmp_path / "file").read_text() == ""

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


def test_fault_names_are_spelled_as_verify_defines_them():
    from wblocks import verify

    flags = dict(COMMANDS["verify"][2])
    assert flags["--inject-fault"]["choices"] == sorted(verify.FAULTS)


def test_importing_the_cli_leaves_the_verify_suite_unloaded():
    # only a verify line imports wblocks.verify (inside cmd_verify)
    code = "import sys\nimport wblocks.cli\nprint('wblocks.verify' in sys.modules)"
    proc = run_cli([], python=("-c", code))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_verify_quick_passes(capsys):
    assert main(["verify", "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert "11/11 criteria passed" in out


class TestStdoutHoldsOnlyCommandOutput:
    """Only a CLI command's output goes to stdout: importing the package,
    computing with it in process and exiting write nothing there."""

    def test_import_writes_nothing(self, capsys):
        # a second copy of the package under another name, so that every
        # module body runs again without replacing the modules tests use
        pkg_dir = os.path.dirname(wblocks.__file__)
        name = "_wblocks_fresh_copy"
        spec = importlib.util.spec_from_file_location(
            name, wblocks.__file__, submodule_search_locations=[pkg_dir])
        try:
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
            modules = [m.name for m in pkgutil.iter_modules([pkg_dir])]
            for module in modules:
                importlib.import_module(f"{name}.{module}")
        finally:
            for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
                del sys.modules[key]
        assert "qcanon" in modules and "cli" in modules
        assert capsys.readouterr().out == ""

    def test_basis_families_write_nothing(self, capsys):
        qcanon._family_memo.clear()
        try:
            qcanon.canonical(3, (1, 2, 3), (3, 2, 1))
            qcanon.dual_canonical(4, (1, 2), (2, 1))
        finally:
            qcanon._family_memo.clear()
        assert capsys.readouterr().out == ""

    def test_import_compute_and_exit_write_nothing(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        code = "import wblocks\nfrom wblocks import qcanon\nqcanon.canonical(3, (1, 2), (2, 1))\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
