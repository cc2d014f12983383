"""Command-line interface: determinism, exit codes, plot contract."""

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import MATRIX, matrix_base
from negabeta import cli, codes, expansion, gaps, language, numerics
from negabeta.cli import main
from negabeta.errors import HorizonTooShort
from negabeta.language import PeriodTarget, Reference, at_horizon
from negabeta.numerics import BetaSpec, RationalInterval, beta_from_rational
from negabeta.series import lap_series


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_complete_answer(self, capsys):
        code, out = run(capsys, "expand", "--beta", "golden")
        assert code == 0
        payload = json.loads(out)
        assert payload["expansion"]["digits"] == "1(0)"
        assert payload["schema"] == 1

    def test_partial_answer(self, capsys):
        # ten digits of the 5/2 expansion do not certify a tail
        code, out = run(capsys, "expand", "--beta", "5/2", "--digits", "10")
        assert code == 2
        assert json.loads(out)["expansion"]["digits"].startswith("2110")

    def test_error(self, capsys):
        assert main(["expand", "--beta", "not-a-number"]) == 1

    def test_horizon_invariant(self):
        assert main(["laps", "--beta", "golden", "--horizon", "8",
                     "--order", "32"]) == 1

    def test_horizon_env_cap(self, monkeypatch):
        monkeypatch.setenv("NEGABETA_MAX_HORIZON", "8")
        assert main(["laps", "--beta", "golden", "--order", "32"]) == 1

    @pytest.mark.parametrize("argv", [
        ["expand", "--digits", "x"],
        ["expand", "--bogus"],
        ["expand", "--variant", "ito"],
    ])
    def test_usage_error(self, capsys, argv):
        # exit 2 means a partial answer, so a usage error is an error
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["expand", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_point_division_by_zero(self, capsys):
        assert main(["expand", "--x", "1/0"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv,option", [
        (["--poly=-2,0,1", "--interval", "1/0,2"], "--interval"),
        (["--poly=-2,0,1", "--interval", "1"], "--interval"),
        (["--poly=x,1"], "--poly"),
        (["--beta", "gamma:"], "base"),
    ], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
    def test_malformed_base_names_the_option(self, capsys, argv, option):
        assert main(["classify", *argv]) == 1
        captured = capsys.readouterr()
        assert not captured.out and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: cannot parse {option} ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["abc", "-5", ""])
    def test_malformed_env_cap_names_the_variable(self, capsys, monkeypatch,
                                                 cap):
        monkeypatch.setenv("NEGABETA_MAX_HORIZON", cap)
        assert main(["expand", "--beta", "5/2"]) == 1
        captured = capsys.readouterr()
        assert not captured.out and "Traceback" not in captured.err
        assert captured.err.startswith(
            f"error: cannot parse NEGABETA_MAX_HORIZON {cap!r}")
        assert captured.err.count("\n") == 1

    def test_digits_capped_by_env(self, capsys, monkeypatch):
        argv = ["expand", "--beta", "5/2", "--digits", "1000"]
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(json.loads(out)["expansion"]["digits"]) == 1000
        monkeypatch.setenv("NEGABETA_MAX_HORIZON", "40")
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(json.loads(out)["expansion"]["digits"]) == 40

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        assert main(["expand", "--beta", "2", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--beta", "2", "--order", "-2"],
        ["laps", "--order", "-1"],
        ["codes", "--length", "-1"],
        ["periodic-points", "--n", "-1"],
        ["expand", "--digits", "-3"],
    ], ids=" ".join)
    def test_negative_count(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out

    def test_zero_periods(self, capsys):
        # no period to count: an empty list, a complete answer, no pass
        code, out = run(capsys, "periodic-points", "--n", "0")
        assert code == 0 and json.loads(out)["counts"] == []

    def test_zero_digits(self, capsys):
        code, out = run(capsys, "expand", "--beta", "5/2", "--digits", "0")
        assert code == 2
        assert json.loads(out)["expansion"]["digits"] == ""

    @pytest.mark.parametrize("beta", ["golden", "3/2"])
    def test_zero_length_code(self, capsys, beta):
        # at or below the golden ratio the code is {0}, and no word of it
        # is as short as length 0
        _, out = run(capsys, "codes", "--beta", beta, "--length", "0")
        code_c = json.loads(out)["code_c"]
        assert (code_c["census"], code_c["words"]) == ({}, [])

    def test_codes_blocks_open_at_horizon(self, capsys):
        # the last block of the truncated 13/10 stream is still open at the
        # horizon: the families' own blocks are listed as a partial answer
        code, out = run(capsys, "codes", "--beta", "13/10")
        assert code == 2
        payload = json.loads(out)
        assert not payload["blocks_complete"]
        assert [(b["n"], b["p"]) for b in payload["blocks"]][:5] == \
            [(2, 1), (3, 1), (4, 1), (5, 1), (6, 6)]
        assert payload["support_code"] == {"kind": "DeltaI", "level": 1}


SHARED_OPTIONS = ["--beta", "--poly", "--interval", "--horizon", "--out"]
OWN_OPTIONS = {
    "expand": ["--x", "--digits"],
    "classify": [],
    "codes": ["--length"],
    "complexity": ["--order"],
    "laps": ["--order"],
    "zeta": ["--order"],
    "periodic-points": ["--target", "--n"],
    "gaps": [],
    "verify": ["--order"],
    "plot": ["--iterate"],
}


class TestOptions:
    """Each subcommand takes the shared options and only those its body
    reads; the horizon has to cover only an --order or --length it has."""

    def test_option_table(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: [s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, p in sub.choices.items()}
        assert got == {name: SHARED_OPTIONS + own
                       for name, own in OWN_OPTIONS.items()}
        assert sum(map(len, got.values())) == 60

    def test_short_horizon_without_order(self, capsys):
        code, out = run(capsys, "expand", "--beta", "5/2", "--horizon", "10")
        assert code == 2
        assert len(json.loads(out)["expansion"]["digits"]) == 10

    def test_env_cap_below_former_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("NEGABETA_MAX_HORIZON", "20")
        code, out = run(capsys, "classify", "--beta", "13/10")
        assert code == 0
        assert json.loads(out)["witness"] == "1000"

    @pytest.mark.parametrize("argv", [
        ["classify", "--beta", "2", "--order", "7"],
        ["plot", "--beta", "2", "--n", "3"],
    ], ids=" ".join)
    def test_stray_option_refused(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage:") and not captured.out
        assert "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("argv, order", [
        (["verify", "--beta", "5/2", "--order", "20"], 20),
        (["verify", "--beta", "5/2"], 16),
    ], ids=["order 20", "default"])
    def test_verify_order_honoured(self, capsys, argv, order):
        code, out = run(capsys, *argv)
        assert code == 0
        identities = json.loads(out)["identities"]
        assert identities
        assert {v["order"] for v in identities.values()} == {order}

    @pytest.mark.parametrize("command", ["expand", "laps"])
    def test_negative_horizon(self, capsys, command):
        assert main([command, "--horizon", "-5"]) == 1
        assert capsys.readouterr().err == "error: --horizon is negative\n"

    def test_horizon_names_the_option(self, capsys):
        assert main(["codes", "--beta", "5/2", "--length", "9",
                     "--horizon", "8"]) == 1
        assert capsys.readouterr().err == (
            "error: horizon 8 is below --length 9\n")

    def test_horizon_covers_iterate(self, capsys):
        # the cylinders of T^n read n digits of d*
        assert main(["plot", "--beta", "5/2", "--iterate", "4",
                     "--horizon", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: horizon 2 is below --iterate 4\n")
        code, out = run(capsys, "plot", "--beta", "13/10", "--iterate", "3",
                        "--horizon", "3")
        assert code == 0 and out.count('class="lap"') == 7


class TestDeterminism:
    def test_byte_identical(self, capsys):
        _, out1 = run(capsys, "codes", "--beta", "5/2", "--length", "6")
        _, out2 = run(capsys, "codes", "--beta", "5/2", "--length", "6")
        assert out1 == out2

    def test_verify_golden(self, capsys):
        code, out = run(capsys, "verify", "--beta", "golden", "--order", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_zero"] is True
        assert all(v["residual"] == "0"
                   for v in payload["identities"].values())


class TestSubcommands:
    def test_laps(self, capsys):
        code, out = run(capsys, "laps", "--beta", "golden", "--order", "6")
        assert code == 0
        assert json.loads(out)["laps"] == ["1", "2", "4", "7", "12", "20",
                                           "33"]

    def test_zeta(self, capsys):
        code, out = run(capsys, "zeta", "--beta", "2", "--order", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta_transformation"] == ["1", "3", "6", "12", "24"]
        assert payload["zeta_shift"] == ["1", "3", "7", "15", "31"]

    def test_periodic_points(self, capsys):
        code, out = run(capsys, "periodic-points", "--beta", "2", "--n", "3",
                        "--target", "shift")
        assert code == 0
        assert json.loads(out)["counts"] == ["3", "5", "9"]

    def test_periodic_points_to_64(self, capsys):
        # the counts run on the automaton's cycles, not on the words; the
        # time bound only guards against a hang (it takes under a second)
        t0 = time.perf_counter()
        code, out = run(capsys, "periodic-points", "--beta", "5/2", "--n",
                        "64")
        assert time.perf_counter() - t0 < 60
        assert code == 0
        assert len(json.loads(out)["counts"]) == 64

    def test_gaps(self, capsys):
        code, out = run(capsys, "gaps", "--beta", "13/10")
        payload = json.loads(out)
        assert payload["cascade_level"] == 1
        assert payload["u"] == "100" and payload["v"] == "11"
        assert len(payload["gaps"]) >= 1

    def test_classify(self, capsys):
        code, out = run(capsys, "classify", "--beta", "13/10")
        assert code == 0
        payload = json.loads(out)
        assert payload["transitive"] is False
        assert payload["witness"] == "1000"

    def test_gamma_alias(self, capsys):
        # gamma:1 is the cascade threshold with expansion 100(1)
        code, out = run(capsys, "expand", "--beta", "gamma:1")
        assert code == 0
        assert json.loads(out)["expansion"]["digits"] == "100(1)"

    def test_poly_beta(self, capsys):
        code, out = run(capsys, "expand", "--poly=-1,-1,1",
                        "--interval", "1,2")
        assert code == 0
        assert json.loads(out)["expansion"]["digits"] == "1(0)"


class TestPlot:
    @pytest.mark.parametrize("beta,n,expected", [
        ("5/2", 1, 3),
        ("5/2", 3, 20),
    ])
    def test_segment_count_matches_laps(self, capsys, beta, n, expected):
        code, out = run(capsys, "plot", "--beta", beta, "--iterate", str(n))
        assert code == 0
        assert out.count('<line class="lap"') == expected
        p, q = (beta.split("/") + ["1"])[:2]
        laps = lap_series(beta_from_rational(int(p), int(q)), n).as_ints()
        assert laps[n] == expected

    @pytest.mark.parametrize("beta", ["5/2", "13/10", "2", "3", "golden"])
    def test_lines_are_laps_from_iterate_0(self, capsys, beta):
        # T^0 is the identity: one lap, the cylinder of the empty word
        laps = lap_series(cli.parse_beta(beta), 4).coeffs
        for n in range(5):
            code, out = run(capsys, "plot", "--beta", beta,
                            "--iterate", str(n))
            assert code == 0
            assert out.count('<line class="lap"') == laps[n], (beta, n)

    def test_integer_base_endpoint_branch(self, capsys):
        code, out = run(capsys, "plot", "--beta", "2", "--iterate", "1")
        assert code == 0
        assert out.count('<line class="lap"') == 2
        assert 'class="endpoint-branch"' in out

    def test_negative_iterate(self, capsys):
        assert main(["plot", "--beta", "5/2", "--iterate", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t3.svg"
        code = main(["plot", "--beta", "5/2", "--iterate", "3",
                     "--out", str(target)])
        assert code == 0
        assert target.read_text().count('<line class="lap"') == 20


class TestHorizonContext:
    """`main` runs a command at its own horizon and leaves the one in force
    as it found it, whatever the exit code."""

    @staticmethod
    def _in_force() -> int:
        return Reference.for_beta(beta_from_rational(5, 2)).horizon

    @pytest.mark.parametrize("argv, code", [
        (["laps", "--beta", "golden", "--order", "8", "--horizon", "64"], 0),
        (["expand", "--beta", "5/2", "--x", "1/0", "--horizon", "64"], 1),
        (["expand", "--beta", "5/2", "--horizon", "64"], 2),
    ], ids=["complete", "error", "partial"])
    def test_main_restores_horizon(self, capsys, argv, code):
        assert self._in_force() == 512
        with at_horizon(77):
            assert main(argv) == code
            assert self._in_force() == 77
        assert self._in_force() == 512

    def test_restored_after_exception(self):
        with pytest.raises(ZeroDivisionError):
            with at_horizon(64):
                assert self._in_force() == 64
                1 / 0
        assert self._in_force() == 512


class TestCascadeCommands:
    def test_deep_base_stops_at_horizon(self, capsys):
        # level 9 needs about 4.8k digits of d, and placing beta against
        # gamma_8 alone 1024; the default horizon is 512, so no field is
        # known.  The time bound only guards against a hang (the command
        # takes under a second).
        t0 = time.perf_counter()
        code, out = run(capsys, "gaps", "--beta", "1001/1000")
        assert time.perf_counter() - t0 < 60
        assert code == 2
        payload = json.loads(out)
        assert payload.pop("partial_reason") == {"kind": "horizon",
                                                 "at_digit": 512}
        assert payload.pop("schema") == 1
        assert set(payload.values()) == {None}
        _, decided = run(capsys, "gaps", "--beta", "13/10")
        assert payload.keys() == json.loads(decided).keys() - {"schema"}

    def test_gaps_reads_level_at_command_horizon(self, capsys):
        code, out = run(capsys, "gaps", "--beta", "1001/1000",
                        "--horizon", "5000")
        assert code == 2  # the parse of 256 digits ends inside a token
        payload = json.loads(out)
        assert payload["cascade_level"] == 9
        assert len(payload["gaps"]) == 341
        code, out = run(capsys, "gaps", "--beta", "101/100", "--horizon", "128")
        assert code == 2  # placing beta against gamma_6 needs more digits
        payload = json.loads(out)
        assert payload["cascade_level"] is None
        assert payload["partial_reason"] == {"kind": "horizon",
                                             "at_digit": 128}

    def test_gaps_expands_once(self, capsys, monkeypatch):
        # the level and the parse read one reference expansion
        calls = []
        pair = language.reference_pair

        def counted(*args):
            calls.append(args)
            return pair(*args)

        monkeypatch.setattr(language, "reference_pair", counted)
        code, _ = run(capsys, "gaps", "--beta", "13/10")
        assert code == 2
        assert len(calls) == 1

    def test_codes_level_undecided_is_partial(self, capsys):
        # 101/100 is at level 5; placing it against gamma_6 needs more than
        # 128 digits, so the families are listed without a support code.
        # (At --horizon 64 the blocks the families read already run out.)
        code, out = run(capsys, "codes", "--beta", "101/100",
                        "--horizon", "128")
        assert code == 2
        payload = json.loads(out)
        assert payload["support_code"] is None
        assert payload["support_code_undecided"] == (
            "beta against gamma_6: sequences agree through digit 128")
        code, out = run(capsys, "codes", "--beta", "101/100")
        assert code == 2
        full = json.loads(out)
        assert full["support_code"] == {"kind": "DeltaI", "level": 5}
        assert "support_code_undecided" not in full
        families = ["gamma", "gamma0", "gamma0_prime", "gamma1",
                    "gamma1_prime", "delta_odd", "delta_evn", "code_c",
                    "delta_i"]
        assert payload["delta_i"]
        assert ({k: payload[k] for k in families}
                == {k: full[k] for k in families})

    @pytest.mark.parametrize("argv", [["gaps", "--beta", "101/100"],
                                      ["codes", "--beta", "13/10"]])
    def test_rational_base_builds_no_gamma(self, capsys, monkeypatch, argv):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for mod, name in ((language, "gamma_n"), (language, "beta_from_poly"),
                          (cli, "beta_from_poly")):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        assert main(argv) in (0, 2)
        assert calls == []

    def test_code_c_built_once(self, capsys, monkeypatch):
        calls = []
        build = codes.build_code_C

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(codes, "build_code_C", counted)
        code, out = run(capsys, "codes", "--beta", "5/2", "--length", "12")
        assert code == 0
        assert json.loads(out)["support_code"]["kind"] == "CFull"
        assert len(calls) == 1

    @pytest.mark.parametrize("beta", ["golden", "5/2", "13/10"])
    def test_complexity_equals_laps(self, capsys, beta):
        # H_n = L_n: both come from d*
        code, out = run(capsys, "complexity", "--beta", beta, "--order", "24")
        assert code == 0
        complexity = json.loads(out)["complexity"]
        code, out = run(capsys, "laps", "--beta", beta, "--order", "24")
        assert code == 0
        assert complexity == json.loads(out)["laps"][1:]


# the CLI spelling of each MATRIX base
CLI_BASES = {"golden": ["--beta", "golden"],
             "plastic": ["--poly=-1,-1,0,1", "--interval=1,2"],
             "quintic": ["--poly=1,1,-1,-2,-2,1", "--interval=2,3"],
             "q302": ["--poly=-1,-2,-3,-3,1", "--interval=3,4"],
             "deg7": ["--poly=-1,-1,0,0,0,0,0,1", "--interval=1,2"]}


class TestPeriodicPointsFailFast:
    """`periodic-points` checks every period the horizon must decide
    before it counts any, and answers as counting them in turn would."""

    @staticmethod
    def _ascending(beta, horizon, n, target):
        """(stdout, stderr, exit code) of counting periods 1..n in turn."""
        with at_horizon(horizon):
            try:
                counts = [language.count_periodic_points(k, beta, target)
                          for k in range(1, n + 1)]
            except HorizonTooShort as e:
                return "", f"error: {e}\n", 1
        payload = {"schema": 1, "target": target.value,
                   "counts": [str(c) for c in counts]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n", "", 0

    @pytest.mark.parametrize("name", MATRIX)
    def test_matches_ascending_counts(self, capsys, name):
        base = CLI_BASES.get(name, ["--beta", name])
        for horizon in (5, 8, 11):
            for target in PeriodTarget:
                n = 2 * horizon + 2
                code = main(["periodic-points", *base, "--horizon",
                             str(horizon), "--n", str(n),
                             "--target", target.value])
                out, err = capsys.readouterr()
                assert (out, err, code) == self._ascending(
                    matrix_base(name), horizon, n, target), (horizon, target)

    def test_fails_before_counting(self, capsys):
        # counting every n <= 509 first took over 5 minutes
        t0 = time.perf_counter()
        code = main(["periodic-points", "--beta", "5/2", "--n", "600"])
        assert time.perf_counter() - t0 < 5
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == ("error: the first 512 digits of a bound repeat with "
                       "period 510\n")


class TestInvariantErrors:
    """A broken invariant is a package error: exit 1 and an error: line,
    also under python -O, which strips assert statements."""

    def _fails_cleanly(self, capsys, *argv):
        assert main(list(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        return err

    def test_rational_root_met_by_refinement(self, capsys, monkeypatch):
        # a "minimal polynomial" (2x - 3)(x - 5) with its root 3/2 at the
        # first bisection midpoint of [1, 2]
        spec = BetaSpec("algebraic", minpoly=(15, -13, 2),
                        interval=RationalInterval(F(1), F(2)), root_index=0)
        monkeypatch.setattr(cli, "parse_beta", lambda *args: spec)
        err = self._fails_cleanly(capsys, "expand")
        assert "3/2 is a root of the minimal polynomial" in err

    def test_left_endpoint_outside_interval(self, capsys, monkeypatch):
        real = expansion.expand
        monkeypatch.setattr(expansion, "expand", lambda *args: dataclasses.replace(
            real(*args), int_len=1))
        err = self._fails_cleanly(capsys, "classify", "--beta", "5/2")
        assert "l_beta lies outside I" in err

    def test_gap_endpoints_out_of_order(self, capsys, monkeypatch):
        monkeypatch.setattr(gaps, "fe_compare", lambda *args: 1)
        err = self._fails_cleanly(capsys, "gaps", "--beta", "13/10")
        assert "endpoints out of order" in err


class TestCertificateInvariant:
    def test_certified_square_is_caught(self, capsys, monkeypatch):
        # (x^2 - 2)^2 has one root in [1, 2], of even multiplicity: a
        # certificate that accepted it would leave equal endpoint signs
        monkeypatch.setattr(numerics, "_certified_irreducible", lambda f: True)
        assert main(["expand", "--poly=4,0,-4,0,1", "--interval=1,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not squarefree" in err


class TestPartialReasons:
    def test_codes_says_which_block_is_open(self, capsys):
        code, out = run(capsys, "codes", "--beta", "13/10")
        assert code == 2
        assert json.loads(out)["blocks_open"] == (
            "block at position 512: match still open at the horizon")

    def test_complete_blocks_have_no_reason(self, capsys):
        code, out = run(capsys, "codes", "--beta", "5/2", "--length", "8")
        assert code == 0
        assert "blocks_open" not in json.loads(out)

    @pytest.mark.parametrize("beta", ["5/2", "3/2", "13/10"])
    def test_short_horizon_reads_what_the_length_needs(self, capsys, beta):
        # 64 digits leave a block at position 64 open, but words of length
        # 4 read no block that far: the families are those of the default
        # horizon, and the answer is partial only for the block list
        code, out = run(capsys, "codes", "--beta", beta, "--horizon", "64",
                        "--length", "4")
        assert code == 2
        short = json.loads(out)
        assert short["blocks_open"].endswith("match still open at the horizon")
        code, out = run(capsys, "codes", "--beta", beta, "--length", "4")
        full = json.loads(out)
        families = ["gamma", "gamma0", "gamma0_prime", "gamma1",
                    "gamma1_prime", "delta_odd", "delta_evn", "code_c",
                    "delta_i", "support_code"]
        assert {k: short[k] for k in families} == {k: full[k] for k in families}


class TestGammaDegreeBound:
    def test_above_the_bound_is_refused_unbuilt(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(language, "gamma_n", built.append)
        for n in ("9", "1000000000000"):
            assert main(["classify", "--beta", f"gamma:{n}"]) == 1
            err = capsys.readouterr().err
            assert err == f"error: gamma:{n} has degree above 342\n"
        assert built == []

    def test_at_the_bound(self):
        assert cli.GAMMA_MAX_DEGREE == 342
        assert cli.parse_beta("gamma:8").degree == 342


def _child(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on this package, run with argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(cli.__file__).resolve().parent.parent),
        env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          **kwargs)


def _fresh(script: str) -> str:
    """The stdout of script run in a fresh interpreter on this package."""
    done = _child("-c", script)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestOutOfMemory:
    @staticmethod
    def _cap():
        cap = 512 << 20  # bytes of address space
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    @pytest.mark.parametrize("argv", ["periodic-points --beta 100000000 --n 2",
                                      "plot --beta 100000000",
                                      "periodic-points --beta 1e30 --n 1",
                                      "plot --beta 1e30 --iterate 1"])
    def test_reported_without_traceback(self, argv):
        # an automaton row holds d1 + 1 = 10^8 + 1 entries, more than
        # 512 MB can hold, and 10^30 + 1 entries are more than a list's
        # length can count: the command exits 1 with one line, not a traceback
        done = _child("-m", "negabeta.cli", *argv.split(),
                      preexec_fn=self._cap)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: out of memory\n"


class TestImports:
    def test_commands_load_no_sympy(self):
        # a fresh interpreter: this one has sympy loaded already
        script = """
import contextlib, io, sys
from negabeta.cli import main
for argv in (["zeta", "--beta", "2"],
             ["verify", "--beta", "golden", "--order", "16"],
             ["expand", "--poly=-1,-1,0,0,0,0,0,1", "--interval=1,2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) in (0, 2), argv
print(sorted(m for m in sys.modules if m.startswith("sympy.")))
"""
        # no submodule, sympy.core included (the lazy module object itself
        # is registered as sympy)
        assert _fresh(script) == "[]"

    @pytest.mark.parametrize("argv, executed", [
        ("expand --beta 5/2 --digits 10", []),
        ("classify --beta 13/10", []),
        ("periodic-points --beta 2 --n 5 --target shift", []),
        # golden is gamma_0, built by language; only verify reads a code
        # family
        ("laps --beta golden --order 10", ["series"]),
        ("zeta --beta 2 --order 8", ["series"]),
        ("complexity --beta golden --order 8", []),
    ])
    def test_command_executes_only_its_layers(self, argv, executed):
        script = f"""
import contextlib, io, sys, types
from negabeta.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv.split()!r}) in (0, 2)
# type() reads no attribute, so it leaves a lazy module unexecuted
print(sorted(m for m in ("codes", "gaps", "plot", "series")
             if type(sys.modules.get("negabeta." + m)) is types.ModuleType))
"""
        assert _fresh(script) == str(executed)

    @pytest.mark.parametrize("argv", ["zeta --beta 2 --order 8",
                                      "verify --beta golden --order 16"])
    def test_one_kneading_recurrence(self, argv):
        # the lap and zeta series read the one E = 1/den(d*) that
        # kneading_series keeps in the command's run, so the recurrence
        # runs once; the run's store is counted before the block drops it
        script = f"""
import contextlib, io
from negabeta import cli, language
kept = []

@contextlib.contextmanager
def recorded(n):
    with language.at_horizon(n) as run:
        yield run
        kept.append(sum(f is language.kneading_series.__wrapped__
                        for f, _ in run.kept))

cli.at_horizon = recorded
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv.split()!r}) == 0
print(*kept)
"""
        assert _fresh(script) == "1"

    def test_lazy_layers_bound_on_package(self):
        script = """
import sys
import negabeta.cli, negabeta.codes
negabeta.codes.build_gamma
from negabeta import series
series.lap_series
print(negabeta.cli.codes is sys.modules["negabeta.codes"],
      negabeta.cli.series is series)
"""
        assert _fresh(script) == "True True"


class TestClassifyOpenTail:
    # 1 - 2x - x^2 - 3x^3 + x^4 has a root in (1, 4) above the golden ratio
    # whose d = (31021) closes only at digit 6, with odd period 5
    ODD5 = ("classify", "--poly=1,-2,-1,-3,1", "--interval", "1,4")
    TAIL = ("odd_period", "shift_coded", "transitive", "witness")

    def test_open_d_waits_for_its_period(self, capsys):
        for horizon in range(1, 21):
            code, out = run(capsys, *self.ODD5, "--horizon", str(horizon))
            payload = json.loads(out)
            assert payload["beta_ge_golden"], horizon
            assert payload["corrected_shift_coded"], horizon
            if horizon <= 5:
                assert code == 2, horizon
                assert payload["partial_reason"] == {
                    "kind": "horizon", "at_digit": horizon}
                assert all(payload[k] is None for k in self.TAIL), horizon
            else:
                assert code == 0, horizon
                assert "partial_reason" not in payload
                assert payload["odd_period"] == 5
                assert payload["shift_coded"] is payload["transitive"] is False
                assert payload["witness"] == "31020"

    @pytest.mark.parametrize("base", [
        ("--beta", "13/10"),
        ("--poly=-1,-1,0,0,0,0,0,1", "--interval", "1,2")])
    def test_golden_side_undecided(self, capsys, base):
        # d at both bases starts 1001, tied with the golden ratio's
        # 1 0 0 0 ... through digit 3, so horizons 1-3 decide no verdict
        fields = self.TAIL + ("beta_ge_golden", "corrected_shift_coded")
        for horizon in range(1, 6):
            code, out = run(capsys, "classify", *base,
                            "--horizon", str(horizon))
            payload = json.loads(out)
            if horizon <= 3:
                assert code == 2, horizon
                assert payload["partial_reason"] == {
                    "kind": "horizon", "at_digit": horizon}
                assert all(payload[k] is None for k in fields), horizon
            else:
                assert code == 0, horizon
                assert "partial_reason" not in payload
                assert payload["beta_ge_golden"] is False

    def test_open_d_that_never_closes(self, capsys):
        # d at 5/2 can never close, so four digits decide it
        code, out = run(capsys, "classify", "--beta", "5/2", "--horizon", "4")
        assert code == 0
        payload = json.loads(out)
        assert "partial_reason" not in payload
        assert payload["odd_period"] is None and payload["shift_coded"]


class TestZetaOpenTail:
    # zeta divides by the factor an odd period of d adds, so an open d
    # answers in full only where it can never close

    def test_open_d_that_never_closes(self, capsys):
        code, out = run(capsys, "zeta", "--beta", "5/2", "--order", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["d_certified_periodic"] is False
        assert "partial_reason" not in payload
        assert payload["zeta_shift"][:5] == ["1", "3", "7", "17", "42"]

    @pytest.mark.parametrize("base,horizon", [
        (TestClassifyOpenTail.ODD5[1:], 5),
        (("--poly=-1,-1,0,0,0,0,0,1", "--interval", "1,2"), 64)])
    def test_open_d_that_may_close(self, capsys, base, horizon):
        # the quartic's d = (31021) closes at digit 6; x^7 - x - 1's is
        # open at every horizon tried
        code, out = run(capsys, "zeta", *base, "--order", "4",
                        "--horizon", str(horizon))
        assert code == 2
        payload = json.loads(out)
        assert payload["d_certified_periodic"] is False
        assert payload["partial_reason"] == {"kind": "horizon",
                                             "at_digit": horizon}

    def test_closed_d_is_complete(self, capsys):
        code, out = run(capsys, "zeta", *TestClassifyOpenTail.ODD5[1:],
                        "--order", "4", "--horizon", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["d_certified_periodic"] is True
        assert "partial_reason" not in payload
