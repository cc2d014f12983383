"""Command-line interface: determinism, exit codes, plot contract."""

import json

import pytest

from negabeta.cli import main
from negabeta.numerics import beta_from_rational
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

    def test_point_division_by_zero(self, capsys):
        assert main(["expand", "--x", "1/0"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_digits_capped_by_env(self, capsys, monkeypatch):
        argv = ["expand", "--beta", "5/2", "--digits", "1000"]
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(json.loads(out)["expansion"]["digits"]) == 1000
        monkeypatch.setenv("NEGABETA_MAX_HORIZON", "40")
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(json.loads(out)["expansion"]["digits"]) == 40


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
