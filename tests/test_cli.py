"""Command-line interface: subcommand behavior, exit-code contract,
output formats, and scan reproducibility."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from twistkit import cli, matrix_elements


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestField:
    def test_json_output_shape(self, capsys):
        code, out, _ = run(["field", "--kind", "tm", "--m", "1",
                            "--kperp", "0.8", "--kz", "1.2",
                            "--at", "1.0,0.5,0.2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"A", "E", "B", "omega"}
        for label in ("A", "E", "B"):
            assert set(data[label]) == {"x", "y", "z"}
        assert data["omega"] == pytest.approx((0.8 ** 2 + 1.2 ** 2) ** 0.5)

    def test_e_is_iwA(self, capsys):
        code, out, _ = run(["field", "--kind", "te", "--m", "2",
                            "--kperp", "1.0", "--kz", "0.7",
                            "--at", "1.3,0.2,0.0"], capsys)
        data = json.loads(out)
        w = data["omega"]
        ax = complex(*data["A"]["x"])
        ex = complex(*data["E"]["x"])
        assert ex == pytest.approx(1j * w * ax)

    def test_invalid_flag_exits_2(self, capsys):
        code, _, _ = run(["field", "--kind", "tm", "--m", "1",
                          "--badflag"], capsys)
        assert code == 2

    def test_domain_error_exits_3(self, capsys):
        code, _, err = run(["field", "--kind", "tm", "--m", "1",
                            "--kperp", "-0.5", "--kz", "1.0",
                            "--at", "1,0,0"], capsys)
        assert code == 3
        assert "domain error" in err

    @pytest.mark.parametrize("rho", ["nan", "inf", "-1"])
    def test_bad_rho_exits_3(self, rho, capsys):
        code, out, err = run(["field", "--kind", "tm", "--m", "1",
                              "--kperp", "0.8", "--kz", "1.2",
                              f"--at={rho},0,0"], capsys)
        assert code == 3
        assert out == ""
        assert "domain error: rho must be >= 0 and finite" in err

    @pytest.mark.parametrize("at, name", [("1,nan,0", "phi"),
                                          ("1,0,inf", "z"),
                                          ("1,0,0,-inf", "t")])
    def test_non_finite_coordinate_exits_3(self, at, name, capsys):
        # Named before any field is evaluated, not by the field's sample.
        code, out, err = run(["field", "--kind", "tm", "--m", "1",
                              "--kperp", "0.8", "--kz", "1.2",
                              f"--at={at}"], capsys)
        assert code == 3
        assert out == ""
        assert f"domain error: {name} must be finite" in err

    @pytest.mark.parametrize("at", ["1,x,0", "1,0", "1,0,0,0,5"])
    def test_malformed_point_exits_2(self, at, capsys):
        code, _, err = run(["field", "--kind", "tm", "--m", "1",
                            "--kperp", "0.8", "--kz", "1.2", "--at", at], capsys)
        assert code == 2
        assert "invalid arguments" in err


class TestChannels:
    def test_tm_dipole_row_count(self, capsys):
        code, out, _ = run(["channels", "--m", "2", "--kind", "tm",
                            "--interaction", "dipole"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 3  # header + three channels

    def test_te_m0_dipole_row_count(self, capsys):
        code, out, _ = run(["channels", "--m", "0", "--kind", "te",
                            "--interaction", "dipole"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 2

    def test_conservation_in_output(self, capsys):
        m = 3
        code, out, _ = run(["channels", "--m", str(m), "--kind", "tm",
                            "--interaction", "spin"], capsys)
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            dmr, dmq, dsp = (int(c) for c in row.split(",")[:3])
            assert dmr + dmq + dsp == -m

    @pytest.mark.parametrize("order", ["1,2", "1,2,3,4", "1,x,0", ""])
    def test_malformed_order_exits_2(self, order, capsys):
        code, _, err = run(["channels", "--m", "1", "--kind", "tm",
                            "--interaction", "general", "--order", order],
                           capsys)
        assert code == 2
        assert "invalid arguments" in err

    @pytest.mark.parametrize("flag", ["--order=0,2,5", "--order=-1,0,0",
                                      "--max-multipole=-1"])
    def test_invalid_order_exits_3(self, flag, capsys):
        # Each once printed an empty table and exited 0.
        code, out, err = run(["channels", "--m", "1", "--kind", "tm",
                              "--interaction", "general", flag], capsys)
        assert code == 3
        assert "domain error" in err
        assert out == ""

    @pytest.mark.parametrize("flags", [
        ["--interaction", "dipole", "--order", "1,0,0"],
        ["--interaction", "spin", "--max-multipole", "3"],
        ["--interaction", "general", "--order", "0,1,0",
         "--max-multipole", "2"]], ids=["dipole_order", "spin_multipole",
                                        "general_both"])
    def test_order_the_interaction_ignores_exits_3(self, flags, capsys):
        # Each once exited 0 with a table that ignored one flag.
        code, out, err = run(["channels", "--m", "2", "--kind", "tm", *flags],
                             capsys)
        assert code == 3
        assert "domain error" in err
        assert out == ""


class TestAmplitude:
    def test_hydrogen_emission(self, capsys):
        code, out, _ = run(["amplitude", "--kind", "tm", "--m", "0",
                            "--kperp", "0.8", "--kz", "1.2",
                            "--cm-in", "trapped:1,0,1.0",
                            "--cm-out", "trapped:1,0,1.0",
                            "--int-in", "2p:0", "--int-out", "1s"], capsys)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        assert records[0]["delta_m_R"] == 0
        assert abs(complex(*records[0]["amplitude"])) > 0.0

    @pytest.mark.parametrize("flag,value", [
        ("--cm-in", "trapped:1"),
        ("--cm-in", "trapped:1,0,1.0,2"),
        ("--cm-in", "trapped:1,x,1.0"),
        ("--cm-out", "free:1"),
        ("--cm-out", "free:1,0.5,0.1,0.2"),
        ("--cm-out", "free:a,0.5"),
        ("--int-in", "2p:x"),
        ("--int-out", "1s:0,1"),
    ])
    def test_malformed_state_exits_2(self, flag, value, capsys):
        argv = {"--cm-in": "trapped:1,0,1.0", "--cm-out": "trapped:1,0,1.0",
                "--int-in": "2p:0", "--int-out": "1s"}
        argv[flag] = value
        code, _, err = run(["amplitude", "--kind", "tm", "--m", "0",
                            "--kperp", "0.8", "--kz", "1.2"]
                           + [t for kv in argv.items() for t in kv], capsys)
        assert code == 2
        assert "invalid arguments" in err

    def test_kz_zero_exits_3(self, capsys):
        code, _, err = run(["amplitude", "--kind", "tm", "--m", "0",
                            "--kperp", "0.8", "--kz", "0",
                            "--cm-in", "trapped:1,0,1.0",
                            "--cm-out", "trapped:1,0,1.0",
                            "--int-in", "2p:0", "--int-out", "1s"], capsys)
        assert code == 3
        assert "k_z = 0" in err

    def test_free_non_convergence_exits_3(self, tmp_path, capsys):
        # An amplitude's free icm0 is always a Graf triple (m_R' = m_R +-
        # order), so it takes the closed form and cannot miss the
        # tolerance; the free recoil integral that still runs body plus
        # tail is triple_bessel at n >= 1.  k_R = 1e-6 puts the cut-offs
        # beyond 1152 half-periods.
        path, _ = TestScan._triple_bessel_config(tmp_path, 1e-6, 1.0, n=1)
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "body plus tail" in err

    def test_free_amplitude_takes_the_closed_form(self, capsys):
        # The states above: the momentum triangle (0.66, 1e-6, 1.78) does
        # not close, so the order -7 overlap and the amplitude are 0.
        code, out, _ = run(["amplitude", "--kind", "tm", "--m", "-7",
                            "--kperp", "0.6637396546184631", "--kz", "1.0",
                            "--cm-in", "free:3,1e-6",
                            "--cm-out", "free:10,1.779393968169778",
                            "--int-in", "2p:0", "--int-out", "1s"], capsys)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        assert records[0]["cm_integral"] == [0.0, 0.0]

    def test_high_quanta_trapped_overlap(self, capsys):
        # The trapped states' norm here is 8.1e-11 and the bare integral
        # ~0.6, so a tolerance on the bare integral asked for 2e-20
        # relative and the command exited 3 after 200,000 evaluations.
        # The reference is mpmath at 40 digits.
        code, out, _ = run(["amplitude", "--kind", "tm", "--m", "14",
                            "--kperp", "3.0", "--kz", "1.2",
                            "--cm-in", "trapped:-1,2,1.0",
                            "--cm-out", "trapped:-15,15,1.0",
                            "--int-in", "2p:0", "--int-out", "1s"], capsys)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        cm = complex(*records[0]["cm_integral"])
        assert abs(cm - 5.04642378646891387e-11) <= 1e-16

    @pytest.mark.parametrize("k_perp", ["-1", "nan", "inf"])
    def test_invalid_k_perp_exits_3(self, k_perp, capsys):
        code, out, err = run(["amplitude", "--kind", "tm", "--m", "0",
                              "--kperp", k_perp, "--kz", "1.2",
                              "--cm-in", "trapped:1,0,1.0",
                              "--cm-out", "trapped:1,0,1.0",
                              "--int-in", "2p:0", "--int-out", "1s"], capsys)
        assert code == 3
        assert "k_perp" in err
        assert out == ""

    @pytest.mark.parametrize("flag, value", [("--qe", "nan"),
                                             ("--energy-scale", "inf")])
    def test_non_finite_coupling_exits_3(self, flag, value, capsys):
        # Both once exited 0 and printed "amplitude": [NaN, NaN], which is
        # not JSON.
        code, out, err = run(["amplitude", "--kind", "tm", "--m", "0",
                              "--kperp", "0.8", "--kz", "1.2",
                              "--cm-in", "trapped:1,0,1.0",
                              "--cm-out", "trapped:1,0,1.0",
                              "--int-in", "2p:0", "--int-out", "1s",
                              flag, value], capsys)
        assert code == 3
        assert "must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("state", ["free:0,inf", "free:0,1.0,inf"])
    def test_infinite_wavenumber_exits_3(self, state, capsys):
        # An infinite k_perp_R once crashed with ZeroDivisionError (exit 1,
        # the code of a verification failure); an infinite k_z_R ran.
        code, _, err = run(["amplitude", "--kind", "tm", "--m", "0",
                            "--kperp", "0.8", "--kz", "1.2",
                            "--cm-in", state, "--cm-out", "free:0,1.0",
                            "--int-in", "2p:0", "--int-out", "1s"], capsys)
        assert code == 3
        assert "domain error" in err


class TestScan:
    @staticmethod
    def _config(tmp_path, **overrides):
        cfg = {
            "quantity": "suppression",
            "fixed": {"alpha": 1.2},
            "grid": {"k_perp": {"start": 0.5, "stop": 2.0, "count": 4}},
            "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
        }
        cfg.update(overrides)
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(cfg))
        return path, cfg

    def test_deterministic_across_runs(self, tmp_path, capsys):
        path, cfg = self._config(tmp_path)
        assert cli.main(["scan", "--config", str(path)]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert cli.main(["scan", "--config", str(path)]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first
        capsys.readouterr()

    def test_csv_format(self, tmp_path, capsys):
        path, cfg = self._config(tmp_path)
        cli.main(["scan", "--config", str(path)])
        capsys.readouterr()
        text = (tmp_path / "out.csv").read_bytes().decode()
        lines = text.split("\r\n")
        assert lines[0] == "k_perp,value"
        assert len([l for l in lines if l]) == 5
        # 17 significant digits in scientific notation.
        cell = lines[1].split(",")[0]
        assert "e" in cell and len(cell.split("e")[0].replace(".", "").lstrip("-")) == 17

    def test_json_format_single_point(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        path, _ = self._config(
            tmp_path,
            grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1}},
            output={"path": str(out), "format": "json"})
        assert cli.main(["scan", "--config", str(path)]) == 0
        capsys.readouterr()
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert rows[0]["k_perp"] == 1.0

    def test_unknown_quantity_exits_3(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, quantity="nonsense")
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err

    def test_bad_grid_exits_3(self, tmp_path, capsys):
        path, _ = self._config(
            tmp_path, grid={"k_perp": {"start": 2.0, "stop": 1.0, "count": 3}})
        code, _, _ = run(["scan", "--config", str(path)], capsys)
        assert code == 3

    def test_tiny_radius_exits_3(self, tmp_path, capsys):
        # A huge radius overflows where a tiny one underflows: both exit 3.
        for radius in (1e-200, 1e160):
            path, _ = self._config(
                tmp_path, quantity="expansion_error",
                fixed={"m": 2},
                grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1},
                      "R": {"start": radius, "stop": radius, "count": 1},
                      "q": {"start": 1.0, "stop": 1.0, "count": 1}})
            code, _, err = run(["scan", "--config", str(path)], capsys)
            assert code == 3
            assert "domain error" in err

    def test_non_finite_truncation_exits_3(self, tmp_path, capsys):
        # k_perp * min(R, q) = 1e400 overflows to inf: the automatic v_max
        # once raised a bare OverflowError (a traceback and exit 1).
        path, cfg = self._config(
            tmp_path, quantity="expansion_error", fixed={"m": 2},
            grid={name: {"start": 1e200, "stop": 1e200, "count": 1}
                  for name in ("k_perp", "R", "q")})
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err
        assert not os.path.exists(cfg["output"]["path"])

    def _json_rows(self, tmp_path, capsys, **overrides):
        out = tmp_path / "out.json"
        path, _ = self._config(tmp_path, output={"path": str(out),
                                                 "format": "json"},
                               **overrides)
        assert cli.main(["scan", "--config", str(path)]) == 0
        capsys.readouterr()
        return json.loads(out.read_text())

    def test_fixed_values_reach_the_evaluator(self, tmp_path, capsys):
        # A fixed value that is not on the grid is used, not ignored.
        rows = self._json_rows(
            tmp_path, capsys, quantity="icm0", fixed={"order": 1},
            grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1}})
        cm = matrix_elements.CenterOfMassState.trapped(0, 0, 1.0)
        want = matrix_elements.icm0(cm, cm, 1.0, 1.0, 1)
        assert rows[0]["icm0_re"] == want.real
        assert rows[0]["icm0_re"] != matrix_elements.icm0(
            cm, cm, 1.0, 1.0, 0).real

    def test_fixed_required_value(self, tmp_path, capsys):
        rows = self._json_rows(
            tmp_path, capsys, quantity="triple_bessel",
            fixed={"k_perp": 1.0},
            grid={"k_perp_R": {"start": 0.7, "stop": 0.7, "count": 1},
                  "k_perp_Rp": {"start": 1.4, "stop": 1.4, "count": 1}})
        want = matrix_elements.triple_bessel(1.0, 0.7, 1.4, 0, 0, 0)
        assert rows[0]["value"] == want.value
        assert "k_perp" not in rows[0]

    def test_grid_value_wins_over_fixed(self, tmp_path, capsys):
        rows = self._json_rows(
            tmp_path, capsys, fixed={"alpha": 1.2, "k_perp": 9.0},
            grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1}})
        want = matrix_elements.suppression_factor(1.0, 1.2)
        assert rows[0] == {"k_perp": 1.0, "value": want}

    def test_missing_required_value_exits_3(self, tmp_path, capsys):
        path, _ = self._config(
            tmp_path, quantity="triple_bessel",
            grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1},
                  "k_perp_Rp": {"start": 1.4, "stop": 1.4, "count": 1}})
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err and "k_perp_R" in err

    @pytest.mark.parametrize("key", ["quantity", "grid"])
    def test_missing_config_key_exits_3(self, tmp_path, capsys, key):
        path, cfg = self._config(tmp_path)
        del cfg[key]
        path.write_text(json.dumps(cfg))
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err and key in err

    def test_top_level_list_exits_3(self, tmp_path, capsys):
        path = tmp_path / "scan.json"
        path.write_text("[1, 2]")
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err

    def test_non_numeric_fixed_value_exits_3(self, tmp_path, capsys):
        path, _ = self._config(tmp_path, fixed={"alpha": "x"})
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err and "alpha" in err

    @pytest.mark.parametrize("overrides", [
        # A fixed m = 1.5 once ran as m = 1.
        dict(quantity="channel_table", fixed={"m": 1.5},
             grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1}}),
        # The middle point once ran as m_r_in = 0 under the label 0.5.
        dict(quantity="dipole_amplitude", fixed={"k_perp": 0.8, "k_z": 1.2},
             grid={"m_r_in": {"start": 0, "stop": 1, "count": 3}})])
    def test_non_integral_integer_parameter_exits_3(self, tmp_path, capsys,
                                                    overrides):
        path, _ = self._config(tmp_path, **overrides)
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err and "must be an integer" in err
        assert not (tmp_path / "out.csv").exists()

    def test_non_integral_count_exits_3(self, tmp_path, capsys):
        # A count of 2.5 once wrote 2 rows and exited 0.
        path, _ = self._config(
            tmp_path, grid={"k_perp": {"start": 0.5, "stop": 2.0, "count": 2.5}})
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err and "must be an integer" in err
        assert not (tmp_path / "out.csv").exists()

    def test_integer_parameters_are_written_as_integers(self, tmp_path,
                                                        capsys):
        path, _ = self._config(
            tmp_path, quantity="dipole_amplitude",
            fixed={"k_perp": 0.8, "k_z": 1.2, "m": 1.0},
            grid={"m_r_in": {"start": -1, "stop": 1, "count": 3}})
        assert cli.main(["scan", "--config", str(path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1", "0", "1"]

    @pytest.mark.parametrize("overrides", [
        # A misspelt alpha once wrote a varying alpah column over identical
        # rows and exited 0.
        dict(quantity="icm0", fixed={},
             grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1},
                   "alpah": {"start": 0.5, "stop": 2.0, "count": 3}}),
        # icm0 ignores k_z.
        dict(quantity="icm0", fixed={"k_z": 1.0},
             grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1}})],
        ids=["misspelt_grid_name", "fixed_k_z"])
    def test_unread_parameter_exits_3(self, tmp_path, capsys, overrides):
        path, _ = self._config(tmp_path, **overrides)
        code, out, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        name = "alpah" if "alpah" in overrides["grid"] else "k_z"
        assert "domain error" in err and repr(name) in err
        assert out == ""
        assert not (tmp_path / "out.csv").exists()

    @staticmethod
    def _triple_bessel_config(tmp_path, k_perp_R, k_perp_Rp, n=0):
        point = {"k_perp": 1.0, "k_perp_R": k_perp_R, "k_perp_Rp": k_perp_Rp,
                 "n": n}
        return TestScan._config(
            tmp_path, quantity="triple_bessel", fixed={},
            grid={name: {"start": v, "stop": v, "count": 1}
                  for name, v in point.items()})

    def test_wrong_tail_exits_3(self, tmp_path, capsys, monkeypatch):
        # A scan whose recoil tail is shifted by 1e-3 x0 misses tol and
        # exits 3 (at n = 1: n = 0 is Graf's closed form, with no tail).
        original_tail = matrix_elements._triple_bessel_tail

        def shifted_tail(*args):
            tail = original_tail(*args)
            return lambda x0: tail(x0) + 1e-3 * x0
        monkeypatch.setattr(matrix_elements, "_triple_bessel_tail", shifted_tail)
        path, _ = self._triple_bessel_config(tmp_path, 0.7, 1.4, n=1)
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "body plus tail" in err
        assert not (tmp_path / "out.csv").exists()

    def test_infinite_wavenumber_exits_3(self, tmp_path, capsys):
        # Python's json reads Infinity; triple_bessel once divided by it
        # into ZeroDivisionError (exit 1).  The scan rejects the literal
        # itself, before any point runs.
        path, _ = self._config(
            tmp_path, quantity="triple_bessel",
            fixed={"k_perp": float("inf"), "k_perp_Rp": 1.4},
            grid={"k_perp_R": {"start": 0.7, "stop": 0.7, "count": 1}})
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("grid", [
        '{"k_perp": {"start": NaN, "stop": NaN, "count": 1}}',
        '{"k_perp": {"start": 0.5, "stop": Infinity, "count": 3}}',
        '{"k_perp": {"start": -Infinity, "stop": 0.5, "count": 3}}',
        '{"k_perp": {"start": 0.5, "stop": 1e400, "count": 3}}',
    ], ids=["nan", "infinity", "minus_infinity", "overflowing_literal"])
    def test_non_finite_literal_exits_3(self, tmp_path, capsys, grid):
        # Python's json reads these; the first once wrote the row nan,nan
        # and the second the grid points nan, inf, inf, each with exit 0.
        path = tmp_path / "scan.json"
        path.write_text('{"quantity": "suppression", "grid": %s, '
                        '"output": {"path": %s}}'
                        % (grid, json.dumps(str(tmp_path / "out.csv"))))
        code, out, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "not a finite number" in err
        assert out == ""
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("fixed, k_perp", [
        ({"alpha": 1.2}, -0.5), ({"alpha": -1.2}, 0.5), ({"alpha": 0.0}, 0.5)])
    def test_invalid_suppression_input_exits_3(self, tmp_path, capsys, fixed,
                                               k_perp):
        path, _ = self._config(
            tmp_path, fixed=fixed,
            grid={"k_perp": {"start": k_perp, "stop": k_perp, "count": 1}})
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err
        assert not (tmp_path / "out.csv").exists()

    def test_negative_icm0_k_perp_exits_3(self, tmp_path, capsys):
        # The error names k_perp; it once named the Bessel argument
        # k_perp alpha x that the quadrature reached ("got -4.0").
        path, _ = self._config(
            tmp_path, quantity="icm0", fixed={"alpha": 1.0},
            grid={"k_perp": {"start": -1.0, "stop": -1.0, "count": 1}})
        code, _, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "0 <= k_perp < inf, got -1.0" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("k_perp_R, k_perp_Rp, n",
                             [(1e-6, 1.0, 1), (1.0, 2.0, 0)],
                             ids=["unconverged", "divergent_zero_beat"])
    def test_failed_point_exits_3_and_writes_no_row(self, tmp_path, capsys,
                                                    k_perp_R, k_perp_Rp, n):
        # k_R = 1e-6 puts the body-plus-tail cut-offs (n >= 1) beyond 1152
        # half-periods; k_R' = k + k_R at n = 0 is a degenerate momentum
        # triangle, where the integral diverges.
        path, _ = self._triple_bessel_config(tmp_path, k_perp_R, k_perp_Rp, n)
        code, out, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err
        assert out == ""
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("fixed, output, named", [
        ({"alpah": 1.0}, {"format": "csv"}, "['alpah']"),
        ({"kind": "te"}, {"format": "csv"}, "['kind']"),
        ({}, {"format": "xml"}, "'xml'"),
        ({}, None, "no output path"),
        ({}, {"path": "no_such_dir/out.csv"}, "'no_such_dir'")],
        ids=["unread_name", "unread_string", "unknown_format",
             "missing_path", "missing_directory"])
    def test_config_error_exits_3_before_any_point_runs(
            self, tmp_path, capsys, monkeypatch, fixed, output, named):
        # The point is the unconverged one above: evaluated first, it
        # would exit 3 naming body plus tail instead of the config error.
        monkeypatch.chdir(tmp_path)  # where a relative output path points
        calls = []
        original = matrix_elements.triple_bessel

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(matrix_elements, "triple_bessel", counted)
        path, cfg = self._triple_bessel_config(tmp_path, 1e-6, 1.0, n=1)
        cfg["fixed"] = fixed
        cfg["output"] = dict(cfg["output"], **output) if output else {}
        path.write_text(json.dumps(cfg))
        code, out, err = run(["scan", "--config", str(path)], capsys)
        assert code == 3
        assert "domain error" in err and named in err
        assert calls == []
        assert out == ""
        assert not (tmp_path / "out.csv").exists()


class TestRepeatedMain:
    def test_reused_parser_gives_what_a_fresh_one_gives(self, tmp_path,
                                                         capsys, monkeypatch):
        # main() builds its parser on the first call and keeps it; a scan,
        # a malformed flag that exits 2, a channel table and the same scan
        # again must each come out as from a parser built for that call.
        path, _ = TestScan._config(
            tmp_path, quantity="triple_bessel", fixed={},
            grid={"k_perp": {"start": 1.0, "stop": 1.0, "count": 1},
                  "k_perp_R": {"start": 0.7, "stop": 0.7, "count": 1},
                  "k_perp_Rp": {"start": 1.4, "stop": 1.4, "count": 1}})
        out = tmp_path / "out.csv"
        calls = [["scan", "--config", str(path)],
                 ["scan", "--config", str(path), "--format", "xml"],
                 ["channels", "--m", "2", "--kind", "tm",
                  "--interaction", "dipole"],
                 ["scan", "--config", str(path)]]

        def one(argv):
            out.unlink(missing_ok=True)
            code, stdout, stderr = run(argv, capsys)
            return code, stdout, stderr, out.exists() and out.read_bytes()

        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(one(argv))
        monkeypatch.setattr(cli, "_PARSER", None)
        reused = [one(argv) for argv in calls]
        assert [r[0] for r in reused] == [0, 2, 0, 0]
        assert reused == fresh
        assert reused[0][3] and reused[0] == reused[3]


class TestVerify:
    def test_fast_battery_passes(self, capsys):
        code, out, _ = run(["verify", "--only", "overlap"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)

    def test_only_that_selects_nothing_exits_2(self, capsys):
        # --only overlaps once printed nothing and exited 0, so a typo in
        # CI's --only filter would pass.
        code, out, err = run(["verify", "--only", "overlaps"], capsys)
        assert code == 2
        assert out == ""
        assert "invalid arguments" in err
        assert all(name in err for name in cli._BATTERIES)
        code, out, _ = run(["verify", "--only", "overlap"], capsys)
        assert code == 0 and out.startswith("PASS overlap.")

    def test_addition_theorem_reference_is_a_miller_pass(self, monkeypatch):
        # psi_shifted is checked against J_m(k rho) e^{i m phi} from
        # bessel_j_run, not against psi_displaced_direct's scalar series
        # (which only the quadrupole check, after it, still calls).
        import numpy as np
        calls = []
        direct = cli.expansion.psi_displaced_direct

        def counted(*args):
            calls.append(args)
            return direct(*args)
        monkeypatch.setattr(cli.expansion, "psi_displaced_direct", counted)
        results = []
        cli._verify_expansion(results, np.random.RandomState(0))
        name, ok, margin, _ = results[0]
        assert name == "expansion.addition_theorem" and ok
        assert margin <= 1e-13
        assert len(calls) < cli._EXPANSION_CASES

    def test_report_line_format(self, capsys):
        _, out, _ = run(["verify", "--only", "overlap"], capsys)
        line = [l for l in out.splitlines() if l.startswith("PASS")][0]
        assert "margin=" in line and "bound=" in line


# A fresh interpreter: the test modules import numpy themselves.  The import
# must add none of numpy, dataclasses and inspect to the modules the
# interpreter already holds (site may preload some); the scan, field and
# trapped amplitude calls must leave numpy unloaded; then the channel oracle
# and verify, numpy's two users, must still work.
_NUMPY_FREE_CHILD = r"""
import contextlib, io, json, os, sys
before = set(sys.modules)
import twistkit, twistkit.cli
from twistkit import cli, matrix_elements
from twistkit.fields import ModeKind
added = set(sys.modules) - before
report = {"added": sorted({"numpy", "dataclasses", "inspect"} & added),
          "codes": []}
with contextlib.redirect_stdout(io.StringIO()):
    for n in (0, 1):
        grid = {name: {"start": v, "stop": v, "count": 1} for name, v in
                dict(k_perp=1.0, k_perp_R=0.7, k_perp_Rp=1.4, n=n).items()}
        cfg = os.path.join(sys.argv[1], f"scan{n}.json")
        with open(cfg, "w") as fh:
            json.dump({"quantity": "triple_bessel", "grid": grid}, fh)
        report["codes"].append(cli.main(
            ["scan", "--config", cfg, "--out", cfg + ".csv"]))
    report["codes"].append(cli.main(
        ["field", "--kind", "tm", "--m", "1", "--kperp", "0.8", "--kz", "1.2",
         "--at", "1.0,0.5,0.2"]))
    report["codes"].append(cli.main(
        ["amplitude", "--kind", "tm", "--m", "0", "--kperp", "0.8",
         "--kz", "1.2", "--cm-in", "trapped:1,0,1.0",
         "--cm-out", "trapped:1,0,1.0", "--int-in", "2p:0", "--int-out", "1s"]))
    report["after_calls"] = "numpy" in sys.modules
    table = matrix_elements.azimuthal_channel_table(
        1, ModeKind.TM, "general", order=matrix_elements.TermOrder(0, 1, 0))
    report["table"] = sorted([list(k), v] for k, v in table.items())
    report["verify"] = cli.main(["verify", "--only", "overlap"])
print(json.dumps(report))
"""


class TestNumpyFreeStart:
    def test_numpy_loads_only_for_the_oracle_and_verify(self, tmp_path):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_CHILD, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout.splitlines()[-1])
        assert report["added"] == []
        assert report["codes"] == [0, 0, 0, 0]
        assert not report["after_calls"]
        # The table the oracle gave when numpy was imported with the module.
        want = [[[-3, 2, 0], 0.00014252853662620138],
                [[-2, 1, 0], 0.010759580357679462],
                [[-1, 0, 0], 0.17160089684770957],
                [[0, -1, 0], 0.010759580357679464],
                [[1, -2, 0], 0.1717434253843358]]
        assert [k for k, _ in report["table"]] == [k for k, _ in want]
        assert [v for _, v in report["table"]] == pytest.approx(
            [v for _, v in want], rel=1e-12)
        assert report["verify"] == 0
