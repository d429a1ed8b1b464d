"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from gridzeta.cli import build_parser, main, parse_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestComplexParsing:
    def test_real(self):
        assert parse_complex("0.25") == 0.25

    def test_full(self):
        assert parse_complex("0.1+0.2i") == 0.1 + 0.2j

    def test_negative_imag_only(self):
        assert parse_complex("-0.3i") == -0.3j

    def test_unit_imag(self):
        assert parse_complex("i") == 1j
        assert parse_complex("0.5-i") == 0.5 - 1j

    def test_exponent(self):
        assert parse_complex("1e-3+2.5e-2i") == 1e-3 + 2.5e-2j

    def test_garbage(self):
        from gridzeta.errors import DomainError

        with pytest.raises(DomainError):
            parse_complex("zork")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "nan+1i", "0.1+infi", "-nani"])
    def test_non_finite(self, text):
        from gridzeta.errors import DomainError

        with pytest.raises(DomainError, match="not finite"):
            parse_complex(text)


class TestEval:
    def test_zero_all_routes(self, capsys):
        for route in ("theta", "quadrature", "series"):
            code, out, _ = run_cli(capsys, "eval", "--u", "0", "--route", route)
            assert code == 0
            data = json.loads(out)
            assert data["zeta"] == [1.0, 0.0]

    def test_routes_agree(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--u", "0.1", "--route", "theta")
        _, out2, _ = run_cli(capsys, "eval", "--u", "0.1", "--route", "quadrature")
        z1 = complex(*json.loads(out1)["zeta"])
        z2 = complex(*json.loads(out2)["zeta"])
        assert abs(z1 - z2) < 1e-8

    def test_series_route_matches_theta(self, capsys):
        _, out1, _ = run_cli(capsys, "--order", "20", "eval", "--u", "0.05", "--route", "series")
        _, out2, _ = run_cli(capsys, "eval", "--u", "0.05", "--route", "theta")
        z1 = complex(*json.loads(out1)["zeta"])
        z2 = complex(*json.loads(out2)["zeta"])
        assert abs(z1 - z2) <= 1e-12

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--u", "0.9", "--route", "theta")
        assert code == 2
        assert json.loads(err)["type"] == "domain"

    def test_series_route_refuses_outside_radius(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--u", "0.5+0.2i", "--route", "series")
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "domain"

    def test_series_route_refuses_short_order(self, capsys):
        code, out, err = run_cli(capsys, "--order", "0", "eval", "--u", "0.1", "--route", "series")
        assert code == 3
        assert out == ""
        assert json.loads(err)["type"] == "precision"

    def test_series_route_long_order_meets_tol(self, capsys):
        code, out1, _ = run_cli(capsys, "--order", "60", "eval", "--u", "0.2", "--route", "series")
        assert code == 0
        _, out2, _ = run_cli(capsys, "eval", "--u", "0.2", "--route", "theta")
        z1 = complex(*json.loads(out1)["zeta"])
        z2 = complex(*json.loads(out2)["zeta"])
        assert abs(z1 - z2) <= 1e-10

    @pytest.mark.parametrize("u", ["nan", "inf"])
    def test_non_finite_exit_domain(self, capsys, u):
        code, out, err = run_cli(capsys, "eval", "--u", u)
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "domain"
        assert "not finite" in json.loads(err)["error"]

    def test_precision_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--u", "0.2", "--route", "quadrature",
                               "--tol", "1e-30")
        assert code == 3
        assert json.loads(err)["type"] == "precision"

    def test_intermediates_reported(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--u", "0.1", "--route", "theta")
        data = json.loads(out)
        assert "t" in data and "k" in data and data["region"] == "in_omega"

    def test_json_round_trip_precision(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--u", "0.1", "--route", "theta")
        z = complex(*json.loads(out)["zeta"])
        from gridzeta.surface import lift_principal, zeta_tilde

        assert z == zeta_tilde(lift_principal(0.1))


class TestSeries:
    def test_order_20_zeta_coefficients(self, capsys):
        _, out, _ = run_cli(capsys, "series", "--order", "20")
        data = json.loads(out)
        even = data["zeta"][0::2]
        assert even == ["1", "0", "2", "4", "29", "160", "1070", "7192",
                        "50688", "365376", "2695122"]

    def test_order_2(self, capsys):
        _, out, _ = run_cli(capsys, "series", "--order", "2")
        data = json.loads(out)
        assert data["zeta"] == ["1", "0", "0"]

    def test_det_matches(self, capsys):
        _, out, _ = run_cli(capsys, "series", "--order", "12")
        data = json.loads(out)
        assert data["det"][0::2] == ["1", "1", "-1", "-5", "-30", "-174", "-1120"]


class TestPlot:
    def test_real_zeta(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--kind", "real_zeta",
                               "--range=-0.2:0.2", "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,Z"
        rows = [line.split(",") for line in lines[1:]]
        mid = rows[2]
        assert float(mid[0]) == 0.0 and float(mid[1]) == 1.0
        # evenness
        assert math.isclose(float(rows[0][1]), float(rows[-1][1]), rel_tol=1e-12)

    def test_sheets_abs_vieta(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--kind", "sheets_abs",
                               "--samples", "16", "--radius", "0.4")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert lines
        # rows come in u+/u- pairs per t; their product is 1/3
        for i in range(0, len(lines) - 1, 2):
            a = lines[i].split(",")
            b = lines[i + 1].split(",")
            if a[0] != b[0] or a[1] != b[1]:
                continue
            ua = complex(float(a[2]), float(a[3]))
            ub = complex(float(b[2]), float(b[3]))
            assert abs(ua * ub - 1 / 3) < 1e-10

    def test_sheets_abs_one_modulus_per_t(self, capsys, monkeypatch):
        from gridzeta import cli, special, surface

        expected = _sheets_abs_reference(100, 0.5)
        calls = []
        original = special.modulus_from_t

        def counting(t, *args, **kwargs):
            calls.append(t)
            return original(t, *args, **kwargs)

        for module in (cli, special, surface):
            monkeypatch.setattr(module, "modulus_from_t", counting)
        code, out, _ = run_cli(capsys, "plot", "--kind", "sheets_abs",
                               "--samples", "100", "--radius", "0.5")
        assert code == 0
        assert out == expected
        emitted = {tuple(line.split(",")[:2]) for line in out.splitlines()[1:]}
        assert len(emitted) > 50
        assert len(calls) == len(emitted)

    def test_imag_branchcut_has_rows(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "--kind", "imag_branchcut",
                               "--range=-1.1:1.1", "--samples", "36")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u_re,u_im,imZ"
        assert len(lines) > 20

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "plot", "--kind", "real_zeta", "--range=-0.5:0.5")
        assert code == 2


def _sheets_abs_reference(samples, radius):
    """`plot --kind sheets_abs` rows as first written: k(t) once for the root
    pair and again inside each SurfacePoint."""
    import numpy as np

    from gridzeta import surface
    from gridzeta.errors import GridZetaError
    from gridzeta.special import u_pair_from_t

    lines = ["t_re,t_im,u_re,u_im,absZ"]
    n = max(int(round(samples ** 0.5)), 2)
    for re in np.linspace(-radius, radius, n):
        for im in np.linspace(-radius, radius, n):
            t = complex(re, im)
            if not 1e-3 < abs(t) <= radius:
                continue
            try:
                for u in u_pair_from_t(t):
                    z = surface.zeta_tilde(surface.SurfacePoint(u, t))
                    lines.append(",".join("%.17g" % x for x in (t.real, t.imag, u.real, u.imag, abs(z))))
            except GridZetaError:
                continue
    return "\n".join(lines) + "\n"


class TestSheets:
    def test_depth_zero(self, capsys):
        _, out, _ = run_cli(capsys, "sheets", "--u", "0.15", "--depth", "0")
        data = json.loads(out)
        assert data["n_distinct_zeta"] == 1
        assert data["sheets"][0]["word"] == "e"

    def test_depth_two_multivalued(self, capsys):
        _, out, _ = run_cli(capsys, "sheets", "--u", "0.15", "--depth", "2")
        data = json.loads(out)
        assert data["n_distinct_zeta"] >= 5
        for rec in data["sheets"]:
            assert rec["relation_residual"] < 1e-10
            assert rec["functional_equation_residual"] < 1e-10


class TestConverge:
    def test_torus_decreasing_column(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--family", "torus",
                               "--u", "0.1", "--sizes", "8,16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size,error"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("family", ["grid", "torus"])
    @pytest.mark.parametrize("sizes", ["5000", "8,x"])
    def test_bad_sizes_exit_domain(self, capsys, sizes, family):
        code, out, err = run_cli(capsys, "converge", "--family", family,
                                 "--u", "0.05+0.05i", "--sizes", sizes)
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "domain"

    def test_large_grid_sizes(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--family", "grid",
                               "--u", "0.1", "--sizes", "64,128,256")
        assert code == 0
        errs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert len(errs) == 3 and errs[2] < errs[1] < errs[0]


class TestWalks:
    def test_geodesic_agreement(self, capsys):
        _, out, _ = run_cli(capsys, "walks", "--kind", "geodesic", "--max", "8")
        data = json.loads(out)
        for row in data["rows"]:
            assert row["dp"] == row["series"]

    def test_closed_counts(self, capsys):
        _, out, _ = run_cli(capsys, "walks", "--kind", "closed", "--max", "3")
        data = json.loads(out)
        assert [r["dp"] for r in data["rows"]] == ["1", "4", "36", "400"]

    def test_primitive_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "walks",
                               "--kind", "primitive", "--max", "6")
        assert code == 0
        assert "m,oriented,unoriented" in out


class TestCheck:
    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True

    def test_check_writes_nothing_to_stderr(self):
        # a subprocess, because pytest would capture a warning before stderr
        import gridzeta

        src = os.path.dirname(os.path.dirname(os.path.abspath(gridzeta.__file__)))
        res = subprocess.run([sys.executable, "-m", "gridzeta.cli", "check"],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stderr == ""

    def test_fault_injection_detected(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inject-fault", "zeta-coefficient")
        assert code == 4
        data = json.loads(out)
        assert data["passed"] is False


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--u", "0.1", "--route", "quadrature", "--tol", "0"),
            ("series", "--order", "-4"),
            ("sheets", "--u", "0.15", "--depth", "-1"),
            ("plot", "--kind", "real_zeta", "--samples", "0"),
        ],
    )
    def test_out_of_range_exits_domain(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["type"] == "domain"


class TestNegativeValues:
    """A value after --u or --range may start with a minus sign."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--u", "-0.1i"),
            ("converge", "--family", "grid", "--u", "-0.05-0.05i", "--sizes", "8,16"),
            ("plot", "--kind", "real_zeta", "--range", "-0.3:0.3"),
        ],
    )
    def test_same_as_equals_form(self, capsys, argv):
        i = argv.index("--u") if "--u" in argv else argv.index("--range")
        joined = argv[:i] + (f"{argv[i]}={argv[i + 1]}",) + argv[i + 2 :]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, *joined)

    def test_from_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gridzeta", "eval", "--u", "-0.1-0.1i"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["u"] == [-0.1, -0.1]


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        import gridzeta

        src = os.path.dirname(os.path.dirname(os.path.abspath(gridzeta.__file__)))
        code = "import sys, gridzeta.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert res.stdout.strip() == "[]"


class TestDeterminism:
    def test_eval_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--u", "0.2+0.1i")
        _, out2, _ = run_cli(capsys, "eval", "--u", "0.2+0.1i")
        assert out1 == out2

    def test_parser_builds(self):
        assert build_parser() is not None
