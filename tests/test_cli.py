import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mahler
from mahler import kernel
from mahler.cli import main
from mahler.kernel import EnsembleParams, expected_in_exact, intensity_complex, intensity_real
from mahler.limits import b_outside, kappa_xi
from mahler.specfun import iota


def run(args):
    return main(args)


class TestVolumeCommand:
    def test_closed_value(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = run(["volume", "--N", "2", "--s", "5", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert code == 0
        assert payload["F_product"] == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert payload["Pf_U"] == pytest.approx(20.0 / 3.0, rel=1e-8)

    def test_monic_limit(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(["volume", "--N", "2", "--s", "inf", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["F_product"] == pytest.approx(4.0)

    def test_odd_degree_rejected(self, capsys):
        assert run(["volume", "--N", "3", "--s", "5"]) == 2

    def test_small_weight_rejected(self):
        assert run(["volume", "--N", "4", "--s", "3"]) == 2
        assert run(["volume", "--N", "4", "--s", "abc"]) == 2


class TestGridCommands:
    def test_kernel_grid_header_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["kernel-grid", "--N", "2", "--s", "5", "--re-steps", "3",
                "--im-steps", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().split("\n")[0]
        assert header == ("re_u,im_u,re_v,im_v,e11_re,e11_im,e12_re,e12_im,"
                          "e21_re,e21_im,e22_re,e22_im")

    def test_kernel_grid_is_one_side_build(self, tmp_path, monkeypatch):
        # the whole default 21 x 21 grid, its real row included, is one side
        # build of its points and v; each row is within 1e-13 of the kernel
        # of its own point
        calls, side = [], kernel._side
        monkeypatch.setattr(kernel, "_side", lambda tab, u: calls.append(u.size) or side(tab, u))
        out = tmp_path / "k.csv"
        args = ["kernel-grid", "--N", "9", "--s", "10.5", "--v-im", "0.3", "--out", str(out)]
        assert run(args) == 0
        assert calls == [2 * 441]
        monkeypatch.undo()
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (441, 12) and np.sum(rows[:, 1] == 0.0) == 21
        P = EnsembleParams(9, 10.5)
        for row in rows:
            u, v = complex(row[0], row[1]), complex(row[2], row[3])
            K = kernel.matrix_kernel(P, u, v).as_array()
            ref = np.column_stack([K.real.ravel(), K.imag.ravel()]).ravel()
            assert np.max(np.abs(row[4:] - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_intensity_finite_ensemble(self, tmp_path):
        out = tmp_path / "i.csv"
        code = run(["intensity", "--N", "2", "--s", "5", "--re-steps", "3",
                    "--im-steps", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "re_z,im_z,intensity"
        for line in lines[1:]:
            assert float(line.split(",")[2]) >= -1e-9

    def test_intensity_scaled_field_repels_axis(self, tmp_path):
        out = tmp_path / "i.csv"
        code = run(["intensity", "--regime", "circle_real", "--xi", "1",
                    "--lam", "1", "--re-min", "-1", "--re-max", "1",
                    "--re-steps", "3", "--im-min", "-0.6", "--im-max", "0.6",
                    "--im-steps", "5", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line
                in out.read_text().strip().split("\n")[1:]]
        for re_z, im_z, val in rows:
            if float(im_z) == 0.0:
                assert float(val) == 0.0
            else:
                assert float(val) > 0.0

    def test_intensity_anchor_must_be_real_unit(self, tmp_path, capsys):
        # --xi 0.5 used to exit 0 with a field of kappa at a point that is
        # no anchor; the library's DomainError now ends it with exit 2
        out = tmp_path / "i.csv"
        assert run(["intensity", "--regime", "circle_real", "--xi", "0.5",
                    "--re-steps", "3", "--im-steps", "3", "--out", str(out)]) == 2
        assert "xi" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_grid_error_leaves_no_file(self, tmp_path, capsys):
        # a non-finite v used to leave a file holding only the header
        out = tmp_path / "kg.csv"
        assert run(["kernel-grid", "--N", "4", "--s", "9", "--v-re", "nan", "--re-steps", "3",
                    "--im-steps", "3", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--regime", "circle_real", "--xi", "0.5", "--im-min", "0", "--im-max", "0",
         "--im-steps", "1"],
        ["--regime", "outside", "--c", "0.5"], ["--regime", "outside", "--lam", "0.3"],
        ["--regime", "outside", "--N", "5", "--s", "2"],
        ["--regime", "circle_real", "--c", "2"], ["--N", "2", "--s", "5", "--xi", "1"]],
        ids=["xi_on_real_grid", "c_below_one", "lam_outside", "N_s_outside",
             "c_circle_real", "xi_finite"])
    def test_intensity_rejects_invalid_or_ignored_options(self, extra, tmp_path, capsys):
        # each of these exited 0: the xi check ran only at a non-real point,
        # c was never checked, and the other options were silently ignored
        out = tmp_path / "i.csv"
        assert run(["intensity", *extra, "--re-steps", "3", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_intensity_regime_choices(self):
        # circle_complex ran the +-1 kernel and dsn was a second name for
        # outside; argparse now rejects both
        for regime in ("circle_complex", "dsn"):
            with pytest.raises(SystemExit) as exc:
                run(["intensity", "--regime", regime, "--re-steps", "2",
                     "--im-steps", "2"])
            assert exc.value.code == 2

    def test_intensity_outside_field(self, tmp_path):
        out = tmp_path / "i.csv"
        code = run(["intensity", "--regime", "outside", "--c", "1",
                    "--re-min", "1.1", "--re-max", "4", "--re-steps", "4",
                    "--im-min", "0.2", "--im-max", "1", "--im-steps", "2",
                    "--out", str(out)])
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line
                in out.read_text().strip().split("\n")[1:]]
        # finite positive off the circle, decaying toward infinity
        by_im = {}
        for re_z, im_z, val in rows:
            assert val > 0.0
            by_im.setdefault(im_z, []).append((re_z, val))
        for im_z, pairs in by_im.items():
            pairs.sort()
            vals = [v for _, v in pairs]
            assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("field", [
        ["--N", "2", "--s", "5"], ["--N", "15", "--s", "inf"],
        ["--regime", "circle_real", "--xi", "1", "--lam", "1"],
        ["--regime", "circle_real", "--xi", "1", "--lam", "0.5"],
        ["--regime", "circle_real", "--xi", "-1", "--lam", "1"],
        ["--regime", "circle_real", "--xi", "-1", "--lam", "0.5"],
        ["--regime", "outside", "--c", "1"], ["--regime", "outside", "--c", "2.5"]],
        ids=["N2_s5", "N15_inf", "plus_one_lam1", "plus_one_lam05", "minus_one_lam1",
             "minus_one_lam05", "outside_c1", "outside_c25"])
    def test_intensity_rows_match_pointwise_library(self, field, tmp_path):
        # the command evaluates a whole grid row per call; every row must be
        # the library's value at that one point
        out = tmp_path / "i.csv"
        assert run(["intensity", *field, "--re-steps", "9", "--im-steps", "7",
                    "--out", str(out)]) == 0
        opts = dict(zip(field[::2], field[1::2]))
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (63, 3)
        for x, y, val in rows:
            z = complex(x, y)
            if "--N" in opts:
                P = EnsembleParams(int(opts["--N"]), float(opts["--s"]))
                ref = intensity_real(P, x) if y == 0.0 else intensity_complex(P, z)
            elif y == 0.0 or (opts["--regime"] == "outside" and abs(z) <= 1.0):
                ref = 0.0
            elif opts["--regime"] == "outside":
                ref = (iota(z) * b_outside(float(opts["--c"]), z, z.conjugate())).real
            else:
                ref = (iota(z) * kappa_xi(float(opts["--lam"]), float(opts["--xi"]),
                                          z, z.conjugate())).real
            assert val == pytest.approx(ref, rel=1e-13, abs=0.0), (x, y)

    @pytest.mark.parametrize("c", ["1", "2.5"])
    def test_outside_field_is_zero_on_the_circle(self, c, tmp_path):
        # the default grid holds 12 points on the circle; at 4 of them
        # |z| rounds to 1 + 2.2e-16, where uv - 1 is rounding noise and the
        # field printed 1.6e30 and 6.5e30 against 0 at their mirror points
        out = tmp_path / "i.csv"
        assert run(["intensity", "--regime", "outside", "--c", c, "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        field = rows[:, 2].reshape(21, 21)
        np.testing.assert_allclose(field, field[::-1], rtol=1e-12, atol=0.0)
        on_circle = np.abs(np.abs(rows[:, 0] + 1j * rows[:, 1]) - 1.0) < 1e-12
        assert on_circle.sum() == 12
        assert (rows[on_circle, 2] == 0.0).all()
        assert 0.0 < field.max() < 1e3

    def test_intensity_requires_regime_or_ensemble(self):
        assert run(["intensity", "--re-steps", "2", "--im-steps", "2"]) == 2
        for cmd in ("intensity", "kernel-grid"):
            assert run([cmd, "--N", "2", "--s", "abc", "--re-steps", "2",
                        "--im-steps", "2"]) == 2


class TestConvergenceCommand:
    def test_json_structure(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["convergence", "--N-list", "4,8", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert "circle_real" in report and "outside_disk" in report
        for rows in report.values():
            assert all("sup_error" in row for row in rows)

    def test_bad_list_rejected(self):
        for bad in ("16,8", "8,8", "", "8,x"):
            assert run(["convergence", "--N-list", bad]) == 2


class TestExpectedRootsCommand:
    def test_prints_exact_and_growth(self, capsys):
        assert run(["expected-roots", "--N", "200", "--s", "201"]) == 0
        text = capsys.readouterr().out
        assert "E_in (exact sum)" in text
        assert f"{expected_in_exact(200, 201.0):.6f}"[:8] in text

    def test_growth_law_differences_bounded(self):
        # E_in - (1/pi) log N has bounded, non-increasing increments
        diffs = [expected_in_exact(N, N + 1.0) - math.log(N) / math.pi
                 for N in (50, 100, 200)]
        increments = [abs(b - a) for a, b in zip(diffs, diffs[1:])]
        assert increments[1] <= increments[0]
        assert all(abs(d) < 1.0 for d in diffs)

    def test_odd_degree_rejected(self):
        assert run(["expected-roots", "--N", "5", "--s", "7"]) == 2
        assert run(["expected-roots", "--N", "4", "--s", "abc"]) == 2


class TestSampleCommand:
    def test_writes_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--N", "2", "--s", "5", "--steps", "200",
                "--burn-in", "50", "--seed", "4"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().split("\n")[0] == "seed,index,c0,c1,c2"

    def test_invalid_config_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["sample", "--N", "2", "--s", "1", "--out",
                    str(out)]) == 2
        assert run(["sample", "--N", "2", "--s", "abc", "--out",
                    str(out)]) == 2

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_step_length_rejected(self, tmp_path, step):
        # a non-finite step would reach the eigensolver, which checks nothing
        out = tmp_path / "x.csv"
        assert run(["sample", "--N", "2", "--s", "5", "--step-length", step,
                    "--out", str(out)]) == 2
        assert not out.exists()


class TestValidateCommand:
    def test_battery_passes(self, capsys):
        assert run(["validate"]) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert text.count("PASS") >= 5


class TestImport:
    def test_import_loads_neither_scipy_nor_mpmath(self):
        src = os.path.dirname(os.path.dirname(mahler.__file__))
        code = ("import sys, mahler, mahler.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_runs_without_mpmath_and_scipy(self, tmp_path):
        # None in sys.modules makes any import of them raise ImportError
        src = os.path.dirname(os.path.dirname(mahler.__file__))
        out = str(tmp_path / "out")
        commands = [
            ["volume", "--N", "2", "--s", "5", "--out", out],
            ["kernel-grid", "--N", "2", "--s", "5", "--re-steps", "2", "--im-steps", "2",
             "--out", out],
            ["intensity", "--N", "2", "--s", "5", "--re-steps", "2", "--im-steps", "2",
             "--out", out],
            ["convergence", "--N-list", "4,8", "--out", out],
            ["expected-roots", "--N", "4", "--s", "6"],
            ["sample", "--N", "2", "--s", "5", "--steps", "50", "--burn-in", "10",
             "--out", out],
            ["validate"]]
        code = ("import sys\n"
                "sys.modules['mpmath'] = sys.modules['scipy'] = None\n"
                "import mahler\n"
                "from mahler.cli import main\n"
                f"print([main(argv) for argv in {commands!r}])")
        res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip().splitlines()[-1] == str([0] * len(commands))
