import json
import os
import subprocess
import sys

import pytest

from crhomotopy import cli


def run_cli(args):
    return cli.main(args)


class TestParsing:
    @pytest.mark.parametrize("argv", [
        ["audit-barrier", "--budget", "0"],
        ["audit-kernels", "--budget", "0"],
        ["run-homotopy", "--budget", "0"],
        ["run-homotopy", "--eps", "0.1", "0.05", "--budget", "100", "-1"],
        ["run-homotopy", "--points", "0"],
        ["estimate-norms", "--budget", "0"]])
    def test_counts_below_one_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--model", "bundled:sig22_n5", "--out", str(tmp_path)]
                    + argv)
        assert exc.value.code == 2
        option = [a for a in argv if a.startswith("--")][-1]
        assert f"argument {option}: must be an integer >= 1" \
            in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv, message", [
        (["index-audit", "--n-max", "4"], "must be an integer >= 5"),
        (["index-audit", "--m-max", "0"], "must be an integer >= 1"),
        (["index-audit", "--n-max", "six"], "must be an integer >= 5"),
        (["audit-barrier", "--scale", "-0.1"], "must be a finite number > 0"),
        (["audit-barrier", "--scale", "0"], "must be a finite number > 0"),
        (["audit-barrier", "--scale", "nan"], "must be a finite number > 0"),
        (["check-geometry", "--resolution", "-4"], "must be an integer >= 8"),
        (["check-geometry", "--resolution", "7"], "must be an integer >= 8")])
    def test_empty_sweep_and_bad_scale_rejected(self, argv, message,
                                                tmp_path, capsys):
        # index-audit below n = 5 or m = 1 sweeps nothing and would pass
        with pytest.raises(SystemExit) as exc:
            run_cli(["--model", "bundled:sig22_n5", "--out", str(tmp_path)]
                    + argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: {message}" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_smallest_index_audit_sweeps(self, tmp_path, capsys):
        assert run_cli(["--model", "bundled:sig22_n5", "--out",
                        str(tmp_path), "index-audit", "--n-max", "5",
                        "--m-max", "1"]) == 0
        assert "[PASS] index audit: 4 sweep records" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["missing", "bundled:nope", "latin1"])
    def test_unreadable_model_exits_2(self, model, tmp_path, capsys):
        # a missing file, a missing bundled model and a file that is not
        # UTF-8 are reported, not raised
        paths = {"missing": str(tmp_path / "absent.model"),
                 "latin1": str(tmp_path / "latin1.model")}
        (tmp_path / "latin1.model").write_bytes(
            "# mod\xe8le\nn = 3\nm = 1\nq = 1\n".encode("latin-1"))
        out = tmp_path / "out"
        code = run_cli(["--model", paths.get(model, model), "--out", str(out),
                        "check-geometry"])
        assert code == 2
        assert "error: cannot read model" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_matrix_row_names_line(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("n = 3\nm = 1\nq = 1\nH 1\n1,0 0,0\n0,0 oops\n")
        code = run_cli(["--model", str(bad), "--out", str(tmp_path),
                        "check-geometry"])
        assert code == 2

    @pytest.mark.parametrize("text", [
        "n = 3\nm = 1\nq = 1\nH 1\nnan,0 0,0\n0,0 -1,0\n",
        "n = 3\nm = 1\nq = 1\nH 1\n1,0 0,inf\n0,-inf -1,0\n",
        "n = 3\nm = 1\nq = 1\nradius = nan\nH 1\n1,0 0,0\n0,0 -1,0\n"])
    def test_non_finite_model_rejected(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text(text)
        code = run_cli(["--model", str(bad), "--out", str(tmp_path),
                        "check-geometry"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_q_rejected(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("n = 3\nm = 1\nq = 3\nH 1\n1,0 0,0\n0,0 1,0\n")
        code = run_cli(["--model", str(bad), "--out", str(tmp_path),
                        "check-geometry"])
        assert code == 2

    def test_ladder_validation(self, tmp_path):
        code = run_cli(["--model", "bundled:sig22_n5", "--out", str(tmp_path),
                        "run-homotopy", "--eps", "0.1", "0.2",
                        "--budget", "100", "200"])
        assert code == 2


class TestPipeline:
    def test_full_pipeline_smallest_budgets(self, tmp_path):
        out = str(tmp_path / "rep")
        base = ["--model", "bundled:sig22_n5", "--out", out]
        assert run_cli(base + ["check-geometry"]) == 0
        assert run_cli(base + ["audit-barrier", "--budget", "3000"]) == 0
        assert run_cli(base + ["audit-kernels", "--budget", "300"]) == 0
        assert run_cli(base + ["run-homotopy", "--eps", "0.1",
                               "--budget", "3000", "--points", "1"]) == 0
        assert run_cli(base + ["index-audit", "--n-max", "6"]) == 0
        assert run_cli(base + ["estimate-norms", "--budget", "150"]) == 0
        for name in ("geometry.json", "barrier.json", "kernels.json",
                     "homotopy.json", "index_certificate.json", "norms.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_homotopy_rows_carry_node_counts(self, tmp_path):
        out = str(tmp_path / "rows")
        base = ["--model", "bundled:sig22_n5", "--out", out]
        assert run_cli(base + ["check-geometry"]) == 0
        assert run_cli(base + ["run-homotopy", "--eps", "0.1", "--budget",
                               "500", "--points", "2"]) == 0
        with open(os.path.join(out, "homotopy.json")) as fh:
            rows = json.load(fh)["rows"]
        assert [(r["point"], r["rejected"], r["total_nodes"])
                for r in rows] == [(0, 0, 500), (1, 0, 500)]
        with open(os.path.join(out, "homotopy_residuals.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].endswith(",rejected,total_nodes")
        assert [line.split(",")[-2:] for line in lines[1:]] == [
            ["0", "500"], ["0", "500"]]

    def test_homotopy_requires_geometry_first(self, tmp_path):
        out = str(tmp_path / "fresh")
        code = run_cli(["--model", "bundled:sig22_n5", "--out", out,
                        "run-homotopy", "--eps", "0.1", "--budget", "500"])
        assert code == 2

    @pytest.mark.parametrize("model", ["sig22_n5", "sig22_n6m2"])
    def test_reports_byte_identical_across_runs(self, model, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            base = ["--model", f"bundled:{model}", "--out", out, "--seed", "3"]
            assert run_cli(base + ["check-geometry"]) == 0
            assert run_cli(base + ["audit-barrier", "--budget", "2000"]) == 0
            assert run_cli(base + ["audit-kernels", "--budget", "300"]) == 0
            assert run_cli(base + ["estimate-norms", "--budget", "100"]) == 0
            outs.append(out)
        for name in ("geometry.json", "barrier.json", "barrier_quotients.csv",
                     "kernels.json", "norms.json"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name

    def test_secondary_model_sample_audits(self, tmp_path):
        # m = 2: controls x and y of the curves have shape (C, 2)
        out = str(tmp_path / "m2audits")
        base = ["--model", "bundled:sig22_n6m2", "--out", out, "--seed", "3"]
        assert run_cli(base + ["audit-kernels", "--budget", "200"]) == 0
        assert run_cli(base + ["estimate-norms", "--budget", "100"]) == 0
        with open(os.path.join(out, "kernels.json")) as fh:
            assert json.load(fh)["normalization_worst"] < 1e-10

    def test_secondary_model_certifies(self, tmp_path):
        out = str(tmp_path / "m2")
        assert run_cli(["--model", "bundled:sig22_n6m2", "--out", out,
                        "check-geometry"]) == 0

    @pytest.mark.parametrize("argv, absent, present", [
        (["check-geometry", "--resolution", "8"],
         ("homotopy", "norms", "quadrature"), ()),
        (["index-audit", "--n-max", "5", "--m-max", "2"],
         ("homotopy", "norms", "quadrature"), ("indexcalc",)),
        (["estimate-norms", "--budget", "60"],
         ("homotopy", "quadrature", "fields", "sections", "barrier"),
         ("norms",))])
    def test_command_imports_what_it_runs(self, argv, absent, present,
                                          tmp_path):
        # a fresh process per command: a module imported at the top of
        # cli.py would load for every command
        probe = ("import json, sys\n"
                 "from crhomotopy import cli\n"
                 "rc = cli.main(sys.argv[1:])\n"
                 "print(json.dumps(sorted(sys.modules)))\n"
                 "sys.exit(rc)\n")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "--model", "bundled:sig22_n5",
             "--out", str(tmp_path), *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        for name in absent:
            assert f"crhomotopy.{name}" not in loaded, name
        for name in present:
            assert f"crhomotopy.{name}" in loaded, name

    def test_entry_point_runs_as_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "crhomotopy.cli", "--model",
             "bundled:sig22_n5", "--out", str(tmp_path), "check-geometry"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
