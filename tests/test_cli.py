import json
import os
import subprocess
import sys

from crhomotopy import cli


def run_cli(args):
    return cli.main(args)


class TestParsing:
    def test_bad_matrix_row_names_line(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("n = 3\nm = 1\nq = 1\nH 1\n1,0 0,0\n0,0 oops\n")
        code = run_cli(["--model", str(bad), "--out", str(tmp_path),
                        "check-geometry"])
        assert code == 2

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

    def test_reports_byte_identical_across_runs(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            base = ["--model", "bundled:sig22_n5", "--out", out, "--seed", "3"]
            assert run_cli(base + ["check-geometry"]) == 0
            assert run_cli(base + ["audit-barrier", "--budget", "2000"]) == 0
            assert run_cli(base + ["estimate-norms", "--budget", "100"]) == 0
            outs.append(out)
        for name in ("geometry.json", "barrier.json", "barrier_quotients.csv",
                     "norms.json"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name

    def test_secondary_model_certifies(self, tmp_path):
        out = str(tmp_path / "m2")
        assert run_cli(["--model", "bundled:sig22_n6m2", "--out", out,
                        "check-geometry"]) == 0

    def test_entry_point_runs_as_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "crhomotopy.cli", "--model",
             "bundled:sig22_n5", "--out", str(tmp_path), "check-geometry"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
