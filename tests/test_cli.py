import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crhomotopy import cli
from crhomotopy._util import canonical_json


README = Path(__file__).resolve().parent.parent / "README.md"
# the keys every JSON report carries
COMMON_KEYS = {"schema", "command", "model_hash", "config_hash"}
# the run-homotopy row of homotopy.json and its CSV table
RESIDUAL_COLUMNS = ("epsilon", "budget", "point", "residual", "f_norm",
                    "rejected", "total_nodes")
# per report file, the key paths of a JSON report besides COMMON_KEYS (see
# key_paths) or the header of a CSV table
REPORT_KEYS = {
    "geometry.json": {
        "certification.passed", "certification.required",
        "certification.min_negative_eigenvalues",
        "certification.min_positive_eigenvalues",
        "certification.worst_direction", "certification.frame_gap_warnings"},
    "barrier.json": {
        "lower_bound.passed", "lower_bound.c_hat", "lower_bound.c_hat_abs",
        "lower_bound.argmin_zeta", "expansion.exact", "expansion.slope"},
    "barrier_quotients.csv": ("index", "quotient"),
    "kernels.json": {
        "normalization_worst", "closedness.order", "closedness.residual",
        "closedness.scale"},
    "homotopy.json": {
        "ladder[].epsilon", "ladder[].budget", "ladder[].worst_residual",
        "obstruction_max"} | {f"rows[].{c}" for c in RESIDUAL_COLUMNS},
    "homotopy_residuals.csv": RESIDUAL_COLUMNS,
    "index_certificate.json": {
        "obstruction_sweep.records",
        "obstruction_sweep.below_concavity_nonempty", "dichotomy_violations"}
    | {f"certificate[].{k}" for k in ("n", "m", "q", "r", "family",
                                      "indices", "bounded", "vanishing")},
    "norms.json": {"coordinate_function.tangential_quotient",
                   "coordinate_function.ambient_quotient"},
    "norm_quotients.csv": ("regime", "id", "quotient"),
}

def run_cli(args):
    return cli.main(args)


def key_paths(value, path=""):
    """The key paths of a JSON value: ``a.b`` into an object, ``a[].b`` into
    the objects of a list; any other value, a list of numbers or an empty
    list included, ends a path."""
    if isinstance(value, dict):
        return set().union(*(key_paths(v, f"{path}.{k}" if path else k)
                             for k, v in value.items()))
    if value and isinstance(value, list) and all(isinstance(x, dict)
                                                 for x in value):
        return set().union(*(key_paths(x, path + "[]") for x in value))
    return {path}


def readme_report_keys():
    """The README's "Report keys" section: per report file, the backticked
    names of its rows' Key column, and the backticked names of the prose
    above the table."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Report keys\n", 1)[1].split("\n## ", 1)[0]
    prose, table = section.split("\n|", 1)
    keys, report = {}, None
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        report = cells[0].strip("`") or report
        keys.setdefault(report, set()).update(re.findall(r"`([^`]+)`",
                                                         cells[1]))
    return keys, set(re.findall(r"`([^`]+)`", prose))


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

    @pytest.mark.parametrize("model", [
        "missing", "bundled:nope", "latin1", "bundled:../models/sig22_n5",
        "bundled_absolute"])
    def test_unreadable_model_exits_2(self, model, tmp_path, capsys):
        # a missing file, a missing bundled model and a file that is not
        # UTF-8 are reported, not raised; so is a bundled name that is a
        # path, relative or absolute, even to a readable model file
        paths = {"missing": str(tmp_path / "absent.model"),
                 "latin1": str(tmp_path / "latin1.model"),
                 "bundled_absolute": f"bundled:{tmp_path / 'copy'}"}
        (tmp_path / "latin1.model").write_bytes(
            "# mod\xe8le\nn = 3\nm = 1\nq = 1\n".encode("latin-1"))
        (tmp_path / "copy.model").write_text(
            "n = 3\nm = 1\nq = 1\nH 1\n1,0 0,0\n0,0 -1,0\n")
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
        # the six commands write exactly the pinned files and keys, each
        # verdict as a JSON boolean, and the README's "Report keys" table
        # names exactly those keys per file (the common keys in the prose
        # above it), so neither can drift
        out = tmp_path / "rep"
        base = ["--model", "bundled:sig22_n5", "--out", str(out)]
        assert run_cli(base + ["check-geometry"]) == 0
        assert run_cli(base + ["audit-barrier", "--budget", "3000"]) == 0
        assert run_cli(base + ["audit-kernels", "--budget", "300"]) == 0
        assert run_cli(base + ["run-homotopy", "--eps", "0.1",
                               "--budget", "3000", "--points", "1"]) == 0
        assert run_cli(base + ["index-audit", "--n-max", "6"]) == 0
        assert run_cli(base + ["estimate-norms", "--budget", "150"]) == 0
        documented, prose = readme_report_keys()
        assert COMMON_KEYS <= prose
        assert sorted(os.listdir(out)) == sorted(documented) \
            == sorted(REPORT_KEYS)
        reports = {}
        for name, keys in REPORT_KEYS.items():
            text = (out / name).read_text()
            if name.endswith(".csv"):
                assert tuple(text.splitlines()[0].split(",")) == keys
            else:
                reports[name] = json.loads(text)
                assert key_paths(reports[name]) == COMMON_KEYS | keys
            assert documented[name] == set(keys), name
        assert reports["geometry.json"]["certification"]["passed"] is True
        barrier = reports["barrier.json"]
        certificate = reports["index_certificate.json"]["certificate"]
        verdicts = [barrier["lower_bound"]["passed"],
                    barrier["expansion"]["exact"]]
        verdicts += [row[key] for row in certificate
                     for key in ("bounded", "vanishing")]
        assert all(isinstance(v, bool) for v in verdicts)

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

    def test_homotopy_refuses_q_below_2(self, tmp_path, capsys):
        # the residual leaves out H_1 f, which need not vanish for q = 1:
        # this certified n = 3 model has H = diag(1, -1)
        model = tmp_path / "n3q1.model"
        model.write_text("n = 3\nm = 1\nq = 1\nH 1\n1,0 0,0\n0,0 -1,0\n")
        out = tmp_path / "out"
        base = ["--model", str(model), "--out", str(out)]
        assert run_cli(base + ["check-geometry"]) == 0
        capsys.readouterr()
        assert run_cli(base + ["run-homotopy", "--budget", "500"]) == 2
        assert ("error: identity residual omits H f, which vanishes only "
                "for input degree below q = 1") in capsys.readouterr().err
        assert os.listdir(out) == ["geometry.json"]

    def test_homotopy_refuses_uncertified_model(self, tmp_path, capsys):
        # H = diag(1, 0, -1, -1) has one negative Levi eigenvalue in one of
        # the two level directions, where q = 2 requires two
        model = tmp_path / "flat.model"
        model.write_text("n = 5\nm = 1\nq = 2\nH 1\n1,0 0,0 0,0 0,0\n"
                         "0,0 0,0 0,0 0,0\n0,0 0,0 -1,0 0,0\n"
                         "0,0 0,0 0,0 -1,0\n")
        out = tmp_path / "out"
        assert run_cli(["--model", str(model), "--out", str(out),
                        "run-homotopy", "--budget", "500"]) == 2
        assert ("error: model failed concavity certification: min negative "
                "eigenvalues 1 (required 2)") in capsys.readouterr().err
        assert not out.exists()

    def test_homotopy_needs_no_geometry_report(self, tmp_path):
        # run-homotopy certifies the model itself and reads no other report
        out = tmp_path / "fresh"
        assert run_cli(["--model", "bundled:sig22_n5", "--out", str(out),
                        "run-homotopy", "--eps", "0.1", "--budget", "500",
                        "--points", "1"]) == 0
        assert sorted(os.listdir(out)) == ["homotopy.json",
                                           "homotopy_residuals.csv"]

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
            a = Path(outs[0], name).read_bytes()
            b = Path(outs[1], name).read_bytes()
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
         ("barrier", "sections", "quadrature", "homotopy", "norms"), ()),
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


@pytest.mark.parametrize("value", [True, np.bool_(True)])
def test_canonical_json_writes_booleans(value):
    # bool is an int subclass, and np.bool_ is not JSON-serializable
    assert canonical_json({"a": value, "b": type(value)(False), "c": 1}) \
        == '{"a":true,"b":false,"c":1}'
