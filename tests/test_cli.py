import hashlib
import json
import os

import pytest

from hexad.cli import main
from hexad.plforms import format_whitney_form, load_whitney_form, whitney
from hexad.hscomplex import load_diff_cochain
from hexad.hexagon import map_I, map_R
from hexad.simplicial import Cochain, Ring, catalog, format_cochain


def run_cli(args):
    return main(args)


# SHA-256 of fixed report bytes.  The determinism tests compare two runs of
# the same code, so only a pinned digest catches a change to a report.  The
# klein-bottle verify report carries torsion and WhitneyForm and Cochain
# reprs; compute carries cycle bases; the torus verify covers degrees 1-3.
PINNED_REPORTS = {
    "verify-projective-plane": (
        ["verify", "--complex", "projective-plane", "--degree", "2",
         "--seed", "42", "--trials", "5"],
        "680f092fd644340722aa3a1cef8d8b80ab9509ac9895d35f5a4035e464bc4bfc"),
    "verify-klein-bottle": (
        ["verify", "--complex", "klein-bottle", "--degree", "2",
         "--seed", "42", "--trials", "5"],
        "020403e40b3e4e0118c870c4b2ccd37b7b3e7168c6fbccc78d3340aeca706ed1"),
    "compute-klein-bottle": (
        ["compute", "--complex", "klein-bottle"],
        "d1d540bca14c12c1d8d07115ccc24e237049a6870ac8b10003707462acb84625"),
    "verify-torus-all-degrees": (
        ["verify", "--complex", "torus", "--seed", "7", "--trials", "3"],
        "7260ea1db5d2f29c0fa6756b8fbf08c80798f032c97b19353f60e60b945fbf25"),
}


@pytest.mark.parametrize("label", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(tmp_path, label):
    args, digest = PINNED_REPORTS[label]
    report = tmp_path / "report.json"
    assert run_cli(args + ["--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_catalog_listing(tmp_path, capsys):
    assert run_cli(["catalog"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in payload["catalog"]]
    assert "projective-plane" in names and "klein-bottle" in names


def test_compute_projective_plane_torsion(capsys):
    assert run_cli(["compute", "--complex", "projective-plane",
                    "--degree", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["degrees"][0]
    assert row["cohomology_Z"] == {"rank": 0, "torsion": [2],
                                   "pretty": "Z/2"}


def test_verify_pass_and_exit_zero(tmp_path):
    report = tmp_path / "report.json"
    code = run_cli(["verify", "--complex", "circle", "--degree", "1",
                    "--seed", "42", "--trials", "5",
                    "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["complex"] == "circle"
    assert payload["degree"] == 1
    assert payload["seed"] == 42
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["faces"] == "PASS"
    assert statuses["off_diagonal"] == "NOT-EXACT-CONFIRMED"
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_verify_reference_invocation(tmp_path):
    # the documented reference run: full suite, 100 trials, exit 0
    report = tmp_path / "ref.json"
    code = run_cli(["verify", "--complex", "circle", "--degree", "1",
                    "--seed", "42", "--trials", "100", "--format", "json",
                    "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert all(c["status"] != "FAIL" for c in payload["checks"])


def test_verify_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "--complex", "circle", "--seed", "7", "--trials", "4"]
    assert run_cli(args + ["--report", str(out1)]) == 0
    assert run_cli(args + ["--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.json"
    assert run_cli(["verify", "--complex", "circle", "--seed", "8",
                    "--trials", "4", "--report", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_verify_bad_complex_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cplx"
    bad.write_text("name broken\nvertices 2\nfacet 0 3\n")
    code = run_cli(["verify", "--complex", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "(0, 3)" in err  # message names the offending facet
    assert run_cli(["verify", "--complex", "not-a-complex"]) == 2
    assert run_cli(["verify", "--complex", "circle", "--degree", "9"]) == 2


def test_verify_text_format(capsys):
    assert run_cli(["verify", "--complex", "point", "--degree", "1",
                    "--trials", "3", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "complex point, degree 1" in out
    assert "PASS" in out


def test_catalog_dir_env_lookup(tmp_path, monkeypatch, capsys):
    userdir = tmp_path / "complexes"
    userdir.mkdir()
    (userdir / "band.cplx").write_text(
        "name band\nvertices 4\nfacet 0 1 2\nfacet 1 2 3\n")
    monkeypatch.setenv("HEXAD_CATALOG_DIR", str(userdir))
    assert run_cli(["compute", "--complex", "band"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex"] == "band"


def test_witness_commands(tmp_path, capsys):
    cx = catalog("circle")
    form_file = tmp_path / "period3.wform"
    form_file.write_text(format_whitney_form(
        whitney(Cochain(cx, 1, Ring.Z, [3, 0, 0]).as_q())))
    assert run_cli(["witness", "--complex", "circle", "--kind", "R",
                    "--form", str(form_file), "--format", "text"]) == 0
    out = capsys.readouterr().out
    x = load_diff_cochain(out, cx)
    assert map_R(x) == whitney(Cochain(cx, 1, Ring.Z, [3, 0, 0]).as_q())

    c_file = tmp_path / "gen.cochain"
    c_file.write_text(format_cochain(Cochain(cx, 1, Ring.Z, [1, 0, 0])))
    t_file = tmp_path / "cob.cochain"
    t_file.write_text(format_cochain(
        Cochain(cx, 0, Ring.Q, [1, 0, 0]).coboundary()))
    assert run_cli(["witness", "--complex", "circle", "--kind", "I",
                    "--cocycle", str(c_file), "--coboundary", str(t_file),
                    "--format", "text"]) == 0
    out = capsys.readouterr().out
    xi = load_diff_cochain(out, cx)
    c, t = map_I(xi)
    assert c == Cochain(cx, 1, Ring.Z, [1, 0, 0])
    assert t == Cochain(cx, 0, Ring.Q, [1, 0, 0]).coboundary()


def test_witness_rejects_bad_targets(tmp_path, capsys):
    cx = catalog("circle")
    form_file = tmp_path / "half.wform"
    form_file.write_text(format_whitney_form(
        whitney(Cochain(cx, 1, Ring.Q, ["1/2", 0, 0]))))
    code = run_cli(["witness", "--complex", "circle", "--kind", "R",
                    "--form", str(form_file)])
    assert code == 2
    assert "periods" in capsys.readouterr().err


def test_bad_flag_values(capsys):
    assert run_cli(["verify", "--complex", "circle", "--seed", "-1"]) == 2
    assert run_cli(["verify", "--complex", "circle", "--trials", "0"]) == 2


def test_repeated_calls_share_no_parsed_state(capsys):
    # main() reuses one parser; an appended --degree must not carry over
    argv = ["compute", "--complex", "torus", "--degree", "1"]
    assert run_cli(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert [row["degree"] for row in first["degrees"]] == [1]
    assert run_cli(argv) == 0
    assert json.loads(capsys.readouterr().out) == first
    assert run_cli(["compute", "--complex", "torus"]) == 0
    rows = json.loads(capsys.readouterr().out)["degrees"]
    assert [row["degree"] for row in rows] == [0, 1, 2]
    assert rows[1] == first["degrees"][0]
