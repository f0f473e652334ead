import hashlib
import json

import pytest

import oracles
from hexad import hexagon, simplicial
from hexad.cli import main
from hexad.plforms import format_whitney_form, whitney
from hexad.hscomplex import load_diff_cochain
from hexad.hexagon import map_I, map_R
from hexad.simplicial import (
    Cochain,
    ComplexParseError,
    Ring,
    SimplicialComplex,
    catalog,
    format_cochain,
)


def run_cli(args):
    return main(args)


# SHA-256 of fixed report bytes.  The determinism tests compare two runs of
# the same code, so only a pinned digest catches a change to a report.  The
# klein-bottle verify report carries torsion and WhitneyForm and Cochain
# reprs; compute carries the free cycles of every catalog complex; the
# torus verify covers degrees 1-3.
# The seed-0 reports with 25 trials (point, interval, circle, sphere and
# the three *-seed0 entries) equal the seed-0 catalog-verify digests of
# perfbench/hashes.json, so every catalog complex is pinned at every
# hexagon degree, and a changed draw order shows on the larger complexes.
PINNED_REPORTS = {
    "verify-point": (
        ["verify", "--complex", "point", "--seed", "0", "--trials", "25"],
        "84eb46e53a56c465f483f6816388377fe1759942e2df147c6ee110489be259a1"),
    "verify-interval": (
        ["verify", "--complex", "interval", "--seed", "0", "--trials", "25"],
        "4dbe2d5672eb90418802e1dae261480b4ee81dc97828a92370ef33b16fde7494"),
    "verify-circle": (
        ["verify", "--complex", "circle", "--seed", "0", "--trials", "25"],
        "80b754fa5e3b1e80ac3419d0feeae219493fbdb66189f812faef235c4acf129e"),
    "verify-sphere": (
        ["verify", "--complex", "sphere", "--seed", "0", "--trials", "25"],
        "f7bd8492140e7e3278f65612ca6ffb38e1e4d4a88c8cebb934950887c17e9073"),
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
    "compute-point": (
        ["compute", "--complex", "point"],
        "68484597d0ef90298484d77f9c1bb7fceeec575e20f36b302851ff1a5dc3e05d"),
    "compute-interval": (
        ["compute", "--complex", "interval"],
        "59f88b93802114ea1fb4c9721304791064773776953f24f4a07580bddf660402"),
    "compute-circle": (
        ["compute", "--complex", "circle"],
        "371342cf5c9a053f4b06d21adfec3ef7acc8404c547a762ca79379e8a9e99d3b"),
    "compute-sphere": (
        ["compute", "--complex", "sphere"],
        "7b7f3d591b15204cdb7055c107c1ab4e68d722aac41eca360c5ef8d2e52ee8cc"),
    "compute-torus": (
        ["compute", "--complex", "torus"],
        "62ae1ec42846ae8ae8a6fb132a9245507415c3e9366871d2b5579dda03508be6"),
    "compute-projective-plane": (
        ["compute", "--complex", "projective-plane"],
        "87c28dc5ad82922b5b057aff63a7c1889ee2cd3ae0f23a8206b562d97d360d05"),
    "verify-torus-all-degrees": (
        ["verify", "--complex", "torus", "--seed", "7", "--trials", "3"],
        "7260ea1db5d2f29c0fa6756b8fbf08c80798f032c97b19353f60e60b945fbf25"),
    "verify-torus-seed0": (
        ["verify", "--complex", "torus", "--seed", "0", "--trials", "25"],
        "02f05a23d5d7f120cbd864f25e51400bfbcbcafcf42b2f5e0d0bba31a3881093"),
    "verify-projective-plane-seed0": (
        ["verify", "--complex", "projective-plane", "--seed", "0", "--trials", "25"],
        "4d39ce694aa36978ec2f01108651f0471777cbb2ea8a5b34927f05c10e19bf7c"),
    "verify-klein-bottle-seed0": (
        ["verify", "--complex", "klein-bottle", "--seed", "0", "--trials", "25"],
        "906738ee43cca1f8c2a428c7a72b4a2d3aec04aaa40da091281da53e9c1d82b8"),
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


# SHA-256 of the witness output on the circle, recorded before Whitney form
# files were written by the cochain writer under their header.  The inputs
# are literal text, so only the output side is pinned, byte for byte.
WITNESS_INPUTS = {
    "form": "whitney-form\ndegree 1\nring Q\n"
            "value 0,1 5/2\nvalue 0,2 -1/3\nvalue 1,2 -5/6\n",
    "cocycle": "degree 1\nring Z\nvalue 0,2 -1\n",
    "coboundary": "degree 1\nring Q\n"
                  "value 0,1 -2/3\nvalue 0,2 1/4\nvalue 1,2 11/12\n",
}
PINNED_WITNESSES = {
    ("R", "text"): "49447f3bab168517bc680116475fcb3870c1ff1217a392581dbf3462791ee8bb",
    ("R", "json"): "391f945ff854e42354e6f7d26a97e621e88101fa3338fea9bdb9af28d9eb6c2c",
    ("I", "text"): "7089846e4c1ab5e9df7d40823fa645f5bb1d6701b36ff6eb27ba1921674174af",
    ("I", "json"): "10614282e6c7cb5ec2582c1d23a3052d04123b271ffc991425ed215f24276f92",
}


@pytest.mark.parametrize("kind,fmt", sorted(PINNED_WITNESSES))
def test_witness_bytes_are_pinned(tmp_path, kind, fmt):
    files = {}
    for label, text in WITNESS_INPUTS.items():
        files[label] = tmp_path / label
        files[label].write_text(text)
    if kind == "R":
        inputs = ["--form", str(files["form"])]
    else:
        inputs = ["--cocycle", str(files["cocycle"]),
                  "--coboundary", str(files["coboundary"])]
    report = tmp_path / "witness.out"
    assert run_cli(["witness", "--complex", "circle", "--kind", kind] + inputs
                   + ["--format", fmt, "--report", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == PINNED_WITNESSES[kind, fmt]


@pytest.mark.parametrize("c_degree,t_degree", [(1, 2), (2, 1)])
def test_witness_I_names_both_degrees_when_they_differ(tmp_path, capsys,
                                                       c_degree, t_degree):
    c_file, t_file = tmp_path / "c", tmp_path / "t"
    c_file.write_text("degree %d\nring Z\n" % c_degree)
    t_file.write_text("degree %d\nring Q\n" % t_degree)
    assert run_cli(["witness", "--complex", "circle", "--kind", "I",
                    "--cocycle", str(c_file), "--coboundary", str(t_file)]
                   ) == 2
    assert capsys.readouterr().err == (
        "error: the coboundary has degree %d, but the cocycle has degree %d\n"
        % (t_degree, c_degree))


def test_witness_rejects_bad_targets(tmp_path, capsys):
    cx = catalog("circle")
    form_file = tmp_path / "half.wform"
    form_file.write_text(format_whitney_form(
        whitney(Cochain(cx, 1, Ring.Q, ["1/2", 0, 0]))))
    code = run_cli(["witness", "--complex", "circle", "--kind", "R",
                    "--form", str(form_file)])
    assert code == 2
    assert "periods" in capsys.readouterr().err


def test_file_errors_exit_two(tmp_path, capsys):
    # a file that cannot be read or written is a usage error, not a FAIL
    missing = tmp_path / "missing"
    assert run_cli(["witness", "--complex", "circle", "--kind", "R",
                    "--form", str(missing / "F")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run_cli(["compute", "--complex", "circle",
                    "--report", str(missing / "out.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not missing.exists()


@pytest.mark.parametrize("kind,text,where", [
    ("I", "degree\nring Z\n", "line 1, column 1"),
    ("I", "degree 1\nring\n", "line 2, column 1"),
    ("R", "whitney-form\ndegree\nring Q\n", "line 2, column 1"),
])
def test_bare_degree_or_ring_line_exits_two(tmp_path, capsys, kind, text,
                                            where):
    path = tmp_path / "bare"
    path.write_text(text)
    if kind == "I":
        files = ["--cocycle", str(path), "--coboundary", str(path)]
    else:
        files = ["--form", str(path)]
    assert run_cli(["witness", "--complex", "circle", "--kind", kind]
                   + files) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("kind,texts,degree", [
    ("R", ["whitney-form\ndegree -3\nring Q\n"], -3),
    ("R", ["whitney-form\ndegree 3\nring Q\n"], 3),
    ("I", ["degree 6\nring Z\n", "degree 6\nring Q\n"], 6),
    ("I", ["degree 7\nring Z\n", "degree 7\nring Q\n"], 7),
    ("I", ["degree 0\nring Z\n", "degree 0\nring Q\n"], 0),
])
def test_witness_refuses_degrees_outside_the_hexagon(tmp_path, capsys, kind,
                                                     texts, degree):
    # the hexagon degrees of the circle are 1..2, as for verify --degree
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / ("f%d" % i))
        paths[-1].write_text(text)
    if kind == "I":
        files = ["--cocycle", str(paths[0]), "--coboundary", str(paths[1])]
    else:
        files = ["--form", str(paths[0])]
    assert run_cli(["witness", "--complex", "circle", "--kind", kind]
                   + files) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree %d out of range 1..2" % degree)


def test_witness_accepts_the_top_hexagon_degree(tmp_path, capsys):
    # degree dim + 1 has no simplices, so (0, 0) is the only target there
    c_file, t_file = tmp_path / "c", tmp_path / "t"
    c_file.write_text("degree 2\nring Z\n")
    t_file.write_text("degree 2\nring Q\n")
    assert run_cli(["witness", "--complex", "circle", "--kind", "I",
                    "--cocycle", str(c_file), "--coboundary", str(t_file),
                    "--format", "text"]) == 0
    x = load_diff_cochain(capsys.readouterr().out, catalog("circle"))
    assert x.degree == 2 and x.is_zero()


@pytest.mark.parametrize("text,where", [
    ("degree 1\nring Z\nvalue 0,1 1\nvalue 1,2 1/2\n", "line 4, column 11"),
    # the ring may follow the values it types
    ("degree 1\nvalue 0,2   3/4\nring Z\n", "line 2, column 13"),
])
def test_non_integer_value_in_a_z_cochain_names_its_token(tmp_path, capsys,
                                                           text, where):
    c_file, t_file = tmp_path / "c", tmp_path / "t"
    c_file.write_text(text)
    t_file.write_text("degree 1\nring Q\n")
    assert run_cli(["witness", "--complex", "circle", "--kind", "I",
                    "--cocycle", str(c_file), "--coboundary", str(t_file)]
                   ) == 2
    err = capsys.readouterr().err
    assert where in err and "non-integer value" in err


@pytest.mark.parametrize("section,text,where", [
    ("T", "level 1\nsection c\ndegree 1\nring Z\nsection T\n"
          "# the potential\n  degree 1\nring Q\nsection omega\n"
          "whitney-form\ndegree 1\nring Q\n", "line 7, column 3"),
    ("omega", "level 1\nsection c\ndegree 1\nring Z\nsection T\n"
              "degree 0\nring Q\nsection omega\nwhitney-form\n"
              "degree 0\nring Q\n", "line 10, column 1"),
])
def test_diff_cochain_section_of_the_wrong_degree_names_its_line(section,
                                                                 text, where):
    with pytest.raises(ComplexParseError) as err:
        load_diff_cochain(text, catalog("circle"))
    assert where in str(err.value) and "section %s" % section in str(err.value)


_C_AND_T = "level 1\nsection c\ndegree 1\nring Z\nsection T\n"


@pytest.mark.parametrize("text,where,reason", [
    # errors inside the omega section are read at their own file lines
    (_C_AND_T + "degree 0\nring Q\nsection omega\nwhitney-form\n"
     "degree 1\nring Q\nvalue 0,1 x\n", (12, 11), "expected p or p/q"),
    # a missing line, a wrong ring or a missing header names the section
    (_C_AND_T + "degree 0\n", (5, 1), "needs degree and ring"),
    (_C_AND_T + "degree 0\nring Z\n", (5, 1), "expected ring Q"),
    (_C_AND_T + "degree 0\nring Q\n\nsection omega\n", (9, 1),
     "whitney-form header"),
    (_C_AND_T + "degree 0\nring Q\nsection omega\nwhitney-form\n"
     "# no degree\nring Q\n", (9, 1), "needs degree and ring"),
], ids=["omega-value", "T-no-ring", "T-wrong-ring", "omega-no-header",
        "omega-no-degree"])
def test_diff_cochain_errors_name_their_file_line(text, where, reason):
    with pytest.raises(ComplexParseError) as err:
        load_diff_cochain(text, catalog("circle"))
    assert (err.value.line, err.value.column) == where
    assert reason in str(err.value)


_C_T_OMEGA = ("section c\ndegree 1\nring Z\nsection T\ndegree 0\nring Q\n"
              "section omega\nwhitney-form\ndegree 1\nring Q\n")


@pytest.mark.parametrize("text,where,reason", [
    ("level --3\n" + _C_T_OMEGA, (1, 7), "expected a level"),
    ("level \u00b2\n" + _C_T_OMEGA, (1, 7), "expected a level"),
    # a second section c would replace the first and drop its value
    ("level 2\nsection c\ndegree 1\nring Z\nvalue 0,1 1\nsection T\n"
     "degree 0\nring Q\nsection c\ndegree 1\nring Z\n", (9, 9),
     "section c repeats the one on line 2"),
    (_C_AND_T + "degree 0\nring Q\n", (1, 1),
     "level 1 with section c of degree 1 needs a section omega"),
    ("level 2\n" + _C_T_OMEGA, (1, 1),
     "level 2 with section c of degree 1 needs no section omega"),
], ids=["level-double-minus", "level-superscript", "repeated-section",
        "omega-missing", "omega-below-level"])
def test_diff_cochain_defects_are_parse_errors(text, where, reason):
    with pytest.raises(ComplexParseError) as err:
        load_diff_cochain(text, catalog("circle"))
    assert (err.value.line, err.value.column) == where
    assert reason in str(err.value)


@pytest.mark.parametrize("text,where,reason", [
    ("level 1\nlevel 2\n" + _C_T_OMEGA, (2, 1), "level repeats the one on line 1"),
    ("level 1_0\n" + _C_T_OMEGA, (1, 7), "expected a level"),
    ("level \u0661\n" + _C_T_OMEGA, (1, 7), "expected a level"),
    ("level\n" + _C_T_OMEGA, (1, 1), "level takes one integer"),
    (" level 1 2\n" + _C_T_OMEGA, (1, 2), "level takes one integer"),
], ids=["level-repeated", "level-underscore", "level-arabic-indic",
        "level-no-argument", "level-two-arguments"])
def test_diff_cochain_level_is_one_ascii_integer(text, where, reason):
    with pytest.raises(ComplexParseError) as err:
        load_diff_cochain(text, catalog("circle"))
    assert (err.value.line, err.value.column) == where
    assert reason in str(err.value)


def test_verify_internal_errors_exit_three(monkeypatch, capsys):
    # a raise while checks run on validated inputs is an internal error,
    # not a parse or validation error, and it never escapes as a traceback
    for exc in (ArithmeticError("witness failed to re-verify"),
                ValueError("map rejected input")):
        def boom(ctx, exc=exc):
            raise exc
        monkeypatch.setattr("hexad.cli.run_all_checks", boom)
        assert run_cli(["verify", "--complex", "circle", "--degree", "1"]) == 3
        err = capsys.readouterr().err
        assert "degree 1" in err and type(exc).__name__ in err


def test_verify_context_build_error_exits_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ValueError("context build failed")
    monkeypatch.setattr("hexad.cli.HexagonContext", boom)
    assert run_cli(["verify", "--complex", "circle", "--degree", "2"]) == 3
    err = capsys.readouterr().err
    assert "degree 2" in err and "ValueError" in err


@pytest.mark.parametrize("exc", [ArithmeticError("witness failed to re-verify"),
                                 ValueError("map rejected input")])
def test_a_raising_check_fails_alone(tmp_path, monkeypatch, exc):
    # one check raising at one degree becomes a FAIL of that check only;
    # every other check and degree is reported as in the unpatched run
    args = ["verify", "--complex", "circle", "--seed", "0", "--trials", "4"]
    clean = tmp_path / "clean.json"
    assert run_cli(args + ["--report", str(clean)]) == 0
    original = hexagon.check_bunke_schick

    def boom(ctx):
        if ctx.degree == 2:
            raise exc
        return original(ctx)
    monkeypatch.setattr(hexagon, "check_bunke_schick", boom)
    patched = tmp_path / "patched.json"
    assert run_cli(args + ["--report", str(patched)]) == 1
    want = json.loads(clean.read_text())
    got = json.loads(patched.read_text())
    failed = got["runs"][1]["checks"]
    index = [c["name"] for c in failed].index("bunke_schick")
    assert failed[index] == {
        "name": "bunke_schick", "status": "FAIL", "witness_count": 0,
        "counterexample": {"check": "check raised an exception",
                           "error_type": type(exc).__name__,
                           "error": str(exc)}}
    assert want["runs"][1]["checks"][index]["status"] == "PASS"
    failed[index] = want["runs"][1]["checks"][index]
    assert got == want


def test_form_node_reverification_failure_exits_three(monkeypatch, capsys):
    # the fixed form-node targets are solved while the context is built
    def boom(self, eta):
        raise ArithmeticError("period decomposition failed to re-verify")
    monkeypatch.setattr(hexagon.HexagonContext, "form_node_target", boom)
    assert run_cli(["verify", "--complex", "circle", "--degree", "1"]) == 3
    err = capsys.readouterr().err
    assert "degree 1" in err and "ArithmeticError" in err


def test_witness_reverification_failure_exits_three(tmp_path, monkeypatch,
                                                    capsys):
    cx = catalog("circle")
    form_file = tmp_path / "period1.wform"
    form_file.write_text(format_whitney_form(
        whitney(Cochain(cx, 1, Ring.Z, [1, 0, 0]).as_q())))

    def boom(omega):
        raise ArithmeticError("curvature witness failed to re-verify")
    monkeypatch.setattr("hexad.cli.witness_R_surjective", boom)
    assert run_cli(["witness", "--complex", "circle", "--kind", "R",
                    "--form", str(form_file)]) == 3
    assert "ArithmeticError" in capsys.readouterr().err


def test_over_bound_complex_file_exits_two(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("face closure ran on an over-bound file")
    monkeypatch.setattr(SimplicialComplex, "from_facets", refuse)
    big = tmp_path / "big.cplx"
    big.write_text("name big\nvertices 30\nfacet "
                   + " ".join(str(v) for v in range(30)) + "\n")
    assert run_cli(["compute", "--complex", str(big)]) == 2
    assert "line 3, column 1" in capsys.readouterr().err


def test_complex_over_the_simplex_bound_exits_two(tmp_path, monkeypatch,
                                                  capsys):
    # refused before any matrix is built: no Smith form is reduced
    def refuse(m):
        raise AssertionError("smith_form ran on an over-bound complex")
    monkeypatch.setattr(simplicial, "smith_form", refuse)
    bound = simplicial.MAX_SIMPLICES_PER_DIMENSION
    big = tmp_path / "points.cplx"
    big.write_text("name points\nvertices %d\n" % (bound + 1)
                   + "".join("facet %d\n" % v for v in range(bound + 1)))
    assert run_cli(["compute", "--complex", str(big)]) == 2
    assert ("dimension 0 has %d simplices, over the limit of %d"
            % (bound + 1, bound)) in capsys.readouterr().err


def test_bad_flag_values(capsys):
    assert run_cli(["verify", "--complex", "circle", "--seed", "-1"]) == 2
    assert run_cli(["verify", "--complex", "circle", "--trials", "0"]) == 2


def test_flags_a_subcommand_does_not_read_exit_two(capsys):
    # compute reads no seed or trials; witness no degree, seed or trials
    removed = [("compute", "--seed", "99"), ("compute", "--trials", "7"),
               ("witness", "--degree", "9"), ("witness", "--seed", "5"),
               ("witness", "--trials", "3")]
    for command, flag, value in removed:
        args = [command, "--complex", "circle", flag, value]
        if command == "witness":
            args += ["--kind", "R", "--form", "F"]
        with pytest.raises(SystemExit) as err:
            run_cli(args)
        assert err.value.code == 2, (command, flag)
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_seeds_are_refused_from_two_to_the_64(capsys):
    # seeds are masked to 64 bits when derived, so 2^64 would run as seed 0
    assert run_cli(["verify", "--complex", "point", "--trials", "1",
                    "--seed", str(1 << 64)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be a non-negative 64-bit integer" in captured.err
    assert run_cli(["verify", "--complex", "point", "--trials", "1",
                    "--seed", str((1 << 64) - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == (1 << 64) - 1


def test_grid_verify_report_matches_the_recorded_digest(tmp_path):
    # the grid-verify workload's T_4 report at seed 3, built as the
    # benchmark builds it, against the digest the benchmark records
    complexes = oracles.perfbench_complexes()
    with open(oracles.PERFBENCH / "hashes.json") as fh:
        digest = json.load(fh)["grid-verify"]["3"]["verify-T4"]
    cplx = tmp_path / "T4.cplx"
    cplx.write_text(complexes.generate("T4", *complexes.grid_torus(4), 3))
    report = tmp_path / "report.json"
    assert run_cli(["verify", "--complex", str(cplx), "--degree", "2",
                    "--trials", "10", "--seed", "3",
                    "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_grid_torus_compute_report_is_pinned(tmp_path):
    # construction at scale: the T_8 grid torus (192 edges) as the benchmark
    # generates it at seed 0; every Smith form of its presentations, and
    # the kernel coordinates read off them, feeds this report
    complexes = oracles.perfbench_complexes()
    cplx = tmp_path / "T8.cplx"
    cplx.write_text(complexes.generate("T8", *complexes.grid_torus(8), 0))
    report = tmp_path / "report.json"
    assert run_cli(["compute", "--complex", str(cplx),
                    "--report", str(report)]) == 0
    assert (hashlib.sha256(report.read_bytes()).hexdigest()
            == "02917e67785c2a283901d44392d56faf0c5d4e52e744da57e6dea67d70bf07aa")


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
