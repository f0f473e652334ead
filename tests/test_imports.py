"""Every imported name is read by the module that imports it, so a deleted
code path cannot leave a dead import behind; only `exactalg` names the
one-shot rational and integer solvers or `MixedSolver`, so the other
modules solve their systems on Smith forms; no module names the second
elimination engine, `Factored`, that the Smith forms replaced; and no
module names the per-kind (co)homology records that one `Presentation`
and one `Torsion` replaced, or the dense boundary matrices and boundary
Smith forms that one face table per degree replaced, or reads the dense
Smith transforms that the sparse `u_rows`, `v_cols` and `u_inv_cols`
replaced; and only `simplicial` tokenizes a text format, while no module
names the ring lookup that `Ring(name)` replaced; and the checks made of
identity-table rows alone call no `run.require` of their own; and no
module keeps the dense matrix arithmetic, the boundary-matrix builder or
the period record that only tests called, so `Matrix` is a shaped input
record for the Smith solvers and nothing more."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/hexad/*.py")) + sorted(ROOT.glob("tests/*.py"))
SOLVER_LAYER = {"rational_rank", "rational_solve", "rational_kernel", "hnf_solve",
                "kernel_basis", "quotient_group", "MixedSolver"}
SECOND_ENGINE = {"Factored"}
PER_KIND_PRESENTATION = {"TorsionClass", "TorsionCycle", "CohomologyStructure",
                         "HomologyStructure", "_quotient_presentation",
                         "q_rank", "coboundary_gens", "boundary_gens"}
OLD_BOUNDARY_STORAGE = {"boundary_smith", "_bd_smith", "_bound",
                        "_build_boundary", "_cob_sparse"}
# the dense SmithForm transforms and the dense u*b accessor `_rows`; refused
# as attributes only, since u and v are ordinary local names
OLD_DENSE_TRANSFORMS = {"u", "v", "u_inv", "_rows"}


def unused_imports(source):
    """(line, name) of each name an import binds that the module never
    reads; a name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_the_checker_sees_unused_and_exported_names():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("import a.b\na.b.c()\n") == []
    assert unused_imports("def f():\n    from x import y\n") == [(2, "y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def refused_names(source, refused):
    """(line, name) of each import, name, attribute or definition in the
    source that is in `refused`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found += [(node.lineno, n) for n in names if n in refused]
    return found


def solver_layer_names(source):
    """(line, name) of each reference to the solver layer in the source."""
    return refused_names(source, SOLVER_LAYER)


def test_the_checker_sees_solver_layer_names():
    assert solver_layer_names("from .exactalg import hnf_solve, Matrix\n") == [
        (1, "hnf_solve")]
    assert solver_layer_names("x = exactalg.rational_rank(m)\n") == [
        (1, "rational_rank")]
    assert solver_layer_names("MixedSolver(g)\nsmith_form(m)\n") == [
        (1, "MixedSolver")]


def test_the_checker_sees_the_second_elimination_engine():
    assert sorted(refused_names(
        "from .exactalg import Factored, smith_form\nexactalg.Factored(m)\n"
        "class Factored: pass\nf = Factored\n", SECOND_ENGINE)) == [
            (1, "Factored"), (2, "Factored"), (3, "Factored"), (4, "Factored")]
    assert refused_names("factored = smith_form(m)\n", SECOND_ENGINE) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_system_is_solved_on_a_smith_form(path):
    assert refused_names(path.read_text(encoding="utf-8"), SECOND_ENGINE) == []


@pytest.mark.parametrize(
    "path", [p for p in sorted(ROOT.glob("src/hexad/*.py"))
             if p.name != "exactalg.py"],
    ids=lambda p: str(p.relative_to(ROOT)))
def test_only_exactalg_touches_the_solver_layer(path):
    assert solver_layer_names(path.read_text(encoding="utf-8")) == []


def test_the_checker_sees_per_kind_presentation_names():
    assert sorted(refused_names(
        "from .simplicial import TorsionCycle\nst.q_rank\n"
        "def _quotient_presentation(): pass\nclass TorsionClass: pass\n",
        PER_KIND_PRESENTATION)) == [(1, "TorsionCycle"), (2, "q_rank"),
                                    (3, "_quotient_presentation"),
                                    (4, "TorsionClass")]
    assert refused_names("st.boundary_gens\nst.basis\n",
                         PER_KIND_PRESENTATION) == [(1, "boundary_gens")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/hexad/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_one_presentation_for_homology_and_cohomology(path):
    assert refused_names(path.read_text(encoding="utf-8"),
                         PER_KIND_PRESENTATION) == []


def test_the_checker_sees_old_boundary_storage_names():
    assert sorted(refused_names(
        "self._bound = {}\ncx.boundary_smith(2)\n"
        "def _build_boundary(self, k): pass\nself._cob_sparse.get(k)\n",
        OLD_BOUNDARY_STORAGE)) == [(1, "_bound"), (2, "boundary_smith"),
                                   (3, "_build_boundary"), (4, "_cob_sparse")]
    assert refused_names("self._bd_smith[k]\nself._faces[k]\n",
                         OLD_BOUNDARY_STORAGE) == [(1, "_bd_smith")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/hexad/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_one_face_table_stores_the_boundary_operator(path):
    assert refused_names(path.read_text(encoding="utf-8"),
                         OLD_BOUNDARY_STORAGE) == []


def refused_attributes(source, refused):
    """(line, name) of each attribute read or set in the source whose name
    is in `refused`."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in refused)


def test_the_checker_sees_old_dense_transform_names():
    assert refused_attributes(
        "f.u.mul_vec(b)\nrelations.u_inv.column(i)\nself.smith.v.cols\n"
        "w, bden, r = self._rows(b)\n",
        OLD_DENSE_TRANSFORMS) == [(1, "u"), (2, "u_inv"), (3, "v"), (4, "_rows")]
    assert refused_attributes("for u in basis:\n    v = u\nf.u_rows[r:]\n",
                              OLD_DENSE_TRANSFORMS) == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/hexad/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_smith_transforms_are_read_sparse(path):
    assert refused_attributes(path.read_text(encoding="utf-8"),
                              OLD_DENSE_TRANSFORMS) == []


SIMPLICIAL = ROOT / "src" / "hexad" / "simplicial.py"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_text_format_rules_live_in_simplicial(path):
    # one scanner tokenizes every format, and rings are read by Ring(name)
    refused = {"_as_ring"} if path == SIMPLICIAL else {"_as_ring", "_tokenize"}
    assert refused_names(path.read_text(encoding="utf-8"), refused) == []


def function_local_imports(source):
    """(line, name) of each import made inside a function body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.update((inner.lineno, alias.name)
                                 for alias in inner.names)
    return sorted(found)


def test_the_checker_sees_function_local_imports():
    assert function_local_imports("import os\ndef f():\n    from .a import b\n"
                                  ) == [(3, "b")]
    assert function_local_imports(
        "class C:\n    def m(self):\n        def g():\n"
        "            import os\n") == [(4, "os")]
    assert function_local_imports("from .a import b\nimport os\n") == []


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/hexad/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_src_imports_only_at_module_level(path):
    assert function_local_imports(path.read_text(encoding="utf-8")) == []


HEXAGON = ROOT / "src" / "hexad" / "hexagon.py"
TABLE_ONLY_CHECKS = ("check_faces", "check_dhat_square", "check_cone_square")


def own_require_calls(source, functions):
    """(function, line) of each `.require(...)` call made in the body of
    one of the named module-level functions."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found += [(node.name, inner.lineno) for inner in ast.walk(node)
                      if isinstance(inner, ast.Call)
                      and isinstance(inner.func, ast.Attribute)
                      and inner.func.attr == "require"]
    return found


def test_the_checker_sees_own_require_calls():
    source = ("def f(run):\n    run.require(True, 'x')\n"
              "def g(run):\n    h(run)\n")
    assert own_require_calls(source, ("f", "g")) == [("f", 2)]
    assert own_require_calls(source, ("g",)) == []


def test_table_only_checks_require_nothing_themselves():
    source = HEXAGON.read_text(encoding="utf-8")
    names = {node.name for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    assert set(TABLE_ONLY_CHECKS) <= names
    assert own_require_calls(source, TABLE_ONLY_CHECKS) == []


EXACTALG = ROOT / "src" / "hexad" / "exactalg.py"
DEAD_HELPERS = {"mul_vec", "PeriodVector"}
MATRIX_METHODS = {"__init__", "from_rows", "from_columns", "transpose",
                  "__eq__", "__hash__", "__repr__"}


def class_methods(source, name):
    """Method name -> FunctionDef of each method the named module-level
    class defines."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return {f.name: f for f in node.body
                    if isinstance(f, ast.FunctionDef)}
    return {}


def defaulted_parameters(function):
    """The names of the parameters of a FunctionDef that have a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    found = positional[len(positional) - len(args.defaults):]
    found += [a for a, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return [a.arg for a in found]


def test_the_checker_sees_dead_helpers():
    assert refused_names("def mul_vec(self, v): pass\nPeriodVector(1, ())\n",
                         DEAD_HELPERS) == [(1, "mul_vec"), (2, "PeriodVector")]
    source = ("class Matrix:\n    def mul(self, other): pass\n"
              "    @classmethod\n    def from_rows(cls, rows, *, cols=None): pass\n"
              "    def from_columns(cls, columns, *, rows): pass\n"
              "def boundary(self, k): pass\n")
    methods = class_methods(source, "Matrix")
    assert set(methods) == {"mul", "from_rows", "from_columns"}
    assert class_methods(source, "SimplicialComplex") == {}
    assert defaulted_parameters(methods["from_rows"]) == ["cols"]
    assert defaulted_parameters(methods["from_columns"]) == []
    assert defaulted_parameters(
        ast.parse("def f(a, b=1, /, c=2, *d, e, g=3): pass").body[0]) == [
            "b", "c", "g"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/hexad/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_helpers(path):
    assert refused_names(path.read_text(encoding="utf-8"), DEAD_HELPERS) == []


def test_matrix_is_a_shaped_input_record():
    methods = class_methods(EXACTALG.read_text(encoding="utf-8"), "Matrix")
    assert set(methods) <= MATRIX_METHODS
    assert defaulted_parameters(methods["from_rows"]) == []
    assert defaulted_parameters(methods["from_columns"]) == []


def test_the_complex_builds_no_boundary_matrix():
    methods = class_methods(SIMPLICIAL.read_text(encoding="utf-8"),
                            "SimplicialComplex")
    assert "coboundary_matrix" in methods and "boundary" not in methods
