"""Command-line surface: catalog listing, cohomology tables, verification
runs and witness construction, with deterministic JSON reports.

Exit codes: 0 all checks passed, 1 at least one FAIL, 2 parse or
validation errors, 3 an internal error: an exact computation or a witness
failed to re-verify (an ArithmeticError), or a check or context build
raised on inputs that were already validated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .hexagon import (
    HexagonContext,
    run_all_checks,
    witness_I_surjective,
    witness_R_surjective,
)
from .hscomplex import format_diff_cochain
from .plforms import load_whitney_form
from .simplicial import (
    ComplexParseError,
    InvalidComplexError,
    catalog,
    catalog_names,
    cohomology,
    load_cochain,
    load_complex,
)

CATALOG_DIR_ENV = "HEXAD_CATALOG_DIR"


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _resolve_complex(name_or_path):
    if name_or_path is None:
        raise CliError("--complex is required")
    if name_or_path in catalog_names():
        return catalog(name_or_path)
    candidates = [name_or_path]
    catalog_dir = os.environ.get(CATALOG_DIR_ENV)
    if catalog_dir:
        candidates.append(os.path.join(catalog_dir, name_or_path))
        candidates.append(os.path.join(catalog_dir, name_or_path + ".cplx"))
    for path in candidates:
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                return load_complex(fh.read())
    raise CliError("unknown complex %r: not a catalog name (%s) and no such file"
                   % (name_or_path, ", ".join(catalog_names())))


def _degrees(args, cx, default):
    if args.degree:
        degrees = sorted(set(args.degree))
        for k in degrees:
            if not (default[0] <= k <= default[-1]):
                raise CliError("degree %d out of range %d..%d for %s"
                               % (k, default[0], default[-1], cx.name))
        return degrees
    return list(default)


def _emit(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _group_json(group):
    return {"rank": group.rank,
            "torsion": list(group.torsion_factors),
            "pretty": str(group)}


def cmd_catalog(args):
    rows = []
    for name in catalog_names():
        cx = catalog(name)
        rows.append({
            "name": name,
            "vertices": cx.n_vertices,
            "simplices": [cx.n_simplices(k) for k in range(cx.dim + 1)],
            "homology": {str(k): _group_json(cx.homology_structure(k).group)
                         for k in range(cx.dim + 1)},
        })
    if args.format == "json":
        _emit(args, json.dumps({"catalog": rows}, indent=2))
    else:
        lines = []
        for row in rows:
            h = ", ".join("H_%s = %s" % (k, v["pretty"])
                          for k, v in row["homology"].items())
            lines.append("%-18s %d vertices, simplices %s; %s"
                         % (row["name"], row["vertices"],
                            row["simplices"], h))
        _emit(args, "\n".join(lines))
    return 0


def cmd_compute(args):
    cx = _resolve_complex(args.complex)
    degrees = _degrees(args, cx, list(range(0, cx.dim + 1)))
    table = []
    for k in degrees:
        divisible, finite = cohomology(cx, k, "QmodZ")
        homology = cx.homology_structure(k)
        table.append({
            "degree": k,
            "homology": _group_json(homology.group),
            "cohomology_Z": _group_json(cohomology(cx, k, "Z")),
            "cohomology_Q_rank": cohomology(cx, k, "Q"),
            "cohomology_QmodZ": {"divisible_rank": divisible,
                                 "finite": _group_json(finite)},
            "free_cycles": [list(v) for v in homology.free_cycles],
        })
    payload = {"complex": cx.name, "degrees": table}
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = ["complex %s" % cx.name]
        for row in table:
            lines.append(
                "degree %d: H_k = %s, H^k(Z) = %s, dim H^k(Q) = %d, "
                "H^k(Q/Z) = (Q/Z)^%d + %s, %d free cycles"
                % (row["degree"], row["homology"]["pretty"],
                   row["cohomology_Z"]["pretty"], row["cohomology_Q_rank"],
                   row["cohomology_QmodZ"]["divisible_rank"],
                   row["cohomology_QmodZ"]["finite"]["pretty"],
                   len(row["free_cycles"])))
        _emit(args, "\n".join(lines))
    return 0


def _report_json(cx, degree, seed, reports):
    return {
        "complex": cx.name,
        "degree": degree,
        "seed": seed,
        "checks": [r.to_json_dict() for r in reports],
    }


def _report_text(payload):
    lines = ["complex %s, degree %d, seed %d"
             % (payload["complex"], payload["degree"], payload["seed"])]
    for check in payload["checks"]:
        lines.append("  %-28s %-32s witnesses=%d"
                     % (check["name"], check["status"],
                        check["witness_count"]))
        if "counterexample" in check:
            lines.append("      counterexample: %r" % (check["counterexample"],))
    return "\n".join(lines)


def cmd_verify(args):
    if not 0 <= args.seed < 1 << 64:
        raise CliError("--seed must be a non-negative 64-bit integer")
    if args.trials < 1:
        raise CliError("--trials must be positive")
    cx = _resolve_complex(args.complex)
    degrees = _degrees(args, cx, list(range(1, cx.dim + 2)))
    runs = []
    failed = False
    for k in degrees:
        # the inputs are validated by now, so a raise here is internal
        try:
            ctx = HexagonContext(cx, k, seed=args.seed, trials=args.trials)
            reports = run_all_checks(ctx)
        except (ValueError, ArithmeticError) as exc:
            raise CliError("internal error at degree %d: %s: %s"
                           % (k, type(exc).__name__, exc), code=3)
        failed = failed or any(not r.ok for r in reports)
        runs.append(_report_json(cx, k, args.seed, reports))
    if args.format == "json":
        if len(runs) == 1:
            text = json.dumps(runs[0], indent=2)
        else:
            text = json.dumps({"complex": cx.name, "seed": args.seed,
                               "runs": runs}, indent=2)
    else:
        text = "\n".join(_report_text(r) for r in runs)
    _emit(args, text)
    return 1 if failed else 0


def cmd_witness(args):
    cx = _resolve_complex(args.complex)
    if args.kind == "R":
        if not args.form:
            raise CliError("--kind R needs --form FILE")
        with open(args.form, "r", encoding="utf-8") as fh:
            omega = load_whitney_form(fh.read(), cx)
        x = witness_R_surjective(omega)
    else:
        if not (args.cocycle and args.coboundary):
            raise CliError("--kind I needs --cocycle FILE and --coboundary FILE")
        with open(args.cocycle, "r", encoding="utf-8") as fh:
            c = load_cochain(fh.read(), cx)
        with open(args.coboundary, "r", encoding="utf-8") as fh:
            t = load_cochain(fh.read(), cx)
        x = witness_I_surjective(c, t)
    text = format_diff_cochain(x)
    if args.format == "json":
        payload = {"complex": cx.name, "kind": args.kind,
                   "degree": x.degree, "witness": text}
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hexad",
        description="Exact verification of the differential-cohomology "
                    "hexagon on finite simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def complex_arg(p):
        p.add_argument("--complex", help="catalog name or complex file path")

    def degree_arg(p):
        p.add_argument("--degree", type=int, action="append",
                       help="degree to process (repeatable)")

    def output_args(p):
        p.add_argument("--report", help="write output to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_catalog = sub.add_parser("catalog", help="list built-in complexes")
    output_args(p_catalog)
    p_catalog.set_defaults(func=cmd_catalog)

    p_compute = sub.add_parser("compute",
                               help="cohomology and period tables")
    complex_arg(p_compute)
    degree_arg(p_compute)
    output_args(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    complex_arg(p_verify)
    degree_arg(p_verify)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized checks (default 0)")
    p_verify.add_argument("--trials", type=int, default=25,
                          help="random samples per check (default 25)")
    output_args(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_witness = sub.add_parser("witness",
                               help="construct surjectivity witnesses")
    complex_arg(p_witness)
    output_args(p_witness)
    p_witness.add_argument("--kind", choices=("R", "I"), required=True)
    p_witness.add_argument("--form", help="whitney form file (kind R)")
    p_witness.add_argument("--cocycle", help="integral cocycle file (kind I)")
    p_witness.add_argument("--coboundary",
                           help="rational coboundary file (kind I)")
    p_witness.set_defaults(func=cmd_witness)
    return parser


# built once at import: main() runs many times in one process (tests, the
# benchmark), and parsing does not change the parser
PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (ComplexParseError, InvalidComplexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("error: internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
