"""Run one hexad benchmark workload with one seed and check every output.

    python3 perfbench/run.py --workload catalog-verify --seed 0 --seconds 50 --trace 0

Run it from the repository root; it imports `hexad` from `src/` there and
fails with exit code 2 if that package is missing.  One client runs the
workload's jobs one at a time in this process.  Each job is one call to
`hexad.cli.main([...])` that writes its report to a temporary file under
`perfbench/out/`.  Every report is checked (exit code, no FAIL, the known
groups for `compute`, the shipped SHA-256 for the seed) and hashed.

`--trace 0` times the jobs: one full pass, then more jobs, fewest samples
first, while each still fits in `--seconds` by its own earlier times.  A
pass longer than `--seconds` still completes.  `--trace 1` runs one untraced and one traced
pass and reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric with its unit, including the per-job times, and every report
hash.  Results, per-job layer metrics and spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import complexes
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HASHES = HERE / "hashes.json"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5

TORUS = [(1, ()), (2, ()), (1, ())]
RP2 = [(1, ()), (0, (2,)), (0, ())]
SMALL = ("point", "interval", "circle", "sphere")
CATALOG = SMALL + ("torus", "projective-plane", "klein-bottle")


@dataclass
class Job:
    """One `hexad` invocation.  `complex` is a catalog name or the name of a
    generated complex; `{seed}` and `{file}` in `argv` are filled in."""

    name: str
    metric: str
    complex: str
    argv: tuple

    @property
    def command(self):
        return self.argv[0]


def verify_job(cx, metric, *extra):
    return Job("verify-" + cx, metric, cx,
               ("verify", "--complex", "{file}", "--seed", "{seed}") + extra)


def compute_job(cx):
    return Job("compute-" + cx, "compute_s." + cx, cx,
               ("compute", "--complex", "{file}"))


WORKLOADS = {
    "catalog-verify": [
        verify_job(cx, "verify_s." + ("small" if cx in SMALL else cx),
                   "--trials", "25")
        for cx in CATALOG],
    "build-scale": [compute_job("sd-rp2"), compute_job("T5")],
    # not in BENCHMARK.json: its one ~20 s job per run spread too much
    # between runs to gate; run it by hand to see how cost grows with size
    "grid-verify": [verify_job("T4", "verify_s.T4",
                               "--degree", "2", "--trials", "10")],
    # self-test workload, not in BENCHMARK.json
    "smoke": [verify_job("circle", "verify_s.circle", "--trials", "5"),
              verify_job("T3", "verify_s.T3", "--degree", "2", "--trials", "2"),
              compute_job("T3")],
}


def _rp2_subdivision(hexad):
    cx = hexad.simplicial.catalog("projective-plane")
    return complexes.barycentric_subdivision(
        [s for layer in cx.simplices for s in layer])


# generated complex -> (function giving (n_vertices, facets), expected homology)
GENERATED = {
    "T3": (lambda hexad: complexes.grid_torus(3), TORUS),
    "T4": (lambda hexad: complexes.grid_torus(4), TORUS),
    "T5": (lambda hexad: complexes.grid_torus(5), TORUS),
    "sd-rp2": (_rp2_subdivision, RP2),
}


# ---------------------------------------------------------------------------
# set-up

def import_hexad():
    """Import `hexad` afresh from this checkout's `src/`, never from elsewhere.

    Modules imported earlier are dropped first, so each call repeats the
    whole import and starts with an empty `catalog()` cache."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "hexad" or m.startswith("hexad.")]:
        del sys.modules[name]
    try:
        hexad = importlib.import_module("hexad")
        for m in tracing.MODULES:
            importlib.import_module("hexad." + m)
    except ImportError as exc:
        print("error: cannot import hexad from %s: %s" % (src, exc), file=sys.stderr)
        raise SystemExit(2)
    if not Path(hexad.__file__).resolve().is_relative_to(src):
        print("error: hexad imported from %s, not from %s" % (hexad.__file__, src),
              file=sys.stderr)
        raise SystemExit(2)
    return hexad


class Inputs:
    """The complexes a workload's jobs use, built and checked before timing.

    `files` maps a generated complex to its file; `bad` holds those whose
    homology, computed by the independent oracle, is not the known one.
    """

    def __init__(self, hexad, jobs, seed, workdir, generated=GENERATED):
        self.hexad = hexad
        self.seed = seed
        self.workdir = workdir
        self.generated = generated
        names = sorted({j.complex for j in jobs})
        self.catalog = [n for n in names if n not in generated]
        self.generate = [n for n in names if n in generated]
        self.files = {}
        self.bad = set()

    def prepare(self):
        """Write and gate the generated files, then build (and cache) the
        catalog complexes."""
        for name in self.generate:
            build, expected = self.generated[name]
            n_vertices, facets = build(self.hexad)
            text = complexes.generate(name, n_vertices, facets, self.seed)
            path = self.workdir / ("%s.cplx" % name)
            path.write_text(text, encoding="utf-8")
            self.files[name] = path
            _, written = complexes.parse_facets(path.read_text(encoding="utf-8"))
            if complexes.homology(written) != list(expected):
                self.bad.add(name)
        for name in self.catalog:
            self.hexad.simplicial.catalog(name)

    def argv(self, job, report):
        target = str(self.files.get(job.complex, job.complex))
        return [target if a == "{file}" else str(self.seed) if a == "{seed}" else a
                for a in job.argv] + ["--report", str(report)]


# ---------------------------------------------------------------------------
# output gate

def sha256(data):
    return hashlib.sha256(data).hexdigest()


def expected_compute(homology):
    """The `compute` report's group fields implied by the homology groups
    (universal coefficients: H^k(Z) = free part of H_k + torsion of H_{k-1})."""
    rows = []
    for k, (rank, torsion) in enumerate(homology):
        prev_torsion = list(homology[k - 1][1]) if k else []
        rows.append({
            "degree": k,
            "homology": [rank, list(torsion)],
            "cohomology_Z": [rank, prev_torsion],
            "cohomology_Q_rank": rank,
            "cohomology_QmodZ": [rank, list(torsion)],
        })
    return rows


def _compute_groups(payload):
    return [{
        "degree": row["degree"],
        "homology": [row["homology"]["rank"], row["homology"]["torsion"]],
        "cohomology_Z": [row["cohomology_Z"]["rank"],
                         row["cohomology_Z"]["torsion"]],
        "cohomology_Q_rank": row["cohomology_Q_rank"],
        "cohomology_QmodZ": [row["cohomology_QmodZ"]["divisible_rank"],
                             row["cohomology_QmodZ"]["finite"]["torsion"]],
    } for row in payload["degrees"]]


def check_output(job, code, data, expected_hash, homology=None):
    """Reasons the job failed; empty when its report is correct."""
    reasons = []
    if code != 0:
        reasons.append("exit code %r" % (code,))
    if expected_hash is not None and sha256(data) != expected_hash:
        reasons.append("report hash differs from the shipped one")
    try:
        payload = json.loads(data)
        if job.command == "verify":
            runs = payload.get("runs", [payload])
            failed = [c["name"] for r in runs for c in r.get("checks", ())
                      if c["status"] == "FAIL"]
            if failed:
                reasons.append("checks FAIL: %s" % ", ".join(failed))
            if not any(r.get("checks") for r in runs):
                reasons.append("report has no checks")
        elif (homology is not None
              and _compute_groups(payload) != expected_compute(homology)):
            reasons.append("compute groups differ from the known ones")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        reasons.append("malformed report: %r" % (exc,))
    return reasons


def witness_total(data):
    """Sum of `witness_count` over a verify report; 0 for a malformed one,
    which check_output() has already failed."""
    try:
        payload = json.loads(data)
        return sum(c["witness_count"] for r in payload.get("runs", [payload])
                   for c in r.get("checks", ()))
    except (ValueError, KeyError, TypeError, AttributeError):
        return 0


# ---------------------------------------------------------------------------
# running

class Runner:
    """Runs jobs, checks their reports and keeps times, hashes and failures."""

    def __init__(self, hexad, jobs, inputs, workdir, shipped):
        self.hexad = hexad
        self.jobs = jobs
        self.inputs = inputs
        self.workdir = workdir
        self.shipped = shipped
        self.times = {j.name: [] for j in jobs}
        self.hashes = {j.name: [] for j in jobs}
        self.reports = {}
        self.attempted = 0
        self.failures = {}  # run number -> (job name, reasons)

    def run(self, job):
        """Run one job; returns its wall time, or None if it failed early."""
        self.attempted += 1
        if job.complex in self.inputs.bad:
            self.fail(job, ["generated complex failed the homology gate"])
            return None
        report = self.workdir / ("%s.json" % job.name)
        argv = self.inputs.argv(job, report)
        code = None
        start = time.perf_counter()
        try:
            code = self.hexad.cli.main(argv)
        except Exception:  # a crashing job is a failed job, not a dead run
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        data = report.read_bytes() if report.exists() else b""
        report.unlink(missing_ok=True)
        homology = self.inputs.generated.get(job.complex, (None, None))[1]
        reasons = check_output(job, code, data, self.shipped.get(job.name), homology)
        digest = sha256(data)
        if self.hashes[job.name] and digest != self.hashes[job.name][0]:
            reasons.append("report differs between runs of the same job")
        if reasons:
            self.fail(job, reasons)
        self.times[job.name].append(elapsed)
        self.hashes[job.name].append(digest)
        self.reports[job.name] = data
        return elapsed

    def fail(self, job, reasons):
        self.failures.setdefault(self.attempted, (job.name, []))[1].extend(reasons)

    def measure(self, seconds):
        """One full pass; then, while any job still fits in `seconds` by the
        median of its earlier times, run the one with the fewest samples."""
        start = time.perf_counter()
        for job in self.jobs:
            self.run(job)
        while True:
            left = seconds - (time.perf_counter() - start)
            fits = [j for j in self.jobs if self.times[j.name]
                    and statistics.median(self.times[j.name]) <= left]
            if not fits:
                break
            self.run(min(fits, key=lambda j: len(self.times[j.name])))

    def job_metrics(self):
        """Median time per job, summed into the per-job metric names."""
        out = {}
        for job in self.jobs:
            if self.times[job.name]:
                out[job.metric] = (out.get(job.metric, 0.0)
                                   + statistics.median(self.times[job.name]))
        return out


def load_shipped(workload, seed):
    if not HASHES.exists():
        return {}
    table = json.loads(HASHES.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed), {})


def benchmark_metrics(kind):
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run_workload(workload, seed, seconds, trace):
    """Run the workload; returns (runner, metrics, details for the result file)."""
    jobs = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        reps = []
        for _ in range(SETUP_REPEATS if not trace else 1):
            t = time.perf_counter()
            hexad = import_hexad()
            inputs = Inputs(hexad, jobs, seed, workdir)
            inputs.prepare()
            reps.append(time.perf_counter() - t)
        setup_s = statistics.median(reps)
        runner = Runner(hexad, jobs, inputs, workdir, load_shipped(workload, seed))
        details = {"workload": workload, "seed": seed, "trace": trace,
                   "setup_repeats_s": reps}
        if not trace:
            runner.measure(seconds)
            per_job = runner.job_metrics()
            metrics = {
                "setup_s": setup_s,
                "run_s": sum(per_job.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics.update(per_job)
        else:
            metrics = traced_pass(runner, workload, seed, details)
    details.update({
        "times_s": runner.times,
        "hashes": {name: h[0] for name, h in runner.hashes.items() if h},
        "failures": sorted(runner.failures.values()),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    })
    return runner, metrics, details


def traced_pass(runner, workload, seed, details):
    """Run each job untraced, then traced; the per-layer metrics of the
    traced pass.  Runner.run() fails a traced job whose report hash differs
    from the untraced one."""
    for job in runner.jobs:
        runner.run(job)
    untraced = {name: t[0] for name, t in runner.times.items() if t}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job in runner.jobs:
            tracer.job = job.name
            runner.run(job)
    finally:
        tracer.job = None
        tracer.uninstall()
    traced = {name: t[-1] for name, t in runner.times.items() if len(t) > 1}
    names = [j.name for j in runner.jobs]
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, names)
    metrics["report.witnesses"] = sum(witness_total(runner.reports[j.name])
                                      for j in runner.jobs
                                      if j.command == "verify" and j.name in runner.reports)
    base = sum(untraced.values())
    metrics["trace.overhead_frac"] = (sum(traced.values()) - base) / base if base else 0.0
    per_job = {n: tracing.layer_metrics(tracer.spans, tracer.counters, [n]) for n in names}
    path = OUT / ("trace-%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps({"jobs": per_job, "untraced_s": untraced,
                                "traced_s": traced, "spans": tracer.spans}),
                    encoding="utf-8")
    details["trace_file"] = str(path.relative_to(ROOT))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    runner, metrics, details = run_workload(args.workload, args.seed,
                                            args.seconds, args.trace)
    path = OUT / ("result-%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(details, indent=1, sort_keys=True), encoding="utf-8")
    for name, reasons in sorted(runner.failures.values()):
        print("FAILED %s: %s" % (name, "; ".join(reasons)))
    for name, digest in sorted(details["hashes"].items()):
        print("report %-16s sha256 %s" % (name, digest))
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = benchmark_metrics(kind)
    units = dict(wanted)
    for name, value in metrics.items():
        unit = units.get(name, "s")  # the rest are per-job times
        print("metric %-44s %s %s" % (name, value, unit))
    attempted, failed = runner.attempted, len(runner.failures)
    print("metric %-44s %s ratio (%d failed of %d attempted)"
          % ("failed_frac", failed / attempted, failed, attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
