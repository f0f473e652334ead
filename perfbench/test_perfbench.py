"""Self-tests of the benchmark, on the smoke workload (circle and T_3).

    python3 -m pytest perfbench -q

Run from the repository root; the benchmark imports `hexad` from `src/`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import complexes  # noqa: E402
import run as bench  # noqa: E402


def _bench(trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return _parsed(_bench(0))


@pytest.fixture(scope="module")
def traced():
    return _parsed(_bench(1))


def _hashes(lines):
    return {t[1]: t[3] for t in (line.split() for line in lines)
            if len(t) == 4 and t[0] == "report" and t[2] == "sha256"}


def test_every_metric_is_printed_with_its_unit(untraced, traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for (lines, result), kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(bench.WORKLOADS["smoke"])
        want = {m["name"]: m["unit"] for m in spec[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
        printed = {t[1]: t[3] for t in (line.split() for line in lines[:-1])
                   if t[0] == "metric"}
        for name, unit in want.items():
            assert printed[name] == unit
    lines, result = untraced
    for job in bench.WORKLOADS["smoke"]:
        assert any(line.split()[1:2] == [job.metric] and line.endswith(" s")
                   for line in lines)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_and_untraced_reports_are_identical(untraced, traced):
    plain, with_trace = _hashes(untraced[0]), _hashes(traced[0])
    assert set(plain) == {j.name for j in bench.WORKLOADS["smoke"]}
    assert plain == with_trace
    metrics = traced[1]["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["report.witnesses"]["value"] > 0


def _runner(hexad, tmp_path, generated=bench.GENERATED, shipped=None):
    jobs = bench.WORKLOADS["smoke"]
    inputs = bench.Inputs(hexad, jobs, 0, tmp_path, generated)
    inputs.prepare()
    return bench.Runner(hexad, jobs, inputs, tmp_path, shipped or {})


def _job(name):
    return next(j for j in bench.WORKLOADS["smoke"] if j.name == name)


def test_a_report_with_one_flipped_byte_fails(tmp_path, monkeypatch):
    hexad = bench.import_hexad()
    job = _job("compute-T3")
    first = _runner(hexad, tmp_path)
    first.run(job)
    assert not first.failures
    shipped = {job.name: first.hashes[job.name][0]}

    real_main = hexad.cli.main

    def flipping_main(argv):
        code = real_main(argv)
        report = Path(argv[argv.index("--report") + 1])
        data = bytearray(report.read_bytes())
        data[len(data) // 2] ^= 1
        report.write_bytes(bytes(data))
        return code

    runner = _runner(hexad, tmp_path, shipped=shipped)
    runner.run(job)
    assert not runner.failures
    monkeypatch.setattr(hexad.cli, "main", flipping_main)
    runner.run(job)
    assert runner.attempted == 2 and len(runner.failures) == 1
    (name, reasons), = runner.failures.values()
    assert name == job.name and "report hash differs from the shipped one" in reasons


def test_a_wrong_expected_homology_fails_the_job(tmp_path):
    hexad = bench.import_hexad()
    build, _ = bench.GENERATED["T3"]
    runner = _runner(hexad, tmp_path, generated={"T3": (build, bench.RP2)})
    assert runner.inputs.bad == {"T3"}
    assert runner.run(_job("compute-T3")) is None
    assert runner.attempted == 1 and len(runner.failures) == 1


def test_compute_groups_are_checked():
    job = _job("compute-T3")
    payload = {"complex": "T3", "degrees": [
        {"degree": k, "homology": {"rank": r, "torsion": []},
         "cohomology_Z": {"rank": r, "torsion": []}, "cohomology_Q_rank": r,
         "cohomology_QmodZ": {"divisible_rank": r, "finite": {"torsion": []}}}
        for k, r in enumerate((1, 2, 1))]}
    data = json.dumps(payload).encode()
    assert bench.check_output(job, 0, data, None, bench.TORUS) == []
    assert bench.check_output(job, 0, data, None, bench.RP2) != []
    assert bench.check_output(job, 1, data, None, bench.TORUS) != []


def test_oracle_agrees_with_the_catalog_and_the_known_sizes():
    hexad = bench.import_hexad()
    simplicial = hexad.simplicial
    for name in bench.CATALOG:
        cx = simplicial.catalog(name)
        want = simplicial.expected_homology(name)
        got = complexes.homology(cx.simplices[-1])
        assert got == [want[k] for k in sorted(want)]
    for n in (3, 4, 5):
        _, facets = complexes.grid_torus(n)
        assert sum(map(len, complexes.closure(facets))) == 6 * n * n
    _, facets = bench.GENERATED["sd-rp2"][0](hexad)
    assert sum(map(len, complexes.closure(facets))) == 181
    text = complexes.generate("T4", *complexes.grid_torus(4), 7)
    assert text == complexes.generate("T4", *complexes.grid_torus(4), 7)
    assert text != complexes.generate("T4", *complexes.grid_torus(4), 8)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
