"""Add the report hashes of finished untraced runs to `hashes.json`.

    python3 perfbench/record_hashes.py

Reads `perfbench/out/result-<workload>-seed<n>-trace0.json` for every
workload in BENCHMARK.json and records, per workload, seed and job, the
SHA-256 of the report.  Runs with a failed job are skipped, and a hash
already recorded is never changed: a later commit whose report differs
fails that job instead.  Run it only on the commit whose reports are the
reference.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
HASHES = HERE / "hashes.json"


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = (json.loads(HASHES.read_text(encoding="utf-8"))
             if HASHES.exists() else {})
    added = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for path in sorted((HERE / "out").glob("result-%s-seed*-trace0.json" % workload)):
            result = json.loads(path.read_text(encoding="utf-8"))
            if result["failed"]:
                continue
            seeds = table.setdefault(workload, {}).setdefault(str(result["seed"]), {})
            for job, digest in result["hashes"].items():
                if job not in seeds:
                    seeds[job] = digest
                    added += 1
    HASHES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print("recorded %d new report hashes in %s" % (added, HASHES.name))


if __name__ == "__main__":
    main()
