"""Check reports: the JSON-facing result records for every verification."""

from __future__ import annotations

from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
NOT_EXACT_CONFIRMED = "NOT-EXACT-CONFIRMED"
NO_COUNTEREXAMPLE = "NO-COUNTEREXAMPLE-AT-THIS-DEGREE"


@dataclass
class CheckReport:
    """Result of one named check.

    A FAIL always carries a counterexample payload whose entries are plain
    strings, so the violation can be re-examined from the serialized report
    alone.  `witness_count` counts successfully re-verified witnesses.
    """

    name: str
    status: str
    witness_count: int = 0
    counterexample: dict | None = None

    @property
    def ok(self):
        return self.status != FAIL

    def to_json_dict(self):
        out = {"name": self.name, "status": self.status,
               "witness_count": self.witness_count}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class CheckRun:
    """Accumulator used inside check implementations.

    `require(cond, label, **detail)` records a witness on success and a
    counterexample on the first failure; the final report keeps PASS/FAIL
    plus the evidence.
    """

    def __init__(self, name):
        self.name = name
        self.witnesses = 0
        self.failure = None

    def witness(self):
        self.witnesses += 1

    def require(self, condition, label, **detail):
        if condition:
            self.witnesses += 1
            return True
        if self.failure is None:
            payload = {"check": label}
            payload.update({k: str(v) for k, v in detail.items()})
            self.failure = payload
        return False

    def fail(self, label, **detail):
        self.require(False, label, **detail)

    def report(self, status_when_ok=PASS):
        if self.failure is not None:
            return CheckReport(self.name, FAIL, self.witnesses, self.failure)
        return CheckReport(self.name, status_when_ok, self.witnesses)
