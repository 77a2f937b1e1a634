"""Structured results for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class CheckCase(NamedTuple):
    input: str
    residual: str
    passed: bool


@dataclass
class CheckReport:
    check: str
    n: int
    ell: int | None = None
    cases: list[CheckCase] = field(default_factory=list)

    def add(self, input: str, residual: str, passed: bool) -> None:
        self.cases.append(CheckCase(input, residual, passed))

    def add_residual(self, input: str, residual) -> None:
        """Record a case that passes iff ``residual`` is exactly zero."""
        self.add(input, str(residual), residual.is_zero())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list[CheckCase]:
        return [c for c in self.cases if not c.passed]

    def to_dict(self) -> dict:
        out = {
            "schema": 1,
            "check": self.check,
            "n": self.n,
            "cases": [
                {"input": c.input, "residual": c.residual, "pass": c.passed}
                for c in self.cases
            ],
            "pass": self.passed,
        }
        if self.ell is not None:
            out["ell"] = self.ell
        return out
