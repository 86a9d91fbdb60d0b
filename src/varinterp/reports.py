"""Shared result record for randomized check suites."""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["CheckReport"]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one randomized check over a corpus of instances.

    constant is the check's headline number, condensed from the instance
    outcomes by the check's reducer: a worst error or margin, a fraction of
    passing instances, or a corpus equivalence constant. The check table
    in varinterp.suite says for each check what it means. instances counts
    the instances accepted by the check's hypotheses; refinement_drift is
    None for checks without a refinement stage.
    """

    check: str
    instances: int
    constant: float
    worst_instance: int
    passed: bool
    refinement_drift: float | None = None

    def to_json_dict(self):
        return {
            "check": self.check,
            "instances": self.instances,
            "constant": self.constant,
            "worst_instance": self.worst_instance,
            "pass": self.passed,
            "refinement_drift": self.refinement_drift,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2) + "\n"
