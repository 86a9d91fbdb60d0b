"""The benchmark's workloads: inputs made from a seed, run in parts.

A part is one thing a user runs. For `k-oracle` and `suite-rest` it is
`varinterp suite --config <config.json> --out <dir>`, called in-process
through `varinterp.cli.main`. For `reiteration` it is one call of
`varinterp.reiteration_check` on an instance drawn the way the suite's
reiteration check draws its instances, with a shorter outer range (see
README.md for why). A workload is a few parts with different seeds, so
that one run averages over more instances than one short part holds. The
program sees only the input files written here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

from oracles import reiteration_checks, suite_report_checks

GRID = {"V": 16, "samples_per_octave": 32}

SUITE_REST_CHECKS = (
    "luxemburg-closed-form", "modular-sandwich", "unit-ball",
    "kj-functional-bounds", "k-discrete-continuous", "embedding-chain",
    "kj-equivalence", "density", "operator-bound", "prop-exponent-monotone",
    "prop-reversal", "prop-equal-limits", "prop-theta-monotone",
    "prop-identical-couple", "lorentz-identification", "lorentz-discrete",
    "rearrangement", "hardy-discrete", "hardy-continuous",
    "key-estimate-local", "key-estimate-at-zero", "key-estimate-at-infinity",
    "class-membership",
)

# (parts, trials per part) of the two suite workloads
K_ORACLE_PARTS = (4, 30)
SUITE_REST_PARTS = (3, 15)
SEED_STRIDE = 16

REITERATION_PARTS = 4
REITERATION_INNER_GRID = (10, 6)
REITERATION_OUTER_V = 1
REITERATION_RESOLUTION = 1e-4

# what a fresh interpreter does before the first part: import the package
# and load the generated input file
SETUP_SNIPPET = """
import json, sys
sys.path.insert(0, sys.argv[1])
import varinterp
with open(sys.argv[2]) as fh:
    data = json.load(fh)
if sys.argv[3] == "suite":
    varinterp.CheckSuiteConfig.from_json_dict(data)
else:
    varinterp.Couple.weighted_seq(data["w0"], data["w1"])
    varinterp.ExponentFunction.constant(data["q"])
    varinterp.HaarGrid(*data["inner_grid"])
"""


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_outputs(out_dir):
    """{file name: bytes} of everything a part wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class SuitePart:
    """A suite config run through the command line entry point."""

    setup_kind = "suite"

    def __init__(self, checks, trials, seed, input_path):
        self.config = {"seed": seed, "trials": trials, "grid": GRID,
                       "checks": list(checks)}
        self.input_path = input_path
        _write_json(input_path, self.config)
        self.exit_code = None

    def run(self, vi, out_dir):
        cli = sys.modules["varinterp.cli"]
        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_code = cli.main(["suite", "--config", self.input_path,
                                       "--out", out_dir])

    def verify(self, vi, out_dir):
        ops = [("exit-code", "ok" if self.exit_code == 0
                else f"failed: exit code {self.exit_code}")]
        return ops + suite_report_checks(out_dir, self.config["checks"],
                                         self.config["trials"])


class ReiterationPart:
    """One reiteration instance: the nested K-method path."""

    setup_kind = "reiteration"

    def __init__(self, rng, input_path):
        f = rng.uniform(-2.0, 2.0, 3)
        f[int(rng.integers(0, 3))] = float(rng.uniform(0.5, 2.0))
        self.instance = {
            "w0": (10.0 ** rng.uniform(-1.0, 1.0, 3)).tolist(),
            "w1": (10.0 ** rng.uniform(-1.0, 1.0, 3)).tolist(),
            "f": f.tolist(),
            "theta0": float(rng.uniform(0.2, 0.35)),
            "theta1": float(rng.uniform(0.65, 0.8)),
            "eta": 0.5,
            "q": float(rng.uniform(1.5, 3.0)),
            "inner_grid": list(REITERATION_INNER_GRID),
            "outer_V": REITERATION_OUTER_V,
            "refine": False,
            "resolution": REITERATION_RESOLUTION,
        }
        self.input_path = input_path
        _write_json(input_path, self.instance)
        self.report = None

    def run(self, vi, out_dir):
        with open(self.input_path) as fh:
            inst = json.load(fh)
        self.report = vi.reiteration_check(
            vi.Couple.weighted_seq(inst["w0"], inst["w1"]), inst["f"],
            inst["theta0"], inst["theta1"], inst["eta"],
            vi.ExponentFunction.constant(inst["q"]),
            inner_grid=vi.HaarGrid(*inst["inner_grid"]),
            outer_V=inst["outer_V"], refine=inst["refine"],
            resolution=inst["resolution"])
        fields = {k: getattr(self.report, k) for k in (
            "theta", "base_norm", "outer_norm", "constant",
            "refined_constant", "drift", "passed")}
        _write_json(os.path.join(out_dir, "reiteration.json"), fields)

    def verify(self, vi, out_dir):
        return reiteration_checks(self.instance, self.report)


def make_parts(workload, seed, work_dir):
    """The parts of a workload; their inputs depend on seed only."""
    def path(m):
        return os.path.join(work_dir, f"input-{m}.json")

    if workload == "reiteration":
        return [ReiterationPart(np.random.default_rng([seed % 2 ** 63, 11, m]),
                                path(m)) for m in range(REITERATION_PARTS)]
    checks, (count, trials) = (
        (("k-oracle",), K_ORACLE_PARTS) if workload == "k-oracle"
        else (SUITE_REST_CHECKS, SUITE_REST_PARTS))
    return [SuitePart(checks, trials, seed * SEED_STRIDE + m, path(m))
            for m in range(count)]


WORKLOADS = ("reiteration", "k-oracle", "suite-rest")
