import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from varinterp import (
    CHECK_IDS,
    CheckReport,
    CheckSuiteConfig,
    ConfigError,
    HaarGrid,
    instance_rng,
    run_check,
    run_check_suite,
)
from varinterp import suite


def test_instance_rng_reproducible():
    a = instance_rng(42, "unit-ball", 7).uniform(size=8)
    b = instance_rng(42, "unit-ball", 7).uniform(size=8)
    assert np.array_equal(a, b)


def test_instance_rng_streams_are_independent():
    base = instance_rng(42, "unit-ball", 7).uniform(size=8)
    assert not np.array_equal(base, instance_rng(42, "unit-ball", 8).uniform(size=8))
    assert not np.array_equal(base, instance_rng(43, "unit-ball", 7).uniform(size=8))
    assert not np.array_equal(base, instance_rng(42, "k-oracle", 7).uniform(size=8))


def test_instance_rng_no_sequential_coupling():
    # drawing instance 5 first must not perturb instance 6
    r5 = instance_rng(1, "density", 5)
    r5.uniform(size=100)
    direct = instance_rng(1, "density", 6).uniform(size=4)
    again = instance_rng(1, "density", 6).uniform(size=4)
    assert np.array_equal(direct, again)


def test_check_ids_are_unique():
    assert len(CHECK_IDS) == len(set(CHECK_IDS)) == 25
    assert "luxemburg-closed-form" in CHECK_IDS
    assert "reiteration" in CHECK_IDS


def test_config_rejects_bad_trials():
    with pytest.raises(ConfigError):
        CheckSuiteConfig(trials=0)


def test_config_rejects_unknown_check():
    with pytest.raises(ConfigError):
        CheckSuiteConfig(checks=("no-such-check",))


@pytest.mark.parametrize("field", [
    {"seed": 1.5}, {"seed": True}, {"seed": "1"},
    {"trials": 2.0}, {"trials": True}, {"trials": "3"},
    {"grid": None}, {"grid": (8, 8)},
    {"checks": "unit-ball"}, {"checks": None}, {"checks": [["unit-ball"]]},
    {"output_dir": 5},
])
def test_config_rejects_malformed_fields(field):
    with pytest.raises(ConfigError):
        CheckSuiteConfig(**field)


def test_config_selected_defaults_to_registry():
    assert CheckSuiteConfig().selected() == CHECK_IDS
    subset = ("unit-ball", "rearrangement")
    assert CheckSuiteConfig(checks=subset).selected() == subset


def test_config_from_json_dict():
    config = CheckSuiteConfig.from_json_dict({
        "seed": 7,
        "trials": 3,
        "grid": {"V": 8, "samples_per_octave": 4},
        "checks": ["unit-ball"],
        "output": "/tmp/out",
    })
    assert config.seed == 7
    assert config.trials == 3
    assert config.grid == HaarGrid(8, 4)
    assert config.checks == ("unit-ball",)
    assert config.output_dir == "/tmp/out"
    assert CheckSuiteConfig.from_json_dict({}) == CheckSuiteConfig()
    assert CheckSuiteConfig.from_json_dict({}).grid == HaarGrid(16, 32)
    # a partial grid keeps the default grid's other field
    assert CheckSuiteConfig.from_json_dict(
        {"grid": {"V": 8}}).grid == HaarGrid(8, 32)
    assert CheckSuiteConfig.from_json_dict(
        {"grid": {"samples_per_octave": 4}}).grid == HaarGrid(16, 4)


def test_config_from_json_dict_malformed():
    for data in ({"trials": "many"}, [], None, {"trails": 5},
                 {"output_dir": "reports"}, {"grid": 5}, {"grid": None},
                 {"grid": {"V": 8, "spo": 8}}, {"grid": {"V": 8.9}}):
        with pytest.raises(ConfigError):
            CheckSuiteConfig.from_json_dict(data)


def test_run_check_takes_the_config_defaults():
    defaults = CheckSuiteConfig()
    parameters = inspect.signature(run_check).parameters
    for name in ("seed", "trials", "grid"):
        assert parameters[name].default == getattr(defaults, name)


def test_run_check_unknown_id():
    with pytest.raises(ConfigError):
        run_check("no-such-check")


def test_run_check_returns_report():
    rep = run_check("rearrangement", seed=42, trials=5, grid=HaarGrid(8, 8))
    assert isinstance(rep, CheckReport)
    assert rep.check == "rearrangement"
    assert rep.instances == 5
    assert rep.passed


def test_run_check_suite_writes_reports(tmp_path):
    config = CheckSuiteConfig(seed=42, trials=4, grid=HaarGrid(8, 8),
                              checks=("unit-ball", "rearrangement"),
                              output_dir=str(tmp_path))
    exit_code, reports = run_check_suite(config)
    assert exit_code == 0
    assert [rep.check for rep in reports] == ["unit-ball", "rearrangement"]

    for rep in reports:
        data = json.loads((tmp_path / f"{rep.check}.json").read_text())
        assert data["check"] == rep.check
        assert data["instances"] == 4
        assert data["pass"] is True

    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "check,instances,constant,drift,pass"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "unit-ball"
    assert first[1] == "4"
    assert first[4] == "true"


def test_run_check_suite_without_output_dir():
    config = CheckSuiteConfig(seed=1, trials=2, grid=HaarGrid(8, 8),
                              checks=("unit-ball",))
    exit_code, reports = run_check_suite(config)
    assert exit_code == 0
    assert len(reports) == 1


def test_run_check_suite_deterministic_bytes(tmp_path):
    checks = ("luxemburg-closed-form", "rearrangement", "operator-bound")
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        config = CheckSuiteConfig(seed=42, trials=6, grid=HaarGrid(8, 8),
                                  checks=checks, output_dir=str(d))
        run_check_suite(config)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_drift_column_empty_when_no_refinement(tmp_path):
    config = CheckSuiteConfig(seed=42, trials=3, grid=HaarGrid(8, 8),
                              checks=("unit-ball",), output_dir=str(tmp_path))
    run_check_suite(config)
    row = (tmp_path / "summary.csv").read_text().splitlines()[1]
    assert row.split(",")[3] == ""


def test_k_oracle_fails_when_brute_force_hits_its_cap(monkeypatch):
    real = suite.k_brute_force

    def capped(*args, return_details=False, **kwargs):
        result = dataclasses.replace(
            real(*args, return_details=True, **kwargs), cap_hit=True)
        return result if return_details else result.value

    assert run_check("k-oracle", trials=3).passed
    monkeypatch.setattr(suite, "k_brute_force", capped)
    assert not run_check("k-oracle", trials=3).passed



def test_k_oracle_holds_at_a_held_out_seed():
    # the acceptance gate runs seed 42; brute-force K must agree with the
    # closed forms at another seed too
    rep = run_check("k-oracle", seed=1729, trials=300)
    assert rep.passed
    assert rep.constant <= 1e-6

# ids covering every reducer shape: worst-max (with and without drift),
# worst-min, fraction, bracket (with and without drift), grouped spread
INDEPENDENCE_IDS = (
    "luxemburg-closed-form", "hardy-continuous", "kj-functional-bounds",
    "key-estimate-local", "unit-ball", "lorentz-discrete",
    "k-discrete-continuous", "prop-identical-couple",
)


def test_report_does_not_depend_on_the_rest_of_the_suite():
    grid = HaarGrid(8, 8)
    alone = {c: run_check(c, seed=5, trials=4, grid=grid)
             for c in INDEPENDENCE_IDS}
    checks = ("rearrangement", "density") + INDEPENDENCE_IDS[::-1]
    _, reports = run_check_suite(CheckSuiteConfig(seed=5, trials=4, grid=grid,
                                                  checks=checks))
    together = {rep.check: rep for rep in reports}
    for check_id, rep in alone.items():
        assert together[check_id] == rep


def test_key_estimate_odd_instances_scale_the_modular_to_0_9(monkeypatch):
    seen = {}
    real = suite.key_estimate_check

    def spy(p, interval, w, f, m, variant):
        seen.update(p=p, interval=interval, w=w.values, f=f.values)
        return real(p, interval, w, f, m, variant)

    monkeypatch.setattr(suite, "key_estimate_check", spy)
    config = CheckSuiteConfig(seed=42, trials=2)
    nodes = config.grid.nodes
    for variant in ("local", "at_zero", "at_infinity"):
        rng = instance_rng(42, f"key-estimate-{variant.replace('_', '-')}", 1)
        suite._key_estimate(variant, rng, 1, config)
        a, b = seen["interval"]
        inside = (nodes > a) & (nodes < b)
        y = nodes[inside]
        rho = np.sum(seen["f"][inside] ** seen["p"](y) * seen["w"][inside]
                     * y * config.grid.du)
        assert rho == pytest.approx(0.9, rel=1e-12)
