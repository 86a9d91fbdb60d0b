import json

import numpy as np
import pytest

from varinterp import (
    AtomFunction,
    Couple,
    ExponentFunction,
    HaarGrid,
    InvalidExponentError,
    NormSpec,
    SampledFunction,
    k_functional,
    luxemburg_norm,
)
from varinterp.cli import main, parse_exponent


GRID = HaarGrid(4, 4)


def function_json(fn):
    return json.dumps({"grid": {"V": fn.grid.V,
                                "samples_per_octave": fn.grid.samples_per_octave},
                       "values": fn.values.tolist()})


def sampled_json():
    rng = np.random.default_rng(11)
    fn = SampledFunction(GRID, rng.uniform(0.0, 2.0, GRID.node_count))
    return fn, function_json(fn)


def test_parse_exponent_plain():
    # the limits are the expression at t = 0 and t = inf
    p = parse_exponent("2 + 1/log(e + 1/t)")
    assert p.p_at_zero == 2.0
    assert p.p_at_infinity == 3.0


def test_parse_exponent_annotations_override():
    p = parse_exponent("2 + 1/log(e + 1/t) @0=2.0 @inf=3.0")
    assert p.p_at_zero == 2.0
    assert p.p_at_infinity == 3.0


def test_parse_exponent_rejects_contradiction():
    with pytest.raises(InvalidExponentError):
        parse_exponent("2 @inf=3.5")
    with pytest.raises(InvalidExponentError):
        parse_exponent("2 @0=1.0")


def test_parse_exponent_rejects_limits_below_one(capsys):
    # 2 - t/(1 + t) is inf/inf at t = inf, so @inf= gives its limit, which
    # must still be an exponent's limit
    with pytest.raises(InvalidExponentError, match="p_at_infinity is below 1"):
        parse_exponent("2 - t/(1 + t) @inf=0.95")
    with pytest.raises(InvalidExponentError, match="p_at_infinity is not finite"):
        parse_exponent("2 - t/(1 + t) @inf=nan")
    _, text = sampled_json()
    code = main(["norm", "--exponent", "2 - t/(1 + t) @inf=0.95",
                 "--function", text])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_norm_command_needs_a_limit_at_an_indeterminate_end(capsys):
    fn, text = sampled_json()
    code = main(["norm", "--exponent", "2 + t/(1 + t)", "--function", text])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p_at_infinity is indeterminate")
    assert "@inf=" in captured.err
    code = main(["norm", "--exponent", "2 + t/(1 + t) @inf=3", "--function", text])
    assert code == 0
    want = luxemburg_norm(fn, ExponentFunction.from_expression(
        "2 + t/(1 + t)", p_at_infinity=3.0))
    assert json.loads(capsys.readouterr().out)["norm"] == want


def test_parse_exponent_rejects_unknown_annotation():
    with pytest.raises(InvalidExponentError):
        parse_exponent("2 @mid=2")


def test_norm_command(capsys):
    fn, text = sampled_json()
    code = main(["norm", "--exponent", "2", "--function", text])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm"] == pytest.approx(
        luxemburg_norm(fn, ExponentFunction.constant(2.0)), rel=1e-12)
    assert out["grid"] == {"V": 4, "samples_per_octave": 4}


def test_norm_command_reads_file(tmp_path, capsys):
    _, text = sampled_json()
    path = tmp_path / "fn.json"
    path.write_text(text)
    code = main(["norm", "--exponent", "2", "--function", str(path)])
    assert code == 0
    assert "norm" in json.loads(capsys.readouterr().out)


def test_norm_command_rejects_atoms(capsys):
    code = main(["norm", "--exponent", "2",
                 "--function", '{"atoms": [[3.0, 2.0]]}'])
    assert code == 2


def test_norm_command_divergence(capsys):
    grid = HaarGrid(2, 1)
    fn = SampledFunction(grid, np.full(grid.node_count, 1e308))
    code = main(["norm", "--exponent", "2", "--function", function_json(fn)])
    assert code == 3
    assert "divergence" in capsys.readouterr().err


def test_kfunc_command(capsys):
    couple = '{"kind": "weighted_seq", "w0": [1.0, 1.0], "w1": [1.0, 4.0]}'
    code = main(["kfunc", "--couple", couple,
                 "--function", "[1.0, 1.0]", "--t", "2,0.1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t"] == [2.0, 0.1]
    assert out["K"][0] == pytest.approx(2.0)
    assert out["K"][1] == pytest.approx(0.5)


@pytest.mark.parametrize("text, couple, element", [
    ('{"kind": "weighted_seq", "w0": [1.0, 2.5], "w1": [3.0, 0.5]}',
     Couple.weighted_seq([1.0, 2.5], [3.0, 0.5]), [0.7, -1.3]),
    ('{"kind": "l1_linf"}', Couple.l1_linf(),
     AtomFunction([3.0, 1.0, 2.0], [0.5, 2.0, 0.25])),
    ('{"kind": "finite_generic", "norm0": {"p": 2, "weights": [1.0, 1.5]},'
     ' "norm1": {"p": "inf", "weights": [1.0, 2.0]}}',
     Couple.finite_generic(NormSpec(2.0, [1.0, 1.5]), NormSpec(np.inf, [1.0, 2.0])),
     [0.7, -1.3]),
    ('{"kind": "finite_generic", "norm0": {"p": 1.5, "weights": [2.0, 1.0]},'
     ' "norm1": {"p": 1, "weights": [0.5, 3.0]}}',
     Couple.finite_generic(NormSpec(1.5, [2.0, 1.0]), NormSpec(1.0, [0.5, 3.0])),
     [0.7, -1.3]),
])
def test_kfunc_command_decodes_each_couple_kind(text, couple, element, capsys):
    if isinstance(element, AtomFunction):
        function = json.dumps({"atoms": np.column_stack(
            [element.values, element.masses]).tolist()})
    else:
        function = json.dumps(element)
    ts = [0.1, 1.0, 7.5]
    code = main(["kfunc", "--couple", text, "--function", function,
                 "--t", ",".join(map(repr, ts))])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    # bit for bit: JSON floats round-trip exactly
    assert out["K"] == [k_functional(couple, t, element) for t in ts]


@pytest.mark.parametrize("args", [
    ["kfunc", "--couple", '{"kind": "no_such_kind"}', "--function", "[1.0]",
     "--t", "1"],
    ["kfunc", "--couple", '{"kind": "weighted_seq", "w0": [1.0]}',
     "--function", "[1.0]", "--t", "1"],
    ["kfunc", "--couple", '{"w0": [1.0], "w1": [1.0]}', "--function", "[1.0]",
     "--t", "1"],
    ["kfunc", "--couple", '{"kind": "finite_generic", "norm0": {"p": 2}, '
     '"norm1": {"p": 2, "weights": [1.0]}}', "--function", "[1.0]", "--t", "1"],
    ["rearrange", "--function", '{"atoms": [[1.0]]}'],
    ["rearrange", "--function", '{"atoms": 3}'],
    ["norm", "--exponent", "2", "--function", '{"values": [1.0, 2.0]}'],
    ["norm", "--exponent", "2", "--function",
     '{"grid": {"V": 1}, "values": [1.0, 2.0]}'],
    # a grid's V and samples_per_octave are integers, not truncated floats
    ["norm", "--exponent", "2", "--function",
     '{"grid": {"V": 1.7, "samples_per_octave": 1}, "values": [1.0, 2.0]}'],
    # a suite config is neither truncated nor stripped of unknown keys, and
    # exits before its first check runs
    *(["suite", "--config", config] for config in (
        '{"grid": 5}', '{"grid": null}', '{"grid": {"V": 8.9}}',
        '{"grid": {"V": 8, "spo": 8}}', '{"seed": 1.5}', '{"seed": true}',
        '{"trials": "3"}', '{"checks": "unit-ball"}', '{"trails": 5}', '[]')),
    # a number is a JSON number: float() and numpy would take a bool or a
    # string for one
    ["rearrange", "--function", '{"atoms": [["3.0", "2.0"], [true, 1]]}'],
    ["norm", "--exponent", "2", "--function",
     '{"grid": {"V": 1, "samples_per_octave": 1}, "values": [true, "2"]}'],
    ["kfunc", "--couple", '{"kind": "weighted_seq", "w0": [1, 1], "w1": [1, 2]}',
     "--function", '[true, "2"]', "--t", "1"],
    ["kfunc", "--couple", '{"kind": "weighted_seq", "w0": [true, "2"], '
     '"w1": [1, 2]}', "--function", "[1, 2]", "--t", "1"],
    ["kfunc", "--couple", '{"kind": "finite_generic", "norm0": {"p": "2", '
     '"weights": [1]}, "norm1": {"p": "inf", "weights": [2]}}',
     "--function", "[1]", "--t", "1"],
    ["kfunc", "--couple", '{"kind": "finite_generic", "norm0": {"p": true, '
     '"weights": [1]}, "norm1": {"p": "inf", "weights": [2]}}',
     "--function", "[1]", "--t", "1"],
    ["kfunc", "--couple", '{"kind": "finite_generic", "norm0": {"p": 2, '
     '"weights": [1]}, "norm1": {"p": "inf", "weights": ["2"]}}',
     "--function", "[1]", "--t", "1"],
    # json reads NaN as a float, which is no norm exponent
    ["kfunc", "--couple", '{"kind": "finite_generic", "norm0": {"p": NaN, '
     '"weights": [1, 2]}, "norm1": {"p": 2, "weights": [1, 1]}}',
     "--function", "[1, 2]", "--t", "1"],
])
def test_malformed_json_exits_two(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    # a list of ids, not of the characters of one id
    assert "u, n, i, t" not in captured.err


def test_kfunc_command_needs_t_values(capsys):
    couple = '{"kind": "l1_linf"}'
    code = main(["kfunc", "--couple", couple,
                 "--function", '{"atoms": [[3.0, 2.0]]}', "--t", " "])
    assert code == 2


def test_kfunc_command_rejects_non_finite_vectors(capsys):
    couple = '{"kind": "weighted_seq", "w0": [1, 2], "w1": [1, 0.5]}'
    # 1e400 parses as inf; the couple's own element check rejects both
    for vector in ("[NaN, 1]", "[Infinity, 1]", "[1, -Infinity]",
                   "[NaN, 1.0]", "[1e400, 1.0]"):
        code = main(["kfunc", "--couple", couple, "--function", vector,
                     "--t", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a vector of a vector couple must be finite\n"


@pytest.mark.parametrize("couple, dimension", [
    ('{"kind": "finite_generic", "norm0": {"p": 2, "weights": [1.0]}, '
     '"norm1": {"p": "inf", "weights": [2.0]}}', 1),
    ('{"kind": "finite_generic", "norm0": {"p": 2, "weights": [1.0, 1.5]}, '
     '"norm1": {"p": "inf", "weights": [1.0, 2.0]}}', 2),
    ('{"kind": "weighted_seq", "w0": [1.0], "w1": [2.0]}', 1),
    ('{"kind": "weighted_seq", "w0": [1.0, 2.5], "w1": [3.0, 0.5]}', 2),
], ids=["finite_generic-1", "finite_generic-2", "weighted_seq-1",
        "weighted_seq-2"])
def test_kfunc_command_rejects_vectors_of_another_dimension(couple, dimension,
                                                            capsys):
    # a one-element couple would otherwise broadcast over the vector
    code = main(["kfunc", "--couple", couple, "--function", "[0.7, -1.3, 0.4]",
                 "--t", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a vector of shape (3,) does not match the "
                            f"couple's dimension {dimension}\n")


@pytest.mark.parametrize("couple", [
    '{"kind": "finite_generic", "norm0": {"p": 2, "weights": []}, '
    '"norm1": {"p": "inf", "weights": []}}',
    '{"kind": "weighted_seq", "w0": [], "w1": []}',
], ids=["finite_generic", "weighted_seq"])
def test_kfunc_command_rejects_empty_weights(couple, capsys):
    # an empty couple would otherwise give K = 0 for the empty vector
    code = main(["kfunc", "--couple", couple, "--function", "[]", "--t", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "non-empty" in captured.err


def test_rearrange_command(capsys):
    code = main(["rearrange", "--function",
                 '{"atoms": [[1.0, 0.5], [3.0, 0.5], [2.0, 0.75]]}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["breakpoints"] == [0.0, 0.5, 1.25, 1.75]
    assert out["levels"] == [3.0, 2.0, 1.0]
    assert out["total_mass"] == pytest.approx(1.75)
    assert out["l1"] == pytest.approx(3.5)


def test_rearrange_command_rejects_vector(capsys):
    code = main(["rearrange", "--function", "[1.0, 2.0]"])
    assert code == 2


def test_check_command(capsys):
    code = main(["check", "rearrangement", "--trials", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["check"] == "rearrangement"
    assert out["pass"] is True


def test_check_command_unknown_id(capsys):
    code = main(["check", "no-such-check"])
    assert code == 2


def test_suite_command(tmp_path, capsys):
    config = json.dumps({"trials": 2, "grid": {"V": 8, "samples_per_octave": 8},
                         "checks": ["unit-ball", "rearrangement"]})
    code = main(["suite", "--config", config, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "unit-ball: pass" in out
    assert "rearrangement: pass" in out
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "unit-ball.json").exists()


def test_suite_command_config_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": 2,
                                "grid": {"V": 8, "samples_per_octave": 8},
                                "checks": ["unit-ball"]}))
    code = main(["suite", "--config", str(path)])
    assert code == 0


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["norm"])
    assert exc.value.code == 2
