"""Config parsing, report serialization, exit codes, gallery wiring."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from jumpcompare import cli
from jumpcompare.cli import (
    GALLERY_IDS,
    OrderError,
    ParseError,
    SchemaError,
    build_problem,
    config_from_dict,
    config_to_dict,
    gallery_configs,
    main,
    parse_config,
    report_to_dict,
    run_check,
    run_full,
    run_gallery,
    write_paths_csv,
)
from jumpcompare.engine import PathRecords


def minimal_vector_dict(**overrides):
    data = {
        "id": "mini",
        "kind": "vector",
        "m": 1,
        "d": 1,
        "horizon": {"t0": 0.0, "T": 1.0},
        "marks": {"dimension": 1, "atoms": [{"e": [1.0], "w": 1.0}]},
        "model1": {"B": [[0.0]], "c": [0.5], "V": [[[0.0]]], "U": [[0.1]],
                   "jumps": [{"G": [[0.0]], "g": [0.1]}]},
        "model2": {"B": [[0.0]], "c": [0.0], "V": [[[0.0]]], "U": [[0.1]],
                   "jumps": [{"G": [[0.0]], "g": [0.0]}]},
        "initial": {"x1": [1.0], "x2": [0.0]},
        "mc": {"paths": 64, "step": 0.03125, "seed": 3, "eps_path": None},
        "check": {"samples": 64, "box": 5.0, "ladder": [1e-6, 1e-3, 1e-1, 1.0],
                  "seed": 4, "eps_check": None},
    }
    data.update(overrides)
    return data


def matrix_dict(**overrides):
    """A 2 x 2 matrix scenario with one jump atom and every optional key set."""
    data = {
        "id": "full-matrix",
        "kind": "matrix",
        "m": 2,
        "d": 1,
        "horizon": {"t0": 0.0, "T": 1.0},
        "marks": {"dimension": 1, "atoms": [{"e": [1.0], "w": 0.5}]},
        "model1": {"b": {"scale": 0.5, "offset": [[0.4, 0.1], [0.1, 0.4]]},
                   "sigma": {"scale": 0.3, "offset": [[0.1, 0.0], [0.0, 0.1]]},
                   "jumps": [{"scale": 0.2, "offset": [[0.2, 0.0], [0.0, 0.1]]}]},
        "model2": {"b": {"scale": 0.5, "offset": [[0.0, 0.0], [0.0, 0.0]]},
                   "sigma": {"scale": 0.3, "offset": [[0.1, 0.0], [0.0, 0.1]]},
                   "jumps": [{"scale": 0.2, "offset": [[0.0, 0.0], [0.0, 0.0]]}]},
        "initial": {"x1": [[1.0, 0.2], [0.2, 0.8]], "x2": [[0.0, 0.0], [0.0, 0.0]]},
        "mc": {"paths": 48, "step": 0.0625, "seed": 9, "eps_path": 0.125},
        "check": {"samples": 96, "box": 4.0, "ladder": [1e-3, 0.5], "seed": 8,
                  "eps_check": 1e-7},
    }
    data.update(overrides)
    return data


def full_vector_dict():
    """``minimal_vector_dict`` with every optional key set, nulls included."""
    data = minimal_vector_dict(id="full-vector")
    data["mc"]["eps_path"] = 0.25
    data["check"]["eps_check"] = 1e-7
    return data


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestParsing:
    def test_minimal_vector_round_trip(self, tmp_path):
        path = write_config(tmp_path, minimal_vector_dict())
        cfg = parse_config(path)
        assert cfg.id == "mini"
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        data = minimal_vector_dict()
        data["unexpected"] = 1
        with pytest.raises(SchemaError):
            parse_config(write_config(tmp_path, data))

    def test_unknown_nested_key_rejected(self, tmp_path):
        data = minimal_vector_dict()
        data["mc"]["warmup"] = 5
        with pytest.raises(SchemaError):
            parse_config(write_config(tmp_path, data))

    def test_order_error(self, tmp_path):
        data = minimal_vector_dict()
        data["initial"] = {"x1": [0.0], "x2": [1.0]}
        with pytest.raises(OrderError):
            parse_config(write_config(tmp_path, data))

    def test_negative_weight_is_schema_error(self, tmp_path):
        data = minimal_vector_dict()
        data["marks"]["atoms"][0]["w"] = -1.0
        with pytest.raises(SchemaError):
            parse_config(write_config(tmp_path, data))

    def test_bad_json_is_parse_error_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_config(str(path))
        assert ":1:" in str(err.value)

    def test_dimension_mismatch_is_schema_error(self, tmp_path):
        data = minimal_vector_dict()
        data["model1"]["c"] = [0.5, 0.5]  # m=1 but two drift constants
        with pytest.raises(SchemaError):
            parse_config(write_config(tmp_path, data))

    def test_matrix_config_parses(self, tmp_path):
        data = {
            "id": "mat",
            "kind": "matrix",
            "m": 2,
            "d": 1,
            "horizon": {"t0": 0.0, "T": 1.0},
            "marks": {"dimension": 1, "atoms": []},
            "model1": {"b": {"scale": 0.5, "offset": [[0.4, 0.0], [0.0, 0.4]]},
                       "sigma": {"scale": 0.4, "offset": [[0.0, 0.0], [0.0, 0.0]]},
                       "jumps": []},
            "model2": {"b": {"scale": 0.5, "offset": [[0.0, 0.0], [0.0, 0.0]]},
                       "sigma": {"scale": 0.4, "offset": [[0.0, 0.0], [0.0, 0.0]]},
                       "jumps": []},
            "initial": {"x1": [[1.0, 0.0], [0.0, 1.0]], "x2": [[0.0, 0.0], [0.0, 0.0]]},
        }
        cfg = parse_config(write_config(tmp_path, data))
        problem = build_problem(cfg)
        assert problem.m == 2


# sha256 of json.dumps(config_to_dict(cfg), sort_keys=True, indent=2): the
# echo every report embeds, for each gallery config and for one vector and
# one matrix config with every optional key set
PINNED_CONFIG_ECHO = {
    "corollary33-pass":
        "5c8ff56ea3adcab1ed324ffff76d2dd3942b8a748d7a4f7e6c94e125823fabf5",
    "corollary34-pass":
        "c919fc7a75e57b65fd07c8a8c82f8fdc77c4e97df2e28f384a90a496fd6540ce",
    "corollary35-pass":
        "f6f63e3d607dc7ba7db54dcaea8a9be15b1abd7d66427e31ff12a76d53c0c85e",
    "example36":
        "cd0f2cd279b6ca31c0e863dec828cdef38f44931e115d2574117f562a681f757",
    "jump-monotone-fail":
        "7f065d0940acec9d4c5d4b89dbc6d232f05ffe660d93fc222eb73222d8a064b4",
    "drift-order-fail":
        "ef5a5d56b51d8d1fe6b6105fa68f84a2038b6bd436999ac4cc4f1aa02210a124",
    "sigma-gap-fail":
        "75e7a4ad2d98644f31657912ec80f83c721568b8195fcf2bea9aeb3acfd6f6d8",
    "sigma-coupling-fail":
        "07144ed45b6785f7ae3143ed7f4b0823065ef93323f2ee84708c8dc6f783b852",
    "matrix-pass":
        "e9dea13f076a799ee8c64b15866447fd1e318697181930add650ff8ba682273b",
    "matrix-drift-fail":
        "9bf973b1f8433c398b71cc0350a7701356b3a3cb6dc18611e0ce9c947079ca1a",
    "full-vector":
        "a3dd4af0c4e167a1683f14745c90f5419def6f4dcd77929e918e5e49ae9d8452",
    "full-matrix":
        "2f0b76268561a3c1a914bfe7d31b1f733b2b2a0ab1c7c33aa7b79fca15483b93",
}

ECHO_CONFIGS = gallery_configs() + [config_from_dict(full_vector_dict()),
                                    config_from_dict(matrix_dict())]


I3 = [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]


def mismatched_dims(case):
    """A config whose declared dimensions disagree with its coefficients, or
    with a matrix whose rows differ in length."""
    if case == "vector-ragged-B":
        data = minimal_vector_dict(m=2)
        data["model1"]["B"] = [[0.0, 1.0], [0.0]]
        return data
    if case.startswith("vector"):
        data = minimal_vector_dict(**{"vector-m3": {"m": 3}, "vector-d3": {"d": 3},
                                      "vector-m3-d3": {"m": 3, "d": 3}}[case])
        if case == "vector-m3-d3":  # no atoms: no jump block to reshape
            data["marks"]["atoms"] = []
            data["model1"]["jumps"] = data["model2"]["jumps"] = []
        return data
    data = matrix_dict()
    if case == "matrix-ragged-offset":
        data["model1"]["b"]["offset"] = [[0.4, 0.1], [0.1]]
    elif case == "matrix-b-offset":
        data["model1"]["b"]["offset"] = I3
    elif case == "matrix-sigma-offset":
        data["model1"]["sigma"]["offset"] = data["model2"]["sigma"]["offset"] = I3
    else:
        data["model2"]["jumps"][0]["offset"] = I3
    return data


DIMENSION_CASES = ["vector-m3", "vector-d3", "vector-m3-d3", "vector-ragged-B",
                   "matrix-b-offset", "matrix-sigma-offset", "matrix-jump-offset",
                   "matrix-ragged-offset"]


class TestDimensions:
    @pytest.mark.parametrize("case", DIMENSION_CASES)
    def test_mismatch_is_schema_error(self, case):
        with pytest.raises(SchemaError):
            config_from_dict(mismatched_dims(case))

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("case", DIMENSION_CASES)
    def test_mismatch_exits_two(self, tmp_path, capsys, case, command):
        path = write_config(tmp_path, mismatched_dims(case))
        assert main([command, path, "--paths", "16"]) == 2
        assert "config error:" in capsys.readouterr().err


class TestConfigBlocks:
    @pytest.mark.parametrize("cfg", ECHO_CONFIGS, ids=[c.id for c in ECHO_CONFIGS])
    def test_echo_is_pinned(self, cfg):
        text = json.dumps(config_to_dict(cfg), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CONFIG_ECHO[cfg.id]

    @pytest.mark.parametrize("cfg", ECHO_CONFIGS, ids=[c.id for c in ECHO_CONFIGS])
    def test_round_trip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("block, key", [
        ("mc", "paths"), ("mc", "step"), ("mc", "seed"),
        ("check", "samples"), ("check", "box"), ("check", "ladder"), ("check", "seed"),
    ])
    def test_null_is_rejected(self, block, key):
        data = minimal_vector_dict()
        data[block][key] = None
        with pytest.raises(SchemaError, match=rf"\$\.{block}\.{key}"):
            config_from_dict(data)

    @pytest.mark.parametrize("block, key", [("mc", "eps_path"), ("check", "eps_check")])
    def test_null_tolerance_is_the_default(self, block, key):
        data = full_vector_dict()
        data[block][key] = None
        cfg = config_from_dict(data)
        assert getattr(getattr(cfg, block), key) is None
        assert config_to_dict(cfg)[block][key] is None

    def test_gallery_overrides_win_over_the_smoke_preset(self):
        for report in run_gallery(smoke=True, paths=12, seed=5):
            echo = report_to_dict(report)
            assert (echo["mc"]["paths"], echo["mc"]["h"], echo["mc"]["seed"]) == (12, 2.0**-5, 5)
            mc, check = echo["scenario"]["mc"], echo["scenario"]["check"]
            assert (mc["paths"], mc["step"], mc["seed"]) == (12, 2.0**-5, 5)
            assert check["seed"] == 5


FAULT_VALUES = {"string": "not/a-value", "null": None, "object": {"fault": 1}, "true": True}
# the faults a config survives: an optional key left out, a null tolerance
OPTIONAL_KEYS = {"$.id", "$.mc", "$.check", "$.mc.paths", "$.mc.step", "$.mc.seed",
                 "$.mc.eps_path", "$.check.samples", "$.check.box", "$.check.ladder",
                 "$.check.seed", "$.check.eps_check"}
NULLABLE_KEYS = {"$.mc.eps_path", "$.check.eps_check"}


def json_path(keys):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def locations(node, keys=()):
    """The keys of every object member and list item under ``node``,
    outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for k, v in items:
        yield keys + (k,)
        yield from locations(v, keys + (k,))


def node_at(data, keys):
    for k in keys:
        data = data[k]
    return data


def single_faults(name, data):
    """(id, faulty config, JSON path of the fault, accepted) for each single
    fault of ``data``: a member left out, an unknown member added to an
    object, and each of FAULT_VALUES in place of a member or an item."""
    def copy():
        return json.loads(json.dumps(data))

    for keys in [()] + list(locations(data)):
        path = json_path(keys)
        if keys:
            for fault, value in FAULT_VALUES.items():
                faulty = copy()
                node_at(faulty, keys[:-1])[keys[-1]] = value
                yield (f"{name}:{path}={fault}", faulty, path,
                       fault == "null" and path in NULLABLE_KEYS)
            if isinstance(keys[-1], str):
                faulty = copy()
                del node_at(faulty, keys[:-1])[keys[-1]]
                yield (f"{name}:{path}-missing", faulty, json_path(keys[:-1]),
                       path in OPTIONAL_KEYS)
        if isinstance(node_at(data, keys), dict):
            faulty = copy()
            node_at(faulty, keys)["fault"] = 1
            yield f"{name}:{path}+unknown", faulty, path, False


FAULTS = (list(single_faults("vector", full_vector_dict()))
          + list(single_faults("matrix", matrix_dict())))


def names_the_fault(message, path):
    """The message's leading JSON path is ``path``, a path inside it, or,
    for a fault at a list item, the list."""
    named = message.split(": ", 1)[0]
    enclosing_list = path.endswith("]") and named == path[:path.rindex("[")]
    return named == path or named.startswith((path + ".", path + "[")) or enclosing_list


def gallery_dict(scenario_id):
    (cfg,) = [c for c in gallery_configs() if c.id == scenario_id]
    return json.loads(json.dumps(config_to_dict(cfg)))


# (config, keys of the value replaced, value, the error after "config error: ")
SHAPE_FAULTS = [
    (minimal_vector_dict, ("model1", "B"), [[0.0, 0.0], [0.0, 0.0]],
     "$.model1.B: expected shape (m, m) = (1, 1), got (2, 2)"),
    (minimal_vector_dict, ("model2", "c"), [0.5, 0.5],
     "$.model2.c: expected shape (m,) = (1,), got (2,)"),
    (minimal_vector_dict, ("model1", "V"), [[[0.0, 0.0]]],
     "$.model1.V: expected shape (m, d, m) = (1, 1, 1), got (1, 1, 2)"),
    (minimal_vector_dict, ("model2", "U"), [[0.1, 0.2]],
     "$.model2.U: expected shape (m, d) = (1, 1), got (1, 2)"),
    (minimal_vector_dict, ("model1", "jumps", 0, "G"), [[0.0], [0.0]],
     "$.model1.jumps[0].G: expected shape (m, m) = (1, 1), got (2, 1)"),
    (minimal_vector_dict, ("model2", "jumps", 0, "g"), [],
     "$.model2.jumps[0].g: expected shape (m,) = (1,), got (0,)"),
    (minimal_vector_dict, ("model1", "jumps"), [],
     "$.model1.jumps: expected one entry per mark atom (1), got 0"),
    (minimal_vector_dict, ("marks", "atoms", 0, "e"), [1.0, 2.0],
     "$.marks.atoms[0].e: expected shape (dimension,) = (1,), got (2,)"),
    (minimal_vector_dict, ("marks", "atoms", 0, "w"), -1.0,
     "$.marks: mark weights must be nonnegative"),
    (minimal_vector_dict, ("initial", "x1"), [1.0, 0.0],
     "$.initial.x1: expected shape (m,) = (1,), got (2,)"),
    (minimal_vector_dict, ("initial", "x2"), [0.0, 0.0],
     "$.initial.x2: expected shape (m,) = (1,), got (2,)"),
    (minimal_vector_dict, ("d",), 0, "$.d: must be >= 1, got 0"),
    (matrix_dict, ("model1", "b", "offset"), I3,
     "$.model1.b.offset: expected shape (m, m) = (2, 2), got (3, 3)"),
    (matrix_dict, ("model2", "sigma", "offset"), [[0.1, 0.0], [0.0]],
     "$.model2.sigma.offset: expected shape (m, m) = (2, 2), got rows of unequal length"),
    (matrix_dict, ("model1", "jumps"), [],
     "$.model1.jumps: expected one entry per mark atom (1), got 0"),
    (matrix_dict, ("model2", "jumps", 0, "offset"), [[0.1]],
     "$.model2.jumps[0].offset: expected shape (m, m) = (2, 2), got (1, 1)"),
    (matrix_dict, ("model1", "sigma", "offset"), [[0.1, 0.2], [0.0, 0.1]],
     "$.model1: matrix is not symmetric"),
    (matrix_dict, ("initial", "x1"), [[1.0]],
     "$.initial.x1: expected shape (m, m) = (2, 2), got (1, 1)"),
    (matrix_dict, ("initial", "x2"), [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
     "$.initial.x2: expected shape (m, m) = (2, 2), got (3, 2)"),
    (lambda: gallery_dict("drift-order-fail"), ("model1", "c"), [0.0],
     "$.model1.c: expected shape (m,) = (2,), got (1,)"),
    (lambda: gallery_dict("drift-order-fail"), ("model2", "B"), [[-0.2]],
     "$.model2.B: expected shape (m, m) = (2, 2), got (1, 1)"),
]


class TestModelErrors:
    """An error in building the marks or a model names its JSON path, and a
    wrong shape the shape expected and the shape found."""

    @pytest.mark.parametrize("make, keys, value, message", SHAPE_FAULTS,
                             ids=[f"{f[0]().get('id')}:{json_path(f[1])}" for f in SHAPE_FAULTS])
    def test_error_names_the_key(self, tmp_path, capsys, make, keys, value, message):
        data = make()
        node_at(data, keys[:-1])[keys[-1]] = value
        assert main(["check", write_config(tmp_path, data)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSeeds:
    """Both seeds are integers in [0, 2^64), from a config or from --seed;
    any other is a config error (exit 2), never a crash or a masked seed."""

    @pytest.mark.parametrize("block", ["mc", "check"])
    @pytest.mark.parametrize("seed", [-3, 2**64, 2**64 + 5])
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_config_seed_out_of_range_exits_two(self, tmp_path, capsys, command, seed, block):
        data = gallery_dict("example36")
        data[block]["seed"] = seed
        assert main([command, write_config(tmp_path, data), "--paths", "16"]) == 2
        assert capsys.readouterr().err == \
            f"config error: $.{block}.seed: must be an integer in [0, 2^64), got {seed}\n"

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_seed_flag_out_of_range_exits_two(self, tmp_path, capsys, command):
        path = write_config(tmp_path, gallery_dict("example36"))
        assert main([command, path, "--seed", "-5", "--paths", "16"]) == 2
        assert capsys.readouterr().err.startswith("config error: $.mc.seed: must be an integer")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_gallery_seed_out_of_range_exits_two(self, capsys, seed):
        assert main(["gallery", "--smoke", "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: $.mc.seed: must be an integer in [0, 2^64), got {seed}\n"

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_bounds_runs(self, tmp_path, capsys, seed):
        data = gallery_dict("example36")
        data["mc"]["seed"] = data["check"]["seed"] = seed
        assert main(["check", write_config(tmp_path, data)]) == 0
        assert main(["simulate", write_config(tmp_path, data), "--paths", "16",
                     "--step", "0.125"]) == 0


RUN_SETTING_FAULTS = [
    ("paths", 0, ["--paths", "0"], "$.mc.paths: must be >= 1, got 0"),
    ("step", 2.0, ["--step", "2.0"], "$.mc.step: must lie in (0, T - t0] = (0, 1.0], got 2.0"),
    ("step", -0.5, ["--step", "-0.5"],
     "$.mc.step: must lie in (0, T - t0] = (0, 1.0], got -0.5"),
]


class TestRunSettings:
    """A path count or step the engine cannot run is a config error at its
    JSON path, whether it comes from the config's mc block or from a flag."""

    @pytest.mark.parametrize("key, value, flags, message", RUN_SETTING_FAULTS,
                             ids=[f"{f[0]}={f[1]}" for f in RUN_SETTING_FAULTS])
    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_fault_exits_two(self, tmp_path, capsys, source, key, value, flags, message):
        data = minimal_vector_dict()
        if source == "config":
            data["mc"][key], flags = value, []
        assert main(["simulate", write_config(tmp_path, data), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestConfigFaults:
    """Every single fault of a full vector and a full matrix config: a
    rejected config raises a SchemaError that names where the fault is."""

    @pytest.mark.parametrize("data, path, accepted", [f[1:] for f in FAULTS],
                             ids=[f[0] for f in FAULTS])
    def test_fault_is_rejected_at_its_path(self, data, path, accepted):
        if accepted:
            config_from_dict(data)
            return
        with pytest.raises((SchemaError, OrderError)) as err:
            config_from_dict(data)
        assert type(err.value) is SchemaError
        assert names_the_fault(str(err.value), path), (path, str(err.value))

    @pytest.mark.parametrize("data, path", [
        (full_vector_dict(), ("model1", "B", 0, 0)),
        (matrix_dict(), ("model2", "sigma", "scale")),
    ], ids=["vector", "matrix"])
    def test_fault_exits_two(self, tmp_path, capsys, data, path):
        node_at(data, path[:-1])[path[-1]] = "not/a-value"
        assert main(["check", write_config(tmp_path, data)]) == 2
        assert f"config error: {json_path(path)}: " in capsys.readouterr().err


def test_readme_config_example_runs(tmp_path, capsys):
    """The config documented in README.md parses, echoes as written and
    passes the check, so the documented schema stays the parsed one."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```json\n")[1:]
    assert len(blocks) == 1
    data = json.loads(blocks[0].split("```", 1)[0])
    assert config_to_dict(config_from_dict(data)) == data
    assert main(["check", write_config(tmp_path, data)]) == 0


class TestReports:
    def test_report_embeds_resolved_seeds_and_tolerances(self):
        cfg = config_from_dict(minimal_vector_dict())
        report = run_full(cfg)
        payload = report_to_dict(report)
        assert payload["scenario"]["mc"]["seed"] == 3
        assert payload["scenario"]["check"]["ladder"] == [1e-6, 1e-3, 1e-1, 1.0]
        assert payload["mc"]["eps_path"] > 0
        assert "wall_clock" not in json.dumps(payload)

    def test_report_deterministic_across_runs(self):
        cfg = config_from_dict(minimal_vector_dict())
        a = json.dumps(report_to_dict(run_full(cfg)), sort_keys=True)
        b = json.dumps(report_to_dict(run_full(cfg)), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("make, model1_drift", [
        (minimal_vector_dict, {"c": [-0.5]}),
        (matrix_dict, {"b": {"scale": 0.5, "offset": [[0.4, 0.1], [0.1, -0.4]]}}),
    ], ids=["vector", "matrix"])
    def test_problem_is_built_once_and_again_after_a_change(self, make, model1_drift,
                                                             monkeypatch):
        # a failing pair, so that the check seed moves its witnesses
        def data(seed):
            out = make()
            out["model1"].update(model1_drift)
            out["check"]["seed"] = seed
            return out

        def report(cfg):
            return json.dumps(report_to_dict(run_check(cfg)), sort_keys=True)

        def fresh(seed):
            return report(config_from_dict(data(seed)))

        builds = []
        real = cli._build
        monkeypatch.setattr(cli, "_build", lambda cfg: builds.append(cfg.id) or real(cfg))
        cfg = config_from_dict(data(4))
        first = report(cfg)
        assert len(builds) == 1  # the run reuses the problem built at parse time
        # a copy with another check seed, as --seed makes it
        reseeded = dataclasses.replace(cfg, check=dataclasses.replace(cfg.check, seed=11))
        assert report(reseeded) == fresh(11) != first
        cfg.check.seed = 12  # a change in place
        assert report(cfg) == fresh(12) != first

    def test_paths_csv_format(self, tmp_path):
        records = PathRecords(
            violation=np.array([0.0, 1.2345678901234567, np.nan]),
            first_violation_time=np.array([np.nan, 0.5, np.nan]),
            failed=np.array([False, False, True]),
        )
        path = tmp_path / "out.csv"
        write_paths_csv(str(path), records)
        raw = path.read_bytes().decode("utf-8")
        lines = raw.split("\n")
        assert lines[0] == "path_id,violation_max,first_violation_time,failed"
        assert lines[1] == "0,0,,0"
        assert lines[2].startswith("1,1.2345678901234567,0.5,0")
        assert lines[3] == "2,nan,,1"
        assert "\r" not in raw


H0 = ("holds", 0, 0)
CLEAN = ("no-violation-found", 528, 0)
# (status, samples_used, witness count) of every sub-verdict of each gallery
# check report; a vector entry is sigma_equal, cond_a, cond_b, cond_c, ii_prime
GALLERY_CHECKS = {
    "corollary33-pass": (H0, [H0], [H0], [H0], CLEAN),
    "corollary34-pass": (H0, [H0], [H0], [H0], CLEAN),
    "corollary35-pass": (H0, [H0], [H0], [H0], CLEAN),
    "example36": (H0, [H0], [H0], [H0], CLEAN),
    "jump-monotone-fail": (H0, [H0], [("violated", 0, 1)], [H0], ("violated", 528, 8)),
    "drift-order-fail": (H0, [H0, H0], [H0, H0], [("violated", 0, 1), H0],
                         ("violated", 582, 8)),
    "sigma-gap-fail": (("violated", 3, 1), [H0], [H0], [H0], ("violated", 528, 8)),
    "sigma-coupling-fail": (H0, [("violated", 0, 1), H0], [H0, H0], [H0, H0],
                            ("violated", 582, 8)),
    "matrix-pass": ("no-violation-found", 288, 0),
    "matrix-drift-fail": ("violated", 288, 8),
}


class TestGallery:
    def test_ids_and_order(self):
        assert tuple(c.id for c in gallery_configs()) == GALLERY_IDS

    @pytest.mark.parametrize("cfg", gallery_configs(), ids=GALLERY_IDS)
    def test_check_verdicts_pinned(self, cfg):
        check = report_to_dict(run_check(cfg))["check"]

        def summary(v):
            return (v["status"], v["samples_used"], len(v["witnesses"]))

        if cfg.kind == "matrix":
            got = summary(check["verdict"])
        else:
            got = (summary(check["sigma_equal"]),
                   *([summary(v) for v in check[k]] for k in ("cond_a", "cond_b", "cond_c")),
                   summary(check["ii_prime"]))
        assert got == GALLERY_CHECKS[cfg.id]

    def test_smoke_mode_flags_low_power(self):
        reports = run_gallery(smoke=True)
        assert len(reports) == len(GALLERY_IDS)
        assert all(r.low_power for r in reports)
        assert all(r.mc is not None and r.check is not None for r in reports)

    def test_full_run_report_fields(self):
        cfg = [c for c in gallery_configs() if c.id == "corollary35-pass"][0]
        import dataclasses
        cfg = dataclasses.replace(cfg)
        cfg.mc.paths = 200
        cfg.mc.step = 2.0**-6
        report = run_full(cfg)
        assert report.agreement is True
        assert report.mc.violation_fraction == 0.0
        assert report.check_violated is False


PINNED_GALLERY_300 = {
    "corollary33-pass.report.json":
        "7d8357a6f7ec2948558edcc4f898f2680a7afb871853ab1cef2154fbc46350d2",
    "corollary34-pass.report.json":
        "21beba824c4ebb0d522dc6ec1fb405967d5022a9651adf5197427b466eed8487",
    "corollary35-pass.report.json":
        "36b7e4dd62545cb1dbd4e87f3a90c116c1a292e54b4b4ebbf4f278aee2a56ace",
    "drift-order-fail.report.json":
        "8887686a974739b1b051b238168f84bbed8f2788536463d3543752252f5bdd20",
    "example36.report.json":
        "97fd026ab4e12679e2ccf9f548d95ac857b049d4a07d21dc201762762c36f7a4",
    "gallery-summary.json":
        "c6e5e19045a18345ad7b67c7cfe7833db9e5aba986bdf53b1a66f5ef11e71216",
    "jump-monotone-fail.report.json":
        "44374203dd7936988e231198288b9400db673e76bdeb66358ba10e83d76745f0",
    "matrix-drift-fail.report.json":
        "fe89a1d318339e885ff58150d606e62d3b6f1fee88ac639ea643b0b970491843",
    "matrix-pass.report.json":
        "9c91efd20d54f525ac56a83d9aef702802ddb2566373e3880a52e994c28ccfab",
    "sigma-coupling-fail.report.json":
        "293515f1d99e6bbc820f29f1c10b5fa785075d5741ee7cf938d8e9f3da416b24",
    "sigma-gap-fail.report.json":
        "a7b517d2dc40e0a588f521eedc6c306c58207968a7d9844928e8c32bb2cb3be9",
}

# sha256 of the per-path CSV files of the same run with --format csv
PINNED_PATHS_300 = {
    "corollary33-pass.paths.csv":
        "b91c5f1ef12b077ad533b1145e80710fef1a85c55aef1b0aab4792df5f11dbe0",
    "corollary34-pass.paths.csv":
        "b91c5f1ef12b077ad533b1145e80710fef1a85c55aef1b0aab4792df5f11dbe0",
    "corollary35-pass.paths.csv":
        "b91c5f1ef12b077ad533b1145e80710fef1a85c55aef1b0aab4792df5f11dbe0",
    "drift-order-fail.paths.csv":
        "4a06cd60126dc685d4be537b6fe8cd3b52a624e06166dc2e547c27b29246a893",
    "example36.paths.csv":
        "b91c5f1ef12b077ad533b1145e80710fef1a85c55aef1b0aab4792df5f11dbe0",
    "jump-monotone-fail.paths.csv":
        "5fefdee9357d9f93ac73f631457bcd7c3b4a6db7018c1a3d2c189a565ad1e199",
    "matrix-drift-fail.paths.csv":
        "6791d8ac3df42cf5cad51161badd4dd59c04a9b80e6f441613b4e30afef7037c",
    "matrix-pass.paths.csv":
        "b91c5f1ef12b077ad533b1145e80710fef1a85c55aef1b0aab4792df5f11dbe0",
    "sigma-coupling-fail.paths.csv":
        "2c70e17e05589520c65a7437bcb22f2cd165c96e73312ce8df2a13c80eae2239",
    "sigma-gap-fail.paths.csv":
        "4365114b2e5e1a7aa769ce509c0acd9022daf081a3af0334a858ab531e53dbec",
}


BAD_IDS = [None, "", ".", "..", "../escaped", "sub/dir", "back\\slash", "nul\0", 7]


class TestScenarioIds:
    @pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
    def test_id_that_is_no_file_name_is_rejected(self, bad):
        with pytest.raises(SchemaError, match=r"\$\.id"):
            config_from_dict(minimal_vector_dict(id=bad))

    def test_file_name_ids_are_kept(self):
        for good in ("a.b-c_d", "...", ".hidden", "caf\u00e9 1"):
            assert config_from_dict(minimal_vector_dict(id=good)).id == good

    @pytest.mark.parametrize("bad", ["../escaped", None], ids=repr)
    def test_simulate_writes_nothing_outside_out(self, tmp_path, capsys, bad):
        path = write_config(tmp_path, minimal_vector_dict(id=bad))
        out = tmp_path / "reports"
        assert main(["simulate", path, "--paths", "16", "--out", str(out),
                     "--format", "csv"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


NON_FINITE = {
    "T": lambda d, v: d["horizon"].update(T=v),
    "x1": lambda d, v: d["initial"].update(x1=[v]),
    "check.box": lambda d, v: d["check"].update(box=v),
    "check.ladder": lambda d, v: d["check"].update(ladder=[1e-3, v]),
}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_rejected(self, tmp_path, capsys, field, value):
        data = minimal_vector_dict()
        NON_FINITE[field](data, value)
        with pytest.raises(SchemaError, match="finite"):
            config_from_dict(data)
        path = write_config(tmp_path, data)  # json writes NaN / Infinity tokens
        assert main(["check", path]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_is_rejected(self, tmp_path, capsys):
        text = json.dumps(minimal_vector_dict()).replace('"T": 1.0', '"T": 1' + "0" * 400)
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err


class TestMainExitCodes:
    def test_check_pass_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_vector_dict())
        assert main(["check", path]) == 0

    def test_check_violated_exits_one(self, tmp_path):
        data = minimal_vector_dict()
        data["model1"]["U"] = [[0.9]]  # diffusion gap
        path = write_config(tmp_path, data)
        assert main(["check", path]) == 1

    def test_missing_file_exits_two(self):
        assert main(["check", "/nonexistent/config.json"]) == 2

    def test_schema_error_exits_two(self, tmp_path):
        data = minimal_vector_dict()
        data["marks"]["atoms"][0]["w"] = -1.0
        path = write_config(tmp_path, data)
        assert main(["check", path]) == 2

    def test_simulate_writes_report_and_csv(self, tmp_path):
        path = write_config(tmp_path, minimal_vector_dict())
        out = tmp_path / "reports"
        code = main(["simulate", path, "--paths", "32", "--step", "0.03125",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        assert (out / "mini.report.json").exists()
        assert (out / "mini.paths.csv").exists()
        payload = json.loads((out / "mini.report.json").read_text())
        assert payload["mc"]["paths"] == 32

    @pytest.mark.parametrize("command", ["simulate", "gallery"])
    def test_csv_format_without_out_prints_the_same_report(self, tmp_path, capsys, command):
        # per-path records are kept, and written, only with --out
        args = ([command] if command == "gallery" else
                [command, write_config(tmp_path, minimal_vector_dict())])
        args += ["--paths", "16", "--step", "0.25"]
        printed = []
        for extra in ([], ["--format", "csv"]):
            main(args + extra)
            printed.append(capsys.readouterr().out)
        assert printed[0] and printed[0] == printed[1]
        assert os.listdir(tmp_path) == ([] if command == "gallery" else ["scenario.json"])

    def test_removed_matrix_check_command_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, minimal_vector_dict())
        with pytest.raises(SystemExit) as exc:
            main(["matrix-check", path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("scenario, code", [("matrix-pass", 0), ("matrix-drift-fail", 1)])
    def test_check_dispatches_matrix_configs(self, tmp_path, scenario, code):
        cfg = [c for c in gallery_configs() if c.id == scenario][0]
        path = write_config(tmp_path, config_to_dict(cfg))
        assert main(["check", path]) == code

    def test_gallery_reports_are_pinned(self, tmp_path):
        # sha256 of every file a short gallery run writes (300 paths, h = 2^-6):
        # an engine or checker change that moves one report bit fails here.
        # Exit code 1: at 300 paths some scenario's simulation disagrees.
        out = tmp_path / "g"
        assert main(["gallery", "--paths", "300", "--step", "0.015625", "--out", str(out)]) == 1
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in sorted(os.listdir(out))}
        assert got == PINNED_GALLERY_300

    def test_gallery_per_path_csv_is_pinned(self, tmp_path):
        # the per-path records of the same run: a change that moves one
        # path's violation or first violation time, even where the reports'
        # aggregates stay put, fails here
        out = tmp_path / "g"
        main(["gallery", "--paths", "300", "--step", "0.015625", "--format", "csv",
              "--out", str(out)])
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in sorted(os.listdir(out)) if f.endswith(".paths.csv")}
        assert got == PINNED_PATHS_300

    def test_import_does_not_load_numpy_random(self):
        # the driver generator is built on first use, so start-up does not
        # pay for importing numpy.random
        import jumpcompare
        src = os.path.dirname(os.path.dirname(os.path.abspath(jumpcompare.__file__)))
        probe = "import sys, jumpcompare.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True)
        assert out.stdout.strip() == "False"

    def test_gallery_smoke_completes(self, tmp_path):
        code = main(["gallery", "--smoke", "--out", str(tmp_path / "g")])
        assert code in (0, 1)  # agreement not meaningful at 10 paths
        files = os.listdir(tmp_path / "g")
        assert "gallery-summary.json" in files
        assert len([f for f in files if f.endswith(".report.json")]) == len(GALLERY_IDS)

    def test_removed_spotcheck_command_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, minimal_vector_dict())
        with pytest.raises(SystemExit) as exc:
            main(["pide-spotcheck", path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mc, flags", [
        ({}, ["--step", "2"]),
        ({}, ["--step", "-1"]),
        ({}, ["--paths", "0"]),
        ({"step": 2}, []),
        ({"paths": 0}, []),
    ], ids=["step-flag-2", "step-flag-negative", "paths-flag-0", "step-config-2", "paths-config-0"])
    def test_bad_mc_settings_exit_two(self, tmp_path, capsys, mc, flags):
        data = minimal_vector_dict()
        data["mc"].update(mc)
        path = write_config(tmp_path, data)
        assert main(["simulate", path] + flags) == 2
        assert "config error:" in capsys.readouterr().err

    def test_bad_gallery_override_exits_two(self, capsys):
        assert main(["gallery", "--paths", "0"]) == 2
        assert "config error:" in capsys.readouterr().err
