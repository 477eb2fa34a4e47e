import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from phasebound.config import ScenarioConfig
from phasebound.errors import ValidationError
from phasebound.fock import ProbeSpec


def test_empty_config_defaults():
    cfg = ScenarioConfig.from_dict({})
    assert cfg.prior.kind == "uniform"
    assert cfg.prior.params["width"] == pytest.approx(2.0 * math.pi)
    assert cfg.etas == [1.0]
    assert cfg.probes == []
    assert cfg.grid.phi_points == 2048
    assert cfg.grid.theta_points == 2048
    assert cfg.seed == 0
    assert cfg.samples == 100000
    assert cfg.photon_targets() == []


def test_probe_families_with_explicit_sizes():
    cfg = ScenarioConfig.from_dict({
        "probes": [
            {"family": "coherent", "alpha": 2.0},
            {"family": "number", "n": 3},
            {"family": "flat-superposition", "d": 4},
            {"family": "binomial-phase", "d": 5},
            {"family": "amplitudes", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
        ]})
    means = [p.mean_photons for p in cfg.probes]
    assert means[0] == pytest.approx(4.0, abs=1e-9)
    assert means[1] == 3.0
    assert means[2] == pytest.approx(1.5)
    assert means[3] == pytest.approx(2.0)
    assert means[4] == pytest.approx(0.64)
    assert abs(cfg.probes[4].amplitudes[1] - 0.8j) < 1e-12


def test_mean_photons_materializes_unsized_families():
    cfg = ScenarioConfig.from_dict({
        "mean_photons": [1.0, 4.0],
        "probes": [{"family": "coherent"}],
    })
    assert len(cfg.probes) == 2
    assert cfg.probes[0].mean_photons == pytest.approx(1.0, abs=1e-9)
    assert cfg.probes[1].mean_photons == pytest.approx(4.0, abs=1e-9)
    # sized probes are left alone even when a target list is present
    cfg = ScenarioConfig.from_dict({
        "mean_photons": [1.0, 4.0],
        "probes": [{"family": "number", "n": 2}],
    })
    assert len(cfg.probes) == 1
    assert cfg.photon_targets() == [1.0, 4.0]
    # a null size is a size left out: the probe is expanded
    cfg = ScenarioConfig.from_dict({
        "mean_photons": [1.0, 4.0],
        "probes": [{"family": "coherent", "alpha": None}],
    })
    assert [p.mean_photons for p in cfg.probes] == pytest.approx([1.0, 4.0])


def test_ladder_families_need_integer_sizes():
    cfg = ScenarioConfig.from_dict({
        "mean_photons": [1.5],
        "probes": [{"family": "flat-superposition"}],
    })
    assert cfg.probes[0].cutoff == 3  # d = 4 levels
    with pytest.raises(ValidationError):
        ScenarioConfig.from_dict({
            "mean_photons": [1.3],
            "probes": [{"family": "number"}],
        })


@pytest.mark.parametrize("raw", [
    {"eta": []},
    {"eta": [1.2]},
    {"eta": [-0.1]},
    {"mean_photons": [-1.0]},
    {"mean_photons": [float("inf")]},
    {"mean_photons": float("inf")},
    # JSON true/false load as bool, a subclass of int: not a number here
    {"eta": True},
    {"eta": [False]},
    {"mean_photons": [True]},
    {"probes": [{"family": "coherent", "alpha": True}]},
    {"probes": [{"family": "amplitudes", "amplitudes": [True]}]},
    {"prior": {"kind": "uniform", "width": True}},
    {"grid": {"phi_points": True}},
    {"rd": {"slopes": [False]}},
    {"seed": True},
    {"probes": [{"family": "squeezed"}]},
    {"probes": [{"alpha": 1.0}]},
    {"probes": [{"family": "coherent"}]},  # no size and no target list
    {"prior": {"kind": "wrapped_gaussian"}},
    {"prior": {"kind": "wrapped_gaussian", "mean": "abc", "sigma": 0.5}},
    {"prior": {"kind": "uniform", "width": "wide"}},
    {"prior": {"kind": "tabulated", "values": ["x", 1]}},
    {"probes": [{"family": "amplitudes", "amplitudes": "ab"}]},
    {"probes": [{"family": "amplitudes", "amplitudes": 5}]},
    {"probes": [{"family": "amplitudes", "amplitudes": [["1", "0"]]}]},
    {"probes": [{"family": "coherent", "alpha": "x"}]},
    {"probes": [{"family": "number", "n": "x"}]},
    {"probes": [{"family": "number", "n": 1e9}]},   # over the cutoff cap
    {"grid": {"phi_points": "x"}},
    {"rd": {"slopes": []}},
    {"rd": {"grid_size": 400000}},   # over the cap, rejected before any array
    {"rd": {"grid_size": "abc"}},
    {"rd": {"grid_size": 100.5}},
    {"rd": {"slopes": ["x"]}},
    {"rd": {"slopes": [float("nan")]}},
    {"seed": -3},
    {"seed": 1.5},
    {"samples": 100},
    {"samples": 10 ** 7 + 1},   # over the cap, rejected before any draw
    {"banana": 1},
])
def test_invalid_configs_rejected(raw):
    with pytest.raises(ValidationError):
        ScenarioConfig.from_dict(raw)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "prior": {"kind": }\n}\n')
    with pytest.raises(ValidationError, match=r"line 2 column 21"):
        ScenarioConfig.from_file(str(path))


def test_scalar_shorthands():
    cfg = ScenarioConfig.from_dict({"eta": 0.5, "mean_photons": 2.0})
    assert cfg.etas == [0.5]
    assert cfg.photon_targets() == [2.0]


def test_prior_kinds_roundtrip():
    cfg = ScenarioConfig.from_dict({
        "prior": {"kind": "wrapped_gaussian", "mean": 3.0, "sigma": 0.4}})
    assert cfg.prior.kind == "wrapped_gaussian"
    assert cfg.prior.params["sigma"] == 0.4
    cfg = ScenarioConfig.from_dict({
        "prior": {"kind": "uniform", "center": 1.0, "width": 2.0}})
    assert cfg.prior.max_density() == pytest.approx(0.5)


NAN, INF = float("nan"), float("inf")
AMPS = "each amplitude must be a number or a [re, im] pair of numbers, got "


@pytest.mark.parametrize("raw, message", [
    ([1, 2], "config must be a JSON object"),
    ({"banana": 1, "apple": 2}, "unknown config keys: ['apple', 'banana']"),
    ({"prior": {"center": 1.0}}, "prior must be an object with a 'kind'"),
    ({"prior": 3}, "prior must be an object with a 'kind'"),
    ({"prior": {"kind": "beta"}}, "unknown prior kind 'beta'"),
    # an unhashable kind or family is rejected, not a TypeError
    ({"prior": {"kind": ["uniform"]}}, "unknown prior kind ['uniform']"),
    ({"prior": {"kind": "wrapped_gaussian", "mean": 1.0}},
     "wrapped_gaussian prior needs 'mean' and 'sigma'"),
    ({"prior": {"kind": "tabulated"}}, "tabulated prior needs 'values'"),
    ({"prior": {"kind": "tabulated", "values": "flat"}},
     "tabulated prior values must be a list, got 'flat'"),
    ({"prior": {"kind": "uniform", "center": "pi"}},
     "prior center must be a number, got 'pi'"),
    ({"prior": {"kind": "uniform", "width": True}},
     "prior width must be a number, got True"),
    ({"prior": {"kind": "wrapped_gaussian", "mean": None, "sigma": 0.5}},
     "prior mean must be a number, got None"),
    ({"prior": {"kind": "wrapped_gaussian", "mean": 1.0, "sigma": [0.5]}},
     "prior sigma must be a number, got [0.5]"),
    ({"prior": {"kind": "tabulated", "values": [1, "x"]}},
     "prior value must be a number, got 'x'"),
    ({"probes": [{"family": "amplitudes", "amplitudes": "ab"}]},
     "amplitudes must be a list, got 'ab'"),
    ({"probes": [{"family": "amplitudes", "amplitudes": [1.0, [0.0, 1.0, 2.0]]}]},
     AMPS + "[0.0, 1.0, 2.0]"),
    ({"probes": [{"family": "amplitudes", "amplitudes": [["1", 0]]}]},
     AMPS + "['1', 0]"),
    ({"probes": [{"family": "amplitudes", "amplitudes": [True]}]}, AMPS + "True"),
    ({"probes": [{"family": "coherent", "alpha": "x"}]},
     "probe alpha must be a number, got 'x'"),
    ({"probes": [{"family": "number", "n": [3]}]},
     "probe n must be a number, got [3]"),
    # 2 * mean_photons + 1 overflows to inf
    ({"mean_photons": [9e307], "probes": [{"family": "flat-superposition"}]},
     "flat-superposition level count must be finite, got inf"),
    ({"mean_photons": [1.3], "probes": [{"family": "number"}]},
     "number probe size must be an integer, got 1.3"),
    ({"mean_photons": [0.7], "probes": [{"family": "binomial-phase"}]},
     "binomial-phase level count must be an integer, got 2.4"),
    ({"probes": {"family": "coherent", "alpha": 1.0}},
     "probes must be a list, got {'family': 'coherent', 'alpha': 1.0}"),
    ({"probes": 5}, "probes must be a list, got 5"),
    ({"probes": [5]}, "each probe must be an object with a 'family'"),
    ({"probes": [{"alpha": 1.0}]}, "each probe must be an object with a 'family'"),
    ({"probes": [{"family": "squeezed"}]}, "unknown probe family 'squeezed'"),
    ({"probes": [{"family": {"name": "coherent"}}]},
     "unknown probe family {'name': 'coherent'}"),
    ({"probes": [{"family": "amplitudes"}]}, "amplitude probes need 'amplitudes'"),
    ({"probes": [{"family": "coherent"}]},
     "coherent probe needs 'alpha' or a mean_photons list"),
    ({"probes": [{"family": "number"}]},
     "number probe needs 'n' or a mean_photons list"),
    ({"probes": [{"family": "flat-superposition"}]},
     "flat-superposition probe needs 'd' or a mean_photons list"),
    ({"probes": [{"family": "binomial-phase", "d": None}]},
     "binomial-phase probe needs 'd' or a mean_photons list"),
    # a NaN alpha is named before it reaches the amplitudes
    ({"probes": [{"family": "coherent", "alpha": NAN}]},
     "coherent alpha must be a number, got nan"),
    ({"eta": []}, "eta list must be non-empty"),
    ({"eta": [0.5, 1.2]}, "eta must lie in [0, 1], got 1.2"),
    ({"eta": NAN}, "eta must lie in [0, 1], got nan"),
    ({"eta": "high"}, "eta must lie in [0, 1], got high"),
    ({"mean_photons": []}, "mean_photons list must be non-empty"),
    ({"mean_photons": [1.0, -1.0]},
     "mean_photons entries must be finite and >= 0, got -1.0"),
    ({"mean_photons": INF}, "mean_photons entries must be finite and >= 0, got inf"),
    ({"mean_photons": [True]},
     "mean_photons entries must be finite and >= 0, got True"),
    ({"grid": [256, 256]}, "grid must be an object"),
    ({"grid": {"phi_points": 256.0}},
     "phi_points must be a power of two in [128, 4194304], got 256.0"),
    ({"rd": 64}, "rd must be an object"),
    ({"rd": {"grid_size": 15}},
     "rd grid_size must be an integer in [16, 4096], got 15"),
    ({"rd": {"grid_size": 100.5}},
     "rd grid_size must be an integer in [16, 4096], got 100.5"),
    ({"rd": {"slopes": []}}, "rd slopes must be a non-empty list"),
    ({"rd": {"slopes": 0.5}}, "rd slopes must be a non-empty list"),
    ({"rd": {"slopes": [0.0, -1.0]}}, "rd slopes must be finite and >= 0, got -1.0"),
    ({"rd": {"slopes": [INF]}}, "rd slopes must be finite and >= 0, got inf"),
    ({"seed": -3}, "seed must be a nonnegative integer, got -3"),
    ({"seed": 1.5}, "seed must be a nonnegative integer, got 1.5"),
    ({"samples": 100},
     "samples must be an integer in [10000, 10000000], got 100"),
    ({"samples": 1.5e5},
     "samples must be an integer in [10000, 10000000], got 150000.0"),
    # a key that its object's table does not name, at any depth
    ({"grid": {"phi_point": 256}}, "unknown grid keys: ['phi_point']"),
    ({"rd": {"grid_sise": 16, "slope": []}},
     "unknown rd keys: ['grid_sise', 'slope']"),
    ({"prior": {"kind": "uniform", "centre": 1.0}},
     "unknown uniform prior keys: ['centre']"),
    ({"prior": {"kind": "wrapped_gaussian", "mean": 1.0, "sigma": 0.5,
                "width": 1.0}},
     "unknown wrapped_gaussian prior keys: ['width']"),
    ({"prior": {"kind": "tabulated", "values": [1.0, 1.0], "grid_size": 2}},
     "unknown tabulated prior keys: ['grid_size']"),
    ({"probes": [{"family": "coherent", "n": 2}]},
     "unknown coherent probe keys: ['n']"),
    ({"probes": [{"family": "number", "d": 3}]},
     "unknown number probe keys: ['d']"),
    ({"probes": [{"family": "flat-superposition", "n": 3}]},
     "unknown flat-superposition probe keys: ['n']"),
    ({"probes": [{"family": "binomial-phase", "alpha": 1.0}]},
     "unknown binomial-phase probe keys: ['alpha']"),
    ({"probes": [{"family": "amplitudes", "amplitudes": [1.0], "d": 1}]},
     "unknown amplitudes probe keys: ['d']"),
    # a misspelled size key is rejected, not read as a size left out
    ({"grid": {"phi_point": 256}, "rd": {"grid_sise": 16},
      "probes": [{"family": "coherent", "alpah": 2.0}], "mean_photons": [1.0]},
     "unknown coherent probe keys: ['alpah']"),
    ({"mean_photons": [1.0], "probes": [{"family": "number", "alpha": 2.0}]},
     "unknown number probe keys: ['alpha']"),
    # an explicit null is a value, not a key left out
    ({"eta": None}, "eta must lie in [0, 1], got None"),
    ({"seed": None}, "seed must be a nonnegative integer, got None"),
    ({"samples": None},
     "samples must be an integer in [10000, 10000000], got None"),
    ({"rd": {"grid_size": None}},
     "rd grid_size must be an integer in [16, 4096], got None"),
    ({"rd": {"slopes": None}}, "rd slopes must be a non-empty list"),
    ({"grid": {"phi_points": None}},
     "phi_points must be a power of two in [128, 4194304], got None"),
    ({"prior": {"kind": "uniform", "width": None}},
     "prior width must be a number, got None"),
    ({"probes": [{"family": "amplitudes", "amplitudes": None}]},
     "amplitudes must be a list, got None"),
    # a pair with a bool, a nested list or a null part, and a null
    # entry, each named as given
    ({"probes": [{"family": "amplitudes", "amplitudes": [[True, 0]]}]},
     AMPS + "[True, 0]"),
    ({"probes": [{"family": "amplitudes", "amplitudes": [[[1], 0]]}]},
     AMPS + "[[1], 0]"),
    ({"probes": [{"family": "amplitudes", "amplitudes": [[1, None]]}]},
     AMPS + "[1, None]"),
    ({"probes": [{"family": "amplitudes", "amplitudes": [1.0, None]}]},
     AMPS + "None"),
])
def test_error_messages_verbatim(raw, message):
    with pytest.raises(ValidationError) as caught:
        ScenarioConfig.from_dict(raw)
    assert str(caught.value) == message


def test_amplitude_entries_of_every_numeric_form():
    # int, float and mixed [re, im] pairs and bare numbers all give
    # complex(re, im), negative zeros included
    entries = [[0, 0.6], [-0.48, 0], [0.0, -0.0], -0.0, 0.64, [0, 0], 0]
    cfg = ScenarioConfig.from_dict({"probes": [
        {"family": "amplitudes", "amplitudes": entries}]})
    ref = ProbeSpec([0.6j, complex(-0.48, 0), complex(0.0, -0.0),
                     complex(-0.0, 0.0), complex(0.64, 0.0), 0j, 0j])
    got = cfg.probes[0].amplitudes
    assert np.array_equal(got, ref.amplitudes)
    assert np.array_equal(np.signbit(got.view(float)),
                          np.signbit(ref.amplitudes.view(float)))


def test_malformed_json_message_verbatim(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"eta": [0.5,]}')
    with pytest.raises(ValidationError) as caught:
        ScenarioConfig.from_file(str(path))
    assert str(caught.value) == ("malformed config JSON at line 1 column 14: "
                                 "Expecting value")


class Unprintable(list):
    """A list whose repr fails: formatting a message that names it fails."""

    def __repr__(self):
        raise AssertionError("formatted an error message for a valid config")

    __str__ = __repr__


class UnprintableDict(dict):
    __repr__ = __str__ = Unprintable.__repr__


def test_valid_config_formats_no_message():
    # every field a message would name, on a config that is valid
    cfg = ScenarioConfig.from_dict(UnprintableDict({
        "prior": UnprintableDict({"kind": "tabulated",
                                  "values": Unprintable([0.5 / math.pi] * 4)}),
        "probes": Unprintable([
            UnprintableDict({"family": "amplitudes", "amplitudes": Unprintable(
                [Unprintable([0.6, 0.0]), Unprintable([0.0, 0.8])])}),
            UnprintableDict({"family": "binomial-phase"})]),
        "eta": Unprintable([0.5, 1.0]),
        "mean_photons": Unprintable([1.5]),
        "grid": UnprintableDict({"phi_points": 256, "theta_points": 256}),
        "rd": UnprintableDict({"grid_size": 16,
                               "slopes": Unprintable([0.0, 0.5])}),
    }))
    assert [p.cutoff for p in cfg.probes] == [1, 3]
    assert cfg.etas == [0.5, 1.0]


def test_every_optional_key_parses():
    # the counterpart of the test above: every optional key, set
    cfg = ScenarioConfig.from_dict({
        "prior": {"kind": "uniform", "center": 1.0, "width": 2.0},
        "probes": [{"family": "coherent", "alpha": 1.0},
                   {"family": "number", "n": 2},
                   {"family": "flat-superposition", "d": 3},
                   {"family": "binomial-phase", "d": 5},
                   {"family": "amplitudes", "amplitudes": [0.6, [0.0, 0.8]]}],
        "eta": [0.5, 1.0],
        "mean_photons": [1.0, 2.0],
        "grid": {"phi_points": 256, "theta_points": 512},
        "rd": {"grid_size": 32, "slopes": [0.0, 2.0]},
        "seed": 3,
        "samples": 20000,
    })
    assert cfg.prior.kind == "uniform"
    assert cfg.prior.params == {"center": 1.0, "width": 2.0}
    assert [p.mean_photons for p in cfg.probes] == pytest.approx(
        [1.0, 2.0, 1.0, 2.0, 0.64], abs=1e-9)
    assert cfg.etas == [0.5, 1.0]
    assert cfg.photon_targets() == [1.0, 2.0]
    assert (cfg.grid.phi_points, cfg.grid.theta_points) == (256, 512)
    assert cfg.rd_grid_size == 32
    assert cfg.rd_slopes == [0.0, 2.0]
    assert cfg.seed == 3
    assert cfg.samples == 20000


def test_readme_scenarios_parse():
    # every scenario the README shows parses, so none holds a stray key
    text = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        ScenarioConfig.from_dict(json.loads(block))
