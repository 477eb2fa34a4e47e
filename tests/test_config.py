import math

import pytest

from phasebound.config import ScenarioConfig
from phasebound.errors import ValidationError


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
