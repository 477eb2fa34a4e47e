import pytest

import phasebound.bounds
import phasebound.estimation
import phasebound.fock
import phasebound.rate_distortion
from phasebound.config import ScenarioConfig
from phasebound.errors import ValidationError
from phasebound.estimation import SimulationResult
from phasebound.verification import DEFAULT_BATTERY, run_verification

HALF = [0.7071067811865475] * 2
LIGHT = {
    "probes": [{"family": "amplitudes", "amplitudes": HALF}],
    "eta": [1.0],
    "grid": {"phi_points": 256, "theta_points": 256},
    "rd": {"grid_size": 16, "slopes": [0.0, 0.25]},
    "seed": 7,
    "samples": 10000,
}


def light_battery(**overrides):
    return run_verification(ScenarioConfig.from_dict(dict(LIGHT, **overrides)))


def test_default_battery_passes():
    report = run_verification()
    assert report.passed
    assert report.failures() == []
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))
    for result in report.results:
        assert result.margin >= 0.0
    assert report.lines()[-1] == "verify: OK"


def test_line_format():
    report = light_battery()
    assert report.passed
    for line in report.lines()[:-1]:
        assert line.startswith("PASS ")
        assert "margin=" in line


def test_corrupted_bound_is_caught(monkeypatch):
    # the checks must read the bound through its module, so an inflated
    # bound shows up as a simulated MSE "beating" it
    monkeypatch.setattr(phasebound.bounds, "h_limit_bound",
                        lambda q, n: 1000.0)
    report = light_battery()
    assert not report.passed
    names = [r.name for r in report.failures()]
    assert "simulated-mse-between-bounds-and-prior" in names
    joined = "\n".join(report.lines())
    assert "FAIL" in joined and "h_limit" in joined


def test_corrupted_simulator_is_caught(monkeypatch):
    real = phasebound.estimation.bayesian_mmse

    def too_good(decomp, prior, grid=None):
        sim = real(decomp, prior, grid)
        return SimulationResult(mse=1e-6, mse_coarse=1e-6,
                                mutual_information=sim.mutual_information,
                                converged=True, estimator=sim.estimator,
                                grid=sim.grid, window=sim.window,
                                masses=sim.masses,
                                masses_table=sim.masses_table)

    monkeypatch.setattr(phasebound.estimation, "bayesian_mmse", too_good)
    report = light_battery()
    assert not report.passed
    names = [r.name for r in report.failures()]
    assert "simulated-mse-between-bounds-and-prior" in names


def test_each_scenario_is_evaluated_once(monkeypatch):
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(phasebound.fock, "holevo_quantity"),
                         (phasebound.fock, "chi_decompose"),
                         (phasebound.fock, "binomial_loss_matrix"),
                         (phasebound.estimation, "bayesian_mmse"),
                         (phasebound.estimation, "_window"),
                         (phasebound.estimation, "_core")]:
        counted(module, name)
    probes = [{"family": "amplitudes", "amplitudes": HALF},
              {"family": "flat-superposition", "d": 3}]
    report = light_battery(probes=probes, eta=[0.5, 1.0])
    assert report.passed
    scenarios = len(probes) * 2
    # one decomposition (one loss matrix), one Holevo evaluation and one
    # MMSE run (one window, fine + half grid) per scenario; the Monte
    # Carlo check evaluates no grid
    assert calls == {"chi_decompose": scenarios, "holevo_quantity": scenarios,
                     "binomial_loss_matrix": scenarios,
                     "bayesian_mmse": scenarios, "_window": scenarios,
                     "_core": 2 * scenarios}


def test_uncertified_rate_point_is_caught(monkeypatch):
    # a solver stopped before its certificate must fail the rate check
    monkeypatch.setattr(phasebound.rate_distortion, "BA_MAX_ITER", 1)
    report = light_battery(rd={"grid_size": 16, "slopes": [0.0, 0.7]})
    names = [r.name for r in report.failures()]
    assert names == ["rate-curve-above-shannon-bound"]
    assert "Blahut gap" in "\n".join(report.lines())


def test_validation_of_inputs():
    # a scenario reaches the battery only through ScenarioConfig, which
    # rejects an empty transmittance list while parsing
    with pytest.raises(ValidationError):
        ScenarioConfig.from_dict(dict(LIGHT, eta=[]))


def test_scenario_without_probes_borrows_the_battery(monkeypatch):
    seen = []
    real = phasebound.fock.chi_decompose

    def recorded(probe, eta):
        seen.append(probe.descriptor())
        return real(probe, eta)

    monkeypatch.setattr(phasebound.fock, "chi_decompose", recorded)
    assert light_battery(probes=[], eta=[0.5]).passed
    battery = ScenarioConfig.from_dict(DEFAULT_BATTERY).probes
    assert seen == [probe.descriptor() for probe in battery]
