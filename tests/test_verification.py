import numpy as np
import pytest

import phasebound.bounds
import phasebound.estimation
import phasebound.fock
import phasebound.rate_distortion
from phasebound.errors import ValidationError
from phasebound.estimation import SimGrid, SimulationResult
from phasebound.fock import ProbeSpec
from phasebound.verification import run_verification


def light_battery(**overrides):
    kwargs = dict(
        probes=[ProbeSpec.from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2))],
        etas=[1.0],
        sim_grid=SimGrid(256, 256),
        rd_grid_size=16,
        rd_slopes=(0.0, 0.25),
        mc_samples=10000,
    )
    kwargs.update(overrides)
    return run_verification(**kwargs)


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
                                theta=sim.theta, grid=sim.grid,
                                window=sim.window, masses=sim.masses)

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
    probes = [ProbeSpec.from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2)),
              ProbeSpec.flat_superposition(3)]
    report = light_battery(probes=probes, etas=[0.5, 1.0])
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
    report = light_battery(rd_slopes=(0.0, 0.7))
    names = [r.name for r in report.failures()]
    assert names == ["rate-curve-above-shannon-bound"]
    assert "Blahut gap" in "\n".join(report.lines())


def test_validation_of_inputs():
    with pytest.raises(ValidationError):
        run_verification(probes=[])
    with pytest.raises(ValidationError):
        run_verification(etas=[])
