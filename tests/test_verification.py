import math

import numpy as np
import pytest

import phasebound.bounds
import phasebound.capacity
import phasebound.estimation
import phasebound.fock
import phasebound.rate_distortion
from phasebound.config import ScenarioConfig
from phasebound.errors import ValidationError
from phasebound.estimation import MonteCarloResult, SimulationResult
from phasebound.priors import PhasePrior
from phasebound.verification import (DEFAULT_BATTERY, CheckResult,
                                     _check_branch_orthonormality,
                                     _check_capacity_shape,
                                     _check_prior_properties,
                                     run_verification)

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


def test_corrupted_entropy_gain_is_caught(monkeypatch):
    # the batched floor check reads entropy_gain through its module, so a
    # gain lowered by one nat falls below ln(1-eta)
    real = phasebound.capacity.entropy_gain
    monkeypatch.setattr(phasebound.capacity, "entropy_gain",
                        lambda p, eta: real(p, eta) - 1.0)
    report = light_battery()
    assert [r.name for r in report.failures()] == ["loss-entropy-gain-floor"]
    lines = report.lines()
    assert any(line.startswith("FAIL loss-entropy-gain-floor margin=-")
               for line in lines)
    details = [line for line in lines if line.startswith("  trial ")]
    assert details and all("below ln(1-eta) (margin -" in line
                           for line in details)


def test_corrupted_shannon_inversion_is_caught(monkeypatch):
    # D(R) read through its module, 0.1% high, no longer inverts R(D)
    real = phasebound.rate_distortion.shannon_lb_distortion
    monkeypatch.setattr(phasebound.rate_distortion, "shannon_lb_distortion",
                        lambda q, rate: real(q, rate) * 1.001)
    report = light_battery()
    assert [r.name for r in report.failures()] == ["shannon-bound-inversion"]
    assert any(line.startswith("FAIL shannon-bound-inversion margin=-")
               for line in report.lines())


def test_corrupted_capacity_ceiling_is_caught(monkeypatch):
    # the lossy capacity ceiling, halved, falls below the dephasing chain
    # of a four-photon probe at eta 0.5 (2.15 nats, halved, against
    # 1.70); the lossless scenario reads another capacity
    real = phasebound.capacity.capacity_upper_bound_lossy
    monkeypatch.setattr(phasebound.capacity, "capacity_upper_bound_lossy",
                        lambda ns, eta: real(ns, eta) * 0.5)
    report = light_battery(probes=[{"family": "coherent", "alpha": 2.0}],
                           eta=[0.5, 1.0])
    assert [r.name for r in report.failures()] == ["holevo-capacity-chain"]
    details = [line for line in report.lines() if line.startswith("  ")]
    assert len(details) == 1
    assert "eta=0.5: chain value 1.704883 above the capacity ceiling " \
        "1.076054" in details[0]


def test_corrupted_holevo_quantity_is_caught(monkeypatch):
    # no harmonic of the full circle survives, so chi must equal the
    # dephasing chain: a chi 10% low breaks the equality, not only a bound
    real = phasebound.fock.holevo_quantity
    monkeypatch.setattr(phasebound.fock, "holevo_quantity",
                        lambda decomp, prior: real(decomp, prior) * 0.9)
    report = run_verification()
    assert [r.name for r in report.failures()] == ["holevo-capacity-chain"]
    details = [line for line in report.lines() if line.startswith("  ")]
    assert len(details) == 6
    assert all("is not the Holevo quantity" in line for line in details)


def test_wrapped_gaussian_battery_passes():
    # an off-circle prior: its density table, the chi <= chain route and
    # the Holevo blocks with eigendecompositions
    report = light_battery(
        prior={"kind": "wrapped_gaussian", "mean": 1.0, "sigma": 0.5},
        probes=[{"family": "coherent", "alpha": 1.0},
                {"family": "flat-superposition", "d": 4}],
        eta=[0.5, 1.0])
    assert report.passed, report.lines()
    assert report.lines()[-1] == "verify: OK"


def test_corrupted_prior_normalization_is_caught(monkeypatch):
    # a density that integrates to 1 + 1e-6 is off by 100x the tolerance
    real = PhasePrior.normalization
    monkeypatch.setattr(PhasePrior, "normalization",
                        lambda prior: real(prior) * (1.0 + 1e-6))
    report = run_verification()
    assert [r.name for r in report.failures()] == \
        ["prior-entropy-power-and-normalization"]
    assert "density integrates to 1.000001" in "\n".join(report.lines())


def test_corrupted_capacity_curve_is_caught(monkeypatch):
    # g(N) + 0.01 N^2 still rises, but its second difference turns
    # positive: the concavity test reads the capacity through its module
    real = phasebound.capacity.unrestricted_capacity
    monkeypatch.setattr(phasebound.capacity, "unrestricted_capacity",
                        lambda n: real(n) + 0.01 * n ** 2)
    report = run_verification()
    assert [r.name for r in report.failures()] == \
        ["capacity-monotone-concave-and-stochastic"]
    assert "  unrestricted capacity is not concave (margin -1.097e-03)" in \
        report.lines()


def test_shifted_capacity_is_caught_by_the_thermal_entropy(monkeypatch):
    # g(N) + 0.05 N stays increasing and concave, and it only raises the
    # capacity ceilings; the thermal masses' entropy still reads g(N)
    real = phasebound.capacity.unrestricted_capacity
    monkeypatch.setattr(phasebound.capacity, "unrestricted_capacity",
                        lambda n: real(n) + 0.05 * n)
    report = run_verification()
    assert [r.name for r in report.failures()] == \
        ["capacity-monotone-concave-and-stochastic"]
    assert "  unrestricted capacity 1.436294 at N=1.0 is not the thermal " \
        "entropy 1.386294 (margin -5.000e-02)" in report.lines()


def test_corrupted_monte_carlo_is_caught(monkeypatch):
    # a Monte Carlo mean 10 standard errors off the quadrature MSE; the
    # rerun with the same seed still agrees with the first draw
    real = phasebound.estimation.monte_carlo_mse

    def shifted(sim, samples=100000, seed=0):
        mc = real(sim, samples=samples, seed=seed)
        return MonteCarloResult(mc.mean + 10.0 * mc.stderr, mc.stderr)

    monkeypatch.setattr(phasebound.estimation, "monte_carlo_mse", shifted)
    report = run_verification()
    assert [r.name for r in report.failures()] == \
        ["monte-carlo-matches-quadrature"]
    details = [line for line in report.lines() if line.startswith("  ")]
    assert len(details) == 1 and " sigma from the quadrature MSE " in \
        details[0]


def test_corrupted_simulator_is_caught(monkeypatch):
    real = phasebound.estimation.bayesian_mmse_all

    def too_good(decomps, parts):
        return [SimulationResult(mse=1e-6, mse_coarse=1e-6,
                                 mutual_information=sim.mutual_information,
                                 converged=True, estimator=sim.estimator,
                                 window=sim.window, prior_part=sim.prior_part)
                for sim in real(decomps, parts)]

    monkeypatch.setattr(phasebound.estimation, "bayesian_mmse_all", too_good)
    report = light_battery()
    assert not report.passed
    names = [r.name for r in report.failures()]
    assert "simulated-mse-between-bounds-and-prior" in names


UNIFORM_NAME = ("{'kind': 'uniform', 'center': 3.141592653589793, "
                "'width': 6.283185307179586}")


def test_corrupted_variance_is_caught(monkeypatch):
    # a variance below the uniform prior's entropy power 2 pi / e; only the
    # prior check reads the variance
    monkeypatch.setattr(PhasePrior, "variance", lambda self: 1.0)
    report = light_battery()
    assert [r.name for r in report.failures()] == \
        ["prior-entropy-power-and-normalization"]
    assert f"  {UNIFORM_NAME}: entropy power exceeds the variance " \
        "(margin -1.311e+00)" in report.lines()


def test_corrupted_peak_density_is_caught(monkeypatch):
    # checked directly: the Hall-Wiseman bound reads the peak density too,
    # and raises below the uniform floor 1/(2 pi)
    monkeypatch.setattr(PhasePrior, "max_density", lambda self: 0.1)
    check = _check_prior_properties(PhasePrior.uniform())
    assert not check.passed
    assert check.details == [f"{UNIFORM_NAME}: peak density below the "
                             "uniform floor (margin -5.915e-02)"]


def test_unstochastic_loss_matrix_is_caught(monkeypatch):
    # rows that sum to 1.01; checked directly, since the branch check and
    # the entropy gain read the loss matrix too
    real = phasebound.capacity.binomial_loss_matrix
    monkeypatch.setattr(phasebound.capacity, "binomial_loss_matrix",
                        lambda n, eta: real(n, eta) * 1.01)
    check = _check_capacity_shape()
    assert not check.passed
    assert check.details == [
        f"loss matrix rows at eta={eta} sum off by 1.00e-02 "
        "(margin -1.000e-02)" for eta in (0.3, 0.7)]


def test_changing_monte_carlo_rerun_is_caught(monkeypatch):
    # each draw moves by a thousandth of a standard error, so the first
    # stays within 4 sigma of the quadrature, but the rerun with the same
    # seed no longer repeats it
    real = phasebound.estimation.monte_carlo_mse
    calls = []

    def drifting(sim, samples=100000, seed=0):
        mc = real(sim, samples=samples, seed=seed)
        calls.append(seed)
        return MonteCarloResult(mc.mean + 1e-3 * len(calls) * mc.stderr,
                                mc.stderr)

    monkeypatch.setattr(phasebound.estimation, "monte_carlo_mse", drifting)
    report = light_battery()
    assert calls == [7, 7]
    assert [r.name for r in report.failures()] == \
        ["monte-carlo-matches-quadrature"]
    assert [line for line in report.lines() if line.startswith("  ")] == \
        ["  Monte Carlo rerun with the same seed changed its answer "
         "(margin -1.000e+00)"]


def test_nan_margin_fails(monkeypatch):
    # a bound that turns NaN leaves its inequality untested: a violation
    # whose NaN margin no later margin replaces
    monkeypatch.setattr(phasebound.bounds, "h_limit_bound",
                        lambda q, n: math.nan)
    report = light_battery()
    lines = report.lines()
    assert [r.name for r in report.failures()] == \
        ["simulated-mse-between-bounds-and-prior"]
    assert "FAIL simulated-mse-between-bounds-and-prior margin=+nan" in lines
    assert any(line.startswith("  ") and "h_limit bound nan (margin +nan)"
               in line for line in lines)
    assert lines[-1] == "verify: 1 check(s) failed"


def test_nan_entries_of_a_margin_array_fail():
    check = CheckResult("c")
    check.track(2.0, lambda: "fine")
    check.track(np.array([[1.0, math.nan], [-1.0, 3.0]]),
                lambda i, j: f"entry {i},{j}")
    check.track(0.5, lambda: "fine")
    assert not check.passed and math.isnan(check.margin)
    assert check.details == ["entry 0,1 (margin +nan)",
                             "entry 1,0 (margin -1.000e+00)"]
    clean = CheckResult("c")
    clean.track(np.array([3.0, 0.25]), lambda i: f"entry {i}")
    assert clean.passed and clean.margin == 0.25 and clean.details == []


def test_scaled_branch_is_caught():
    # a branch row 1% too long, with the weights read off the branches as
    # chi_decompose reads them: only the loss distribution, computed apart
    # from the branches, tells
    decomp = phasebound.fock.chi_decompose(
        phasebound.fock.ProbeSpec.coherent(1.0), 0.5)
    assert _check_branch_orthonormality([decomp]).passed
    decomp.branches = decomp.branches.copy()
    decomp.branches[1] *= 1.01
    decomp.weights = (np.abs(decomp.branches) ** 2).sum(axis=1)
    check = _check_branch_orthonormality([decomp])
    assert not check.passed
    assert "branch norm error 2.01e-02" in check.details[0]


def test_prior_variance_ceiling_is_the_discretized_prior():
    # the window's edges fall between 512-grid points, so the simulator's
    # prior has a variance above the continuous 1/12; with the probe fully
    # lost the MSE meets it, and the check must take the grid's value
    cfg = {"prior": {"kind": "uniform", "center": 3, "width": 1},
           "probes": [{"family": "coherent", "alpha": 1.0}], "eta": [0.0],
           "grid": {"phi_points": 512, "theta_points": 512}}
    prior = ScenarioConfig.from_dict(cfg).prior
    sim = phasebound.estimation.bayesian_mmse(
        phasebound.fock.chi_decompose(phasebound.fock.ProbeSpec.coherent(1.0),
                                      0.0),
        prior, phasebound.estimation.SimGrid(512, 512))
    assert sim.mse > prior.variance() + 1e-6
    report = run_verification(ScenarioConfig.from_dict(cfg))
    assert report.passed, report.lines()


def test_each_scenario_is_evaluated_once(monkeypatch):
    calls, stack, kernels, decomposed = {}, [], [], []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            stack.append(name)
            try:
                out = real(*args, **kwargs)
            finally:
                stack.pop()
            if name == "chi_decompose_all":
                decomposed.append(out)
            return out

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(phasebound.fock, "holevo_quantity"),
                         (phasebound.fock, "chi_decompose"),
                         (phasebound.fock, "chi_decompose_all"),
                         (phasebound.estimation, "bayesian_mmse_all"),
                         (phasebound.estimation, "_window"),
                         (phasebound.estimation, "_core")]:
        counted(module, name)
    kernel = phasebound.capacity.binomial_loss_matrix

    def loss_matrix(*args, **kwargs):
        kernels.append(list(stack))   # the counted calls open around it
        return kernel(*args, **kwargs)

    monkeypatch.setattr(phasebound.capacity, "binomial_loss_matrix",
                        loss_matrix)
    probes = [{"family": "amplitudes", "amplitudes": HALF},
              {"family": "flat-superposition", "d": 3}]
    report = light_battery(probes=probes, eta=[0.5, 1.0])
    assert report.passed
    scenarios = len(probes) * 2
    # one call decomposes every scenario, and no single-probe call runs;
    # one Holevo evaluation and one window per scenario; the MMSE runs
    # share one stacked pass (one fine and one half-grid core); the Monte
    # Carlo check evaluates no grid
    assert calls == {"chi_decompose_all": 1, "holevo_quantity": scenarios,
                     "bayesian_mmse_all": 1, "_window": scenarios,
                     "_core": 2}
    assert len(decomposed) == 1 and len(decomposed[0]) == scenarios
    # a decomposition builds no loss matrix: fock reads its log-binomial
    # table and binds no kernel; the capacity checks still build theirs
    assert not hasattr(phasebound.fock, "binomial_loss_matrix")
    assert kernels and not any("chi_decompose_all" in open_
                               for open_ in kernels)


def test_uncertified_rate_point_is_caught(monkeypatch):
    # a solver stopped before its certificate must fail the rate check
    monkeypatch.setattr(phasebound.rate_distortion, "BA_MAX_ITER", 1)
    report = light_battery(rd={"grid_size": 16, "slopes": [0.0, 0.7]})
    names = [r.name for r in report.failures()]
    assert names == ["rate-curve-above-shannon-bound"]
    assert "Blahut gap" in "\n".join(report.lines())


def test_rising_rate_curve_is_caught(monkeypatch):
    # a curve whose rate rises with distortion is no R(D) sample, even when
    # every point sits above the Shannon bound with a certified gap
    real = phasebound.rate_distortion.rd_curve

    def rising(prior, grid_size, slopes):
        curve = real(prior, grid_size, slopes)
        curve[-1].rate = curve[0].rate + 1.0
        return curve

    monkeypatch.setattr(phasebound.rate_distortion, "rd_curve", rising)
    report = light_battery()
    assert [r.name for r in report.failures()] == [
        "rate-curve-above-shannon-bound"]
    details = [line for line in report.lines() if line.startswith("  ")]
    assert details == ["  curve invariants: rd curve rate increases with "
                       "distortion (margin -1.000e+00)"]


def test_validation_of_inputs():
    # a scenario reaches the battery only through ScenarioConfig, which
    # rejects an empty transmittance list while parsing
    with pytest.raises(ValidationError):
        ScenarioConfig.from_dict(dict(LIGHT, eta=[]))


def test_scenario_without_probes_borrows_the_battery(monkeypatch):
    seen, single = [], []
    real = phasebound.fock.chi_decompose_all

    def recorded(probes, etas):
        seen.append(([probe.descriptor() for probe in probes], list(etas)))
        return real(probes, etas)

    monkeypatch.setattr(phasebound.fock, "chi_decompose_all", recorded)
    monkeypatch.setattr(phasebound.fock, "chi_decompose",
                        lambda *args: single.append(args))
    assert light_battery(probes=[], eta=[0.5]).passed
    battery = ScenarioConfig.from_dict(DEFAULT_BATTERY).probes
    # one call carries every borrowed probe at the scenario's eta
    assert seen == [([probe.descriptor() for probe in battery], [0.5])]
    assert single == []


def test_one_slope_solves_its_cold_point_once(monkeypatch):
    # the lowest and the highest slope are the same point, solved once,
    # cold, and every check reads that solve
    calls = []
    real = phasebound.rate_distortion.blahut_arimoto_point

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(phasebound.rate_distortion, "blahut_arimoto_point",
                        counted)
    report = light_battery(rd={"grid_size": 16, "slopes": [0.5]})
    assert report.passed
    assert calls == [0.5]


def test_rising_lagrangian_at_a_middle_slope_is_caught(monkeypatch):
    # the descent row covers every point of the curve, not only the lowest
    # and the highest slope
    real = phasebound.rate_distortion.blahut_arimoto_point

    def rising(source, distortion, slope, *args, **kwargs):
        point = real(source, distortion, slope, *args, **kwargs)
        if slope == 0.25:
            lag = point.lagrangian_history
            point.lagrangian_history = np.append(lag, lag[-1] + 1e-6)
        return point

    monkeypatch.setattr(phasebound.rate_distortion, "blahut_arimoto_point",
                        rising)
    report = light_battery(rd={"grid_size": 16, "slopes": [0.0, 0.25, 0.5]})
    assert [r.name for r in report.failures()] == [
        "rate-curve-above-shannon-bound"]
    details = [line for line in report.lines() if line.startswith("  ")]
    assert details == ["  slope 0.25: Lagrangian rose by 1.00e-06 "
                       "(margin -1.000e-06)"]


@pytest.mark.parametrize("slopes, solved", [
    ([0.0, 0.25], [0.0, 0.25]),
    ([0.25, 0.7], [0.25, 0.7]),
    ([1, 1, 2], [1.0, 1.0, 2.0]),
    ([0.7, 0.7], [0.7, 0.7])], ids=["zero", "two", "repeated", "one"])
def test_one_verify_builds_one_kernel(monkeypatch, slopes, solved):
    # the rate check builds the K x K kernel once, through rd_curve, and
    # solves each configured slope once, cold
    kernels, calls = [], []
    real_kernel = phasebound.rate_distortion.grid_distortion
    real_point = phasebound.rate_distortion.blahut_arimoto_point

    def kernel(grid_size):
        kernels.append(grid_size)
        return real_kernel(grid_size)

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real_point(*args, **kwargs)

    monkeypatch.setattr(phasebound.rate_distortion, "grid_distortion", kernel)
    monkeypatch.setattr(phasebound.rate_distortion, "blahut_arimoto_point",
                        counted)
    assert light_battery(rd={"grid_size": 16, "slopes": slopes}).passed
    assert kernels == [16]
    assert calls == solved


def test_detail_lines_are_scenario_major(monkeypatch):
    # two inequalities broken in every scenario of two checks at once:
    # chi - 1 is negative and off the dephasing chain, and below the
    # measured information; h_limit x 1e3 sits above every simulated MSE
    real_chi = phasebound.fock.holevo_quantity
    real_h = phasebound.bounds.h_limit_bound
    monkeypatch.setattr(phasebound.fock, "holevo_quantity",
                        lambda decomp, prior: real_chi(decomp, prior) - 1.0)
    monkeypatch.setattr(phasebound.bounds, "h_limit_bound",
                        lambda q, n: real_h(q, n) * 1e3)
    probes = [{"family": "amplitudes", "amplitudes": HALF},
              {"family": "coherent", "alpha": 0.5}]
    etas = [0.5, 1.0]
    report = light_battery(probes=probes, eta=etas)
    cfg = ScenarioConfig.from_dict(dict(LIGHT, probes=probes, eta=etas))
    # chi_decompose_all's order: probe-major, eta within a probe
    tags = [f"{probe.descriptor()} eta={eta}" for probe in cfg.probes
            for eta in etas]
    expected = {
        "holevo-capacity-chain": ["Holevo quantity negative",
                                  "dephasing chain"],
        "simulated-mse-between-bounds-and-prior": [
            "measured information", "beats the h_limit bound"]}
    failures = report.failures()
    assert [r.name for r in failures] == list(expected)
    for result in failures:
        pairs = [(tag, phrase) for tag in tags
                 for phrase in expected[result.name]]
        assert len(result.details) == len(pairs)
        for detail, (tag, phrase) in zip(result.details, pairs):
            assert detail.startswith(f"{tag}: ") and phrase in detail


def test_branch_details_are_scenario_major():
    # every decomposition gets a shared loss count, which also reads the
    # wrong loss probability for its second branch: two lines each
    decomps = phasebound.fock.chi_decompose_all(
        [phasebound.fock.ProbeSpec.coherent(1.0),
         phasebound.fock.ProbeSpec.flat_superposition(3)], [0.3, 0.7])
    for decomp in decomps:
        decomp.loss_counts[1] = decomp.loss_counts[0]
    check = _check_branch_orthonormality(decomps)
    assert not check.passed
    tags = [f"{d.probe.descriptor()} eta={d.eta}" for d in decomps]
    pairs = [(tag, phrase) for tag in tags
             for phrase in ("two branches share a loss count",
                            "branch norm error")]
    assert len(check.details) == len(pairs)
    for detail, (tag, phrase) in zip(check.details, pairs):
        assert detail.startswith(f"{tag}: ") and phrase in detail
