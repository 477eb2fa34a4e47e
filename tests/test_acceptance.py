"""Acceptance gate: one test per criterion, run with pytest -v.

Each test prints a single summary line with its worst measured margin;
pytest -v adds the PASS/FAIL verdict per criterion. Tolerances are the
contract values, not what the implementation happens to achieve.
"""

import json
import math

import numpy as np

from phasebound.bounds import (h_limit_bound, hall_wiseman_bound,
                               iti_bound, lossy_sql_bound)
from phasebound.capacity import (binomial_loss_matrix,
                                 capacity_upper_bound_lossy, entropy_gain,
                                 shannon_entropy, unrestricted_capacity)
from phasebound.cli import main
from phasebound.estimation import SimGrid, bayesian_mmse
from phasebound.fock import ProbeSpec, chi_decompose, holevo_quantity
from phasebound.priors import TWO_PI, PhasePrior
from phasebound import rate_distortion as rd

from fock_states import average_state, phase_randomize, von_neumann_entropy

UNIFORM = PhasePrior.uniform()


def report(criterion, slug, margin):
    print(f"criterion {criterion} ({slug}): PASS margin={margin:+.3e}")


def test_criterion_1_capacity_values():
    worst = np.inf
    for ns, expected in ((1.0, 2.0 * math.log(2.0)),
                         (10.0, 11.0 * math.log(11.0)
                          - 10.0 * math.log(10.0))):
        err = abs(unrestricted_capacity(ns) - expected)
        worst = min(worst, 1e-12 - err)
        assert err <= 1e-12
    report(1, "capacity-closed-form", worst)


def test_criterion_2_bound_coincidence():
    # a width-L window has peak density 1/L and entropy power L^2/(2 pi e)
    worst = np.inf
    for width in (math.pi / 2.0, math.pi, TWO_PI):
        for ns in (0.0, 1.0, 10.0):
            a = hall_wiseman_bound(1.0 / width, ns)
            b = h_limit_bound(width ** 2 / (TWO_PI * math.e), ns)
            err = abs(a - b)
            worst = min(worst, 1e-12 - err)
            assert err <= 1e-12
    report(2, "window-bound-coincidence", worst)


def test_criterion_3_vacuum_value_and_scaling():
    q = UNIFORM.entropy_power()
    target = TWO_PI / math.e ** 3
    err_h = abs(h_limit_bound(q, 0.0) - target)
    err_w = abs(hall_wiseman_bound(UNIFORM.max_density(), 0.0) - target)
    assert err_h <= 1e-9 and err_w <= 1e-9

    ns = np.array([0.0, 1.0, 10.0, 100.0, 1000.0])
    scaled = np.array([h_limit_bound(q, n) for n in ns]) * (ns + 1.0) ** 2
    spread = float(np.ptp(scaled))
    assert spread <= 1e-12

    sql_limit = q / (TWO_PI * math.e)  # eta = 1/2: Q(1-eta)/(2 pi e eta)
    seq = np.array([n * lossy_sql_bound(q, n, 0.5)
                    for n in (1.0, 10.0, 100.0, 1000.0)])
    assert np.all(np.diff(seq) > 0.0)
    assert abs(seq[-1] - sql_limit) <= 1e-3
    report(3, "vacuum-value-and-scaling", 1e-9 - max(err_h, err_w))


def test_criterion_4_holevo_chain_random_probes():
    rng = np.random.default_rng(2026)
    worst = np.inf
    for _ in range(20):
        amps = rng.normal(size=31) + 1j * rng.normal(size=31)
        probe = ProbeSpec(amps / np.linalg.norm(amps))
        for eta in (0.3, 0.5, 0.8):
            kern = binomial_loss_matrix(probe.cutoff, eta)
            decomp = chi_decompose(probe, eta)
            chi = holevo_quantity(decomp, UNIFORM)
            h_l = shannon_entropy(decomp.weights)
            joint = probe.probabilities[:, None] * kern
            h_nl = float(-np.sum(joint[joint > 0.0]
                                 * np.log(joint[joint > 0.0])))
            s_deph = von_neumann_entropy(
                phase_randomize(average_state(decomp, UNIFORM)))
            chain = s_deph - h_l
            cap = capacity_upper_bound_lossy(probe.mean_photons, eta)
            margins = (chain - chi + 1e-8, cap - chain + 1e-8,
                       1e-8 - abs(s_deph - h_nl))
            worst = min(worst, *margins)
            assert chi <= chain + 1e-8
            assert chain <= cap + 1e-8
            assert abs(s_deph - h_nl) <= 1e-8
    report(4, "holevo-chain-random-probes", worst)


def test_criterion_5_entropy_gain_floor():
    rng = np.random.default_rng(514)
    worst = np.inf
    for _ in range(200):
        p = rng.random(int(rng.integers(2, 42)))
        p /= p.sum()
        for eta in (0.05, 0.25, 0.5, 0.75, 0.95):
            margin = entropy_gain(p, eta) - math.log(1.0 - eta) + 1e-9
            worst = min(worst, margin)
            assert margin >= 0.0
    report(5, "entropy-gain-floor", worst)


def test_criterion_6_simulation_dominates_bounds():
    probes = (ProbeSpec.coherent(1.0),
              ProbeSpec.flat_superposition(4),
              ProbeSpec(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    grid = SimGrid(4096, 4096)
    q = UNIFORM.entropy_power()
    worst = np.inf
    for probe in probes:
        for eta in (1.0, 0.5):
            sim = bayesian_mmse(chi_decompose(probe, eta), UNIFORM, grid)
            drift = abs(sim.mse - sim.mse_coarse)
            assert drift < 1e-5  # quadrature converged under grid doubling
            if eta == 1.0:
                bound = h_limit_bound(q, probe.mean_photons)
            else:
                bound = lossy_sql_bound(q, probe.mean_photons, eta)
            floor = q * math.exp(-2.0 * sim.mutual_information)
            worst = min(worst, sim.mse - bound + 1e-6,
                        sim.mse - floor + 1e-6, 1e-5 - drift)
            assert sim.mse >= bound - 1e-6
            assert sim.mse >= floor - 1e-6
    report(6, "simulation-dominates-bounds", worst)


def test_criterion_7_rate_distortion_curve():
    # binary equiprobable source, Hamming distortion: R(D) = ln2 - h_b(D)
    d01 = 0.1
    point = rd.blahut_arimoto_point(
        np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]),
        slope=math.log(9.0))
    expected = math.log(2.0) + d01 * math.log(d01) \
        + (1.0 - d01) * math.log(1.0 - d01)
    assert abs(point.distortion - d01) <= 1e-6
    assert abs(point.rate - expected) <= 1e-6
    worst = 1e-6 - abs(point.rate - expected)

    # uniform phase source on 512 cells: the swept curve must dominate
    # the Shannon lower bound at every probed distortion
    grid_size = 512
    _, masses = rd.discretize_prior(UNIFORM, grid_size)
    q = rd.discrete_entropy_power(masses, TWO_PI / grid_size)
    dmat = rd.grid_distortion(grid_size)
    warm = None
    for target in (0.05, 0.1, 0.5, 1.0):
        s = 1.0 / (2.0 * target)  # slope of the Shannon bound at D
        for _ in range(6):
            point = rd.blahut_arimoto_point(masses, dmat, s,
                                            init_marginal=warm)
            warm = point.output_marginal
            if abs(point.distortion / target - 1.0) <= 0.01:
                break
            s += (point.distortion - target) / (2.0 * point.distortion ** 2)
            s = max(s, 0.0)
        assert abs(point.distortion / target - 1.0) <= 0.01
        margin = point.rate - rd.shannon_lb_rate(q, point.distortion) + 0.05
        worst = min(worst, margin)
        assert margin >= 0.0
    report(7, "rate-curve-dominance", worst)


def test_criterion_8_degenerate_scenarios():
    grid = SimGrid(2 ** 15, 256)
    prior_var = UNIFORM.variance()
    vacuum = bayesian_mmse(chi_decompose(ProbeSpec.number(0), 1.0), UNIFORM,
                           grid)
    dark = bayesian_mmse(chi_decompose(ProbeSpec.flat_superposition(4), 0.0),
                         UNIFORM, grid)
    err_v = abs(vacuum.mse - prior_var)
    err_d = abs(dark.mse - prior_var)
    assert err_v <= 1e-8
    assert err_d <= 1e-8

    point_mass = PhasePrior.uniform(center=1.0, width=1e-8)
    chi = holevo_quantity(chi_decompose(ProbeSpec.flat_superposition(4), 0.6),
                          point_mass)
    assert abs(chi) <= 1e-9
    report(8, "degenerate-scenarios", 1e-8 - max(err_v, err_d))


def test_criterion_9_deterministic_cli(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "probes": [{"family": "flat-superposition", "d": 4}],
        "eta": [1.0, 0.5],
        "grid": {"phi_points": 256, "theta_points": 256},
        "rd": {"grid_size": 16, "slopes": [0.0, 0.25]},
        "samples": 10000,
    }))
    outs = []
    for run in range(2):
        out = tmp_path / f"verify{run}.txt"
        assert main(["verify", "--config", str(cfg),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    for run in range(2):
        out = tmp_path / f"bounds{run}.csv"
        assert main(["bounds", "--config", str(cfg),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[2] == outs[3]
    report(9, "deterministic-cli", np.inf)
