import math

import numpy as np
import pytest
from scipy.special import xlogy

from phasebound import estimation
from phasebound.errors import NumericalError, ValidationError
from phasebound.estimation import SimGrid, bayesian_mmse, monte_carlo_mse
from phasebound.fock import ProbeSpec, chi_decompose, holevo_quantity
from phasebound.priors import PhasePrior

from fock_states import modulated_state

TWO_PI = 2.0 * math.pi
PI2_3 = math.pi**2 / 3.0

# independent midpoint-rule oracle values, uniform prior (grid error ~1e-7)
MSE_FLAT4_LOSSLESS = 2.025979005140247
MSE_FLAT4_HALF = 2.477681279036161
MSE_COH1_LOSSLESS = 1.962168263152186
MSE_COH1_HALF = 2.484989113787669
# two-level probe closed form pi^2/3 - V^2/2 with V = 2|rho_S[1,0]|
MSE_01_LOSSLESS = 2.789868133696453
MSE_01_HALF = 3.039868133696453

# measurement information, uniform prior
I_FLAT4_HALF = 0.44147971430722643
I_FLAT4_LOSSLESS = 0.7803723055467748
I_COH1_HALF = 0.43448225622389125
I_COH1_LOSSLESS = 0.7637224384135617
I_01_HALF = 0.1345460349930776

PROBE_01 = ProbeSpec([2.0**-0.5, 2.0**-0.5])
UNIFORM = PhasePrior.uniform()


def reduced_signal(state):
    """Trace out the loss record: the blocks summed into the top-left
    corner of a plain (m_max+1)^2 array."""
    dim = max(b.shape[0] for b in state.blocks)
    out = np.zeros((dim, dim), dtype=complex)
    for b in state.blocks:
        out[:b.shape[0], :b.shape[0]] += b
    return out


def canonical_phase_density(signal_matrix, theta):
    """Direct-sum reference for estimation._window: the canonical-POVM
    outcome density (1/2pi)(C_0 + 2 Re sum_d C_d e^{-i d theta}),
    C_d = sum_m rho[m+d, m], one complex exponential per coefficient.

    Accepts a scalar or array theta; negative dips beyond 1e-10 mean the
    input was not a state and raise, smaller ones are clipped.
    """
    rho = np.asarray(signal_matrix, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("signal matrix must be square")
    diags = np.array([np.trace(rho, offset=-d) for d in range(rho.shape[0])])
    theta = np.asarray(theta, dtype=float)
    vals = np.full(theta.shape, diags[0].real)
    for d in range(1, diags.size):
        if diags[d] != 0.0:
            vals += 2.0 * (diags[d] * np.exp(-1j * d * theta)).real
    vals /= TWO_PI
    if vals.min() < -1e-10:
        raise NumericalError(
            f"outcome density dips to {vals.min()}; not a valid state")
    return np.clip(vals, 0.0, None)


def test_sim_grid_validation():
    grid = SimGrid()
    assert grid.phi_points == 2048 and grid.theta_points == 2048
    SimGrid(128, 256)
    with pytest.raises(ValidationError):
        SimGrid(100, 512)
    with pytest.raises(ValidationError):
        SimGrid(2048, 200)
    with pytest.raises(ValidationError):
        SimGrid(1536, 2048)   # not a power of two
    with pytest.raises(ValidationError):
        SimGrid(2 ** 23, 256)  # past the lattice cap, before any allocation


def test_modulated_state_signal_blocks():
    state = modulated_state(chi_decompose(PROBE_01, 1.0), math.pi)
    assert [b.shape for b in state.blocks] == [(2, 2)]
    red = reduced_signal(state)
    assert abs(red[1, 0] - (-0.5)) < 1e-14

    half = chi_decompose(PROBE_01, 0.5)
    assert half.loss_counts == [0, 1]
    state = modulated_state(half, 0.0)
    assert [b.shape for b in state.blocks] == [(2, 2), (1, 1)]
    red = reduced_signal(state)
    # surviving coherence scales by sqrt(eta)
    assert abs(red[0, 1] - 0.5 * math.sqrt(0.5)) < 1e-14
    assert abs(np.trace(red).real - 1.0) < 1e-12

    with pytest.raises(ValidationError):
        chi_decompose(PROBE_01, 1.5)


def test_canonical_density_two_level():
    red = reduced_signal(modulated_state(chi_decompose(PROBE_01, 1.0), 0.0))
    theta = np.linspace(0.0, TWO_PI, 97, endpoint=False)
    dens = canonical_phase_density(red, theta)
    assert np.abs(dens - (1.0 + np.cos(theta)) / TWO_PI).max() < 1e-12


def test_canonical_density_number_state_is_flat():
    red = reduced_signal(modulated_state(chi_decompose(ProbeSpec.number(3),
                                                       0.7), 1.1))
    theta = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    dens = canonical_phase_density(red, theta)
    assert np.abs(dens - 1.0 / TWO_PI).max() < 1e-13


def test_canonical_density_normalizes():
    rng = np.random.default_rng(2)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    probe = ProbeSpec(c / np.linalg.norm(c))
    red = reduced_signal(modulated_state(chi_decompose(probe, 0.6), 0.4))
    theta = np.arange(4096) * (TWO_PI / 4096)
    dens = canonical_phase_density(red, theta)
    assert abs(dens.sum() * (TWO_PI / 4096) - 1.0) < 1e-10

    # coherence beyond what positivity allows makes the density dip negative
    with pytest.raises(NumericalError):
        canonical_phase_density(np.array([[0.5, 0.6], [0.6, 0.5]]), theta)
    with pytest.raises(ValidationError):
        canonical_phase_density(np.ones((2, 3)), theta)


@pytest.mark.parametrize("lattice", [128, 256, 2 ** 15])
def test_window_matches_direct_sum(lattice):
    # cutoffs 14, 60 and 128; a 128 lattice folds every coefficient past
    # 64 onto a lower frequency, and 256 holds cutoff 128 at Nyquist. The
    # lossless (|0> + |128>)/sqrt2 puts half its window in C_128.
    edge = np.zeros(129)
    edge[[0, 128]] = 2.0 ** -0.5
    for probe, eta in [(ProbeSpec.coherent(1.0), 0.6),
                       (ProbeSpec.binomial_phase(61), 0.6),
                       (ProbeSpec.coherent(8.0), 0.6),
                       (ProbeSpec(edge), 1.0)]:
        decomp = chi_decompose(probe, eta)
        g = estimation._window(decomp, lattice)
        ref = canonical_phase_density(
            reduced_signal(modulated_state(decomp, 0.0)),
            np.arange(lattice) * (TWO_PI / lattice))
        # the direct sum rounds each phase d * theta, up to 2 pi cutoff,
        # to within its ulp
        tol = TWO_PI * (probe.cutoff + 1) * np.finfo(float).eps * ref.max()
        assert np.abs(g - ref).max() <= tol, (probe, lattice)


def test_mmse_two_level_closed_form():
    res = bayesian_mmse(chi_decompose(PROBE_01, 1.0), UNIFORM)
    assert abs(res.mse - MSE_01_LOSSLESS) < 1e-5
    assert res.converged
    res = bayesian_mmse(chi_decompose(PROBE_01, 0.5), UNIFORM)
    assert abs(res.mse - MSE_01_HALF) < 1e-5


def test_mmse_matches_oracle_values():
    cases = [(ProbeSpec.flat_superposition(4), 1.0, MSE_FLAT4_LOSSLESS),
             (ProbeSpec.flat_superposition(4), 0.5, MSE_FLAT4_HALF),
             (ProbeSpec.coherent(1.0), 1.0, MSE_COH1_LOSSLESS),
             (ProbeSpec.coherent(1.0), 0.5, MSE_COH1_HALF)]
    for probe, eta, expected in cases:
        res = bayesian_mmse(chi_decompose(probe, eta), UNIFORM)
        assert abs(res.mse - expected) < 1e-5, (probe, eta)
        assert abs(res.mse - res.mse_coarse) < 1e-4


def test_mmse_vacuum_recovers_prior_variance():
    grid = SimGrid(2**15, 256)
    res = bayesian_mmse(chi_decompose(ProbeSpec([1.0]), 1.0), UNIFORM, grid)
    assert abs(res.mse - PI2_3) < 1e-8
    # a dark channel erases any probe the same way
    res = bayesian_mmse(chi_decompose(ProbeSpec.flat_superposition(4), 0.0),
                        UNIFORM, grid)
    assert abs(res.mse - PI2_3) < 1e-8


def test_mmse_monotone_in_transmittance():
    probe = ProbeSpec.flat_superposition(4)
    vals = [bayesian_mmse(chi_decompose(probe, eta), UNIFORM).mse
            for eta in [0.0, 0.25, 0.5, 0.75, 1.0]]
    assert np.all(np.diff(vals) < 1e-9)
    assert max(vals) <= PI2_3 + 1e-9


def test_mmse_narrow_prior_helps():
    probe = ProbeSpec.flat_superposition(4)
    narrow = PhasePrior.wrapped_gaussian(math.pi, 0.4)
    res_n = bayesian_mmse(chi_decompose(probe, 0.5), narrow)
    res_u = bayesian_mmse(chi_decompose(probe, 0.5), UNIFORM)
    assert res_n.mse < res_u.mse
    assert res_n.mse <= narrow.variance() + 1e-6


def test_measurement_information_values():
    cases = [(ProbeSpec.flat_superposition(4), 0.5, I_FLAT4_HALF),
             (ProbeSpec.flat_superposition(4), 1.0, I_FLAT4_LOSSLESS),
             (ProbeSpec.coherent(1.0), 0.5, I_COH1_HALF),
             (ProbeSpec.coherent(1.0), 1.0, I_COH1_LOSSLESS),
             (PROBE_01, 0.5, I_01_HALF)]
    for probe, eta, expected in cases:
        info = bayesian_mmse(chi_decompose(probe, eta),
                             UNIFORM).mutual_information
        assert abs(info - expected) < 1e-4, (probe, eta)


def test_information_never_beats_holevo():
    for probe in [ProbeSpec.flat_superposition(4), ProbeSpec.coherent(1.0),
                  PROBE_01]:
        for eta in [0.5, 1.0]:
            decomp = chi_decompose(probe, eta)
            info = bayesian_mmse(decomp, UNIFORM).mutual_information
            chi = holevo_quantity(decomp, UNIFORM)
            assert info <= chi + 1e-6, (probe, eta)


def test_mse_respects_information_converse():
    q = TWO_PI / math.e
    for probe in [ProbeSpec.flat_superposition(4), ProbeSpec.coherent(1.0),
                  PROBE_01]:
        for eta in [0.5, 1.0]:
            res = bayesian_mmse(chi_decompose(probe, eta), UNIFORM)
            floor = q * math.exp(-2.0 * res.mutual_information)
            assert res.mse >= floor - 1e-6, (probe, eta)


def test_monte_carlo_agrees_and_is_deterministic():
    probe = ProbeSpec.flat_superposition(4)
    res = bayesian_mmse(chi_decompose(probe, 0.5), UNIFORM)
    mc = monte_carlo_mse(res, samples=200000, seed=11)
    assert abs(mc.mean - res.mse) <= 3.0 * mc.stderr
    again = monte_carlo_mse(res, samples=200000, seed=11)
    assert mc.mean == again.mean and mc.stderr == again.stderr
    other = monte_carlo_mse(res, samples=200000, seed=12)
    assert other.mean != mc.mean

    with pytest.raises(ValidationError):
        monte_carlo_mse(res, samples=100)


def searchsorted_draw(p, u):
    """Reference for estimation._GuideTable.draw: a binary search per draw."""
    return np.searchsorted(np.cumsum(p), u)


def oracle_monte_carlo(sim, samples, seed):
    """Reference for monte_carlo_mse: searchsorted draws, % and // maths."""
    g_phi, g_theta = sim.grid.phi_points, sim.grid.theta_points
    lattice = max(g_phi, g_theta)
    rng = np.random.default_rng(seed)
    w = sim.masses
    i = np.minimum(searchsorted_draw(w, rng.random(samples)), w.size - 1)
    gh = sim.window / sim.window.sum()
    j = np.minimum(searchsorted_draw(gh, rng.random(samples)), gh.size - 1)
    t_lat = (i * (lattice // g_phi) + j) % lattice
    step = lattice // g_theta
    t = ((t_lat + step // 2) // step) % g_theta
    errs = (i * (TWO_PI / g_phi) - sim.estimator[t]) ** 2
    return errs.mean(), errs.std(ddof=1) / math.sqrt(samples)


def test_inverse_cdf_matches_searchsorted():
    rng = np.random.default_rng(1)
    tips = 0
    for n in (2, 128, 1000, 2048, 2 ** 15):
        b = 1 << (n - 1).bit_length()
        x = np.arange(n)
        point = np.zeros(n)
        point[n // 3] = 1.0
        for p in (rng.random(n), rng.random(n) ** 40,
                  np.exp(-0.5 * ((x - n / 3) / (0.002 * n + 0.3)) ** 2),
                  point, np.ones(n)):
            p = p / p.sum()
            cdf = np.cumsum(p)
            # bucket edges, exact cdf values and the floats just below
            # them, the float just below 1, and plain draws
            u = np.concatenate([np.arange(b) / b, cdf, np.nextafter(cdf, 0.0),
                                [np.nextafter(1.0, 0.0)], rng.random(5000)])
            u = u[(u >= 0.0) & (u < 1.0)]
            got = estimation._GuideTable(p).draw(u)
            ref = searchsorted_draw(p, u)
            assert np.array_equal(got, ref), (n, p[:4])
            tips += int((got == n).any())   # the tip rounded below 1
    assert tips > 0


@pytest.mark.parametrize("grid,prior", [
    (SimGrid(2048, 2048), UNIFORM),
    (SimGrid(2 ** 15, 256), UNIFORM),
    (SimGrid(128, 2048), UNIFORM),
    (SimGrid(512, 512), PhasePrior.wrapped_gaussian(1.0, 0.05))])
def test_monte_carlo_matches_searchsorted_oracle(grid, prior):
    res = bayesian_mmse(chi_decompose(ProbeSpec.flat_superposition(4), 0.5),
                        prior, grid)
    if prior.kind == "wrapped_gaussian":
        # the narrow prior's tails pack many cells into one bucket, so
        # the draws there climb their wide bucket
        cdf = np.cumsum(res.masses)
        first = np.searchsorted(cdf, np.arange(513) / 512)
        assert np.diff(first).max() > 1
    mc = monte_carlo_mse(res, samples=100000, seed=4)
    assert (mc.mean, mc.stderr) == oracle_monte_carlo(res, 100000, 4)


def test_monte_carlo_rejects_bad_sample_counts(monkeypatch):
    res = bayesian_mmse(chi_decompose(PROBE_01, 1.0), UNIFORM,
                        SimGrid(256, 256))

    def no_draw(*args):
        raise AssertionError("monte_carlo_mse drew before validating")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for samples in (estimation.SAMPLES_CAP + 1, 1e5, True):
        with pytest.raises(ValidationError):
            monte_carlo_mse(res, samples=samples)


def test_monte_carlo_draws_from_the_result(monkeypatch):
    # the draw reuses the joint the MMSE run built; no grid is evaluated
    res = bayesian_mmse(chi_decompose(ProbeSpec.flat_superposition(4), 0.5),
                        UNIFORM, SimGrid(512, 512))

    def no_core(*args):
        raise AssertionError("monte_carlo_mse evaluated a grid")

    monkeypatch.setattr(estimation, "_core", no_core)
    monkeypatch.setattr(estimation, "_window", no_core)
    mc = monte_carlo_mse(res, samples=20000, seed=5)
    assert abs(mc.mean - res.mse) <= 4.0 * mc.stderr


def test_prior_part_is_read_only():
    # every scenario on one (prior, grid) shares these arrays
    res = bayesian_mmse(chi_decompose(PROBE_01, 0.5), UNIFORM,
                        SimGrid(512, 256))
    part = estimation._prior_part(UNIFORM, 512, 512)
    assert res.masses is part.masses and res.masses_table is part.table
    for arr in (part.masses, part.spectra, part.table.first,
                part.table.wide, part.table.cdf):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_monte_carlo_builds_no_prior_work(monkeypatch):
    # the masses' guide table comes with the result; only the window's
    # table is built per draw
    res = bayesian_mmse(chi_decompose(PROBE_01, 0.5), UNIFORM,
                        SimGrid(256, 256))

    def no_prior(*args):
        raise AssertionError("monte_carlo_mse rebuilt the prior part")

    monkeypatch.setattr(estimation, "_prior_part", no_prior)
    monkeypatch.setattr(estimation, "discretize_prior", no_prior)
    mc = monte_carlo_mse(res, samples=10000, seed=1)
    assert (mc.mean, mc.stderr) == oracle_monte_carlo(res, 10000, 1)


def test_equal_priors_give_identical_results():
    # the cache is keyed by the prior object; a twin prior builds its own
    # entry with the same bits
    decomp = chi_decompose(ProbeSpec.coherent(1.0), 0.6)
    grid = SimGrid(1024, 256)
    results = [bayesian_mmse(decomp, PhasePrior.wrapped_gaussian(1.0, 0.5),
                             grid) for _ in range(2)]
    a, b = results
    assert (a.mse, a.mse_coarse, a.mutual_information, a.converged) == \
        (b.mse, b.mse_coarse, b.mutual_information, b.converged)
    for name in ("estimator", "window", "masses"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    mc_a, mc_b = (monte_carlo_mse(r, samples=20000, seed=2) for r in results)
    assert (mc_a.mean, mc_a.stderr) == (mc_b.mean, mc_b.stderr)


def test_unequal_grids_consistent():
    probe = ProbeSpec.flat_superposition(4)
    decomp = chi_decompose(probe, 0.5)
    base = bayesian_mmse(decomp, UNIFORM).mse
    coarse_phi = bayesian_mmse(decomp, UNIFORM, SimGrid(128, 2048))
    assert abs(coarse_phi.mse - base) < 1e-3
    coarse_theta = bayesian_mmse(decomp, UNIFORM, SimGrid(2048, 256))
    assert abs(coarse_theta.mse - base) < 5e-3
    # smoke the snapped monte carlo path
    mc = monte_carlo_mse(coarse_theta, samples=20000, seed=3)
    assert abs(mc.mean - coarse_theta.mse) < 0.05


def dense_core(probe, eta, prior, g_phi, g_theta):
    """Reference for estimation._core: the dense g_theta x g_phi joint.

    Returns (mse, info, estimator, p_theta). The window is read off the
    reduced signal matrix, not from the loss-branch autocorrelations.
    """
    lattice = max(g_phi, g_theta)
    g = canonical_phase_density(
        reduced_signal(modulated_state(chi_decompose(probe, eta), 0.0)),
        np.arange(lattice) * (TWO_PI / lattice))
    w = prior.grid_density(g_phi) * (TWO_PI / g_phi)
    w = w / w.sum()
    phi = np.arange(g_phi) * (TWO_PI / g_phi)
    # every theta_t - phi_i difference is a lattice point by construction
    idx = (np.arange(g_theta)[:, None] * (lattice // g_theta)
           - np.arange(g_phi)[None, :] * (lattice // g_phi)) % lattice
    joint = g[idx] * w[None, :] * (TWO_PI / g_theta)
    joint /= joint.sum()
    p_theta = joint.sum(axis=1)
    est = np.full(g_theta, w @ phi)
    seen = p_theta > 0.0
    est[seen] = (joint[seen] @ phi) / p_theta[seen]
    mse = float(np.einsum("ti,ti->", joint,
                          (phi[None, :] - est[:, None]) ** 2))
    info = float(xlogy(joint, joint).sum() - xlogy(p_theta, p_theta).sum()
                 - xlogy(w, w).sum())
    return mse, max(info, 0.0), est, p_theta


@pytest.mark.parametrize("g_phi,g_theta", [(256, 256), (1024, 256),
                                           (256, 1024)])
def test_convolution_core_matches_dense_oracle(g_phi, g_theta):
    priors = [UNIFORM, PhasePrior.uniform(center=1.0, width=0.5),
              PhasePrior.wrapped_gaussian(math.pi, 0.4)]
    rng = np.random.default_rng(5)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    # PROBE_01's window 1 + cos(u) has an exact zero on the lattice
    probes = [PROBE_01, ProbeSpec.flat_superposition(4),
              ProbeSpec.coherent(1.0), ProbeSpec(c / np.linalg.norm(c))]
    for prior in priors:
        for probe in probes:
            for eta in [1.0, 0.5, 0.0]:
                g = estimation._window(chi_decompose(probe, eta),
                                       max(g_phi, g_theta))
                mse, info, est = estimation._core(g, prior, g_phi,
                                                  g_theta)[:3]
                ref_mse, ref_info, ref_est, p_theta = dense_core(
                    probe, eta, prior, g_phi, g_theta)
                case = (prior.kind, probe, eta)
                assert abs(mse - ref_mse) <= 1e-11 * ref_mse, case
                assert abs(info - ref_info) <= 1e-11, case
                seen = p_theta > 0.0
                assert np.abs(est - ref_est)[seen].max() <= 1e-11, case


@pytest.mark.parametrize("grid", [SimGrid(256, 256), SimGrid(2048, 256),
                                  SimGrid(128, 1024)])
def test_half_grid_reads_the_even_window_points(grid):
    # the half lattice is L/2, so the rerun on g[::2] must match a rerun
    # on a window built afresh at L/2. Only a window the half lattice
    # under-resolves (coherent alpha=8, cutoff 128, on 128 points) tells
    # the even points from the odd ones at this tolerance.
    half = max(grid.phi_points, grid.theta_points) // 2
    rng = np.random.default_rng(8)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    probes = [ProbeSpec.coherent(8.0), ProbeSpec(c / np.linalg.norm(c)),
              ProbeSpec.binomial_phase(61)]
    for prior in [UNIFORM, PhasePrior.wrapped_gaussian(1.0, 0.5)]:
        for probe in probes:
            for eta in [1.0, 0.6]:
                decomp = chi_decompose(probe, eta)
                res = bayesian_mmse(decomp, prior, grid)
                ref = estimation._core(estimation._window(decomp, half), prior,
                                       grid.phi_points // 2,
                                       grid.theta_points // 2)[0]
                assert abs(res.mse_coarse - ref) <= 1e-12 * ref, \
                    (prior.kind, probe, eta)
