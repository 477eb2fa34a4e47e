import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import xlogy

from phasebound import estimation
from phasebound.errors import NumericalError, ValidationError
from phasebound.estimation import SimGrid, bayesian_mmse, monte_carlo_mse
from phasebound.fock import ProbeSpec, chi_decompose, holevo_quantity
from phasebound.priors import PhasePrior

from fock_states import folded_window, modulated_state

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
    assert SimGrid(np.int64(256), np.int32(512)).theta_points == 512
    for bad in (256.0, "256", True, None):
        with pytest.raises(ValidationError, match="phi_points"):
            SimGrid(bad, 256)
        with pytest.raises(ValidationError, match="theta_points"):
            SimGrid(256, bad)


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


def window(decomp, lattice):
    """_window where its precondition lattice >= 2 * cutoff holds, the
    folded_window oracle below it."""
    if lattice < 2 * decomp.probe.cutoff:
        return folded_window(decomp, lattice)
    return estimation._window(decomp, lattice)


@pytest.mark.parametrize("lattice", [128, 256, 2 ** 15])
def test_window_matches_direct_sum(lattice):
    # cutoffs 14, 60 and 128; a 128 lattice folds every coefficient past
    # 64 onto a lower frequency (the folded_window oracle at cutoff 128),
    # and 256 holds cutoff 128 at Nyquist. The lossless
    # (|0> + |128>)/sqrt2 puts half its window in C_128.
    edge = np.zeros(129)
    edge[[0, 128]] = 2.0 ** -0.5
    for probe, eta in [(ProbeSpec.coherent(1.0), 0.6),
                       (ProbeSpec.binomial_phase(61), 0.6),
                       (ProbeSpec.coherent(8.0), 0.6),
                       (ProbeSpec(edge), 1.0)]:
        decomp = chi_decompose(probe, eta)
        g = window(decomp, lattice)
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


def closed_form_mse(decomp):
    """The full-circle MMSE of the continuous model, in closed form.

    Under a flat prior the posterior is g(theta - phi), so the estimator
    minus pi is g convolved with the sawtooth phi - pi = sum_{k != 0}
    (i/k) e^{ikphi}; by Parseval MSE = pi^2/3 - 2 sum_d |C_d|^2 / d^2,
    C_d = sum_m rho_S(0)[m+d, m]. Each C_d is a sum of per-row lag
    products of the branch array, apart from _window's Gram view.
    """
    v = decomp.branches
    n = v.shape[1]
    return PI2_3 - 2.0 * sum(
        abs(sum(np.vdot(row[:n - d], row[d:]) for row in v)) ** 2 / d ** 2
        for d in range(1, n))


@pytest.mark.parametrize("grid", [SimGrid(256, 256), SimGrid(1024, 1024),
                                  SimGrid(2 ** 15, 256)])
def test_mmse_matches_the_full_circle_closed_form(grid):
    # the open grid's error is second order in h, so the half grid's is
    # four times the fine one's and the fine value sits drift / 3 below
    # the closed form
    h = TWO_PI / grid.phi_points
    vacuum = ProbeSpec.number(0)
    for probe in [ProbeSpec.coherent(1.0), ProbeSpec.coherent(6.0),
                  ProbeSpec.flat_superposition(4), vacuum,
                  ProbeSpec.binomial_phase(5)]:
        for eta in (1.0, 0.5, 0.0):
            decomp = chi_decompose(probe, eta)
            res = bayesian_mmse(decomp, UNIFORM, grid)
            gap = closed_form_mse(decomp) - res.mse
            third = abs(res.mse - res.mse_coarse) / 3.0
            assert abs(gap - third) <= 0.02 * third + 1e-12, (probe, eta)
            if probe is vacuum:
                # the vacuum's flat window: the open grid lacks h^2 / 12
                assert abs(gap - h * h / 12.0) <= 1e-12, eta


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
    """The unclamped reference for estimation._GuideTable.draw: a binary
    search per draw, which returns p.size where the cdf tip rounds below
    1 and u lies above it; the table draws p.size - 1 there."""
    return np.searchsorted(np.cumsum(p), u)


def oracle_monte_carlo(sim, grid, samples, seed):
    """Reference for monte_carlo_mse: searchsorted draws, % and // maths,
    on the sizes of `grid`, the grid the test built `sim` on."""
    g_phi, g_theta = grid.phi_points, grid.theta_points
    lattice = max(g_phi, g_theta)
    rng = np.random.default_rng(seed)
    w = sim.prior_part.masses
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
    for n, floor in [(2, 1), (128, 1), (1000, 1), (2048, 1), (2 ** 15, 1),
                     (2, 16), (1000, 8192), (2048, 6250)]:
        # a floor above n gives the table more buckets than points
        b = 1 << (max(n, floor) - 1).bit_length()
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
            table = estimation._GuideTable(p, floor)
            assert table.buckets == b
            got = table.draw(u)
            ref = searchsorted_draw(p, u)
            assert np.array_equal(got, np.minimum(ref, n - 1)), \
                (n, floor, p[:4])
            tips += int((ref == n).any())   # the tip rounded below 1
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
        cdf = np.cumsum(res.prior_part.masses)
        first = np.searchsorted(cdf, np.arange(513) / 512)
        assert np.diff(first).max() > 1
    mc = monte_carlo_mse(res, samples=100000, seed=4)
    assert (mc.mean, mc.stderr) == oracle_monte_carlo(res, grid, 100000, 4)


def test_monte_carlo_rejects_bad_sample_counts(monkeypatch):
    res = bayesian_mmse(chi_decompose(PROBE_01, 1.0), UNIFORM,
                        SimGrid(256, 256))

    def no_draw(*args):
        raise AssertionError("monte_carlo_mse drew before validating")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for samples in (estimation.SAMPLES_CAP + 1, 1e5, True):
        with pytest.raises(ValidationError):
            monte_carlo_mse(res, samples=samples)


def test_monte_carlo_takes_a_numpy_integer_count():
    res = bayesian_mmse(chi_decompose(PROBE_01, 0.5), UNIFORM,
                        SimGrid(256, 256))
    lone = monte_carlo_mse(res, samples=20000, seed=4)
    mc = monte_carlo_mse(res, samples=np.int64(20000), seed=4)
    assert (mc.mean, mc.stderr) == (lone.mean, lone.stderr)
    assert type(mc.mean) is float and type(mc.stderr) is float


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
    # every scenario of one bayesian_mmse_all call shares these arrays
    _, part, _ = parts = estimation.prior_parts(UNIFORM, SimGrid(512, 256))
    res, = estimation.bayesian_mmse_all([chi_decompose(PROBE_01, 0.5)], parts)
    assert type(part) is estimation._PriorPart and res.prior_part is part
    for arr in (part.masses, part.spectra, part.table.first,
                part.table.wide, part.table.cdf):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_monte_carlo_builds_no_prior_work(monkeypatch):
    # the masses' guide table is the prior part's, which the result
    # carries; only the window's table is built per draw
    grid = SimGrid(256, 256)
    res = bayesian_mmse(chi_decompose(PROBE_01, 0.5), UNIFORM, grid)

    def no_prior(*args):
        raise AssertionError("monte_carlo_mse rebuilt the prior part")

    monkeypatch.setattr(estimation, "_PriorPart", no_prior)
    monkeypatch.setattr(estimation, "discretize_prior", no_prior)
    mc = monte_carlo_mse(res, samples=10000, seed=1)
    assert (mc.mean, mc.stderr) == oracle_monte_carlo(res, grid, 10000, 1)


def test_equal_priors_give_identical_results():
    # each call builds its own prior part; a twin prior gives the same bits
    decomp = chi_decompose(ProbeSpec.coherent(1.0), 0.6)
    grid = SimGrid(1024, 256)
    results = [bayesian_mmse(decomp, PhasePrior.wrapped_gaussian(1.0, 0.5),
                             grid) for _ in range(2)]
    a, b = results
    assert (a.mse, a.mse_coarse, a.mutual_information, a.converged) == \
        (b.mse, b.mse_coarse, b.mutual_information, b.converged)
    for name in ("estimator", "window"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.prior_part.masses, b.prior_part.masses)
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
                part = estimation._PriorPart(prior, g_phi,
                                             max(g_phi, g_theta))
                mse, info, est = estimation._core(estimation._spectra(g),
                                                  part, g_theta)
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
    # under-resolves (coherent alpha=8, cutoff 128, on 128 points, below
    # _window's precondition, so folded_window builds it) tells the even
    # points from the odd ones at this tolerance.
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
                ref = estimation._core(
                    estimation._spectra(window(decomp, half)),
                    estimation._PriorPart(prior, grid.phi_points // 2, half),
                    grid.theta_points // 2)[0]
                assert abs(res.mse_coarse - ref) <= 1e-12 * ref, \
                    (prior.kind, probe, eta)


@pytest.mark.parametrize("lattice", [256, 2 ** 15])
def test_fold_matches_the_spectra_of_every_step_th_point(lattice):
    # the half grid's spectra and the outcome points' rows both fold the
    # lattice spectra instead of transforming x[::step] again
    rng = np.random.default_rng(lattice)
    x = rng.random((2, lattice))
    x[1] = xlogy(x[0], x[0])
    spec = np.fft.rfft(x)
    step = 1
    while lattice // step >= 128:
        got = estimation._fold(spec, step)
        ref = np.fft.rfft(x[:, ::step])
        assert got.shape == ref.shape, step
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), step
        step *= 2


@pytest.mark.parametrize("g_phi,g_theta", [(1024, 256), (2 ** 15, 256),
                                           (2048, 2048), (2 ** 14, 128),
                                           (256, 128)])
def test_folded_inverse_matches_the_full_transform(g_phi, g_theta,
                                                   monkeypatch):
    # _core inverts only the g_theta outcome bins; the oracle inverts the
    # whole lattice and keeps every (lattice // g_theta)-th point. On the
    # half grids (2^14 x 128, 256 x 128) the cutoff-60 and cutoff-128
    # windows reach past the 64 bins that 128 outcome points hold, so
    # their spectra fold onto them from both ends, and on a 256 lattice
    # (|0> + |128>)/sqrt2 puts half its window in the Nyquist bin.
    marginals = []

    def full_fold(spec, step):
        rows = np.fft.irfft(spec, n=2 * (spec.shape[1] - 1))[:, ::step]
        marginals.append(rows[0])
        return np.fft.rfft(rows)

    lattice = max(g_phi, g_theta)
    edge = np.zeros(129)
    edge[[0, 128]] = 2.0 ** -0.5
    for prior in [UNIFORM, PhasePrior.wrapped_gaussian(1.0, 0.5),
                  PhasePrior.uniform(center=3.0, width=1.0)]:
        part = estimation._PriorPart(prior, g_phi, lattice)
        for probe, eta in [(ProbeSpec.binomial_phase(5), 0.7),
                           (ProbeSpec.coherent(1.0), 0.5),
                           (ProbeSpec.coherent(8.0), 1.0),
                           (ProbeSpec.binomial_phase(61), 0.9),
                           (ProbeSpec(edge), 1.0)]:
            spec = estimation._spectra(
                estimation._window(chi_decompose(probe, eta), lattice))
            mse, info, est = estimation._core(spec, part, g_theta)
            with monkeypatch.context() as m:
                m.setattr(estimation, "_fold", full_fold)
                ref_mse, ref_info, ref_est = estimation._core(spec, part,
                                                              g_theta)
            case = (prior.kind, probe, eta)
            assert abs(mse - ref_mse) <= 1e-13 * ref_mse, case
            assert abs(info - ref_info) <= 1e-13 * max(ref_info, 1.0), case
            # the posterior mean m1 / p inherits the rows' rounding over p:
            # where the marginal is tiny (coherent alpha=8 against a
            # narrow prior) both sides are a ratio of noise, and the MSE
            # weighs it by p, so compare p * est
            p = marginals.pop()
            assert (np.abs(est - ref_est) * p).max() <= \
                1e-13 * np.abs(ref_est).max() * p.max(), case


@pytest.mark.parametrize("probe,eta,grid", [
    (ProbeSpec.coherent(1.0), 0.5, SimGrid(2048, 2048)),
    (ProbeSpec.binomial_phase(5), 0.7, SimGrid(2 ** 15, 256))])
def test_monte_carlo_matches_the_oracle_on_workload_windows(probe, eta, grid):
    # two windows of the simulate workload whose guide tables keep
    # buckets wider than one cdf step, so the draws climb them
    res = bayesian_mmse(chi_decompose(probe, eta), UNIFORM, grid)
    table = estimation._GuideTable(res.window / res.window.sum(),
                                   100000 // 16)
    assert table.strides
    for seed in range(3):
        mc = monte_carlo_mse(res, samples=100000, seed=seed)
        assert (mc.mean, mc.stderr) == \
            oracle_monte_carlo(res, grid, 100000, seed)


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grid", [SimGrid(2048, 2048), SimGrid(2 ** 15, 256)])
def test_monte_carlo_peaks_below_36_bytes_per_draw(grid):
    # at the outcome draw the uniforms, the phase indices and the outcome
    # indices (8 B each) meet one cdf probe and its comparison (8 + 1):
    # 33 B, read as ~34 with the window's table and the wide buckets'
    # climb. One more index array per draw reads above 40 B. The 2 B of
    # margin covers numpy versions (CI runs numpy 1.24 too) whose small
    # temporaries differ; every large step is an out= or a take, alike
    # in both
    res = bayesian_mmse(chi_decompose(ProbeSpec.binomial_phase(5), 0.7),
                        UNIFORM, grid)
    res.prior_part.table   # built before the draws, as `simulate` does
    samples = 10 ** 6
    peak = traced_peak(monte_carlo_mse, res, samples, 3)
    assert peak <= 36 * samples, peak / samples


def _odd_point_prior(g_phi):
    # all the mass on phase point 3 of g_phi: the half grid holds none
    return PhasePrior.uniform(center=TWO_PI * 3 / g_phi, width=0.03 / g_phi)


@pytest.mark.parametrize("grid", [SimGrid(256, 256), SimGrid(1024, 256),
                                  SimGrid(256, 1024), SimGrid(2 ** 15, 256)])
def test_stacked_runs_match_lone_runs_bit_for_bit(grid):
    # every result of one stacked pass (chunked at 2^15 x 256) equals the
    # lone run of its decomposition: same floats, flags and arrays
    tab = 1.0 + 0.5 * np.cos(np.arange(64) * (TWO_PI / 64))
    priors = [UNIFORM, PhasePrior.uniform(center=3.0, width=1.0),
              PhasePrior.wrapped_gaussian(1.0, 0.5),
              PhasePrior.tabulated(tab / (tab.sum() * TWO_PI / 64)),
              _odd_point_prior(grid.phi_points)]
    rng = np.random.default_rng(11)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    # cutoffs 1, 3, 8, ~9 and 61
    probes = [PROBE_01, ProbeSpec.flat_superposition(4),
              ProbeSpec(c / np.linalg.norm(c)), ProbeSpec.coherent(1.0),
              ProbeSpec.binomial_phase(61)]
    decomps = [chi_decompose(p, eta) for p in probes for eta in (0.0, 0.3, 1.0)]
    for prior in priors:
        stacked = estimation.bayesian_mmse_all(
            decomps, estimation.prior_parts(prior, grid))
        assert len(stacked) == len(decomps)
        for decomp, got in zip(decomps, stacked):
            ref = bayesian_mmse(decomp, prior, grid)
            case = (prior.kind, decomp.probe, decomp.eta)
            assert repr((got.mse, got.mse_coarse, got.mutual_information,
                         got.converged)) == \
                repr((ref.mse, ref.mse_coarse, ref.mutual_information,
                      ref.converged)), case
            for name in ("mse", "mse_coarse", "mutual_information"):
                assert type(getattr(got, name)) is float, (name, case)
            for name in ("estimator", "window"):
                assert getattr(got, name).tobytes() == \
                    getattr(ref, name).tobytes(), (name, case)
            if prior is priors[-1]:
                assert math.isnan(got.mse_coarse) and not got.converged


@pytest.mark.parametrize("grid,passes", [
    (SimGrid(256, 256), 1),
    (SimGrid(estimation.STACK_POINTS // 2, 256), 3),
    (SimGrid(estimation.STACK_POINTS, 256), 5),
    (SimGrid(256, 2 * estimation.STACK_POINTS), 5)])
def test_stacked_passes_hold_at_most_the_cap(grid, passes, monkeypatch):
    # five scenarios: one pass on a small grid, one scenario per pass at or
    # above the cap; each pass runs one fine and one half-grid core
    sizes = []
    real = estimation._core

    def counted(spec, part, g_theta):
        sizes.append(spec.shape[0] * 2 * (spec.shape[-1] - 1))
        return real(spec, part, g_theta)

    monkeypatch.setattr(estimation, "_core", counted)
    decomps = [chi_decompose(ProbeSpec.coherent(1.0), eta)
               for eta in (0.0, 0.25, 0.5, 0.75, 1.0)]
    results = estimation.bayesian_mmse_all(
        decomps, estimation.prior_parts(UNIFORM, grid))
    assert len(results) == 5 and len(sizes) == 2 * passes
    assert max(sizes) <= max(estimation.STACK_POINTS,
                             max(grid.phi_points, grid.theta_points))


def test_a_tall_pass_peaks_below_3_mb():
    # 2^15 x 256, the tall simulate shape, runs one scenario per pass:
    # three passes' transients (~2.6 MB with the three windows the
    # results keep) against ~4.2 MB for two scenarios in one pass
    parts = estimation.prior_parts(UNIFORM, SimGrid(2 ** 15, 256))
    decomps = [chi_decompose(ProbeSpec.binomial_phase(5), eta)
               for eta in (1.0, 0.0, 0.7)]
    peak = traced_peak(estimation.bayesian_mmse_all, decomps, parts)
    assert peak <= 3e6, peak
