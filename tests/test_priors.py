"""Tests for the prior families and their information functionals."""

import numpy as np
import pytest

from phasebound.capacity import _xlogy
from phasebound.errors import ValidationError
from phasebound.priors import SIGMA_MAX, SIGMA_MIN, PhasePrior, TWO_PI

# frozen reference values (independent quadrature / closed forms)
LN_2PI = 1.8378770664093453
PI2_OVER_3 = 3.289868133696453
WG_ENTROPY = -1.5767937403493186        # sigma = 0.05: 0.5*ln(2*pi*e*sigma^2)
WG_PEAK = 7.978845608028654             # 1/(sigma*sqrt(2*pi))
VM_ENTROPY = 1.2663212919642859         # von Mises kappa=2, mu=2.0, K=4096
VM_ENTROPY_POWER = 0.7369505521368515
VM_PEAK = 0.5158854120161563
VM_VARIANCE = 0.9025750297020954


def vonmises_values(kappa, mu, k):
    from scipy.special import i0
    phi = np.arange(k) * (TWO_PI / k)
    return np.exp(kappa * np.cos(phi - mu)) / (TWO_PI * i0(kappa))


def sample(prior, rng, size):
    """Draw phases from the prior; deterministic given the rng state."""
    if prior.kind == "uniform":
        c, w = prior.params["center"], prior.params["width"]
        return (c - w / 2.0 + w * rng.random(size)) % TWO_PI
    if prior.kind == "wrapped_gaussian":
        mu, sig = prior.params["mean"], prior.params["sigma"]
        return (mu + sig * rng.standard_normal(size)) % TWO_PI
    # inverse CDF through the piecewise-constant grid density
    values = prior._values
    n = values.size
    edges = np.arange(n + 1) * (TWO_PI / n)
    cdf = np.concatenate([[0.0], np.cumsum(values) * (TWO_PI / n)])
    cdf /= cdf[-1]
    return np.interp(rng.random(size), cdf, edges)


def test_uniform_full_circle():
    p = PhasePrior.uniform()
    assert abs(p.differential_entropy() - LN_2PI) < 1e-15
    assert abs(p.variance() - PI2_OVER_3) < 1e-12
    assert abs(p.mean() - np.pi) < 1e-12
    assert abs(p.max_density() - 1.0 / TWO_PI) < 1e-15
    assert abs(p.entropy_power() - TWO_PI / np.e) < 1e-14
    assert abs(p.normalization() - 1.0) < 1e-12


def test_uniform_window_closed_forms():
    p = PhasePrior.uniform(center=1.0, width=0.5)
    assert abs(p.differential_entropy() - np.log(0.5)) < 1e-15
    assert abs(p.variance() - 0.5**2 / 12.0) < 1e-14
    assert abs(p.mean() - 1.0) < 1e-14
    assert p.max_density() == 2.0


def test_uniform_window_wrapping_through_zero():
    # window [5.9, 2*pi) u [0, 0.6 - (2*pi - 5.9)) has the same width stats
    p = PhasePrior.uniform(center=6.2, width=0.6)
    assert abs(p.normalization() - 1.0) < 1e-12
    # second moment comes from the exact piecewise formula, not quadrature
    phi = np.linspace(0.0, TWO_PI, 200001)[:-1]
    dens = p.density(phi)
    m = np.sum(dens * phi) * (TWO_PI / phi.size)
    v = np.sum(dens * (phi - m) ** 2) * (TWO_PI / phi.size)
    assert abs(p.mean() - m) < 1e-3
    assert abs(p.variance() - v) < 1e-2


def test_uniform_grid_density_matches_the_remainder_form():
    # the grid points lie in [0, 2*pi), so grid_density skips the
    # remainders that density() takes; the window test must keep every bit
    rng = np.random.default_rng(22)
    windows = [(rng.uniform(-20.0, 20.0), rng.uniform(1e-3, TWO_PI))
               for _ in range(2000)]
    # windows that wrap through 0, and the full circle at any centre
    windows += [(rng.uniform(-0.5, 0.5), rng.uniform(1.0, TWO_PI))
                for _ in range(300)]
    windows += [(rng.uniform(-20.0, 20.0), TWO_PI) for _ in range(300)]
    # edges on grid points: phi - start is exactly 0 at the first one
    windows += [(TWO_PI * (j / 16 + m / 32), TWO_PI * m / 16)
                for j in range(16) for m in range(1, 17)]
    wrapped = 0
    for k, (center, width) in enumerate(windows):
        n = (16, 256, 2 ** 15)[k % 3]
        p = PhasePrior.uniform(center, width)
        start = (p.params["center"] - width / 2.0) % TWO_PI
        wrapped += start + width > TWO_PI
        phi = np.arange(n) * (TWO_PI / n)
        expected = np.where((phi % TWO_PI - start) % TWO_PI < width,
                            1.0 / width, 0.0)
        got = p.grid_density(n)
        assert got.tobytes() == expected.tobytes(), (center, width, n)
    assert wrapped > 500


def test_density_wraps_a_tiny_negative_phase_into_the_window():
    # -1e-17 % (2*pi) rounds to 2*pi exactly; the second remainder in
    # density() brings it back inside the full circle
    assert np.array(-1e-17) % TWO_PI == TWO_PI
    assert PhasePrior.uniform().density(np.array([-1e-17])).tolist() == \
        [1.0 / TWO_PI]


def test_uniform_entropy_matches_tabulated_grid():
    # aligned window: edges sit on grid points, so the two agree to fp noise
    k = 4096
    for width_pts in (k, k // 2):
        width = width_pts * (TWO_PI / k)
        start = k // 4
        values = np.zeros(k)
        values[(start + np.arange(width_pts)) % k] = 1.0 / width
        tab = PhasePrior.tabulated(values)
        uni = PhasePrior.uniform(center=(start + width_pts / 2.0) * (TWO_PI / k),
                                 width=width)
        assert abs(tab.differential_entropy() - uni.differential_entropy()) < 1e-8


def test_wrapped_gaussian_narrow():
    p = PhasePrior.wrapped_gaussian(mean=np.pi, sigma=0.05)
    assert abs(p.differential_entropy() - WG_ENTROPY) < 1e-10
    assert abs(p.max_density() - WG_PEAK) < 1e-9
    assert abs(p.variance() - 0.0025) < 1e-10
    assert abs(p.mean() - np.pi) < 1e-10
    assert abs(p.normalization() - 1.0) < 1e-12


def test_wrapped_gaussian_wide_stays_normalized():
    # sigma comparable to the circle: the image sum has to carry the mass
    p = PhasePrior.wrapped_gaussian(mean=1.0, sigma=3.0)
    assert abs(p.normalization() - 1.0) < 1e-10
    # approaches the uniform limit from below
    assert p.differential_entropy() < LN_2PI
    assert p.differential_entropy() > LN_2PI - 0.01


def test_wrapped_gaussian_resolved_widths():
    # the ends of the accepted range keep normalization and entropy power
    # to ~1e-12; at SIGMA_MIN the images do not overlap, so Q = sigma^2,
    # and at SIGMA_MAX the density is the Fourier series 1 + 2 sum_k
    # e^{-k^2 sigma^2 / 2} cos(k (phi - mu)), over 2 pi, to k = 3
    for mean in (0.000767, 1.0, TWO_PI - 1e-3):
        narrow = PhasePrior.wrapped_gaussian(mean, SIGMA_MIN)
        assert abs(narrow.normalization() - 1.0) < 1e-12
        assert abs(narrow.entropy_power() / SIGMA_MIN ** 2 - 1.0) < 1e-12
        wide = PhasePrior.wrapped_gaussian(mean, SIGMA_MAX)
        assert abs(wide.normalization() - 1.0) < 1e-12
        phi = np.arange(4096) * (TWO_PI / 4096)
        k = np.arange(1, 4)[:, None]
        dens = (1.0 + 2.0 * (np.exp(-0.5 * (k * SIGMA_MAX) ** 2)
                             * np.cos(k * (phi - mean))).sum(0)) / TWO_PI
        h = -np.sum(dens * np.log(dens)) * (TWO_PI / 4096)
        q = np.exp(2.0 * h) / (TWO_PI * np.e)
        assert abs(wide.entropy_power() / q - 1.0) < 1e-12
    # narrower: the working grid misses the peak (at sigma 1e-4 its sum
    # gives Q = 0.0585 for a true 1e-8); wider: the +/-5 images lose mass
    for sigma in (np.nextafter(SIGMA_MIN, 0.0), 1e-4,
                  np.nextafter(SIGMA_MAX, np.inf), 6.0, 30.0):
        with pytest.raises(ValidationError, match="sigma in"):
            PhasePrior.wrapped_gaussian(0.000767, sigma)


def quadrature(prior, f, n=4096):
    """Periodic trapezoid sum of f(phi, P(phi)), P evaluated afresh."""
    phi = np.arange(n) * (TWO_PI / n)
    return np.sum(f(phi, prior.density(phi))) * (TWO_PI / n)


def moment_quadrature(prior, f, n=4096):
    """Trapezoid of f(phi) P(phi) on the closed [0, 2*pi], P afresh."""
    phi = np.arange(n) * (TWO_PI / n)
    dens = prior.density(phi)
    vals = f(phi) * dens
    return (TWO_PI / n) * (vals.sum() - 0.5 * (vals[0] - f(TWO_PI) * dens[0]))


@pytest.mark.parametrize("mean, sigma", [(1.0, 0.5), (np.pi, SIGMA_MIN),
                                         (0.000767, 0.05), (6.0, SIGMA_MAX)])
def test_wrapped_gaussian_table_keeps_every_bit(mean, sigma):
    # the table built with the prior against the density at every call
    p = PhasePrior.wrapped_gaussian(mean, sigma)
    h = float(-quadrature(p, lambda phi, dens: _xlogy(dens, dens)))
    assert p.entropy_power() == float(np.exp(2.0 * h) / (TWO_PI * np.e))
    assert p.normalization() == float(quadrature(p, lambda phi, dens: dens))
    m = float(moment_quadrature(p, lambda phi: phi))
    assert p.mean() == m
    assert p.variance() == float(moment_quadrature(
        p, lambda phi: (phi - m) ** 2))


def test_tabulated_von_mises():
    p = PhasePrior.tabulated(vonmises_values(2.0, 2.0, 4096))
    assert abs(p.differential_entropy() - VM_ENTROPY) < 1e-10
    assert abs(p.entropy_power() - VM_ENTROPY_POWER) < 1e-10
    # grid max sits ~half a step from the analytic peak location
    assert abs(p.max_density() - VM_PEAK) < 1e-7
    # moments carry the O(h^2) trapezoid error of the K=4096 table
    assert abs(p.variance() - VM_VARIANCE) < 5e-7


def test_entropy_power_never_exceeds_variance():
    # Gaussian saturation: Q <= Var for every prior on the line
    rng = np.random.default_rng(7)
    priors = [PhasePrior.uniform(center=rng.uniform(0, TWO_PI),
                                 width=rng.uniform(0.3, TWO_PI)) for _ in range(5)]
    priors += [PhasePrior.wrapped_gaussian(rng.uniform(0, TWO_PI), s)
               for s in (0.05, 0.3, 1.0)]
    priors.append(PhasePrior.tabulated(vonmises_values(2.0, 2.0, 4096)))
    for p in priors:
        assert p.entropy_power() <= p.variance() + 1e-12, p


def test_max_density_floor():
    # normalized on a circle of circumference 2*pi: peak >= 1/(2*pi)
    for p in (PhasePrior.uniform(), PhasePrior.wrapped_gaussian(0.3, 2.5),
              PhasePrior.tabulated(vonmises_values(0.5, 1.0, 512))):
        assert p.max_density() >= 1.0 / TWO_PI - 1e-12


def test_fourier_coefficients_uniform():
    p = PhasePrior.uniform(center=1.2, width=np.pi)
    c = p.fourier_coefficients(6)
    assert c[0] == 1.0
    for k in range(1, 7):
        want = np.exp(1j * k * 1.2) * np.sin(k * np.pi / 2) / (k * np.pi / 2)
        assert abs(c[k] - want) < 1e-14
    # full circle: all nonzero modes vanish exactly, whatever the centre
    for center in (np.pi, 0.3):
        c = PhasePrior.uniform(center=center).fourier_coefficients(129)
        assert c[0] == 1.0
        assert np.all(c[1:] == 0)


def test_fourier_coefficients_wrapped_gaussian_vs_quadrature():
    p = PhasePrior.wrapped_gaussian(mean=2.5, sigma=0.7)
    c = p.fourier_coefficients(8)
    n = 1 << 14
    phi = np.arange(n) * (TWO_PI / n)
    dens = p.density(phi)
    for k in range(9):
        quad = np.sum(dens * np.exp(1j * k * phi)) * (TWO_PI / n)
        assert abs(c[k] - quad) < 1e-12


def test_fourier_coefficients_tabulated_matches_analytic():
    p = PhasePrior.tabulated(vonmises_values(2.0, 2.0, 4096))
    c = p.fourier_coefficients(3)
    # von Mises: E[e^{ik phi}] = e^{ik mu} I_k(kappa)/I_0(kappa)
    from scipy.special import iv
    for k in range(4):
        want = np.exp(1j * k * 2.0) * iv(k, 2.0) / iv(0, 2.0)
        assert abs(c[k] - want) < 1e-10


def dense_fourier_coefficients(prior, kmax):
    """Reference for the tabulated branch: one complex exponential per
    (harmonic, grid point) pair, summed as a (kmax+1) x n product."""
    n = prior._values.size
    phi = np.arange(n) * (TWO_PI / n)
    k = np.arange(kmax + 1)
    return (TWO_PI / n) * (np.exp(1j * np.outer(k, phi)) @ prior._values)


def test_fourier_coefficients_tabulated_matches_dense_sum():
    rng = np.random.default_rng(3)
    cases = [(PhasePrior.tabulated(vonmises_values(2.0, 2.0, 4096)), 128)]
    # harmonics past the table size alias onto k mod n
    for n, kmax in ((64, 150), (1000, 1010)):
        values = rng.random(n)
        cases.append((PhasePrior.tabulated(values / (values.mean() * TWO_PI)),
                      kmax))
    for p, kmax in cases:
        c = p.fourier_coefficients(kmax)
        assert c.shape == (kmax + 1,)
        assert np.abs(c - dense_fourier_coefficients(p, kmax)).max() < 1e-13


def test_sampling_moments():
    rng = np.random.default_rng(2024)
    n = 200000
    for p in (PhasePrior.uniform(center=2.0, width=1.5),
              PhasePrior.wrapped_gaussian(mean=3.0, sigma=0.4),
              PhasePrior.tabulated(vonmises_values(2.0, 2.0, 1024))):
        x = sample(p, rng, n)
        assert np.all((x >= 0.0) & (x < TWO_PI))
        tol = 5.0 * np.sqrt(p.variance() / n)
        assert abs(np.mean(x) - p.mean()) < tol, p
        assert abs(np.var(x) - p.variance()) < 0.02, p


def test_validation_errors():
    with pytest.raises(ValidationError):
        PhasePrior.uniform(width=0.0)
    with pytest.raises(ValidationError):
        PhasePrior.uniform(width=TWO_PI + 0.1)
    with pytest.raises(ValidationError):
        PhasePrior.wrapped_gaussian(mean=0.0, sigma=0.0)
    with pytest.raises(ValidationError):
        PhasePrior.wrapped_gaussian(mean=0.0, sigma=float("nan"))
    with pytest.raises(ValidationError):
        PhasePrior.wrapped_gaussian(mean=float("inf"), sigma=0.5)
    with pytest.raises(ValidationError):
        PhasePrior.uniform(center=float("nan"))
    with pytest.raises(ValidationError):
        PhasePrior.tabulated([1.0, -0.5, 1.0, 1.0])
    with pytest.raises(ValidationError):
        PhasePrior.tabulated(np.full(64, 2.0 / TWO_PI))  # integrates to 2
    with pytest.raises(ValidationError):
        PhasePrior.tabulated([0.5])


def test_tabulated_renormalization_within_tolerance():
    values = vonmises_values(1.0, 0.5, 256) * (1.0 + 5e-9)
    p = PhasePrior.tabulated(values)
    assert abs(p.normalization() - 1.0) < 1e-12
