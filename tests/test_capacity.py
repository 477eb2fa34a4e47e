"""Tests for capacity formulas and number-diagonal entropy bounds."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from phasebound.capacity import (_xlogy, binomial_loss_matrix,
                                 capacity_upper_bound_lossy, entropy_gain,
                                 loss_distribution, shannon_entropy,
                                 unrestricted_capacity)
from phasebound.errors import ValidationError

# frozen reference values (closed forms / exact summation)
C_AT_1 = 1.3862943611198906          # 2 ln 2
C_AT_10 = 3.350997070841615          # 11 ln 11 - 10 ln 10
EVB_AT_0 = 0.17648520831067255       # 0.5 ln(2 pi e / 12)
EVB_AT_2_5 = 1.8934788105532456
CPH_0_HALF = 0.8696323888706178      # 0.5 ln(2 pi e (1/12) / 0.25)
CPH_4_HALF = 2.1521070676013863
H_BINOM_10_HALF = 1.8759536052468004  # exact summation


# direct C(n,l) in floats is exact up to here; beyond, work in log space
_DIRECT_N = 60


def binomial_loss_kernel(n, l, eta):
    """Scalar oracle for binomial_loss_matrix:
    B_eta(n, l) = C(n, l) eta^(n-l) (1-eta)^l for 0 <= l <= n."""
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"transmittance must lie in [0, 1], got {eta}")
    if not 0 <= l <= n:
        raise ValidationError(f"need 0 <= l <= n, got n={n}, l={l}")
    if eta == 1.0:
        return 1.0 if l == 0 else 0.0
    if eta == 0.0:
        return 1.0 if l == n else 0.0
    if n <= _DIRECT_N:
        return math.comb(n, l) * eta ** (n - l) * (1.0 - eta) ** l
    logc = gammaln(n + 1) - gammaln(l + 1) - gammaln(n - l + 1)
    return float(np.exp(logc + (n - l) * np.log(eta) + l * np.log1p(-eta)))


def entropy_variance_bound(variance):
    """0.5*ln[2*pi*e*(Var + 1/12)]: max entropy of an integer variable."""
    v = float(variance)
    if v < 0.0:
        raise ValidationError(f"variance must be >= 0, got {v}")
    return 0.5 * np.log(2.0 * np.pi * np.e * (v + 1.0 / 12.0))


def poisson(mean, cutoff):
    n = np.arange(cutoff + 1)
    logp = -mean + n * np.log(mean) - [math.lgamma(i + 1) for i in n]
    p = np.exp(logp)
    return p / p.sum()


def test_unrestricted_capacity_values():
    assert unrestricted_capacity(0.0) == 0.0
    assert abs(unrestricted_capacity(1.0) - C_AT_1) < 1e-14
    assert abs(unrestricted_capacity(10.0) - C_AT_10) < 1e-13
    with pytest.raises(ValidationError):
        unrestricted_capacity(-0.5)


def test_unrestricted_capacity_large_and_tiny_photon_numbers():
    # C = ln N + 1 + 1/(2N) + O(1/N^2); the difference (N+1)ln(N+1) - N ln N
    # of two terms of size N ln N read 36.0 at 1e15 and 0.0 from 1e16 on
    for n in (1e8, 1e16, 1e100, 1e300):
        c = unrestricted_capacity(n)
        assert abs(c - (math.log(n) + 1.0)) <= 1.0 / n + 1e-14 * c, n
    # C = N (1 - ln N) + O(N^2), subnormal N included, where 1/N overflows
    for n in (1e-20, 1e-300, 1e-310, 5e-324):
        c = unrestricted_capacity(n)
        assert c == pytest.approx(n * (1.0 - math.log(n)), rel=1e-12), n


def test_unrestricted_capacity_increasing_concave():
    grid = np.linspace(0.1, 50.0, 500)
    c = np.array([unrestricted_capacity(x) for x in grid])
    assert np.all(np.diff(c) > 0.0)
    assert np.all(np.diff(c, 2) <= 1e-12)


def test_kernel_small_cases():
    assert abs(binomial_loss_kernel(1, 0, 0.7) - 0.7) < 1e-15
    assert abs(binomial_loss_kernel(2, 1, 0.5) - 0.5) < 1e-15
    total = sum(binomial_loss_kernel(30, l, 0.73) for l in range(31))
    assert abs(total - 1.0) < 1e-12


def test_kernel_log_space_matches_exact_integers():
    # n = 200 goes through the log-space branch; compare with exact C(n,l)
    for l in (0, 3, 77, 100, 200):
        exact = math.comb(200, l) * 0.4 ** (200 - l) * 0.6**l
        assert abs(binomial_loss_kernel(200, l, 0.4) - exact) <= 1e-12 * exact


def test_kernel_edge_transmittances():
    assert binomial_loss_kernel(5, 0, 1.0) == 1.0
    assert binomial_loss_kernel(5, 3, 1.0) == 0.0
    assert binomial_loss_kernel(5, 5, 0.0) == 1.0
    assert binomial_loss_kernel(5, 2, 0.0) == 0.0


def test_kernel_validation():
    with pytest.raises(ValidationError):
        binomial_loss_kernel(3, 4, 0.5)
    with pytest.raises(ValidationError):
        binomial_loss_kernel(3, -1, 0.5)
    with pytest.raises(ValidationError):
        binomial_loss_kernel(3, 1, 1.2)


@pytest.mark.parametrize("eta", [1e-12, 0.3, 0.5, 1.0 - 1e-12])
def test_loss_matrix_matches_gammaln_oracle(eta):
    n_max = 128
    mat = binomial_loss_matrix(n_max, eta)
    ref = np.array([[binomial_loss_kernel(n, l, eta) if l <= n else 0.0
                     for l in range(n_max + 1)] for n in range(n_max + 1)])
    # exp(x) carries the absolute error of x as relative error, and x sums
    # log-factorials and n ln(eta)-sized terms, each rounded on both sides
    biggest = max(math.lgamma(n_max + 1.0), n_max * -math.log(eta),
                  n_max * -math.log1p(-eta))
    # below ~1e-290 the oracle's direct branch forms eta^(n-l) under the
    # normal range and keeps fewer digits than the table
    np.testing.assert_allclose(mat, ref, rtol=8 * np.spacing(biggest),
                               atol=1e-290)


def meshgrid_loss_matrix(n_max, eta):
    """The loss table built on a full index meshgrid, with ln k! from a
    fresh lgamma list: oracle for binomial_loss_matrix's broadcast form."""
    size = n_max + 1
    out = np.zeros((size, size))
    logfact = np.array([math.lgamma(k + 1) for k in range(size)])
    nn, ll = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    valid = ll <= nn
    kk = np.where(valid, nn - ll, 0)
    logk = (logfact[nn] - logfact[ll] - logfact[kk]
            + kk * np.log(eta) + ll * np.log1p(-eta))
    out[valid] = np.exp(logk[valid])
    return out


def test_loss_matrix_equals_meshgrid_construction():
    for eta in [1e-9, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999999, 0.123456789]:
        for n_max in range(160):
            assert np.array_equal(binomial_loss_matrix(n_max, eta),
                                  meshgrid_loss_matrix(n_max, eta)), \
                (n_max, eta)


def test_loss_matrix_past_the_log_factorial_table():
    # past n_max = 256 the ln k! table gives way to an lgamma list of the
    # same values, so the leading block keeps every bit
    for eta in [1e-9, 0.3, 0.5, 0.999999]:
        big = binomial_loss_matrix(300, eta)
        assert np.array_equal(big[:257, :257], binomial_loss_matrix(256, eta))
        assert np.array_equal(big, meshgrid_loss_matrix(300, eta))


def test_xlogy_matches_scipy():
    rng = np.random.default_rng(3)
    # 0 ln 0, 0 ln y, x ln 1, subnormals, then random magnitudes
    x = np.concatenate([[0.0, 0.0, 3.0, 5e-324, 1e-300],
                        rng.random(1000), rng.random(1000) * 1e-200])
    y = np.concatenate([[0.0, 2.5, 1.0, 5e-324, 1e-300],
                        rng.random(1000), rng.random(1000) * 1e3])
    for a, b in ((x, y), (x, x)):
        got, want = _xlogy(a, b), xlogy(a, b)
        assert np.all((got == 0.0) == (want == 0.0))
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


def test_loss_matrix_rows_normalized():
    for eta in (0.0, 0.25, 0.73, 1.0):
        m = binomial_loss_matrix(80, eta)
        assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(m >= 0.0)


def test_loss_distribution_point_masses():
    np.testing.assert_allclose(loss_distribution([0.0, 1.0], 0.7), [0.7, 0.3],
                               atol=1e-15)
    np.testing.assert_allclose(loss_distribution([1.0], 0.3), [1.0], atol=0)


def test_loss_distribution_poisson_thinning():
    # losing each photon independently thins a Poisson: mean 4 -> mean 2
    q = loss_distribution(poisson(4.0, 60), 0.5)
    tv = 0.5 * np.abs(q - poisson(2.0, 60)).sum()
    assert tv < 1e-9


def test_loss_distribution_moments_and_norm():
    rng = np.random.default_rng(11)
    n = np.arange(41, dtype=float)
    for _ in range(25):
        p = rng.random(41)
        p /= p.sum()
        eta = rng.uniform(0.05, 0.95)
        q = loss_distribution(p, eta)
        assert abs(q.sum() - 1.0) < 1e-10
        assert abs(q @ n - (1.0 - eta) * (p @ n)) < 1e-9


def test_loss_distribution_validation():
    with pytest.raises(ValidationError):
        loss_distribution([0.5, 0.6], 0.5)
    with pytest.raises(ValidationError):
        loss_distribution([1.2, -0.2], 0.5)


def test_stacked_distributions_match_their_rows():
    # zero-padded rows of any length give their own 1-d results
    rng = np.random.default_rng(3)
    rows = [rng.random(int(rng.integers(1, 42))) for _ in range(30)]
    rows = [p / p.sum() for p in rows]
    stack = np.zeros((len(rows), 41))
    for row, p in zip(stack, rows):
        row[:p.size] = p
    h = shannon_entropy(stack)
    assert h.shape == (len(rows),)
    for eta in (0.0, 0.1, 0.5, 0.9, 1.0):
        q = loss_distribution(stack, eta)
        gains = entropy_gain(stack, eta)
        assert q.shape == stack.shape and gains.shape == (len(rows),)
        for i, p in enumerate(rows):
            assert np.abs(q[i, :p.size] - loss_distribution(p, eta)).max() \
                <= 1e-14
            assert not q[i, p.size:].any()
            assert abs(gains[i] - entropy_gain(p, eta)) <= 1e-14
            assert abs(h[i] - shannon_entropy(p)) <= 1e-14


def test_stacked_distribution_validation():
    good = np.full((2, 4), 0.25)
    for bad in (np.vstack([good, [0.3, 0.3, 0.3, 0.0]]),    # sums to 0.9
                np.vstack([good, [0.5, 0.6, -0.1, 0.0]]),   # negative entry
                good[None]):                                # 3-d
        for func in (loss_distribution, entropy_gain):
            with pytest.raises(ValidationError):
                func(bad, 0.5)
    with pytest.raises(ValidationError):
        shannon_entropy(good[None])


def test_entropy_variance_bound_values():
    assert abs(entropy_variance_bound(0.0) - EVB_AT_0) < 1e-12
    assert 0.0 <= entropy_variance_bound(0.0)   # deterministic variable: H = 0
    assert abs(entropy_variance_bound(2.5) - EVB_AT_2_5) < 1e-12
    assert abs(shannon_entropy([math.comb(10, l) * 0.5**10 for l in range(11)])
               - H_BINOM_10_HALF) < 1e-13
    assert H_BINOM_10_HALF <= EVB_AT_2_5
    with pytest.raises(ValidationError):
        entropy_variance_bound(-0.1)


def test_binomial_entropy_below_variance_bound():
    # the maximum-entropy step used on the conditional loss count
    for n in (1, 5, 17, 40, 60):
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = np.array([binomial_loss_kernel(n, l, eta) for l in range(n + 1)])
            h = shannon_entropy(p)
            assert h <= entropy_variance_bound(n * eta * (1 - eta)) + 1e-12


def test_entropy_gain_special_cases():
    assert entropy_gain([1.0], 0.3) == 0.0
    assert abs(entropy_gain([0.0, 1.0], 0.5) - np.log(2)) < 1e-14
    p = poisson(3.0, 50)
    assert abs(entropy_gain(p, 1.0) + shannon_entropy(p)) < 1e-14


def test_entropy_gain_holevo_floor():
    # minimum entropy gain of the attenuator: H(L) - H(N) >= ln(1 - eta)
    rng = np.random.default_rng(5)
    for _ in range(40):
        p = rng.random(41)
        p /= p.sum()
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert entropy_gain(p, eta) >= np.log(1.0 - eta) - 1e-9


def test_capacity_upper_bound_lossy_values():
    assert abs(capacity_upper_bound_lossy(0.0, 0.5) - CPH_0_HALF) < 1e-12
    assert abs(capacity_upper_bound_lossy(4.0, 0.5) - CPH_4_HALF) < 1e-12
    # diverges toward the lossless limit
    assert (capacity_upper_bound_lossy(1.0, 0.999)
            > capacity_upper_bound_lossy(1.0, 0.99) + 2.0)
    for eta in (0.0, 1.0):
        with pytest.raises(ValidationError):
            capacity_upper_bound_lossy(1.0, eta)
    with pytest.raises(ValidationError):
        capacity_upper_bound_lossy(-1.0, 0.5)


def test_capacity_upper_bound_lossy_at_the_top_of_the_float_range():
    # below the overflow of 2 pi e (eta (1 - eta) N + 1/12) the digits stay
    assert capacity_upper_bound_lossy(1e300, 0.5) == 346.80670248231155
    # at 1e308 that product overflows; its logs give ~356 nats, not inf
    got = capacity_upper_bound_lossy(1e308, 0.5)
    ref = 0.5 * (math.log(2.0 * math.pi * math.e) + math.log(0.25e308)
                 - 2.0 * math.log(0.5))
    assert abs(got - ref) <= 1e-14 * ref
    assert math.isfinite(capacity_upper_bound_lossy(1.7e308, 1.0 - 1e-12))
