import copy
import inspect
import math
import warnings

import numpy as np
import pytest

import phasebound.rate_distortion as rd
from phasebound.errors import ValidationError
from phasebound.priors import PhasePrior
from phasebound.rate_distortion import (BA_MAX_ITER, BA_TOL, BAPoint,
                                        blahut_arimoto_point, check_curve,
                                        discrete_entropy_power,
                                        discretize_prior, grid_distortion,
                                        rd_curve, shannon_lb_distortion,
                                        shannon_lb_rate)

TWO_PI = 2.0 * math.pi

# budget for the plain iteration; its slow regimes stop here uncertified
ORACLE_MAX_ITER = 30000

# ln 2 - h_b(0.1), the binary Hamming rate at D = 0.1
BINARY_RATE_AT_D01 = 0.3680642071684971
# 0.5 * ln((2 pi / e) / 0.1)
SLB_RATE_Q_UNIFORM_D01 = 1.5702310797016956
# (2 pi / e) e^{-2}
SLB_DIST_Q_UNIFORM_R1 = 0.3128213764565083


def lagrangian_and_gap(p, d, slope, q):
    """R + s*D = -sum_k p_k ln (A q)_k and Blahut's gap max_j ln r_j."""
    a = np.exp(-slope * d)
    c = a @ q
    return -(p @ np.log(c)), float(np.log((p / c) @ a).max())


def plain_blahut_arimoto(p, d, slope, q):
    """The multiplicative iteration q <- q*r with the certified stop.

    Returns the Lagrangian and the Blahut gap of the last iterate, which
    is above BA_TOL when the budget ran out first.
    """
    a = np.exp(-slope * d)
    for _ in range(ORACLE_MAX_ITER):
        c = a @ q
        r = (p / c) @ a
        if np.log(r.max()) <= BA_TOL:
            break
        q = q * r
    return lagrangian_and_gap(p, d, slope, q)


def test_shannon_lb_rate_values():
    q = TWO_PI / math.e
    assert shannon_lb_rate(q, q) == 0.0
    assert shannon_lb_rate(0.7, 2.0) == 0.0  # vacuous region clamps
    assert abs(shannon_lb_rate(q, q / math.e**2) - 1.0) < 1e-12
    assert abs(shannon_lb_rate(q, 0.1) - SLB_RATE_Q_UNIFORM_D01) < 1e-12


def test_shannon_lb_distortion_values():
    q = TWO_PI / math.e
    assert shannon_lb_distortion(q, 0.0) == q
    assert abs(shannon_lb_distortion(q, 1.0) - SLB_DIST_Q_UNIFORM_R1) < 1e-12


def test_shannon_lb_pair_inverts():
    # D(R(D)) = D wherever the rate bound is active, i.e. D in (0, Q]
    q = 1.7
    for d in [1e-4, 0.03, 0.5, q]:
        r = shannon_lb_rate(q, d)
        assert abs(shannon_lb_distortion(q, r) - d) < 1e-12 * max(1.0, 1.0 / d)


def test_shannon_lb_validation():
    with pytest.raises(ValidationError):
        shannon_lb_rate(0.0, 0.1)
    with pytest.raises(ValidationError):
        shannon_lb_rate(1.0, 0.0)
    with pytest.raises(ValidationError):
        shannon_lb_distortion(-1.0, 0.5)
    with pytest.raises(ValidationError):
        shannon_lb_distortion(1.0, -0.5)


def test_ba_binary_hamming_point():
    # equiprobable bits, 0/1 distortion; optimal slope for D = 0.1 is ln 9
    p = [0.5, 0.5]
    d = [[0.0, 1.0], [1.0, 0.0]]
    point = blahut_arimoto_point(p, d, math.log(9.0))
    assert point.converged
    assert abs(point.distortion - 0.1) < 1e-9
    assert abs(point.rate - BINARY_RATE_AT_D01) < 1e-6
    expected = math.log(2.0) + 0.1 * math.log(0.1) + 0.9 * math.log(0.9)
    assert abs(BINARY_RATE_AT_D01 - expected) < 1e-12
    # the symmetric marginal is a fixed point
    assert np.abs(point.output_marginal - 0.5).max() < 1e-12


def test_ba_zero_slope_and_single_atom():
    d = np.array([[0.0, 2.0, 5.0], [3.0, 1.0, 4.0]])
    point = blahut_arimoto_point([0.25, 0.75], d, 0.0)
    assert point.rate == 0.0 and point.converged and point.iterations == 0
    assert abs(point.distortion - (0.25 * d[0] + 0.75 * d[1]).min()) < 1e-15

    atom = blahut_arimoto_point([0.0, 1.0], d, 3.0)
    assert atom.rate == 0.0 and atom.converged
    assert atom.distortion == 1.0


def test_ba_lossless_limit():
    # huge slope drives D to 0 and R to the source entropy ln K
    k = 16
    p = np.full(k, 1.0 / k)
    x = np.arange(k) * (TWO_PI / k)
    d = (x[:, None] - x[None, :]) ** 2
    point = blahut_arimoto_point(p, d, 1e5)
    assert point.distortion < 1e-8
    assert abs(point.rate - math.log(k)) < 1e-3


def test_solver_takes_source_distortion_and_slope():
    # bench/tracer.py binds these names to recompute each point's gap, so
    # a rename would silently break that per-layer figure
    params = inspect.signature(blahut_arimoto_point).parameters
    assert tuple(params) == ("source", "distortion", "slope")


def test_ba_validation():
    d = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ValidationError):
        blahut_arimoto_point([0.5, 0.6], d, 1.0)
    with pytest.raises(ValidationError):
        blahut_arimoto_point([0.5, 0.5], [[0.0, -1.0], [1.0, 0.0]], 1.0)
    with pytest.raises(ValidationError):
        blahut_arimoto_point([0.5, 0.5], d, -0.1)
    with pytest.raises(ValidationError):
        blahut_arimoto_point([0.5, 0.5], [0.0, 1.0], 1.0)
    # the source must be one finite distribution
    for source, message in [([[0.5, 0.5]], "source must be a 1-d distribution"),
                            ([], "source must be a 1-d distribution"),
                            ([np.nan, 1.0], "source masses must be finite"),
                            ([np.inf, 0.0], "source masses must be finite"),
                            ([-0.5, 1.5], "source masses must be finite")]:
        with pytest.raises(ValidationError, match=f"^{message}"):
            blahut_arimoto_point(source, d, 1.0)


def test_ba_lagrangian_descends():
    # the alternating minimization descends R + s D; the rate alone
    # genuinely rises at some low slopes, so that is not checked
    prior = PhasePrior.uniform()
    phi, masses = discretize_prior(prior, 256)
    d = grid_distortion(256)
    for slope in [0.25, 0.5, 1.0]:
        point = blahut_arimoto_point(masses, d, slope)
        lag = point.lagrangian_history
        assert lag.size == point.iterations
        assert np.diff(lag).max(initial=-1.0) < 1e-12


def test_zero_rate_distortion_uniform_grid():
    # best single reproduction point for the discretized full-circle prior:
    # grid variance plus the half-cell offset of the mean, exactly
    # pi^2/3 + 2 pi^2 / (3 K^2) for even K
    for k in [16, 512]:
        curve = rd_curve(PhasePrior.uniform(), k, slopes=[0.0])
        expected = math.pi**2 / 3.0 + 2.0 * math.pi**2 / (3.0 * k**2)
        assert abs(curve[0].distortion - expected) < 1e-12 * expected
        assert curve[0].rate == 0.0


def test_discretize_prior():
    phi, masses = discretize_prior(PhasePrior.uniform(), 64)
    assert abs(masses.sum() - 1.0) < 1e-14
    assert np.abs(masses - 1.0 / 64).max() < 1e-15

    window = PhasePrior.uniform(center=math.pi, width=1.0)
    phi, masses = discretize_prior(window, 128)
    assert abs(masses.sum() - 1.0) < 1e-14
    assert masses[np.abs(phi - math.pi) > 0.6].max() == 0.0

    with pytest.raises(ValidationError):
        discretize_prior(PhasePrior.uniform(), 8)


def test_discrete_entropy_power():
    phi, masses = discretize_prior(PhasePrior.uniform(), 512)
    assert abs(discrete_entropy_power(masses, TWO_PI / 512)
               - TWO_PI / math.e) < 1e-12
    # smooth periodic density: the grid sum is spectrally accurate
    wg = PhasePrior.wrapped_gaussian(math.pi, 0.8)
    phi, masses = discretize_prior(wg, 2048)
    assert abs(discrete_entropy_power(masses, TWO_PI / 2048)
               - wg.entropy_power()) < 1e-9


def test_curve_ordering_and_invariants():
    curve = rd_curve(PhasePrior.uniform(), 128, slopes=[0.5, 0.0, 2.0, 1.0])
    assert len(curve) == 4
    dd = [pt.distortion for pt in curve]
    assert np.all(np.diff(dd) > 0.0)
    slopes = [pt.slope for pt in curve]
    assert slopes == sorted(slopes, reverse=True)
    check_curve(curve)


SWEPT_PRIORS = {"full-circle": PhasePrior.uniform(),
                "uniform-3-1": PhasePrior.uniform(center=3.0, width=1.0),
                "gauss-pi-0.3": PhasePrior.wrapped_gaussian(math.pi, 0.3),
                "window-2-0.8": PhasePrior.uniform(center=2.0, width=0.8)}


@pytest.mark.parametrize("low", [0.0, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("prior", SWEPT_PRIORS.values(),
                         ids=SWEPT_PRIORS.keys())
def test_sweep_starts_with_the_cold_point(prior, k, low):
    # rd_curve solves every slope once, cold, so its sweep starts with and
    # is made of cold points, which verify reads; the slopes come unsorted
    slopes = [low + 3.0, low, low + 0.5]
    _, p = discretize_prior(prior, k)
    d = grid_distortion(k)
    curve = rd_curve(prior, k, slopes)
    assert sorted(pt.slope for pt in curve) == sorted(slopes)
    for point in curve:
        cold = blahut_arimoto_point(p, d, point.slope)
        for name in ("distortion", "rate", "gap", "iterations", "converged",
                     "lagrangian_history"):
            assert np.array_equal(getattr(point, name),
                                  getattr(cold, name)), name


def curve_point(d, r):
    return BAPoint(d, r, 1.0, 1, [r + d], None, 0.0)


@pytest.mark.parametrize("gap, converged", [
    (0.0, True), (BA_TOL, True), (math.nextafter(BA_TOL, math.inf), False),
    (1.0, False), (math.inf, False), (math.nan, False)])
def test_point_flag_is_read_off_its_gap(gap, converged):
    # the flag is the certificate's verdict, at the tolerance's edge too;
    # no caller can hand a point a flag its gap contradicts
    point = BAPoint(0.5, 0.1, 1.0, 3, [0.6], None, gap)
    assert point.converged is converged
    with pytest.raises(TypeError):
        BAPoint(0.5, 0.1, 1.0, 3, [0.6], None, gap, converged=True)


def test_curve_with_equal_distortions():
    # the zero-rate point of this window repeats at slopes 0 and 0.25, to
    # the last bit: a gap of zero width, which the check must not divide by
    curve = rd_curve(PhasePrior.uniform(center=3.0, width=1.0), 32,
                     [0.0, 0.25, 0.5])
    assert curve[0].distortion == curve[1].distortion
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_curve(curve)

    point = curve_point
    # the pair's upper point sits 1e-8 above the chord: within tolerance
    check_curve([point(1.0, 2.0), point(2.0, 1.0 + 1e-8), point(2.0, 1.0),
                 point(3.0, 0.5)])
    # chords -0.6 then -0.9: concave at the pair, whichever rate stands
    with pytest.raises(ValidationError, match="not convex"):
        check_curve([point(1.0, 2.0), point(2.0, 1.5), point(2.0, 1.4),
                     point(3.0, 0.5)])


def test_curve_check_rejects_each_invalid_sample():
    point = curve_point
    for points, message in [
            ([point(1.0, 1.0), point(2.0, -1e-12)], "has a negative rate"),
            ([point(0.0, 1.0), point(2.0, 0.5)],
             "has a nonpositive distortion"),
            ([point(1.0, 1.0), point(2.0, 1.0 + 2e-7)],
             "rate increases with distortion")]:
        with pytest.raises(ValidationError, match=f"^rd curve {message}$"):
            check_curve(points)


def test_curve_with_distortions_an_ulp_apart():
    # three zero-rate points whose D differ in the last bits and whose R
    # is rounding noise (~1e-17): as chord slopes that noise reads +-19,
    # a false "not convex"; as a height above the chord it stays ~1e-17
    curve = rd_curve(PhasePrior.wrapped_gaussian(1.0, 0.05), 64,
                     [0.0, 0.25, 0.5])
    dd = [pt.distortion for pt in curve]
    assert 0.0 < dd[2] - dd[0] <= 4 * np.spacing(dd[0])
    assert max(pt.rate for pt in curve) < 1e-16
    check_curve(curve)


def test_curve_stays_above_shannon_bound():
    # BA reports I(true) + KL(q_tilde || q) >= R(D), so points sit on or
    # above the curve even before convergence; the discretized source can
    # undercut the continuous bound by O(1/K) at fixed D, hence the
    # grid-scaled slack. Slopes are kept to the fast-converging ones; the
    # slow regimes get exercised by the acceptance sweep.
    prior = PhasePrior.uniform()
    for k, slopes in [(128, [0.0, 0.25, 0.5]), (256, [0.0, 0.25]),
                      (512, [0.0, 0.5])]:
        curve = rd_curve(prior, k, slopes)
        q = discrete_entropy_power(discretize_prior(prior, k)[1], TWO_PI / k)
        slack = 0.05 * 512.0 / k
        for pt in curve:
            assert pt.rate >= shannon_lb_rate(q, pt.distortion) - slack
        check_curve(curve)


@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("slope", [0.25, 0.5, 0.7, 2.0, 5.0])
def test_newton_solver_matches_plain_iteration(k, slope):
    _, p = discretize_prior(PhasePrior.uniform(), k)
    d = grid_distortion(k)
    point = blahut_arimoto_point(p, d, slope)
    lag, gap = lagrangian_and_gap(p, d, slope, point.output_marginal)
    assert point.converged and gap <= BA_TOL
    assert point.lagrangian_history.size == point.iterations
    assert point.lagrangian_history[-1] == lag
    oracle_lag, oracle_gap = plain_blahut_arimoto(p, d, slope,
                                                  np.full(k, 1.0 / k))
    # both Lagrangians sit above the optimum, the solver's within
    # BA_TOL of it; the plain iterate's gap bounds the optimum below
    assert lag <= oracle_lag + BA_TOL
    assert oracle_lag - lag <= max(1e-8, oracle_gap)


@pytest.mark.parametrize("k, slopes", [(64, [0.25, 0.5]), (512, [1.0])])
def test_formerly_stalled_points_are_certified(k, slopes):
    # the successive-rate stop declared these converged far from the
    # optimum: K=64 at slope 0.5, started from the slope-0.25 marginal, at
    # gap 2.6e-2 (D 0.9965 against 0.9254), K=512 at slope 1 at gap 1.2e-3
    _, p = discretize_prior(PhasePrior.uniform(), k)
    d = grid_distortion(k)
    for slope in slopes:
        point = blahut_arimoto_point(p, d, slope)
        _, gap = lagrangian_and_gap(p, d, slope, point.output_marginal)
        assert point.converged
        assert gap <= BA_TOL
        assert abs(point.gap - gap) < 1e-12
    if k == 64:
        assert abs(point.distortion - 0.9254) < 1e-4


def test_largest_grid_point_is_certified():
    _, p = discretize_prior(PhasePrior.uniform(), 4096)
    d = grid_distortion(4096)
    point = blahut_arimoto_point(p, d, 0.5)
    assert point.converged
    assert lagrangian_and_gap(p, d, 0.5, point.output_marginal)[1] <= BA_TOL


def test_concentrated_prior_sweep_is_certified():
    # the tails of a narrow prior carry masses far below rounding of the
    # Lagrangian, yet the certificate needs the marginal to reach them
    prior = PhasePrior.wrapped_gaussian(2.0, 0.3)
    _, p = discretize_prior(prior, 64)
    d = grid_distortion(64)
    for slope in [2.0, 20.0, 50.0, 200.0]:
        point = blahut_arimoto_point(p, d, slope)
        assert point.converged
        gap = lagrangian_and_gap(p, d, slope, point.output_marginal)[1]
        assert gap <= BA_TOL
        assert np.diff(point.lagrangian_history).max(initial=-1) < 1e-12


def test_kernel_past_underflow_stops_at_the_source():
    # at s = 1e300 every off-diagonal exp(-s d) underflows, so A = I and
    # q = p is the optimum, with zero distortion and the source's entropy;
    # the uniform start alone ends its 200 iterations 0.849 nats short
    _, p = discretize_prior(PhasePrior.wrapped_gaussian(math.pi, 0.2), 512)
    point = blahut_arimoto_point(p, grid_distortion(512), 1e300)
    assert point.converged
    assert point.distortion == 0.0
    pos = p[p > 0.0]
    assert abs(point.rate + pos @ np.log(pos)) <= 1e-12
    assert point.iterations == point.lagrangian_history.size == 1


@pytest.mark.parametrize("prior", [PhasePrior.uniform(),
                                   PhasePrior.uniform(center=2.0, width=1.0)],
                         ids=["full-support", "zero-mass-window"])
def test_solver_leaves_inputs_untouched(prior, monkeypatch):
    # the solver builds A and A * d in its own memory and copies rows only
    # when some source letter has no mass; the caller's arrays keep their bits
    _, p = discretize_prior(prior, 64)
    d = grid_distortion(64)
    p0, d0 = p.tobytes(), d.tobytes()
    for slope in (0.0, 0.5, 5.0):
        blahut_arimoto_point(p, d, slope)
        assert p.tobytes() == p0 and d.tobytes() == d0

    # rd_curve hands one source and one matrix to every point of its sweep
    made = []

    def kept(real):
        def wrapper(*args):
            out = real(*args)
            made.append((out, copy.deepcopy(out)))
            return out
        return wrapper

    monkeypatch.setattr(rd, "discretize_prior", kept(rd.discretize_prior))
    monkeypatch.setattr(rd, "grid_distortion", kept(rd.grid_distortion))
    rd_curve(prior, 64, [0.0, 0.25, 0.5, 5.0])
    ((_, masses), (_, masses0)), (dist, dist0) = made
    assert masses.tobytes() == masses0.tobytes()
    assert dist.tobytes() == dist0.tobytes()


def test_nnls_matches_scipy():
    # the Newton step's active-set solver against scipy's NNLS on seeded
    # overdetermined problems; every third starts from a feasible point
    # with zero entries, the rest from zero
    from scipy.optimize import nnls

    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(240):
        cols = int(rng.integers(1, 13))
        m = rng.standard_normal((cols + int(rng.integers(1, 30)), cols))
        e = rng.standard_normal(m.shape[0])
        start = np.zeros(cols)
        if trial % 3 == 0:
            start = rng.random(cols) * (rng.random(cols) < 0.5)
        got = rd._nnls(m.T @ m, m.T @ e, start)
        ref = nnls(m, e)[0]
        assert np.all(got >= 0.0)
        err = np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300)
        worst = max(worst, err)
    assert worst <= 1e-10
