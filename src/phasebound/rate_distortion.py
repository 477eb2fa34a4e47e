"""Rate-distortion tools for the phase source.

Shannon lower bounds on R(D) and D(R) in closed form, plus a Blahut-Arimoto
solver that evaluates the definitional infimum of the rate-distortion
function for a discretized prior. The solver works at fixed Lagrange slope;
a curve is traced by sweeping slopes, never by root finding in D.
"""

import numpy as np
from scipy.linalg import matmul_toeplitz

from .errors import ValidationError
from .priors import TWO_PI

__all__ = ["shannon_lb_rate", "shannon_lb_distortion", "blahut_arimoto_point",
           "rd_curve", "BAPoint", "RDCurve"]

BA_TOL = 1e-9          # nats between successive rate iterates
BA_MAX_ITER = 100000
RD_GRID_CAP = 4096     # largest prior discretization a scenario may request


def shannon_lb_rate(entropy_power, distortion):
    """max(0, 0.5*ln(Q/D)): Shannon lower bound on R(D) in nats.

    The bound is vacuous for D >= Q, where it clamps to zero.
    """
    if entropy_power <= 0.0 or distortion <= 0.0:
        raise ValidationError("shannon_lb_rate needs Q > 0 and D > 0")
    return max(0.0, 0.5 * np.log(entropy_power / distortion))


def shannon_lb_distortion(entropy_power, rate):
    """Q*e^{-2R}: Shannon lower bound on D(R) in squared radians."""
    if entropy_power <= 0.0:
        raise ValidationError("shannon_lb_distortion needs Q > 0")
    if rate < 0.0:
        raise ValidationError(f"rate must be >= 0, got {rate}")
    return entropy_power * np.exp(-2.0 * rate)


class BAPoint:
    """One converged (D, R) point at a fixed Lagrange slope."""

    def __init__(self, distortion, rate, slope, converged, iterations,
                 rate_history, distortion_history, output_marginal):
        self.distortion = float(distortion)
        self.rate = float(rate)
        self.slope = float(slope)
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.rate_history = np.asarray(rate_history, dtype=float)
        self.distortion_history = np.asarray(distortion_history, dtype=float)
        self.output_marginal = output_marginal

    def lagrangian_history(self):
        """R + s*D per iteration. This is the quantity the alternating
        minimization actually descends; the rate alone is not monotone."""
        return self.rate_history + self.slope * self.distortion_history

    def __repr__(self):
        return (f"BAPoint(D={self.distortion:.6g}, R={self.rate:.6g}, "
                f"slope={self.slope:.6g}, converged={self.converged})")


def _check_source(source):
    source = np.asarray(source, dtype=float)
    if source.ndim != 1 or source.size == 0:
        raise ValidationError("source must be a 1-d distribution")
    if np.any(source < 0.0) or not np.all(np.isfinite(source)):
        raise ValidationError("source masses must be finite and nonnegative")
    if abs(source.sum() - 1.0) > 1e-8:
        raise ValidationError(f"source sums to {source.sum()!r}, not 1")
    return source / source.sum()


def blahut_arimoto_point(source, distortion, slope, init_marginal=None):
    """R(D) point of a discrete source at Lagrange slope -slope.

    Parameters
    ----------
    source : (K,) array of probabilities (must sum to 1).
    distortion : (K, K') matrix of squared errors, source rows by
        reproduction columns.
    slope : s >= 0 in nats per squared radian. s = 0 returns the zero-rate
        point directly (the multiplicative update is stationary there).
    init_marginal : optional starting reproduction marginal; defaults to
        uniform. Warm starts from a neighboring slope cut iteration counts
        when sweeping a curve.

    Returns a BAPoint; alternating minimization stops when successive rates
    differ by < 1e-9 nats, or flags non-convergence after 1e5 iterations.
    """
    p = _check_source(source)
    d = np.asarray(distortion, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.size:
        raise ValidationError(f"distortion shape {d.shape} does not match source")
    if np.any(d < 0.0):
        raise ValidationError("distortion entries must be >= 0")
    if slope < 0.0:
        raise ValidationError(f"slope must be >= 0, got {slope}")

    support = np.flatnonzero(p > 0.0)
    if support.size == 1:
        # single atom: zero rate at the best reproduction point for any slope
        dmin = float(d[support[0]].min())
        return BAPoint(dmin, 0.0, slope, True, 0, [0.0], [dmin], None)
    if slope == 0.0:
        dmin = float((p @ d).min())
        return BAPoint(dmin, 0.0, slope, True, 0, [0.0], [dmin], None)

    a = np.exp(-slope * d)
    ad = a * d
    mv, tmv, dmv = _matvec_ops(a, ad, d)
    if init_marginal is None:
        q = np.full(d.shape[1], 1.0 / d.shape[1])
    else:
        q = np.asarray(init_marginal, dtype=float)
        if q.shape != (d.shape[1],) or np.any(q < 0.0) or q.sum() <= 0.0:
            raise ValidationError("init_marginal must be a distribution over "
                                  "the reproduction alphabet")
        q = q / q.sum()
    rates, dists = [], []
    rate_prev = np.inf
    converged = False
    for it in range(1, BA_MAX_ITER + 1):
        # c_k = sum_j q_j e^{-s d_kj} > 0; floor guards the log against
        # roundoff noise from the FFT product at extreme slopes
        c = np.maximum(mv(q), 1e-300)
        ratio = p / c
        cur_d = ratio @ dmv(q)
        rate = -(p @ np.log(c)) - slope * cur_d
        rates.append(rate)
        dists.append(cur_d)
        if abs(rate_prev - rate) < BA_TOL:
            converged = True
            break
        rate_prev = rate
        q = q * tmv(ratio)
    # rate can round a hair below zero at slopes where the bound is vacuous
    return BAPoint(cur_d, max(rate, 0.0), slope, converged, it, rates, dists, q)


def _matvec_ops(a, ad, d):
    """Matvec closures for a, a.T and a*d; FFT-based when d is Toeplitz.

    Grid sources give d[k, j] = (x_k - x_j)^2, constant along diagonals, so
    the products reduce to convolutions. Fast path kicks in above 64 points;
    tiny products are quicker dense.
    """
    k, kp = d.shape
    if min(k, kp) > 64 and np.array_equal(d[1:, 1:], d[:-1, :-1]):
        acr = (np.ascontiguousarray(a[:, 0]), np.ascontiguousarray(a[0, :]))
        adcr = (np.ascontiguousarray(ad[:, 0]), np.ascontiguousarray(ad[0, :]))
        return (lambda x: matmul_toeplitz(acr, x, check_finite=False),
                lambda x: matmul_toeplitz((acr[1], acr[0]), x, check_finite=False),
                lambda x: matmul_toeplitz(adcr, x, check_finite=False))
    return (lambda x: a @ x), (lambda x: a.T @ x), (lambda x: ad @ x)


class RDCurve:
    """Swept R(D) points for one discretized source, sorted by distortion."""

    def __init__(self, points, slope_values, converged, source_descriptor):
        self.points = list(points)
        self.slope_values = list(slope_values)
        self.converged = list(converged)
        self.source_descriptor = dict(source_descriptor)

    def distortions(self):
        return np.array([d for d, _ in self.points])

    def rates(self):
        return np.array([r for _, r in self.points])

    def check_invariants(self, tol=1e-7):
        """Raise ValidationError unless the curve is a valid R(D) sample.

        Checks R >= 0, D > 0, R non-increasing in D, and convexity via
        non-decreasing chord slopes.
        """
        dd, rr = self.distortions(), self.rates()
        if np.any(rr < 0.0):
            raise ValidationError("rd curve has a negative rate")
        if np.any(dd <= 0.0):
            raise ValidationError("rd curve has a nonpositive distortion")
        if np.any(np.diff(rr) > tol):
            raise ValidationError("rd curve rate increases with distortion")
        chords = np.diff(rr) / np.diff(dd)
        if np.any(np.diff(chords) < -tol):
            raise ValidationError("rd curve is not convex")

    def __len__(self):
        return len(self.points)


def discretize_prior(prior, grid_size):
    """Point masses of the prior on the open grid phi_j = 2*pi*j/K.

    Masses are density * cell width, renormalized; window edges falling
    between grid points make the raw sum differ from one at O(1/K).
    """
    if grid_size < 16:
        raise ValidationError(f"grid_size must be >= 16, got {grid_size}")
    phi = np.arange(grid_size) * (TWO_PI / grid_size)
    masses = prior.grid_density(grid_size) * (TWO_PI / grid_size)
    return phi, masses / masses.sum()


def discrete_entropy_power(masses, cell_width):
    """Entropy power of the piecewise-constant density masses/cell_width."""
    pos = masses[masses > 0.0]
    h = -np.sum(pos * np.log(pos / cell_width))
    return float(np.exp(2.0 * h) / (TWO_PI * np.e))


def rd_curve(prior, grid_size, slopes):
    """Trace R(D) of the discretized prior over a slope schedule.

    Returns an RDCurve sorted by increasing D (slopes are reordered to
    match). Squared error is non-periodic, consistent with the rest of the
    package.
    """
    phi, masses = discretize_prior(prior, grid_size)
    # build d from index offsets so equal offsets match bitwise (Toeplitz)
    idx = np.arange(grid_size)
    d = (np.abs(idx[:, None] - idx[None, :]) * (TWO_PI / grid_size)) ** 2
    # sweep slopes in increasing order, warm-starting each point from the
    # previous marginal; neighbors on the curve have nearby optima
    results, q = [], None
    for s in sorted(float(s) for s in slopes):
        point = blahut_arimoto_point(masses, d, s, init_marginal=q)
        results.append(point)
        if point.output_marginal is not None:
            q = point.output_marginal
    order = np.argsort([r.distortion for r in results], kind="stable")
    results = [results[i] for i in order]
    descriptor = dict(prior.descriptor(), grid_size=int(grid_size))
    return RDCurve(points=[(r.distortion, r.rate) for r in results],
                   slope_values=[r.slope for r in results],
                   converged=[r.converged for r in results],
                   source_descriptor=descriptor)
