"""Rate-distortion tools for the phase source.

Shannon lower bounds on R(D) and D(R) in closed form, plus a solver that
evaluates the definitional infimum of the rate-distortion function for a
discretized prior. The solver works at fixed Lagrange slope s, where
R + s*D at the best test channel for an output marginal q is the
Lagrangian L(q) = -sum_k p_k ln (A q)_k with A = exp(-s*d). Minimizing L
over the simplex is the mixing-weights problem of a nonparametric maximum
likelihood estimate, solved here by the constrained Newton method (Wang,
JRSS-B 2007) with vertex-direction steps (Wynn 1970, Fedorov 1972) where its
quadratic model cannot reach, and stopped on Blahut's (1972) certificate
L(q) - min L <= max_j ln r_j, r = A^T (p / A q). A curve is traced by
sweeping slopes, never by root finding in D.
"""

import math

import numpy as np

from .errors import ValidationError
from .priors import TWO_PI

__all__ = ["shannon_lb_rate", "shannon_lb_distortion", "blahut_arimoto_point",
           "rd_curve", "check_curve", "grid_distortion", "BAPoint"]

BA_TOL = 1e-9          # nats of certified gap between the Lagrangian and its minimum
BA_MAX_ITER = 200
RD_GRID_CAP = 4096     # largest prior discretization a scenario may request
_ARMIJO = 1e-4         # fraction of the first-order decrease a step must achieve
_CURVE_TOL = 1e-7      # rounding slack of check_curve


def shannon_lb_rate(entropy_power, distortion):
    """max(0, 0.5*ln(Q/D)): Shannon lower bound on R(D) in nats.

    The bound is vacuous for D >= Q, where it clamps to zero.
    """
    if not (entropy_power > 0.0 and distortion > 0.0):
        raise ValidationError("shannon_lb_rate needs Q > 0 and D > 0")
    return max(0.0, 0.5 * np.log(entropy_power / distortion))


def shannon_lb_distortion(entropy_power, rate):
    """Q*e^{-2R}: Shannon lower bound on D(R) in squared radians."""
    if not entropy_power > 0.0:
        raise ValidationError("shannon_lb_distortion needs Q > 0")
    if not rate >= 0.0:
        raise ValidationError(f"rate must be >= 0, got {rate}")
    return entropy_power * math.exp(-2.0 * rate)


class BAPoint:
    """One (D, R) point at a fixed Lagrange slope.

    `lagrangian_history` holds R + s*D, the quantity the solver descends,
    once per iteration; the rate alone is not monotone. `gap` is Blahut's
    bound max_j ln r_j on how far the point's Lagrangian sits above the
    minimum, in nats; `converged` means gap <= BA_TOL.
    """

    def __init__(self, distortion, rate, slope, converged, iterations,
                 lagrangian_history, output_marginal, gap):
        self.distortion = float(distortion)
        self.rate = float(rate)
        self.slope = float(slope)
        self.converged = bool(converged)
        self.iterations = int(iterations)
        self.lagrangian_history = np.asarray(lagrangian_history, dtype=float)
        self.output_marginal = output_marginal
        self.gap = float(gap)

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
        raise ValidationError(f"source sums to {float(source.sum())!r}, not 1")
    return source / source.sum()


def blahut_arimoto_point(source, distortion, slope):
    """R(D) point of a discrete source at Lagrange slope -slope.

    Parameters
    ----------
    source : (K,) array of probabilities (must sum to 1).
    distortion : (K, K') matrix of squared errors, source rows by
        reproduction columns.
    slope : s >= 0 in nats per squared radian. s = 0 returns the zero-rate
        point directly.

    A square distortion first tries the source masses as the marginal,
    and returns them if their certificate holds: where exp(-s d)
    underflows off the diagonal, A = I and that start is the optimum,
    which no iteration from a wider start reaches. Otherwise the uniform
    marginal starts. Each iteration grows the support of the output marginal
    by the local maxima of r (in column order) that break the
    certificate, minimizes a quadratic model of the Lagrangian over that
    support by nonnegative least squares, and backtracks along the step
    until the Lagrangian falls. Where the model cannot help (some
    r_j > 2, or no descent) it moves mass to the column of largest r_j
    instead, by an exact line search. The Lagrangian never rises. Returns
    a BAPoint, converged once the certified gap is <= BA_TOL, or flagged
    unconverged with its gap after BA_MAX_ITER evaluations.
    """
    p = masses = _check_source(source)
    d = np.asarray(distortion, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.size:
        raise ValidationError(f"distortion shape {d.shape} does not match source")
    if not np.all(d >= 0.0):  # NaN fails, +inf is a forbidden pair
        raise ValidationError("distortion entries must be >= 0 or +inf")
    if not 0.0 <= slope < math.inf:
        raise ValidationError(f"slope must be finite and >= 0, got {slope}")

    support = np.flatnonzero(p > 0.0)
    if support.size == 1:
        # single atom: zero rate at the best reproduction point for any slope
        dmin = float(d[support[0]].min())
        return BAPoint(dmin, 0.0, slope, True, 0, [slope * dmin], None, 0.0)
    if slope == 0.0:
        dmin = float((p @ d).min())
        return BAPoint(dmin, 0.0, slope, True, 0, [0.0], None, 0.0)

    # source letters without mass add nothing to any sum below; a full
    # support keeps the caller's matrix uncopied
    if support.size < p.size:
        p, d = p[support], d[support]
    a = np.multiply(d, -slope)
    np.exp(a, out=a)
    # the uniform start is kept exactly, so symmetric optima stop at once;
    # a square kernel first tries the source masses, zero masses included,
    # as evaluation 0; the history and the iterations count the start kept
    uniform = np.full(d.shape[1], 1.0 / d.shape[1])
    q, first = (masses, 0) if d.shape[1] == masses.size else (uniform, 1)
    # the atoms, the columns every model step spans, start empty
    atoms = np.zeros(uniform.size, bool)
    root_p, history = np.sqrt(p), []
    # ln 0 and x/0 in the steps' logs and slopes read as no gain
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(first, BA_MAX_ITER + 1):
            # c_k = sum_j q_j e^{-s d_kj}; the floor keeps the log finite
            # where every used column underflows at extreme slopes
            c = np.maximum(a @ q, 1e-300)
            history.append(-(p @ np.log(c)))
            pc = p / c
            r = pc @ a
            gap = float(np.log(r.max()))
            if gap <= BA_TOL or it == BA_MAX_ITER:
                break
            if it == 0:
                q, history = uniform, []
            else:
                q, atoms = _newton_step(a, p, root_p, c, r, q, atoms)
        # the iterations are done with A, so A * d can take its memory; a
        # forbidden pair, A = 0 at d = inf, adds 0 to D, not 0 * inf = nan
        ad = np.multiply(a, d, out=a)
        dist = pc @ (ad @ q)
        if math.isnan(dist):
            ad[np.isnan(ad)] = 0.0
            dist = pc @ (ad @ q)
    # rate can round a hair below zero at slopes where the bound is vacuous
    return BAPoint(dist, max(history[-1] - slope * dist, 0.0), slope,
                   gap <= BA_TOL, len(history), history, q, gap)


def _newton_step(a, p, root_p, c, r, q, atoms):
    """One constrained Newton step; returns the next marginal and atom set.

    The quadratic model of the Lagrangian about c is
    sum_k p_k ((A w)_k / c_k - 2)^2 over w >= 0, sum w = 1, restricted to
    the atoms plus the new peaks of r. It is the second-order expansion of
    the log about c and aims at (A w)_k = 2 c_k, so while some r_j > 2, and
    whenever the model's step does not descend, a vertex step toward the
    largest r_j is taken instead. root_p = sqrt(p); errstate is the caller's.
    """
    lr = np.log(r)
    top = int(lr.argmax())
    span = atoms.copy()
    span[top] = True
    if lr[top] > math.log(2.0):
        q = _vertex_step(a, p, c, q, top)
        return q, span & (q > 0.0)
    # local maxima of ln r that break the certificate; a rise below 1e-12
    # is rounding noise, which on a flat stretch of r would mark a peak at
    # every few columns
    peak = lr > BA_TOL
    peak[1:] &= lr[1:] > lr[:-1] + 1e-12
    peak[:-1] &= lr[:-1] >= lr[1:] - 1e-12
    span |= peak
    cols = span.nonzero()[0]
    model = np.empty((p.size + 1, cols.size))
    np.multiply(root_p[:, None], a[:, cols] / c[:, None] - 2.0,
                out=model[:-1])
    # a row of ones with target 1 turns the sum constraint into plain NNLS:
    # the model is homogeneous on the simplex, so the NNLS solution rescaled
    # to unit sum is the constrained minimizer
    model[-1] = 1.0
    # unit column scale: a peak under source letters that c barely reaches
    # has entries up to 1/c, which would swamp the NNLS tolerance
    scale = np.abs(model).max(axis=0)
    model /= scale
    x = _nnls(model.T @ model, model[-1], q[cols] * scale) / scale
    step = -q
    step[cols] += x / x.sum()
    # relative change of c along the step, formed without cancellation so
    # that the line search still resolves descents near the optimum
    v = (a @ step) / c
    descent = p @ v
    alpha = 1.0
    while descent > 0.0 and alpha > 1e-12:
        gain = p @ np.log1p(alpha * v)
        if gain >= _ARMIJO * alpha * descent:
            q = np.maximum(q + alpha * step, 0.0)
            return q / q.sum(), span & (q > 0.0)
        alpha *= 0.5
    q = _vertex_step(a, p, c, q, top)
    return q, span & (q > 0.0)


def _vertex_step(a, p, c, q, j):
    """q <- (1 - t) q + t e_j at the t that most lowers the Lagrangian.

    The Lagrangian falls by g(t) = sum_k p_k ln(1 + t u_k), u = A e_j / c - 1,
    which is concave with slope r_j - 1 > 0 at t = 0. Bisecting the slope
    on a log scale finds steps down to 1e-300, which source letters of
    negligible mass that the marginal does not reach can need; each term
    of g stays exact at such steps, so the step still lowers the
    Lagrangian where a full model step cannot resolve it.
    """
    u = a[:, j] / c - 1.0
    full = p @ (u / (1.0 + u)) >= 0.0
    lo, hi = -300.0, 0.0  # bracket of log10 t with g rising at 10**lo
    while not full and hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if p @ (u / (1.0 + 10.0 ** mid * u)) > 0.0:
            lo = mid
        else:
            hi = mid
    t = 1.0 if full else 10.0 ** lo
    q = (1.0 - t) * q
    q[j] += t
    return q / q.sum()


def _nnls(gram, rhs, start):
    """Lawson-Hanson active-set minimization of x'Gx - 2 rhs'x over x >= 0.

    These are the normal equations of min |M x - e| with gram = M'M and
    rhs = M'e. `start` is a feasible first iterate; its positive entries
    form the first passive set. A ridge at rounding level keeps a passive
    set with dependent columns solvable. The ratio test runs on Python
    floats: the array form's IEEE operations in its order, at less cost.
    """
    n = rhs.size
    x = start.copy()
    passive = np.flatnonzero(x > 0.0).tolist()
    ridge = n * np.finfo(float).eps * gram.diagonal().max()
    for _ in range(3 * n):
        while passive:
            sub = gram.take(passive, 0).take(passive, 1)
            sub.ravel()[::len(passive) + 1] += ridge
            sol = np.linalg.solve(sub, rhs.take(passive)).tolist()
            if all(z > 0.0 for z in sol):
                x = np.zeros(n)
                x[passive] = sol
                break
            # step back to the boundary and release the blocking entry,
            # the first of equal ratios as argmin picks it
            old = x[passive].tolist()
            t, block = min((xi / (xi - zi), k) for k, (xi, zi)
                           in enumerate(zip(old, sol)) if zi <= 0.0)
            new = [xi + t * (zi - xi) for xi, zi in zip(old, sol)]
            new[block] = 0.0
            passive = [j for j, xj in zip(passive, new) if xj > 0.0]
            x = np.zeros(n)
            x[passive] = [xj for xj in new if xj > 0.0]
        grad = rhs - gram @ x
        grad[passive] = -np.inf
        j = int(grad.argmax())
        if grad[j] <= 10.0 * ridge:
            break
        passive = sorted(passive + [j])
    return x


def discretize_prior(prior, grid_size):
    """Point masses of the prior on the open grid phi_j = 2*pi*j/K.

    Masses are density * cell width, renormalized; window edges falling
    between grid points make the raw sum differ from one at O(1/K). A
    prior with no mass on the grid raises ValidationError.
    """
    if grid_size < 16:
        raise ValidationError(f"grid_size must be >= 16, got {grid_size}")
    phi = np.arange(grid_size) * (TWO_PI / grid_size)
    masses = prior.grid_density(grid_size) * (TWO_PI / grid_size)
    total = masses.sum()
    if not total > 0.0:
        raise ValidationError(
            f"prior puts no mass on the {grid_size}-point phase grid")
    return phi, masses / total


def grid_distortion(grid_size):
    """Squared error (|i - j| * 2*pi/K)^2 between points of the open grid.

    Built from index offsets, so equal offsets give bitwise-equal entries.
    """
    idx = np.arange(grid_size)
    return (np.abs(idx[:, None] - idx[None, :]) * (TWO_PI / grid_size)) ** 2


def discrete_entropy_power(masses, cell_width):
    """Entropy power of the piecewise-constant density masses/cell_width."""
    pos = masses[masses > 0.0]
    h = -np.sum(pos * np.log(pos / cell_width))
    return float(np.exp(2.0 * h) / (TWO_PI * np.e))


def rd_curve(prior, grid_size, slopes):
    """Trace R(D) of the discretized prior over a slope schedule.

    Each slope is solved once, cold, in increasing order. Returns the
    list of BAPoints sorted by increasing D (slopes are reordered to
    match; equal distortions keep their slope order). Squared error is
    non-periodic, consistent with the rest of the package.
    """
    _, masses = discretize_prior(prior, grid_size)
    d = grid_distortion(grid_size)
    points = [blahut_arimoto_point(masses, d, s)
              for s in sorted(float(s) for s in slopes)]
    return sorted(points, key=lambda pt: pt.distortion)


def check_curve(points):
    """Raise ValidationError unless D-sorted points are a valid R(D) sample.

    Checks R >= 0, D > 0, R non-increasing in D, and convexity: each
    middle point lies on or below its neighbours' chord, to within
    _CURVE_TOL in rate units. That test multiplies by the distortion gaps
    instead of dividing by them, so points of (nearly) equal D need no
    special case: rounding noise in R cannot become a steep chord slope.
    """
    dd = np.array([pt.distortion for pt in points])
    rr = np.array([pt.rate for pt in points])
    if np.any(rr < 0.0):
        raise ValidationError("rd curve has a negative rate")
    if np.any(dd <= 0.0):
        raise ValidationError("rd curve has a nonpositive distortion")
    if np.any(np.diff(rr) > _CURVE_TOL):
        raise ValidationError("rd curve rate increases with distortion")
    span = dd[2:] - dd[:-2]
    above = ((rr[1:-1] - rr[:-2]) * span
             - (rr[2:] - rr[:-2]) * (dd[1:-1] - dd[:-2]))
    if np.any(above > _CURVE_TOL * span):
        raise ValidationError("rd curve is not convex")
