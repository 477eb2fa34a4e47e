"""Bayesian phase estimation on the lossy signal mode.

The probe goes through a transmittance-eta channel, the environment keeps
the loss count, and the surviving signal mode is measured with the
canonical phase POVM. Its outcome density is a fixed window g(u) dragged
around the circle by the true phase, so the whole experiment lives on a
shared len-L lattice of angle differences, L = max(g_phi, g_theta): both
grids are powers of two and every theta - phi lands back on the lattice
exactly. The joint g(theta - phi) w(phi) is therefore a circular
convolution: the outcome marginal, the posterior moments and the joint
entropy each come from one FFT convolution on the lattice, read off at
the theta points. Memory is O(L), not O(g_phi * g_theta).

The input is the loss decomposition the Holevo quantity reads too
(fock.chi_decompose); one window serves the fine and half-grid runs.

The convolution core is (prior part) x (window part), and a command runs
many (probe, eta) scenarios under one prior and grid. So the prior part
is built once per (prior, g_phi, lattice) and cached: the masses, their
mean and sum w ln w, the spectra of the four spread rows and the masses'
Monte Carlo guide table. Per (probe, eta) come only the window, its
spectra, the products and inverse FFTs, and the window's guide table.

The estimator is the posterior mean, optimal for the non-periodic squared
error used throughout. All grid sums are plain Riemann sums on open
periodic grids, renormalized once; the half-resolution rerun quantifies
the residual.
"""

import functools
import math

import numpy as np

from .capacity import _xlogy
from .errors import NumericalError, ValidationError
from .priors import TWO_PI
from .rate_distortion import discretize_prior

__all__ = ["SimGrid", "SimulationResult", "MonteCarloResult",
           "bayesian_mmse", "monte_carlo_mse"]

CONVERGED_TOL = 1e-4     # fine-vs-half-grid MSE drift for the converged flag
LATTICE_CAP = 2 ** 22    # largest grid size; _core peaks near 26 floats/point
SAMPLES_CAP = 10 ** 7    # largest Monte Carlo draw a scenario may request


class SimGrid:
    """Phase and outcome grid sizes; both must be powers of two."""

    def __init__(self, phi_points=2048, theta_points=2048):
        for name, n, floor in [("phi_points", phi_points, 128),
                               ("theta_points", theta_points, 256)]:
            if n < floor or n > LATTICE_CAP or n & (n - 1):
                raise ValidationError(
                    f"{name} must be a power of two in [{floor}, "
                    f"{LATTICE_CAP}], got {n}")
        self.phi_points = int(phi_points)
        self.theta_points = int(theta_points)

    def __repr__(self):
        return f"SimGrid(phi={self.phi_points}, theta={self.theta_points})"


def _window(decomp, lattice):
    """g on the len-`lattice` difference grid u_t = 2 pi t / lattice.

    g(u) = (1/2pi) sum_{|d| <= cutoff} C_d e^{-i d u}, C_{-d} = conj(C_d),
    whose coefficients C_d = sum_m rho_S(0)[m+d, m] are the loss-branch
    autocorrelations q_l sum_m u_l[m+d] conj(u_l[m]), summed over l.
    Folding C_d into bin d mod lattice makes the sum one FFT of that
    length, exact even when the lattice is shorter than 2 * cutoff + 1.
    Negative dips beyond 1e-10 mean the coefficients were not those of a
    state and raise; smaller ones are clipped.
    """
    cutoff = decomp.probe.cutoff
    diags = np.zeros(cutoff + 1, dtype=complex)
    for q, u in zip(decomp.weights, decomp.vectors):
        diags[:u.size] += q * np.correlate(u, u, "full")[u.size - 1:]
    two_sided = np.concatenate([diags[:0:-1].conj(), [diags[0].real],
                                diags[1:]])
    bins = np.zeros(lattice, dtype=complex)
    np.add.at(bins, np.arange(-cutoff, cutoff + 1) % lattice, two_sided)
    vals = np.fft.hfft(bins[:lattice // 2 + 1], lattice) / TWO_PI
    if vals.min() < -1e-10:
        raise NumericalError(
            f"outcome density dips to {vals.min()}; not a valid state")
    return np.clip(vals, 0.0, None)


class _GuideTable:
    """Exact inverse-CDF draws from one distribution p, by guide table.

    draw(u) is np.searchsorted(np.cumsum(p), u) for u in [0, 1). With a
    power-of-two bucket count b >= p.size, u * b and k / b are exact.
    first[k] counts the cdf values below k / b, so a draw in bucket k
    has its answer in [first[k], first[k + 1]]: one comparison settles a
    bucket at most one wide (Chen & Asau 1974; Devroye 1986, III.2.4).
    A draw in a wider bucket (tails, point masses) climbs from first[k]
    by halving strides; past its bracket the cdf is >= (k + 1) / b > u,
    so no stride overshoots it. Built once per distribution; its arrays
    are read-only and its indices int32.
    """

    def __init__(self, p):
        cdf = np.cumsum(p)
        self.buckets = b = 1 << (p.size - 1).bit_length()
        keys = np.minimum(cdf * b, b).astype(np.intp)
        first = np.cumsum(np.bincount(keys + 1, minlength=b + 2))[:b + 1]
        widths = np.diff(first)
        self.first = first.astype(np.int32)
        self.wide = widths > 1
        widest = int(widths.max())
        steps = widest.bit_length() if widest > 1 else 0
        self.strides = [1 << i for i in reversed(range(steps))]
        # inf past the end keeps every stride's probe in range
        self.cdf = np.concatenate([cdf, np.full(1 << steps, np.inf)])
        for arr in (self.first, self.wide, self.cdf):
            arr.flags.writeable = False

    def draw(self, u):
        k = (u * self.buckets).astype(np.intp)
        out = self.first.take(k)
        out += self.cdf.take(out) < u
        if self.strides:
            wide = np.flatnonzero(self.wide.take(k))
            u = u.take(wide)
            pos = self.first.take(k.take(wide))
            for stride in self.strides:
                np.add(pos, stride, out=pos,
                       where=self.cdf.take(pos + (stride - 1)) < u)
            out[wide] = pos
        return out


class _PriorPart:
    """What `_core` reads of the prior on one (g_phi, lattice) pair.

    The masses w, their mean, the last grid angle, sum w ln w, the rfft
    spectra of the spread rows [w, w dphi, w dphi^2, w ln w] (dphi about
    the mean; phi_i sits on lattice point i * lattice // g_phi) and the
    masses' guide table. Built through `_prior_part`, once per process
    and key, so the arrays are read-only: every (probe, eta) scenario
    on this prior and grid shares them.
    """

    def __init__(self, prior, g_phi, lattice):
        phi, w = discretize_prior(prior, g_phi)
        self.mean = w @ phi
        # moments about the prior mean keep m2 - m1 * shift from
        # cancelling digits when the prior is narrow
        dphi = phi - self.mean
        self.phi_last = phi[-1]
        wlnw = _xlogy(w, w)
        self.wlnw_sum = wlnw.sum()
        spread = np.zeros((4, lattice))
        spread[:, ::lattice // g_phi] = [w, w * dphi, w * dphi ** 2, wlnw]
        self.spectra = np.fft.rfft(spread)
        self.masses = w
        self.spectra.flags.writeable = w.flags.writeable = False

    @functools.cached_property
    def table(self):
        # only the fine grid's masses are ever drawn from
        return _GuideTable(self.masses)


# keyed by the prior object, which the cache keeps alive, so its id
# cannot be reused; priors are not mutated after construction. Four
# entries hold the fine and half grids of the last two (prior, grid)
# pairs. A miss taken by two threads at once builds the same bits twice.
_prior_part = functools.lru_cache(maxsize=4)(_PriorPart)


def _core(g, prior, g_phi, g_theta):
    """One grid evaluation on the window g: (mse, info, estimator, part).

    The lattice is g.size = max(g_phi, g_theta). The joint
    g(theta - phi) w(phi) is never formed. Every sum over phi for a fixed
    theta is a circular convolution on the lattice, taken by FFT and read
    off at the theta points; the sum of J ln J over the joint splits into
    (g ln g) * w + g * (w ln w). `part` is the cached _PriorPart.
    """
    lattice = g.size
    part = _prior_part(prior, g_phi, lattice)
    mean, fw = part.mean, part.spectra
    fg, fglng = np.fft.rfft([g, _xlogy(g, g)])
    prod = fw * fg
    prod[3] += fglng * fw[0]
    p, m1, m2, s = np.fft.irfft(prod, n=lattice)[:, ::lattice // g_theta]
    p = np.maximum(p, 0.0)   # FFT rounding can dip below an exact zero
    z = p.sum()
    shift = np.zeros(g_theta)
    seen = p > 0.0
    # the posterior mean lies in the phi range; the clip only bites where
    # p is rounding noise and the ratio is meaningless
    shift[seen] = np.clip(m1[seen] / p[seen], -mean, part.phi_last - mean)
    est = mean + shift
    mse = max(float(np.sum(m2 - m1 * shift) / z), 0.0)
    # discrete mutual information; the differential corrections cancel
    info = float(s.sum() / z - math.log(z) - _xlogy(p / z, p / z).sum()
                 - part.wlnw_sum)
    return mse, max(info, 0.0), est, part


class SimulationResult:
    """MMSE run output: fine-grid values plus the half-resolution rerun.

    `estimator` holds the posterior mean at theta_j = 2 pi j / g_theta.
    `window` (g on the lattice) and `masses` (the prior on the phase
    grid) are the fine grid's joint, kept for Monte Carlo draws;
    `masses_table` is the masses' guide table, shared by every result on
    one (prior, grid).
    """

    def __init__(self, mse, mse_coarse, mutual_information, converged,
                 estimator, grid, window, masses, masses_table):
        self.mse = mse
        self.mse_coarse = mse_coarse
        self.mutual_information = mutual_information
        self.converged = converged
        self.estimator = estimator
        self.grid = grid
        self.window = window
        self.masses = masses
        self.masses_table = masses_table

    def __repr__(self):
        return (f"SimulationResult(mse={self.mse:.6g}, "
                f"I={self.mutual_information:.6g}, converged={self.converged})")


class MonteCarloResult:
    def __init__(self, mean, stderr):
        self.mean = mean
        self.stderr = stderr

    def __repr__(self):
        return f"MonteCarloResult(mean={self.mean:.6g}, stderr={self.stderr:.3g})"


def bayesian_mmse(decomp, prior, grid=None):
    """Posterior-mean MSE of the canonical measurement on a decomposition.

    `decomp` is the probe's ChiDecomposition at the channel's eta. Runs
    the requested grid and a half-resolution rerun; converged means the
    two MSE values agree within 1e-4. The fine values are primary. The
    half lattice is always half the fine one, so its window is the fine
    window's even points. A prior that the half grid misses gets
    mse_coarse = nan and converged = False.
    """
    grid = grid or SimGrid()
    g = _window(decomp, max(grid.phi_points, grid.theta_points))
    mse, info, est, part = _core(g, prior, grid.phi_points, grid.theta_points)
    try:
        mse_c = _core(g[::2], prior,
                      grid.phi_points // 2, grid.theta_points // 2)[0]
    except ValidationError:
        # the prior's mass sits on odd phase points only: the fine value
        # stands, unconfirmed
        mse_c = math.nan
    return SimulationResult(mse=mse, mse_coarse=mse_c,
                            mutual_information=info,
                            converged=abs(mse - mse_c) <= CONVERGED_TOL,
                            estimator=est, grid=grid, window=g,
                            masses=part.masses, masses_table=part.table)


def monte_carlo_mse(sim, samples=100000, seed=0):
    """Forward-sampled check of the discrete model behind `sim`.

    Draws (phi, theta) from the fine-grid joint that `bayesian_mmse`
    already built and scores its estimator table. Each coordinate is an
    exact inverse-CDF draw, the index np.searchsorted(np.cumsum(p), u)
    found through a guide table: the masses' table comes with `sim`, the
    window's is built here. Exact for square grids; with phi finer
    than theta the outcome snaps to the nearest theta point.
    `samples` must be an integer in [10000, SAMPLES_CAP].
    """
    if (not isinstance(samples, (int, np.integer))  # bools fall below 10000
            or not 10000 <= samples <= SAMPLES_CAP):
        raise ValidationError(f"samples must be an integer in [10000, "
                              f"{SAMPLES_CAP}], got {samples!r}")
    g_phi, g_theta = sim.grid.phi_points, sim.grid.theta_points
    lattice = max(g_phi, g_theta)
    rng = np.random.default_rng(seed)
    # a cdf tip that rounds below 1 can return the past-the-end index
    i = np.minimum(sim.masses_table.draw(rng.random(samples)), g_phi - 1)
    window = _GuideTable(sim.window / sim.window.sum())
    j = np.minimum(window.draw(rng.random(samples)), lattice - 1)
    # all sizes are powers of two: shifts and masks do the lattice maths
    t_lat = ((i << (lattice // g_phi).bit_length() - 1) + j) & (lattice - 1)
    step = lattice // g_theta
    t = ((t_lat + step // 2) >> step.bit_length() - 1) & (g_theta - 1)
    errs = (i * (TWO_PI / g_phi) - sim.estimator.take(t)) ** 2
    return MonteCarloResult(mean=float(errs.mean()),
                            stderr=float(errs.std(ddof=1) / math.sqrt(samples)))
