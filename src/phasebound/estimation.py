"""Bayesian phase estimation on the lossy signal mode.

The probe goes through a transmittance-eta channel, the environment keeps
the loss count, and the surviving signal mode is measured with the
canonical phase POVM. Its outcome density is a fixed window g(u) dragged
around the circle by the true phase, so the whole experiment lives on a
shared len-L lattice of angle differences, L = max(g_phi, g_theta): both
grids are powers of two and every theta - phi lands back on the lattice
exactly. The joint g(theta - phi) w(phi) is therefore a circular
convolution: the outcome marginal, the posterior moments and the joint
entropy each come from one product of spectra on the lattice, read off
at the theta points. Memory is O(L), not O(g_phi * g_theta).

One identity serves twice: the spectrum of every s-th point x[::s] is
the spectrum of x folded onto L/s bins, an O(L) step (`_fold`). The
theta points are every (L / g_theta)-th lattice point, so each row
takes one inverse FFT of length g_theta; the half lattice holds the
fine one's even points, so one window and one forward transform serve
the fine and half-grid runs. The input is the loss decomposition the
Holevo quantity reads too (fock.chi_decompose_all). The window is a
trigonometric polynomial of degree cutoff: its coefficients go straight
into the half spectrum that one hfft reads, on a lattice of at least
2 * cutoff points.

The convolution core is (prior part) x (window part), and a command runs
many (probe, eta) scenarios under one prior and grid. So `prior_parts`
builds the fine and the half-grid prior part (`_PriorPart`) once, and
hands them with their grid, read-only, to every `bayesian_mmse_all`
call, on any thread. The windows run
stacked: `_spectra`, `_fold` and `_core` take (..., rows, bins) arrays,
and each stack of at most STACK_POINTS lattice points takes one forward
transform and one fine and one half-grid `_core`; a grid at or above
that runs one scenario per stack.

The estimator is the posterior mean, optimal for the non-periodic squared
error used throughout. All grid sums are plain Riemann sums on open
periodic grids, renormalized once; the half-resolution rerun quantifies
the residual.
"""

import math

import numpy as np

from .capacity import _xlogy
from .errors import NumericalError, ValidationError
from .priors import TWO_PI
from .rate_distortion import discretize_prior

__all__ = ["SimGrid", "SimulationResult", "MonteCarloResult",
           "bayesian_mmse", "bayesian_mmse_all", "monte_carlo_mse",
           "prior_parts"]

CONVERGED_TOL = 1e-4     # fine-vs-half-grid MSE drift for the converged flag
LATTICE_CAP = 2 ** 22    # largest grid size; a run peaks near 24 floats/point
STACK_POINTS = 2 ** 15   # lattice points per stacked pass of scenarios
SAMPLES_CAP = 10 ** 7    # largest Monte Carlo draw a scenario may request
_log = np.vectorize(math.log, otypes=[float])  # math.log's bits, not np.log's


class SimGrid:
    """Phase and outcome grid sizes; both must be powers of two."""

    def __init__(self, phi_points=2048, theta_points=2048):
        for name, n, floor in [("phi_points", phi_points, 128),
                               ("theta_points", theta_points, 256)]:
            if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                    or not floor <= n <= LATTICE_CAP or n & (n - 1)):
                raise ValidationError(
                    f"{name} must be a power of two in [{floor}, "
                    f"{LATTICE_CAP}], got {n!r}")
        self.phi_points = int(phi_points)
        self.theta_points = int(theta_points)

    def __repr__(self):
        return f"SimGrid(phi={self.phi_points}, theta={self.theta_points})"


def _window(decomp, lattice):
    """g on the len-`lattice` difference grid u_t = 2 pi t / lattice.

    g(u) = (1/2pi) sum_{|d| <= cutoff} C_d e^{-i d u}, C_{-d} = conj(C_d),
    whose coefficients C_d = sum_m rho_S(0)[m+d, m] are the superdiagonal
    sums of V^dagger V, V the branch array: one product, one view. The
    sum is one hfft of the half spectrum, bins 0..lattice/2, which takes
    [C_0, C_1..C_cutoff] directly: the negative lags fold into bins past
    lattice/2, which hfft never reads, except C_{-cutoff} at lattice
    2 * cutoff, which joins C_cutoff in the Nyquist bin. The lattice must
    be at least 2 * cutoff: every lattice a run builds a window on has at
    least 256 = 2 * CUTOFF_CAP points. Negative dips beyond 1e-10 mean
    the coefficients were not those of a state and raise; smaller ones
    are clipped.
    """
    cutoff = decomp.probe.cutoff
    v = decomp.branches
    gram = np.zeros((cutoff + 1, 2 * cutoff + 1), dtype=complex)
    gram[:, :cutoff + 1] = v.conj().T @ v
    # a read-only view of gram[m, m + d] at [m, d], all in bounds; the
    # zero columns past the cutoff hold the lags d > cutoff - m
    s0, s1 = gram.strides
    view = np.ndarray((cutoff + 1, cutoff + 1), complex, gram,
                      strides=(s0 + s1, s1))
    view.flags.writeable = False
    diags = view.sum(0)
    half = np.zeros(lattice // 2 + 1, dtype=complex)
    half[0] = diags[0].real
    half[1:cutoff + 1] = diags[1:]
    if lattice == 2 * cutoff:
        half[cutoff] = 2 * diags[cutoff].real
    vals = np.fft.hfft(half, lattice) / TWO_PI
    if vals.min() < -1e-10:
        raise NumericalError(
            f"outcome density dips to {vals.min()}; not a valid state")
    return np.clip(vals, 0.0, None)


class _GuideTable:
    """Exact inverse-CDF draws from one distribution p, by guide table.

    draw(u) is min(np.searchsorted(np.cumsum(p), u), p.size - 1) for u
    in [0, 1): the cdf's last entry is read as at least 1, so a tip that
    rounds below 1 draws the last index. With a power-of-two bucket
    count b >= max(p.size, min_buckets), u * b and k / b are exact.
    first[k] counts the cdf values below k / b, so a draw in bucket k
    has its answer in [first[k], first[k + 1]]: one comparison settles a
    bucket at most one wide (Chen & Asau 1974; Devroye 1986, III.2.4).
    A draw in a wider bucket (tails, point masses) climbs from first[k]
    by halving strides; past its bracket the cdf is >= (k + 1) / b > u,
    so no stride overshoots it. Built once per distribution; its arrays
    are read-only and its indices int32. draw returns intp indices.
    """

    def __init__(self, p, min_buckets=1):
        cdf = np.cumsum(p)
        cdf[-1] = max(cdf[-1], 1.0)
        self.buckets = b = 1 << (max(p.size, min_buckets) - 1).bit_length()
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
        # one intp array holds the buckets, then the answers, so no take
        # converts an index array; the unsafe cast truncates u * b >= 0
        out = np.empty(u.shape, np.intp)
        np.multiply(u, self.buckets, out=out, casting="unsafe")
        if self.strides:
            wide = np.flatnonzero(self.wide.take(out))
            pos = self.first.take(out.take(wide))
        out[:] = self.first.take(out)
        out += self.cdf.take(out) < u
        if self.strides:
            u = u.take(wide)
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
    masses' guide table. Built once per command or `bayesian_mmse` call
    (`prior_parts`); the arrays are read-only, since every (probe, eta)
    scenario shares them, on every thread.
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
        self._table = None

    @property
    def table(self):
        """The masses' guide table, built on first read: only the fine
        grid's masses are drawn from. Unguarded, so a caller that draws
        on several threads reads it once before they start."""
        if self._table is None:
            self._table = _GuideTable(self.masses)
        return self._table


def _spectra(g):
    """The rfft rows [g, g ln g] of windows g: all that `_core` reads."""
    return np.fft.rfft(np.stack([g, _xlogy(g, g)], -2))


def _fold(spec, step):
    """The rfft rows of x[..., ::step], from the rfft rows `spec` of x.

    Reading every step-th of L samples folds the spectrum onto M = L/step
    bins, Y[k] = sum_j X[k + j M] / step (Oppenheim & Schafer,
    Discrete-Time Signal Processing, 4.6). The rfft half holds the
    j < step/2 terms, summed as A[k] below, and a real x has the rest as
    conj(A[M - k]), so Y[k] = (A[k] + conj(A[M - k])) / step for
    1 <= k <= M/2; Y[0] takes conj(A[0] - X[0] + X[L/2]) for its second
    term. Exact: g ln g at the kept points is (g ln g)[::step], and step
    is a power of two, so the scaling rounds nothing. step == 1 returns
    `spec` itself.
    """
    if step == 1:
        return spec
    points = 2 * (spec.shape[-1] - 1) // step
    half = points // 2
    # at step 2 each bin has one term: a view, not a copy
    a = spec[..., :points] if step == 2 else spec[..., :-1].reshape(
        spec.shape[:-1] + (step // 2, points)).sum(-2)
    out = np.empty(spec.shape[:-1] + (half + 1,), dtype=complex)
    out[..., 0] = a[..., 0] + (a[..., 0] - spec[..., 0] + spec[..., -1]).conj()
    out[..., 1:] = a[..., 1:half + 1] + a[..., ::-1][..., :half].conj()
    out *= 1.0 / step
    return out


def _core(spec, part, g_theta):
    """One grid evaluation on window spectra: (mse, info, estimator).

    `spec` is `_spectra` of windows on the lattice of `part`, the
    _PriorPart of the phase grid; mse, info and estimator rows follow its
    leading axes. The joint g(theta - phi) w(phi) is never formed. Every
    sum over phi for a fixed theta is a circular convolution on the
    lattice, a product of spectra read off at the theta points; the sum
    of J ln J over the joint splits into (g ln g) * w + g * (w ln w).
    """
    lattice = 2 * (spec.shape[-1] - 1)
    mean, fw = part.mean, part.spectra
    prod = fw * spec[..., :1, :]
    prod[..., 3, :] += spec[..., 1, :] * fw[0]
    rows = np.fft.irfft(_fold(prod, lattice // g_theta), n=g_theta)
    p, m1, m2, s = (rows[..., k, :] for k in range(4))
    p = np.maximum(p, 0.0)   # FFT rounding can dip below an exact zero
    z = p.sum(-1)
    shift = np.zeros(p.shape)
    seen = p > 0.0
    # the posterior mean lies in the phi range; the clip only bites where
    # p is rounding noise and the ratio is meaningless
    shift[seen] = np.clip(m1[seen] / p[seen], -mean, part.phi_last - mean)
    est = mean + shift
    mse = np.maximum((m2 - m1 * shift).sum(-1) / z, 0.0)
    # discrete mutual information; the differential corrections cancel
    q = p / z[..., None]
    info = s.sum(-1) / z - _log(z) - _xlogy(q, q).sum(-1) - part.wlnw_sum
    return mse, np.maximum(info, 0.0), est


class SimulationResult:
    """MMSE run output: fine-grid values plus the half-resolution rerun.

    `estimator` holds the posterior mean at theta_j = 2 pi j / g_theta
    and `window` g on the lattice; with the masses of `prior_part`, the
    fine grid's _PriorPart shared by every result built on it, they are
    the fine grid's joint, and Monte Carlo reads the grid off their
    sizes. The masses' guide table is built on the part's first read, so
    a result that is never sampled builds none. `converged` is read off
    the half-grid drift: |mse - mse_coarse| <= CONVERGED_TOL, so a nan
    mse_coarse (no half grid) reads False.
    """

    def __init__(self, mse, mse_coarse, mutual_information, estimator,
                 window, prior_part):
        self.mse = mse
        self.mse_coarse = mse_coarse
        self.mutual_information = mutual_information
        self.converged = abs(mse - mse_coarse) <= CONVERGED_TOL
        self.estimator = estimator
        self.window = window
        self.prior_part = prior_part

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
    """The SimulationResult of one decomposition; see bayesian_mmse_all."""
    parts = prior_parts(prior, grid or SimGrid())
    return bayesian_mmse_all([decomp], parts)[0]


def prior_parts(prior, grid):
    """`grid` with the fine and the half-grid _PriorPart of `prior` on it.

    The half part is None when the prior's mass sits on odd phase points
    only. Both are read-only, so one triple may serve any number of
    `bayesian_mmse_all` calls, on any thread.
    """
    lattice = max(grid.phi_points, grid.theta_points)
    part = _PriorPart(prior, grid.phi_points, lattice)
    try:
        half = _PriorPart(prior, grid.phi_points // 2, lattice // 2)
    except ValidationError:
        half = None   # the prior's mass is on odd phase points
    return grid, part, half


def bayesian_mmse_all(decomps, parts):
    """Posterior-mean MSE of the canonical measurement, per decomposition.

    Each is a probe's ChiDecomposition at the channel's eta; `parts` is
    prior_parts(prior, grid). mse_coarse is a half-grid rerun (the fine
    spectra folded), nan for a prior the half grid misses.
    """
    grid, part, half = parts
    g_theta = grid.theta_points
    lattice = max(grid.phi_points, g_theta)
    size = max(STACK_POINTS // lattice, 1)
    out = []
    for k in range(0, len(decomps), size):
        g = np.array([_window(d, lattice) for d in decomps[k:k + size]])
        spec = _spectra(g)
        mse, info, est = _core(spec, part, g_theta)
        # without a half grid the fine values stand
        mse_c = np.full(len(g), math.nan) if half is None else \
            _core(_fold(spec, 2), half, g_theta // 2)[0]
        out += [SimulationResult(m, c, i, e, w, part) for m, c, i, e, w in
                zip(mse.tolist(), mse_c.tolist(), info.tolist(), est, g)]
    return out


def monte_carlo_mse(sim, samples=100000, seed=0):
    """Forward-sampled check of the discrete model behind `sim`.

    Draws (phi, theta) from the fine-grid joint that `bayesian_mmse`
    already built and scores its estimator table. Each coordinate is an
    exact inverse-CDF draw through a guide table (`_GuideTable.draw`),
    so every index is in range: the masses' table is the one kept with
    `sim`'s prior part, built on its first read, and the window's is
    built here. Exact for square grids; with phi finer than theta the
    outcome snaps to the nearest theta point.
    `samples` must be an integer in [10000, SAMPLES_CAP].
    """
    if (not isinstance(samples, (int, np.integer))  # bools fall below 10000
            or not 10000 <= samples <= SAMPLES_CAP):
        raise ValidationError(f"samples must be an integer in [10000, "
                              f"{SAMPLES_CAP}], got {samples!r}")
    samples = int(samples)
    # the grid is the sizes of the arrays drawn from and indexed
    g_phi, g_theta = sim.prior_part.masses.size, sim.estimator.size
    lattice = sim.window.size
    rng = np.random.default_rng(seed)
    u = rng.random(samples)
    i = sim.prior_part.table.draw(u)
    # a table's time and memory grow with its buckets, its savings with
    # the draws: one bucket per 16 draws settles most of 100 000 draws on
    # a 2048 lattice in one comparison and stays small beside the draws
    window = _GuideTable(sim.window / sim.window.sum(), samples // 16)
    # the outcome uniforms reuse the phase uniforms' buffer: the same
    # stream as a second rng.random(samples), one array fewer at the peak
    j = window.draw(rng.random(out=u))
    del u, window
    errs = i * (TWO_PI / g_phi)
    # the outcome index round((i L / g_phi + j) / step) mod g_theta, in
    # place; all sizes are powers of two, so shifts and one mask do it,
    # and the mod g_theta covers the lattice's own mod L
    if g_phi < lattice:
        i <<= (lattice // g_phi).bit_length() - 1
    i += j
    del j
    step = lattice // g_theta
    if step > 1:
        i += step // 2
        i >>= step.bit_length() - 1
    i &= g_theta - 1
    errs -= sim.estimator.take(i)
    errs *= errs
    # errs.mean() and errs.std(ddof=1), in their own order of operations
    mean = errs.mean()
    errs -= mean
    errs *= errs
    var = errs.sum() / (samples - 1)
    return MonteCarloResult(mean=float(mean),
                            stderr=math.sqrt(var) / math.sqrt(samples))
