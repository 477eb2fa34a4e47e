"""Phase priors on [0, 2*pi) and their information functionals.

Three families are supported: uniform windows (possibly wrapping through 0),
wrapped Gaussians, and tabulated densities on a uniform grid. All integrals
run over a single period; entropies are in nats. Squared error downstream is
the plain non-periodic (phi_hat - phi)^2, so the variance here treats the
phase as a real variable on [0, 2*pi).

The uniform window's functionals are closed forms; the other kinds sum,
by the trapezoid rule, one density table built with the prior: the
tabulated values, or the wrapped Gaussian on 4096 points.
"""

import numpy as np

from .capacity import _xlogy
from .errors import ValidationError

__all__ = ["PhasePrior", "TWO_PI"]

TWO_PI = 2.0 * np.pi

# points of the wrapped Gaussian's density table
_GRID = 4096

# the wrapped Gaussian widths whose functionals the density table and the
# +/-5 images get right to ~1e-12. Below: the grid sum aliases harmonic
# 4096, of weight exp(-(4096 sigma)^2 / 2), 3e-15 at 2e-3 (the entropy's
# integrand carries (4096 sigma)^2 times that). Above: the images reach
# 10 pi past the mean on either side, and the Gaussian tail beyond
# 10 pi / 4.4 = 7.1 sigma holds 5e-13 of the mass.
SIGMA_MIN, SIGMA_MAX = 2e-3, 4.4


class PhasePrior:
    """Prior density P(phi) for a phase on [0, 2*pi)."""

    def __init__(self, kind, params, values=None):
        self.kind = kind
        self.params = dict(params)
        self._values = None if values is None else np.asarray(values, float)

    # ---- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, center=np.pi, width=TWO_PI):
        """Uniform window of the given width centered at `center` (radians)."""
        center, width = float(center), float(width)
        if not np.isfinite(center):
            raise ValidationError(f"uniform prior needs a finite center, got {center}")
        if not 0.0 < width <= TWO_PI:
            raise ValidationError(f"uniform prior needs 0 < width <= 2*pi, got {width}")
        return cls("uniform", {"center": center % TWO_PI, "width": width})

    @classmethod
    def wrapped_gaussian(cls, mean, sigma):
        """Gaussian of width `sigma` wrapped onto the circle (+/-5 images)."""
        mean, sigma = float(mean), float(sigma)
        if not np.isfinite(mean):
            raise ValidationError(f"wrapped_gaussian needs a finite mean, got {mean}")
        if not SIGMA_MIN <= sigma <= SIGMA_MAX:
            raise ValidationError(
                f"wrapped_gaussian needs sigma in [{SIGMA_MIN}, {SIGMA_MAX}],"
                f" got {sigma}")
        prior = cls("wrapped_gaussian", dict(mean=mean % TWO_PI, sigma=sigma))
        prior._values = prior.density(np.arange(_GRID) * (TWO_PI / _GRID))
        return prior

    @classmethod
    def tabulated(cls, values):
        """Density values on the uniform grid phi_k = 2*pi*k/K, K = len(values).

        The numeric integral (periodic trapezoid rule) must be within 1e-8 of
        one; values are then rescaled so that it is exactly one.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValidationError("tabulated prior needs at least 2 grid values")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("tabulated prior values must be finite and nonnegative")
        integral = float(values.sum() * (TWO_PI / values.size))
        if abs(integral - 1.0) > 1e-8:
            raise ValidationError(f"tabulated prior integrates to {integral!r}, not 1")
        values = values / integral
        return cls("tabulated", {"grid_size": values.size}, values=values)

    # ---- density ------------------------------------------------------

    def density(self, phi):
        """P(phi), vectorized; phi is taken modulo 2*pi."""
        return self._density(np.asarray(phi, dtype=float) % TWO_PI)

    def grid_density(self, n):
        """Density on the open uniform grid of n points (wraps periodically)."""
        return self._density(np.arange(n) * (TWO_PI / n), on_grid=True)

    def _density(self, phi, on_grid=False):
        # P at phi in [0, 2*pi]. Grid points lie below 2*pi, where adding
        # 2*pi to a negative phi - start equals (phi - start) % TWO_PI bit
        # for bit; density()'s remainder rounds phi = -1e-17 up to 2*pi
        # exactly, where only the remainder puts it back in the window
        if self.kind == "uniform":
            width = self.params["width"]
            x = phi - (self.params["center"] - width / 2.0) % TWO_PI
            if on_grid:
                np.add(x, TWO_PI, out=x, where=x < 0.0)
            else:
                x %= TWO_PI
            return np.where(x < width, 1.0 / width, 0.0)
        if self.kind == "wrapped_gaussian":
            mu, sig = self.params["mean"], self.params["sigma"]
            out = np.zeros_like(phi)
            for j in range(-5, 6):
                out += np.exp(-((phi - mu - TWO_PI * j) ** 2) / (2.0 * sig**2))
            return out / (sig * np.sqrt(TWO_PI))
        # tabulated: periodic linear interpolation between grid points
        k = self._values.size
        grid = np.arange(k + 1) * (TWO_PI / k)
        vals = np.concatenate([self._values, self._values[:1]])
        return np.interp(phi, grid, vals)

    # ---- functionals ----------------------------------------------------

    def _moment_integral(self, f):
        # trapezoid on the closed interval [0, 2*pi]: f is not periodic, so
        # the seam carries f(2*pi) != f(0) even though the density wraps
        dens = self._values
        n = dens.size
        vals = f(np.arange(n) * (TWO_PI / n)) * dens
        end = f(TWO_PI) * dens[0]
        return (TWO_PI / n) * (vals.sum() - 0.5 * (vals[0] - end))

    def differential_entropy(self):
        """h = -int P ln P dphi in nats, with 0*ln(0) = 0."""
        if self.kind == "uniform":
            return float(np.log(self.params["width"]))
        # periodic trapezoid rule on the table
        dens = self._values
        return float(-np.sum(_xlogy(dens, dens)) * (TWO_PI / dens.size))

    def entropy_power(self):
        """Q = e^{2h}/(2*pi*e): variance of a Gaussian with the same entropy."""
        return float(np.exp(2.0 * self.differential_entropy()) / (TWO_PI * np.e))

    def max_density(self):
        """Peak density P_max; at least 1/(2*pi) for any normalized prior."""
        if self.kind == "uniform":
            return 1.0 / self.params["width"]
        if self.kind == "wrapped_gaussian":
            return float(self.density(self.params["mean"]))
        return float(self._values.max())

    def mean(self):
        """E[phi] with phi read as a real number in [0, 2*pi)."""
        if self.kind == "uniform":
            m, _ = self._window_moments()
            return m
        return float(self._moment_integral(lambda phi: phi))

    def variance(self):
        """Var(phi), non-periodic, matching the squared-error convention."""
        if self.kind == "uniform":
            m, second = self._window_moments()
            return second - m * m
        m = self.mean()
        return float(self._moment_integral(lambda phi: (phi - m) ** 2))

    def _window_pieces(self):
        # support arcs of a uniform window, split at the 0/2*pi seam
        c, w = self.params["center"], self.params["width"]
        start = (c - w / 2.0) % TWO_PI
        if start + w <= TWO_PI or w == TWO_PI:
            return [(start, start + w)]
        return [(start, TWO_PI), (0.0, start + w - TWO_PI)]

    def _window_moments(self):
        w = self.params["width"]
        pieces = self._window_pieces()
        m1 = sum(b * b - a * a for a, b in pieces) / (2.0 * w)
        m2 = sum(b**3 - a**3 for a, b in pieces) / (3.0 * w)
        return m1, m2

    def fourier_coefficients(self, kmax):
        """E[e^{i k phi}] for k = 0..kmax (complex array of length kmax+1).

        Exact for the analytic kinds, and exactly zero for k >= 1 on the
        full-circle window (sin(k*pi) would leave ~1e-16); spectrally
        accurate periodic trapezoid, one FFT of the table, for tabulated
        densities.
        """
        k = np.arange(kmax + 1)
        if self.kind == "uniform":
            c, w = self.params["center"], self.params["width"]
            mag = np.zeros(kmax + 1)
            mag[0] = 1.0
            if w < TWO_PI:
                halfarg = k[1:] * w / 2.0
                mag[1:] = np.sin(halfarg) / halfarg
            return np.exp(1j * k * c) * mag
        if self.kind == "wrapped_gaussian":
            mu, sig = self.params["mean"], self.params["sigma"]
            return np.exp(1j * k * mu - 0.5 * (k * sig) ** 2)
        # harmonics past n alias: bin k % n carries harmonic k
        n = self._values.size
        return (TWO_PI / n) * np.fft.fft(self._values).conj()[k % n]

    def _centre(self):
        # centre c of a density symmetric about it, so that e^{-ikc} f(k)
        # is real; None when no such centre is known
        if self.kind == "uniform":
            return self.params["center"]
        if self.kind == "wrapped_gaussian":
            return self.params["mean"]
        return None

    def normalization(self):
        """Integral of the density over [0, 2*pi) (should be 1).

        Uniform windows use the exact arc lengths; quadrature of the
        indicator would carry an O(1/grid) edge error.
        """
        if self.kind == "uniform":
            return sum(b - a for a, b in self._window_pieces()) / self.params["width"]
        return float(np.sum(self._values) * (TWO_PI / self._values.size))

    # ---- misc -----------------------------------------------------------

    def descriptor(self):
        """JSON-friendly description of the prior."""
        out = {"kind": self.kind}
        out.update({k: (v if not isinstance(v, np.generic) else float(v))
                    for k, v in self.params.items()})
        return out

    def __repr__(self):
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self.params.items())
        return f"PhasePrior.{self.kind}({inner})"

