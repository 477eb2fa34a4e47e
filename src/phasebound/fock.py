"""Truncated Fock-space engine for phase-modulated probes through loss.

A probe is a photon-number amplitude list. Loss splits it into the chi_l
branches indexed by the loss count l; the environment keeps the loss
record, so the branches are orthonormal and the output spectrum is the
loss distribution itself. Every state of the ensemble (rho_phi, its
prior average and the dephased average) is therefore block-diagonal in
l, with one block over the surviving count m per loss count.

chi_decompose computes the branches once per (probe, eta), and its
ChiDecomposition is the only input of both readers: holevo_quantity
here and estimation.bayesian_mmse, whose outcome window sums the
weighted branch autocorrelations.

The Holevo quantity builds no state: the spectrum of each averaged block
follows from the branch weights, the branch magnitudes |u_l| and the
prior's Fourier coefficients (see holevo_quantity). The states
themselves are built only by the test oracle, tests/fock_states.py.

Entropies are in nats.
"""

import math

import numpy as np

from .capacity import binomial_loss_matrix, shannon_entropy
from .errors import NumericalError, ValidationError

__all__ = ["ProbeSpec", "ChiDecomposition", "chi_decompose", "populations",
           "holevo_quantity"]

CUTOFF_CAP = 128
TAIL_MASS = 1e-12


class ProbeSpec:
    """Single-mode probe given by number-basis amplitudes c_0..c_cutoff."""

    def __init__(self, amplitudes, family=None, params=None):
        c = np.asarray(amplitudes, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("amplitudes must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValidationError("amplitudes must be finite")
        norm = np.sum(np.abs(c) ** 2)
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"amplitudes have norm^2 {norm!r}, not 1")
        if c.size - 1 > CUTOFF_CAP:
            raise ValidationError(
                f"cutoff {c.size - 1} exceeds the supported cap {CUTOFF_CAP}")
        self.amplitudes = c / np.sqrt(norm)
        self.probabilities = np.abs(self.amplitudes) ** 2
        self.cutoff = c.size - 1
        n = np.arange(c.size, dtype=float)
        self.mean_photons = float(self.probabilities @ n)
        self.photon_variance = float(self.probabilities @ n**2
                                     - self.mean_photons**2)
        self._family = family
        self._params = dict(params or {})

    @classmethod
    def coherent(cls, alpha):
        """Coherent state |alpha>, truncated where the Poisson tail < 1e-12."""
        alpha = complex(alpha)
        if abs(alpha) > CUTOFF_CAP:
            # far past the cap; checked before |alpha|^2 can overflow
            raise ValidationError(
                f"coherent alpha={abs(alpha):g} needs cutoff beyond {CUTOFF_CAP}")
        ns = abs(alpha) ** 2
        if ns == 0.0:
            return cls([1.0], family="coherent", params={"alpha": 0.0})
        # smallest cutoff with tail mass below threshold
        logp = [-ns]
        while sum(math.exp(v) for v in logp) < 1.0 - TAIL_MASS:
            n = len(logp)
            if n - 1 >= CUTOFF_CAP:
                raise ValidationError(
                    f"coherent alpha={abs(alpha):g} needs cutoff beyond {CUTOFF_CAP}")
            logp.append(-ns + n * math.log(ns) - math.lgamma(n + 1.0))
        p = np.exp(logp)
        amps = np.sqrt(p / p.sum()) * np.exp(1j * np.angle(alpha)
                                             * np.arange(len(p)))
        return cls(amps, family="coherent", params={"alpha": abs(alpha)})

    @classmethod
    def number(cls, n):
        """Fock state |n>."""
        if not 0 <= n <= CUTOFF_CAP or int(n) != n:
            raise ValidationError(
                f"number probe needs integer n in [0, {CUTOFF_CAP}], got {n}")
        amps = np.zeros(int(n) + 1)
        amps[-1] = 1.0
        return cls(amps, family="number", params={"n": int(n)})

    @classmethod
    def flat_superposition(cls, d):
        """Equal-weight superposition of |0>..|d-1>."""
        if not 1 <= d <= CUTOFF_CAP + 1 or int(d) != d:
            raise ValidationError(f"flat superposition needs integer d in "
                                  f"[1, {CUTOFF_CAP + 1}], got {d}")
        return cls(np.full(int(d), 1.0 / np.sqrt(d)),
                   family="flat-superposition", params={"d": int(d)})

    @classmethod
    def binomial_phase(cls, d):
        """Amplitudes sqrt(C(d-1, n)/2^(d-1)) over n = 0..d-1."""
        if not 1 <= d <= CUTOFF_CAP + 1 or int(d) != d:
            raise ValidationError(f"binomial-phase needs integer d in "
                                  f"[1, {CUTOFF_CAP + 1}], got {d}")
        d = int(d)
        p = np.array([math.comb(d - 1, n) for n in range(d)], dtype=float)
        return cls(np.sqrt(p / p.sum()), family="binomial-phase", params={"d": d})

    def descriptor(self):
        out = {"family": self._family or "amplitudes", "cutoff": self.cutoff,
               "mean_photons": self.mean_photons}
        out.update(self._params)
        return out

    def __repr__(self):
        return (f"ProbeSpec({self._family or 'amplitudes'}, cutoff={self.cutoff}, "
                f"N_S={self.mean_photons:.4g})")


class ChiDecomposition:
    """Loss branches of a probe: weights q_l and unit branch vectors u_l.

    u_l[m] = c_{m+l} sqrt(B_eta(m+l, l) / q_l) over surviving count m,
    complex probe phases kept; branches with q_l < 1e-14 are dropped. The
    environment's loss record l separates the branches, so they are exactly
    orthonormal.
    """

    def __init__(self, probe, eta, loss_counts, weights, vectors):
        self.probe = probe
        self.eta = float(eta)
        self.loss_counts = list(loss_counts)
        self.weights = np.asarray(weights, dtype=float)
        self.vectors = vectors   # list of unit complex arrays u_l

    def __len__(self):
        return len(self.loss_counts)


def chi_decompose(probe, eta):
    """Split the probe by loss count; see ChiDecomposition.

    Every branch comes from one binomial loss matrix, which raises
    ValidationError for an eta outside [0, 1].
    """
    kern = binomial_loss_matrix(probe.cutoff, eta)   # kern[n, l]
    counts, weights, vectors = [], [], []
    for l in range(probe.cutoff + 1):
        v = probe.amplitudes[l:] * np.sqrt(kern[l:, l])
        q = (np.abs(v) ** 2).sum()
        if q >= 1e-14:
            counts.append(l)
            weights.append(q)
            vectors.append(v / np.sqrt(q))
    return ChiDecomposition(probe, eta, counts, weights, vectors)


def _toeplitz_table(f):
    # Hermitian Toeplitz table F[m, m'] = f(m - m'), with f(-k) = conj(f(k))
    m = np.arange(f.size)
    lag = m[:, None] - m[None, :]
    table = f[np.abs(lag)]
    table[lag < 0] = table[lag < 0].conj()
    return table


def populations(decomp):
    """Block diagonals q_l |u_l[m]|^2, concatenated over the loss count l.

    They are the spectrum of the dephased average for every prior
    (f(0) = 1), and of rho_bar itself when f(k) = 0 for every k >= 1.
    """
    return np.concatenate([q * np.abs(u) ** 2
                           for q, u in zip(decomp.weights, decomp.vectors)])


def _spectral_entropy(eigs):
    # -sum lambda ln lambda over the values above 1e-14; one below -1e-8
    # means the state itself is broken
    if eigs.min(initial=0.0) < -1e-8:
        raise NumericalError(f"state has eigenvalue {eigs.min()}, below -1e-8")
    return shannon_entropy(eigs[eigs > 1e-14])


def holevo_quantity(decomp, prior):
    """chi = S(rho_bar) - S(rho_IS), from the loss branches alone.

    Every rho_phi is unitarily equivalent to rho_IS, and the branch
    orthonormality makes the spectrum of rho_IS exactly the loss
    distribution, so the subtracted term is the Shannon entropy of q.

    Block l of rho_bar is q_l diag(u_l) F diag(u_l)^dagger. Diagonal phase
    matrices commute with diagonal scalings, so it has the spectrum of
    q_l diag|u_l| F diag|u_l|, and no state is built:
    - when every harmonic f(1..cutoff) is zero, F = I and the spectrum is
      the populations q_l |u_l[m]|^2, with no eigendecomposition;
    - a prior symmetric about a centre c has f(k) = e^{ikc} g(k) with g
      real, and stripping e^{ikc} leaves a real symmetric table;
    - any other prior keeps the complex Hermitian table.
    """
    f = prior.fourier_coefficients(decomp.probe.cutoff)
    h_loss = shannon_entropy(decomp.weights)
    if not f[1:].any():
        return _spectral_entropy(populations(decomp)) - h_loss
    centre = prior._centre()
    if centre is not None:
        f = (f * np.exp(-1j * np.arange(f.size) * centre)).real
    table = _toeplitz_table(f)
    eigs = []
    for q, u in zip(decomp.weights, decomp.vectors):
        a = np.abs(u)
        eigs.append(np.linalg.eigvalsh(
            q * a[:, None] * table[:a.size, :a.size] * a[None, :]))
    return _spectral_entropy(np.concatenate(eigs)) - h_loss
