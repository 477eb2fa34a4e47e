"""Truncated Fock-space engine for phase-modulated probes through loss.

A probe is a photon-number amplitude list. Loss splits it into the chi_l
branches indexed by the loss count l; with an orthonormal companion index
per photon number (the idler convention) the branches are orthonormal and
the output spectrum is the loss distribution itself. Density matrices are
kept over an explicit flat basis of (companion, m) pairs so partial traces
and phase randomization stay bookkeeping, not index gymnastics.

Entropies are in nats.
"""

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .capacity import binomial_loss_matrix, shannon_entropy
from .errors import NumericalError, ValidationError

__all__ = ["ProbeSpec", "ChiDecomposition", "DensityMatrix", "loss_branches",
           "chi_decompose", "modulated_state", "average_state",
           "phase_randomize", "von_neumann_entropy", "holevo_quantity"]

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
        if n < 0 or int(n) != n:
            raise ValidationError(f"number probe needs integer n >= 0, got {n}")
        amps = np.zeros(int(n) + 1)
        amps[-1] = 1.0
        return cls(amps, family="number", params={"n": int(n)})

    @classmethod
    def flat_superposition(cls, d):
        """Equal-weight superposition of |0>..|d-1>."""
        if d < 1 or int(d) != d:
            raise ValidationError(f"flat superposition needs integer d >= 1, got {d}")
        return cls(np.full(int(d), 1.0 / np.sqrt(d)),
                   family="flat-superposition", params={"d": int(d)})

    @classmethod
    def from_amplitudes(cls, amplitudes):
        """Probe from an explicit number-basis amplitude list."""
        return cls(amplitudes)

    @classmethod
    def binomial_phase(cls, d):
        """Amplitudes sqrt(C(d-1, n)/2^(d-1)) over n = 0..d-1."""
        if d < 1 or int(d) != d:
            raise ValidationError(f"binomial-phase needs integer d >= 1, got {d}")
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
    """Loss branches of a probe: weights q_l and branch amplitudes.

    Branch l has amplitude sqrt(p_n B_eta(n, l) / q_l) on the basis element
    (companion n, signal m = n - l); branches with q_l < 1e-14 are dropped.
    Distinct branches occupy disjoint (n, m) pairs, so they are exactly
    orthonormal.
    """

    def __init__(self, probe, eta, loss_counts, weights, branch_ns, branch_amps):
        self.probe = probe
        self.eta = float(eta)
        self.loss_counts = list(loss_counts)
        self.weights = np.asarray(weights, dtype=float)
        self.branch_ns = branch_ns      # list of int arrays: n values per branch
        self.branch_amps = branch_amps  # list of float arrays, same shapes

    def __len__(self):
        return len(self.loss_counts)


def loss_branches(probe, eta):
    """Post-loss amplitude vector over surviving count m, per loss count l.

    Returns (l, v_l) pairs with v_l[m] = c_{m+l} sqrt(B_eta(m+l, l)); the
    complex probe phases stay, because they shape the signal coherences.
    Branches whose weight |v_l|^2 is below 1e-14 are dropped. An eta
    outside [0, 1] raises ValidationError from the loss matrix.
    """
    kern = binomial_loss_matrix(probe.cutoff, eta)   # kern[n, l]
    out = []
    for l in range(probe.cutoff + 1):
        v = probe.amplitudes[l:] * np.sqrt(kern[l:, l])
        if (np.abs(v) ** 2).sum() >= 1e-14:
            out.append((l, v))
    return out


def chi_decompose(probe, eta):
    """Split the probe by loss count; see ChiDecomposition."""
    counts, weights, b_ns, b_amps = [], [], [], []
    for l, v in loss_branches(probe, eta):
        mass = np.abs(v) ** 2
        ms = np.flatnonzero(mass > 0.0)
        counts.append(l)
        weights.append(mass.sum())
        b_ns.append(ms + l)
        b_amps.append(np.sqrt(mass[ms] / mass.sum()))
    return ChiDecomposition(probe, eta, counts, weights, b_ns, b_amps)


class DensityMatrix:
    """Hermitian unit-trace matrix over an explicit (companion, m) basis.

    `generator[i]` is the photon number driving the phase of basis element i
    (companion label by default, the idler convention where companion = n).
    """

    def __init__(self, matrix, basis, generator=None):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(basis):
            raise ValidationError("matrix shape does not match the basis")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValidationError("matrix is not Hermitian within 1e-12")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"trace is {tr!r}, not 1")
        self.matrix = m
        self.basis = list(basis)
        if generator is None:
            generator = np.array([c for c, _ in self.basis])
        self.generator = np.asarray(generator)

    def reduced_signal(self):
        """Trace out the companion index; returns a plain (m_max+1)^2 array."""
        m_max = max(m for _, m in self.basis)
        out = np.zeros((m_max + 1, m_max + 1), dtype=complex)
        comps = np.array([c for c, _ in self.basis])
        ms = np.array([m for _, m in self.basis])
        for c in np.unique(comps):
            idx = np.flatnonzero(comps == c)
            out[np.ix_(ms[idx], ms[idx])] += self.matrix[np.ix_(idx, idx)]
        return out

    def __repr__(self):
        return f"DensityMatrix(dim={len(self.basis)})"


def _assemble(decomp, phases):
    """Dense matrix over the union basis; branch l gets its vector times
    e^{i n phi} as an outer product, weighted by q_l."""
    basis, gen, offsets = [], [], []
    for ns, l in zip(decomp.branch_ns, decomp.loss_counts):
        offsets.append(len(basis))
        basis.extend((int(n), int(n - l)) for n in ns)
        gen.extend(int(n) for n in ns)
    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    for off, ns, amps, w in zip(offsets, decomp.branch_ns, decomp.branch_amps,
                                decomp.weights):
        v = amps * np.exp(1j * ns * phases)
        sl = slice(off, off + ns.size)
        mat[sl, sl] = w * np.outer(v, v.conj())
    return mat, basis, np.array(gen)


def modulated_state(decomp, phi):
    """rho_phi: each branch amplitude picks up e^{i n phi} by photon number."""
    mat, basis, gen = _assemble(decomp, float(phi))
    return DensityMatrix(mat, basis, gen)


def average_state(decomp, prior, grid_size=512, method="fourier"):
    """Prior-averaged state rho_bar.

    The (i, j) entry of rho_phi carries e^{i(n_i - n_j)phi}, so averaging
    multiplies the phi = 0 entry by the prior Fourier coefficient of order
    n_i - n_j: exact, and the default. method="quadrature" instead sums
    rho_phi over a grid_size-point grid with prior weights (renormalized),
    as an independent cross-check path.
    """
    if grid_size < 64:
        raise ValidationError(f"phase grid must have >= 64 points, got {grid_size}")
    if method == "fourier":
        mat, basis, gen = _assemble(decomp, 0.0)
        f = prior.fourier_coefficients(int(gen.max()) if gen.size else 0)
        diff = gen[:, None] - gen[None, :]
        table = np.concatenate([f[::-1].conj(), f[1:]])
        mat = mat * table[diff + (len(f) - 1)]
        return DensityMatrix(mat, basis, gen)
    if method != "quadrature":
        raise ValidationError(f"unknown averaging method {method!r}")
    phis = np.arange(grid_size) * (2.0 * np.pi / grid_size)
    w = prior.grid_density(grid_size)
    w = w / w.sum()
    mat, basis, gen = _assemble(decomp, 0.0)
    acc = np.zeros_like(mat)
    for phi, weight in zip(phis, w):
        if weight == 0.0:
            continue
        phase = np.exp(1j * gen * phi)
        acc += weight * (mat * np.outer(phase, phase.conj()))
    return DensityMatrix(acc, basis, gen)


def phase_randomize(rho):
    """Zero every coherence between different phase-generator eigenvalues."""
    keep = rho.generator[:, None] == rho.generator[None, :]
    return DensityMatrix(np.where(keep, rho.matrix, 0.0), rho.basis,
                         rho.generator)


def von_neumann_entropy(rho):
    """-sum lambda ln lambda over eigenvalues above 1e-14.

    Exactly-zero off-diagonal blocks are split off first (the matrices here
    are block-diagonal in the loss count), so the eigenproblem stays small.
    An eigenvalue below -1e-8 means the state itself is broken.
    """
    m = rho.matrix
    pattern = csr_matrix(np.abs(m) > 0.0)
    n_comp, labels = connected_components(pattern, directed=False)
    eigs = []
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        if idx.size == 1:
            eigs.append(m[idx[0], idx[0]].real)
        else:
            eigs.extend(np.linalg.eigvalsh(m[np.ix_(idx, idx)]))
    eigs = np.asarray(eigs, dtype=float)
    if eigs.min(initial=0.0) < -1e-8:
        raise NumericalError(f"state has eigenvalue {eigs.min()}, below -1e-8")
    lam = eigs[eigs > 1e-14]
    return float(-np.sum(lam * np.log(lam)))


def holevo_quantity(decomp, prior, grid_size=512, method="fourier"):
    """chi = S(rho_bar) - S(rho_IS).

    Every rho_phi is unitarily equivalent to rho_IS, and the branch
    orthonormality makes the spectrum of rho_IS exactly the loss
    distribution, so the subtracted term is the Shannon entropy of q.
    """
    avg = average_state(decomp, prior, grid_size=grid_size, method=method)
    return von_neumann_entropy(avg) - shannon_entropy(decomp.weights)
