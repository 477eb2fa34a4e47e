"""Block-diagonal Fock states: the test oracle for the state-free engine.

holevo_quantity and the simulator read the loss branches of a
ChiDecomposition directly and build no state. The states they stand for
are built here, so the tests can check the engine against them: rho_phi,
its prior average rho_bar, the dephased average and the von Neumann
entropy of each, all from the unit branch vectors u_l (`vectors`).

Every state is block-diagonal in the loss count l and kept as that list
of blocks, each over the surviving count m. The averaging table comes
from scipy.linalg.toeplitz, not from the engine's own table.

The simulator's outcome window has its oracle here too: `folded_window`
folds every lag of the window's coefficients into its lattice bin, on
any lattice, where the simulator writes them into the half spectrum on
lattices of at least 2 * cutoff points only.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import toeplitz

from phasebound.errors import ValidationError
from phasebound.fock import _spectral_entropy

__all__ = ["vectors", "DensityMatrix", "modulated_state", "average_state",
           "phase_randomize", "von_neumann_entropy", "folded_window"]


def vectors(decomp):
    """The unit branch vectors u_l of a ChiDecomposition, as a list of
    arrays over the surviving count m."""
    return [v[:v.size - l] / np.sqrt(q) for l, q, v
            in zip(decomp.loss_counts, decomp.weights, decomp.branches)]


class DensityMatrix:
    """Hermitian unit-trace state, block-diagonal in the loss count.

    Each block covers one loss count l over the surviving count
    m = 0..cutoff-l; its element m has photon number m + l, which sets its
    phase. The blocks are never mixed, so the state needs no labels.
    """

    def __init__(self, blocks):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        for b in blocks:
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValidationError("every block must be a square matrix")
            if np.abs(b - b.conj().T).max(initial=0.0) > 1e-12:
                raise ValidationError("block is not Hermitian within 1e-12")
        tr = sum(np.trace(b).real for b in blocks)
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"trace is {tr!r}, not 1")
        self.blocks = blocks

    def __repr__(self):
        return f"DensityMatrix(blocks={[b.shape[0] for b in self.blocks]})"


def modulated_state(decomp, phi):
    """rho_phi: q_l (v v^dagger) per block, v[m] = u_l[m] e^{i(m+l)phi}."""
    blocks = []
    for l, q, u in zip(decomp.loss_counts, decomp.weights, vectors(decomp)):
        v = u * np.exp(1j * (np.arange(u.size) + l) * float(phi))
        blocks.append(q * np.outer(v, v.conj()))
    return DensityMatrix(blocks)


def average_state(decomp, prior):
    """Prior-averaged state rho_bar.

    Entry (m, m') of a block carries e^{i(m-m')phi}, so averaging
    multiplies the phi = 0 block by the leading submatrix of one Toeplitz
    table F[m, m'] = f(m - m') of prior Fourier coefficients: exact, with
    no phase grid. f(-k) = conj(f(k)), so F is Hermitian.
    """
    table = toeplitz(prior.fourier_coefficients(decomp.probe.cutoff))
    return DensityMatrix(b * table[:b.shape[0], :b.shape[0]]
                         for b in modulated_state(decomp, 0.0).blocks)


def phase_randomize(rho):
    """Zero every coherence between different photon numbers.

    Photon numbers within a block are distinct, so each block keeps only
    its diagonal.
    """
    return DensityMatrix(np.diag(np.diag(b)) for b in rho.blocks)


def von_neumann_entropy(rho):
    """-sum lambda ln lambda over eigenvalues above 1e-14, block by block.

    An eigenvalue below -1e-8 means the state itself is broken.
    """
    return _spectral_entropy(
        np.concatenate([np.linalg.eigvalsh(b) for b in rho.blocks]))


def folded_window(decomp, lattice):
    """g with every lag folded: C_d added into bin d mod lattice by
    np.add.at over the whole lattice, whatever the cutoff."""
    cutoff = decomp.probe.cutoff
    v = decomp.branches
    gram = np.zeros((cutoff + 1, 2 * cutoff + 1), dtype=complex)
    gram[:, :cutoff + 1] = v.conj().T @ v
    s0, s1 = gram.strides
    diags = as_strided(gram, (cutoff + 1, cutoff + 1), (s0 + s1, s1),
                       writeable=False).sum(0)
    two_sided = np.concatenate([diags[:0:-1].conj(), [diags[0].real],
                                diags[1:]])
    bins = np.zeros(lattice, dtype=complex)
    np.add.at(bins, np.arange(-cutoff, cutoff + 1) % lattice, two_sided)
    vals = np.fft.hfft(bins[:lattice // 2 + 1], lattice) / (2.0 * math.pi)
    return np.clip(vals, 0.0, None)
