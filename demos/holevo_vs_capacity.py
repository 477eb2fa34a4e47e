# How much phase information can a lossy probe carry?
#
# For each probe and transmittance eta we compute the Holevo quantity of
# the phase-modulated ensemble and sandwich it between zero and two
# capacity ceilings: the unrestricted mean-photon capacity and, below
# unit transmittance, the tighter loss-limited ceiling.

from phasebound import (ProbeSpec, capacity_upper_bound_lossy, chi_decompose,
                        holevo_quantity, PhasePrior, unrestricted_capacity)

prior = PhasePrior.uniform()

probes = [
    ("two-level", ProbeSpec([2.0 ** -0.5, 2.0 ** -0.5])),
    ("flat d=4", ProbeSpec.flat_superposition(4)),
    ("coherent a=1", ProbeSpec.coherent(1.0)),
    ("binomial d=6", ProbeSpec.binomial_phase(6)),
]

print(f"{'probe':>13} {'N_S':>7} {'eta':>5} {'chi':>9} {'C_ph_upper':>11} "
      f"{'C(N_S)':>9}")
for name, probe in probes:
    c_unres = unrestricted_capacity(probe.mean_photons)
    for eta in (1.0, 0.8, 0.5, 0.2):
        chi = holevo_quantity(chi_decompose(probe, eta), prior)
        ceil = "" if eta == 1.0 else \
            f"{capacity_upper_bound_lossy(probe.mean_photons, eta):11.6f}"
        print(f"{name:>13} {probe.mean_photons:7.3f} {eta:5.2f} {chi:9.6f} "
              f"{ceil:>11} {c_unres:9.6f}")
    print()

# the lossless two-level probe reaches exactly ln 2: the averaged state
# is maximally mixed on two levels
