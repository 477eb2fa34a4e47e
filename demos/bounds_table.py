# Tabulate every analytic MSE lower bound for a flat phase prior.
#
# Two regimes show up in the table: lossless probes obey the Heisenberg
# scaling 1/(N_S+1)^2, while any fixed transmittance below one drags the
# asymptote back to a standard-quantum-limit 1/N_S falloff.

import numpy as np

from phasebound import PhasePrior, build_report

prior = PhasePrior.uniform()

header = f"{'N_S':>8} {'eta':>5} {'h_limit':>12} {'hall_wiseman':>13} " \
         f"{'lossy_sql':>12} {'iti_C':>12}"
print(header)
print("-" * len(header))

for eta in (1.0, 0.8, 0.5):
    for ns in (0.0, 1.0, 4.0, 16.0, 64.0, 256.0):
        rep = build_report(prior, ns, eta=eta)
        sql = "" if rep["lossy_sql"] is None else f"{rep['lossy_sql']:12.6f}"
        print(f"{ns:8.1f} {eta:5.2f} {rep['h_limit']:12.6f} "
              f"{rep['hall_wiseman']:13.6f} {sql:>12} {rep['iti_C']:12.6f}")
    print()

# scaling check: multiply out the predicted asymptotes
ns = np.array([4.0, 16.0, 64.0, 256.0, 1024.0])
heis = np.array([build_report(prior, n)["h_limit"] for n in ns]) * (ns + 1) ** 2
sql = np.array([build_report(prior, n, eta=0.5)["lossy_sql"]
                for n in ns]) * ns
print("h_limit * (N_S+1)^2 :", np.array2string(heis, precision=6))
print("lossy_sql * N_S     :", np.array2string(sql, precision=6),
      "(flattens to Q(1-eta)/(2 pi e eta))")
