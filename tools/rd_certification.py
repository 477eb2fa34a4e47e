"""List the rate-distortion points that the solver leaves uncertified.

    python3 tools/rd_certification.py

One pinned grid of points, each solved twice by `blahut_arimoto_point`:
cold, as `rd-curve` and `verify` run every slope, and warm, in
increasing slope order, each point started from the previous marginal
through `init_marginal`, the first cold:

- K in {64, 512} grid cells;
- the full circle, uniform(3, 1), uniform(1, 0.3), and wrapped Gaussians
  at pi with sigma in {0.05, 0.2, 0.3, 0.5, 1};
- slopes 1e-20, 0.1, 1, 10, 50, 200, 1e3, 1e4, 1e8 and 1e300.

That is 320 points. A point is uncertified when its Blahut gap stays
above BA_TOL after BA_MAX_ITER iterations. The script prints one line
per uncertified point (K, prior, slope, start, gap, iterations), then
the count and the run time, against this checkout's src/. It exits 1
if some point is uncertified, 0 if none is. The full grid takes about a
minute; the test suite runs a two-slope subset only.
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phasebound import rate_distortion as rd  # noqa: E402
from phasebound.priors import PhasePrior  # noqa: E402

GRID_SIZES = (64, 512)
PRIORS = {"uniform": PhasePrior.uniform(),
          "uniform-3-1": PhasePrior.uniform(center=3.0, width=1.0),
          "uniform-1-0.3": PhasePrior.uniform(center=1.0, width=0.3),
          **{f"gauss-pi-{sigma}": PhasePrior.wrapped_gaussian(math.pi, sigma)
             for sigma in (0.05, 0.2, 0.3, 0.5, 1.0)}}
SLOPES = (1e-20, 0.1, 1.0, 10.0, 50.0, 200.0, 1e3, 1e4, 1e8, 1e300)


def points(grid_sizes=GRID_SIZES, priors=PRIORS, slopes=SLOPES):
    """(K, prior label, start, BAPoint) of every point, cold then warm."""
    for k in grid_sizes:
        d = rd.grid_distortion(k)
        for label, prior in priors.items():
            _, masses = rd.discretize_prior(prior, k)
            for slope in slopes:
                yield k, label, "cold", rd.blahut_arimoto_point(masses, d,
                                                                slope)
            q = None
            for slope in sorted(slopes):
                point = rd.blahut_arimoto_point(masses, d, slope,
                                                init_marginal=q)
                if point.output_marginal is not None:
                    q = point.output_marginal
                yield k, label, "warm", point


def report(grid_sizes=GRID_SIZES, priors=PRIORS, slopes=SLOPES, out=None):
    """Print the uncertified points and their count; return the count."""
    out = sys.stdout if out is None else out
    start, total, uncertified = time.perf_counter(), 0, 0
    print("K\tprior\tslope\tstart\tgap\titerations", file=out)
    for k, label, how, point in points(grid_sizes, priors, slopes):
        total += 1
        if not point.converged:
            uncertified += 1
            print(f"{k}\t{label}\t{point.slope:g}\t{how}\t{point.gap:.3e}\t"
                  f"{point.iterations}", file=out)
    print(f"rd_certification: {uncertified} of {total} points uncertified "
          f"in {time.perf_counter() - start:.1f} s", file=out)
    return uncertified


if __name__ == "__main__":
    sys.exit(1 if report() else 0)
