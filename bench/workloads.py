"""Seeded scenario generators, one per workload.

A generator maps a seed to a list of operations. Each operation is one
`phasebound` CLI call: a subcommand, a scenario dict (written to a JSON
file and passed as --config) and a thread count. The same seed always
gives the same operations; `inputs_hash` fingerprints them so two runs
can be shown to have used identical inputs.

Random draws use `random.Random(seed)`, whose stream is fixed by the
Python language, so the inputs do not depend on the numpy version.
Sizes that set the cost of a workload are fixed; the seed only moves
values that leave the cost about the same, so runs at different seeds
stay comparable.
"""

import cmath
import hashlib
import json
import math
import random

__all__ = ["WORKLOADS", "generate", "inputs_hash"]

TWO_PI = 2.0 * math.pi


def _op(name, command, config, threads=1):
    return {"name": name, "command": command, "config": config,
            "threads": threads}


def _random_amplitudes(rng, cutoff):
    """Normalized complex amplitudes c_0..c_cutoff, every level occupied."""
    amps = [rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            for _ in range(cutoff + 1)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [[a.real / norm, a.imag / norm] for a in amps]


def sim_grid(seed):
    rng = random.Random(seed)
    square = {
        "prior": {"kind": "uniform"},
        "probes": [{"family": "coherent", "alpha": 1.0},
                   {"family": "flat-superposition", "d": 4},
                   {"family": "amplitudes",
                    "amplitudes": _random_amplitudes(rng, rng.randint(2, 8))}],
        "eta": [1.0, 0.5],
        # 2048^2, not 4096^2, keeps a repetition near 3 s, so a run has
        # enough of them for its fastest one to be a steady figure
        "grid": {"phi_points": 2048, "theta_points": 2048},
        "seed": rng.randrange(1 << 30),
        "samples": 100000,
    }
    # the criterion-8 grid shape: fine phase grid, coarse outcome grid
    tall = {
        "prior": {"kind": "uniform"},
        "probes": [{"family": "number", "n": 0},
                   {"family": "binomial-phase", "d": 5}],
        "eta": [1.0, 0.0, 0.7],
        "grid": {"phi_points": 2 ** 15, "theta_points": 256},
        "seed": rng.randrange(1 << 30),
        "samples": 100000,
    }
    return [_op("square", "simulate", square, threads=2),
            _op("tall", "simulate", tall, threads=2)]


def fock_holevo(seed):
    rng = random.Random(seed)
    probes = {
        "prior": {"kind": "uniform"},
        "probes": [{"family": "coherent", "alpha": 6.0},
                   {"family": "binomial-phase", "d": 61},
                   {"family": "number", "n": 40},
                   {"family": "amplitudes",
                    "amplitudes": _random_amplitudes(rng, 70)}],
        "eta": [0.5, 0.9],
        "grid": {"phi_points": 256, "theta_points": 256},
    }
    photons = {"prior": {"kind": "uniform"},
               "mean_photons": [0.5, 1.0, 4.0, 16.0, 64.0],
               "eta": [0.5, 0.9]}
    return [_op("probes", "bounds", probes),
            _op("capacity", "capacity", photons),
            _op("analytic", "bounds", photons)]


def verify_battery(seed):
    rng = random.Random(seed)
    # fixed cutoffs in a seeded order keep the Fock work the same per seed
    cutoffs = [8, 12, 17, 21, 26, 30]
    rng.shuffle(cutoffs)
    probes = [{"family": "amplitudes",
               "amplitudes": _random_amplitudes(rng, cutoff)}
              for cutoff in cutoffs]
    battery = {
        "prior": {"kind": "uniform"},
        "probes": probes,
        "eta": [0.3, 0.8, 1.0],
        # a 512^2 grid and a top slope of 0.7 keep a repetition near 1 s,
        # short enough for its fastest one to be a steady figure; a
        # warm-started s=1.0 point alone runs ~58 000 iterations (3 s)
        "grid": {"phi_points": 512, "theta_points": 512},
        "rd": {"grid_size": 64, "slopes": [0.0, 0.25, 0.5, 0.7]},
        "seed": rng.randrange(1 << 30),
        "samples": 20000,
    }
    return [_op("battery", "verify", battery)]


WORKLOADS = {
    "sim-grid": sim_grid,
    "fock-holevo": fock_holevo,
    "verify-battery": verify_battery,
}


def generate(workload, seed):
    """Operations of `workload` for `seed`; raises KeyError on a bad name."""
    return WORKLOADS[workload](seed)


def inputs_hash(ops):
    """sha256 of the canonical JSON of a list of operations."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
