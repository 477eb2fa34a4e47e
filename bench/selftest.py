"""Self-test of the benchmark's generators and output checks.

    python3 bench/selftest.py

1. Every generator returns identical operations, and the same inputs
   hash, when called twice with one seed, and different ones for
   different seeds.
2. The checks pass real outputs of small scenarios (run through the
   same child interpreter as the benchmark) and reject corrupted copies:
   a perturbed simulated MSE, an rd row below the Shannon lower bound, a
   Lagrangian above its recorded value, and a FAIL line from verify.

Exits 1 if any expectation fails.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

SMALL_PROBES = [{"family": "flat-superposition", "d": 4},
                {"family": "coherent", "alpha": 1.0}]
OPS = [
    {"name": "rd", "command": "rd-curve", "threads": 1,
     "config": {"rd": {"grid_size": 64, "slopes": [0.0, 0.25, 0.5, 1.0]}}},
    {"name": "simulate", "command": "simulate", "threads": 2,
     "config": {"probes": SMALL_PROBES, "eta": [1.0, 0.5],
                "grid": {"phi_points": 256, "theta_points": 256},
                "samples": 10000}},
    {"name": "verify", "command": "verify", "threads": 1,
     "config": {"probes": SMALL_PROBES[:1], "eta": [1.0],
                "grid": {"phi_points": 256, "theta_points": 256},
                "rd": {"grid_size": 16, "slopes": [0.0, 0.25]},
                "samples": 10000}},
]


class Report:
    def __init__(self):
        self.failed = 0

    def expect(self, ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failed += not ok


def _rejects(report, op, stdout, code, what, needle, reference=None):
    problems, _ = checks.check(op, code, stdout, reference)
    report.expect(any(needle in p for p in problems),
                  f"rejects {what}: {problems[:2]}")


def test_generators(report):
    for name in sorted(workloads.WORKLOADS):
        hashes = set()
        for seed in (0, 1, 12345):
            first = workloads.generate(name, seed)
            again = workloads.generate(name, seed)
            report.expect(first == again and workloads.inputs_hash(first)
                          == workloads.inputs_hash(again),
                          f"{name} seed {seed} is deterministic")
            hashes.add(workloads.inputs_hash(first))
        report.expect(len(hashes) == 3, f"{name} seeds give distinct inputs")


def test_checks(report):
    run.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        runner = run.Runner(run.BENCH.parent, OPS, Path(tmp),
                            run._clock() + 120.0)
        runner.reference = {}
        outs = runner.repetition()["ops"]
    report.expect(not runner.failures,
                  f"checks pass real outputs: {runner.failures}")
    rd, sim, ver = ({"op": op, "out": out} for op, out in zip(OPS, outs))

    # simulate: an MSE pushed below the Heisenberg floor, and a tiny
    # perturbation that only the recorded reference catches
    payload = json.loads(sim["out"]["stdout"])
    bad = copy.deepcopy(payload)
    bad["results"][0]["mse"] *= 1e-3
    _rejects(report, sim["op"], json.dumps(bad), 0, "an MSE below a bound",
             "bound")
    reference = {checks.op_key(sim["op"]): sim["out"]["summary"]}
    bad = copy.deepcopy(payload)
    bad["results"][1]["mse"] *= 1.0 + 1e-6
    _rejects(report, sim["op"], json.dumps(bad), 0,
             "an MSE off its recorded value", "recorded", reference)

    # rd-curve: the lowest-distortion row dropped below the Shannon bound
    lines = rd["out"]["stdout"].splitlines()
    cells = lines[1].split(",")
    cells[1] = "0.01"
    bad = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    _rejects(report, rd["op"], bad, 0, "an rd row below the Shannon bound",
             "Shannon")
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    bad = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    reference = {checks.op_key(rd["op"]): rd["out"]["summary"]}
    _rejects(report, rd["op"], bad, 0, "a Lagrangian above its record",
             "Lagrangian", reference)

    # verify: one check turned into a FAIL line, exit code 1
    lines = ver["out"]["stdout"].splitlines()
    lines[0] = lines[0].replace("PASS", "FAIL", 1)
    lines[-1] = "verify: 1 check(s) failed"
    _rejects(report, ver["op"], "\n".join(lines) + "\n", 1,
             "a FAIL line from verify", "FAIL")


def main():
    report = Report()
    test_generators(report)
    test_checks(report)
    print(f"{report.failed} failed")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
