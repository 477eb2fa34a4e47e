"""Compare what the command line prints with what another commit prints.

    python3 tools/same_outputs.py BASE

BASE is any commit that git can name. It is checked out with `git
worktree` into a temporary directory (local git only) and removed
again at the end. Each call of one fixed matrix then runs in a child
interpreter twice: against BASE's src/ and against this checkout's
src/, uncommitted changes included. The matrix:

- every operation of the benchmark workloads at seeds 0 and 5, its
  scenario generated by importing bench/workloads.py read-only;
- all five commands at --threads 1 and 2 on five scenarios: the one
  README.md shows, a wrapped Gaussian prior, a tabulated prior, one
  without probes (analytic columns only) and one with etas [1, 0.5, 0];
- `verify` on its default battery, `--help`, and each demo in demos/,
  run from its own tree.

Stdout, stderr and the exit code of each pair are compared line by line,
and each differing line is printed beside BASE's, as `stdout: TEXT`,
`stderr: TEXT` or `exit: CODE`. A change that means to move a line lists
it in that form in tools/moved_lines.txt, one per line, as this
checkout prints it (as BASE printed it, for a line this checkout no
longer prints). The script exits 0 if every differing line is listed
there, 1 if one is not, and 2 if BASE cannot be checked out.
"""

import difflib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = Path(__file__).resolve().parent / "moved_lines.txt"
COMMANDS = ("bounds", "capacity", "rd-curve", "simulate", "verify")
# children: BLAS on one thread, so --threads is the only parallelism, and
# a fixed width for the help text, whatever the terminal
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "COLUMNS": "80"}

SCENARIOS = {
    # the scenario file README.md shows
    "readme": {
        "prior": {"kind": "uniform"},
        "probes": [{"family": "coherent", "alpha": 1.0},
                   {"family": "flat-superposition", "d": 4}],
        "eta": [1.0, 0.5],
        "grid": {"phi_points": 2048, "theta_points": 2048},
        "rd": {"grid_size": 512, "slopes": [0.0, 0.5, 1.0]},
        "seed": 0,
        "samples": 100000},
    "wrapped": {
        "prior": {"kind": "wrapped_gaussian", "mean": 1.0, "sigma": 0.5},
        "probes": [{"family": "coherent", "alpha": 1.0},
                   {"family": "flat-superposition", "d": 4}],
        "eta": [1.0, 0.5],
        "grid": {"phi_points": 256, "theta_points": 256},
        "rd": {"grid_size": 16, "slopes": [0.0, 0.25]},
        "samples": 10000},
    "tabulated": {
        # eight density values that integrate to 1
        "prior": {"kind": "tabulated",
                  "values": [w * 8.0 / (13.25 * 2.0 * math.pi) for w in
                             (1.0, 3.0, 2.0, 0.5, 0.25, 0.5, 2.0, 4.0)]},
        "probes": [{"family": "binomial-phase", "d": 5},
                   {"family": "number", "n": 2}],
        "eta": [0.8],
        "grid": {"phi_points": 512, "theta_points": 256},
        "rd": {"grid_size": 32, "slopes": [0.0, 0.5]},
        "seed": 3,
        "samples": 10000},
    "analytic": {
        "prior": {"kind": "uniform", "center": 1.0, "width": 2.0},
        "mean_photons": [0.0, 0.5, 4.0, 100.0],
        "eta": [1.0, 0.9, 0.5]},
    "etas-1-0.5-0": {
        "probes": [{"family": "coherent", "alpha": 1.5},
                   {"family": "amplitudes",
                    "amplitudes": [0.6, [0.0, 0.64], 0.48]}],
        "eta": [1.0, 0.5, 0.0],
        "grid": {"phi_points": 256, "theta_points": 256},
        "rd": {"grid_size": 16, "slopes": [0.0, 0.25]},
        "samples": 10000},
}
CLI = ["-m", "phasebound.cli"]


def _workload_ops():
    """(label, argv, scenario) of every workload operation at seeds 0, 5."""
    # compiled here, not imported, so that no bytecode is written to bench/
    path = ROOT / "bench" / "workloads.py"
    workloads = {"__name__": "workloads"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         workloads)
    for name, seed in itertools.product(workloads["WORKLOADS"], (0, 5)):
        for op in workloads["generate"](name, seed):
            yield (f"{name} seed {seed} {op['name']}",
                   [op["command"], "--threads", str(op["threads"])],
                   op["config"])


def matrix(scratch):
    """(label, argv) of every call, argv relative to a tree's root.

    Scenario files are written to `scratch`, once, for both trees.
    """
    calls = []
    scenarios = [(f"{cmd} --threads {threads} {name}",
                  [cmd, "--threads", str(threads)], config)
                 for name, config in SCENARIOS.items()
                 for cmd in COMMANDS for threads in (1, 2)]
    for k, (label, argv, config) in enumerate(
            itertools.chain(_workload_ops(), scenarios)):
        path = Path(scratch) / f"scenario{k}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        calls.append((label, CLI + argv + ["--config", str(path)]))
    calls += [("verify", CLI + ["verify"]), ("--help", CLI + ["--help"])]
    calls += [(f"demo {demo.name}", [f"demos/{demo.name}"])
              for demo in sorted((ROOT / "demos").glob("*.py"))]
    return calls


def run(root, argv):
    """{stream: lines} of one child interpreter run from `root`.

    Lines are split at line feeds only, so a carriage return or a missing
    final newline is a difference too.
    """
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(Path(root) / "src")
    done = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          capture_output=True)
    lines = {stream: getattr(done, stream).decode(errors="backslashreplace")
             .split("\n") for stream in ("stdout", "stderr")}
    return dict(lines, exit=[str(done.returncode)])


def differences(base, head):
    """(BASE's line or None, this line or None) per differing line."""
    matcher = difflib.SequenceMatcher(None, base, head, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            yield from itertools.zip_longest(base[i1:i2], head[j1:j2])


def compare(base_root, head_root, calls, allowed, out=None):
    """Run every call against both trees, print each differing line and
    return the exit code: 1 if a line not in `allowed` differs, else 0.
    `out` is the file printed to, stdout by default."""
    differing = unlisted = 0
    for label, argv in calls:
        base, head = run(base_root, argv), run(head_root, argv)
        for stream in ("stdout", "stderr", "exit"):
            for old, new in differences(base[stream], head[stream]):
                old, new = (None if line is None else f"{stream}: {line}"
                            for line in (old, new))
                listed = (old if new is None else new) in allowed
                differing += 1
                unlisted += not listed
                print(f"{label}{' (listed)' if listed else ''}\n"
                      f"  base:   {old or '-'}\n  change: {new or '-'}",
                      file=out)
    print(f"same_outputs: {len(calls)} calls, {differing} differing lines, "
          f"{unlisted} not in {ALLOWED.name}", file=out)
    return 1 if unlisted else 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    allowed = set(filter(None, ALLOWED.read_text(encoding="utf-8")
                         .splitlines()))
    with tempfile.TemporaryDirectory() as scratch:
        base_root = Path(scratch) / "base"
        checkout = subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach",
             str(base_root), args[0]], capture_output=True, text=True)
        if checkout.returncode:
            print(checkout.stderr, end="", file=sys.stderr)
            return 2
        try:
            return compare(base_root, ROOT, matrix(scratch), allowed)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(base_root)], capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
