"""Record the reference values that checks.py compares against.

    python3 bench/record.py

Runs one repetition of every workload at seed 0 and stores, per
operation, the summary of its output (see checks.summarize) under the
operation's input fingerprint in reference.json. Run it only on a
commit whose outputs are trusted: later runs fail an operation whose
output moves outside the tolerances in checks.py.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads
from checks import op_key


def main():
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        ops = workloads.generate(name, 0)
        run.RUN_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
            runner = run.Runner(run.BENCH.parent, ops, Path(tmp),
                                run._clock() + 600.0)
            runner.reference = {}
            outs = runner.repetition()["ops"]
        if runner.failures:
            sys.exit(f"{name}: {runner.failures}")
        for op, out in zip(ops, outs):
            reference[op_key(op)] = out["summary"]
        print(f"recorded {name}: {len(ops)} operations")
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    main()
