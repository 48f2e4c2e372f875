"""Record the reference output digest of every workload.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

Runs one untimed repetition per workload for seeds 0-31 and the held-out
seed, requires the workload's own oracle checks to pass, and rewrites
``perfbench/reference.json`` whole. ``run.py`` compares every repetition
it times against these digests, so a change to the program that alters
an output shows up as ``failed`` > 0. Re-record only when an output is
meant to change, and say so in the change that does it.

The held-out seed is recorded like the others but is not used while a
change is being tuned: a claimed gain is confirmed on it afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_workload  # noqa: E402

SEEDS = range(32)
HELD_OUT = 1009


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench" / "work" / f"reference-{os.getpid()}"
    data: dict = {"held_out_seed": HELD_OUT, "workloads": {}}
    try:
        for name in WORKLOADS:
            workload = make_workload(name)
            digests: dict[str, str] = {}
            for seed in [*SEEDS, HELD_OUT]:
                inputs = workload.build(seed, workdir)
                digest, problems = workload.verify(inputs, workload.run(inputs))
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                digests[str(seed)] = digest
                print(f"{name} seed {seed}: {digest}", flush=True)
            data["workloads"][name] = {"sizes": workload.sizes, "digests": digests}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
