"""Record the sha256 of every invocation's stdout for the default seeds.

    python3 bench/record_refs.py

Writes bench/refs.json.  Every output must first pass the oracles in
oracles.py, so a reference is never recorded for a wrong answer.  Run it
again only when a change to the inputs or an intended change to the
output format makes the old digests stale, and say why in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from inputs import WORKLOADS

DEFAULT_SEEDS = range(20)


def main() -> int:
    package = run.load_package()
    refs: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in DEFAULT_SEEDS:
            plan, work = run.prepare(workload, seed)
            results, _ = run.replay(package, plan, work)
            failures = run.check_results(plan, results, None)
            if failures:
                print(f"{workload} seed {seed}: {failures[0]}", file=sys.stderr)
                return 1
            refs[workload][str(seed)] = {
                "plan": run.plan_digest(plan),
                "stdout": [hashlib.sha256(out.encode()).hexdigest() for _, _, out in results],
            }
            print(f"{workload} seed {seed}: {len(results)} digests", flush=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
