#!/usr/bin/env python3
"""Record the sha256 of every workload's generated inputs for a seed range.

    python3 perfbench/digests.py --seeds 0-99

run.py fails a run whose inputs differ from the digest recorded here for its
(workload, seed), so a change to technet.synth cannot silently change a
workload. Rerun this only when such a change is intended.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import repeat
import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    out = run.WORK / "digests"
    recorded = {}
    for name, spec in run.workload_map()["workloads"].items():
        recorded[name] = {
            str(seed): run.generate_inputs(spec, seed, out) for seed in repeat.parse_seeds(args.seeds)
        }
    shutil.rmtree(out, ignore_errors=True)
    run.INPUT_DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
