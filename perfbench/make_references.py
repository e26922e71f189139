"""Regenerate ``perfbench/references.json``: correctness digests of the
offline workloads at the reference seeds.

    python3 perfbench/make_references.py [--seeds 0-9]

Run from the repository root on a commit whose outputs are trusted; a
later run at a reference seed must reproduce these digests exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ["REPRO_CACHE"] = "off"
    from perfbench import offline
    from perfbench.stats import canonical_digest

    refs = {"stream-azure": {}, "grid-fstartbench": {}}
    clock = offline._BatchClock()
    for seed in range(lo, hi + 1):
        # Stream references are keyed by pass seed, grid ones by seed.
        for pass_seed in offline.stream_pass_seeds(seed):
            stream = offline._stream_pass(pass_seed)
            refs["stream-azure"][str(pass_seed)] = [
                canonical_digest(s) for s in stream["summaries"]]
        grid = offline._grid_pass(seed, clock)
        refs["grid-fstartbench"][str(seed)] = canonical_digest(
            grid["summaries"])
        print(f"seed {seed} done", flush=True)
    path = os.path.join(ROOT, "perfbench", "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
