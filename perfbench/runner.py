"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` in a session of its own, so a hung run can be
killed together with everything it spawned::

    python -m perfbench.runner --workload image_roundtrip --seed 1 \\
        --seconds 10 --trace 0 --result .perfbench/result.json
"""

from __future__ import annotations

import argparse
import json
import sys

WORKLOADS = ("image_roundtrip", "serve_open", "train_pool")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "image_roundtrip":
        from perfbench import image_roundtrip as module
    elif name == "serve_open":
        from perfbench import serve_open as module
    elif name == "train_pool":
        from perfbench import train_pool as module
    else:
        raise ValueError(f"unknown workload {name!r}")
    return module.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
