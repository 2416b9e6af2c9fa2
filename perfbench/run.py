"""The repository benchmark: one command, one workload per call.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload image_roundtrip --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``image_roundtrip`` — whole images through the quantum tile codec,
  the wire container and back (closed loop, one caller);
- ``serve_open`` — the ``repro serve`` front end in a child process,
  loaded open loop at a reference rate and up a ladder of rates, and
  closed loop at saturation;
- ``train_pool`` — data-parallel training on a two-worker pool.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics.  Human-readable report lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong output makes
``correct`` false and the exit code 1.  See ``perfbench/METRICS.md``.

The workload runs in a child process in a session of its own, under a
wall-clock timeout.  A run that times out is killed with everything it
started (server child, worker pool), is reported as failed and exits
non-zero.  Shared-memory segments the run left behind are removed.  The
command exits non-zero, without a result, when the program's sources are
not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import OUT, ROOT  # noqa: E402
from perfbench.runner import WORKLOADS  # noqa: E402

#: Wall-clock budget of one workload run (set-up included).
RUN_TIMEOUT_S = 150.0
#: Grace for the rest of a run's session to exit on its own (the
#: multiprocessing resource tracker unlinks the segments of a killed
#: run) before it is killed.
TRACKER_GRACE_S = 2.0
SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set:
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def _session_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _end_session(pgid: int, grace: float) -> None:
    """Let the run's session (workload, server, pool, resource tracker)
    exit for ``grace`` seconds, kill what is left, and wait until it is
    gone."""
    deadline = time.monotonic() + grace
    while _session_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _session_alive(pgid):
        os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while _session_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def _remove_leaked(before: set) -> list:
    leaked = sorted(_shm_segments() - before)
    for name in leaked:
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass
    return leaked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    shm_before = _shm_segments()
    cmd = [
        sys.executable, "-m", "perfbench.runner",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    started = time.monotonic()
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    timed_out = False
    try:
        child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        child.kill()
        child.wait()
    finally:
        _end_session(child.pid, TRACKER_GRACE_S)
    leaked = _remove_leaked(shm_before)
    if leaked:
        print(f"warning: removed {len(leaked)} leaked shared-memory "
              f"segment(s)", file=sys.stderr)

    if timed_out:
        print(f"{args.workload}: timed out after "
              f"{time.monotonic() - started:.1f} s; run reported as failed")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if child.returncode != 0 or not result_path.is_file():
        print(f"error: workload exited with code {child.returncode} "
              f"and no result", file=sys.stderr)
        return 3
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    # The run's server logs, dumps and checkpoint; a run that ended
    # without a result keeps them for diagnosis.
    for path in OUT.glob(f"*-{child.pid}[-.]*"):
        path.unlink()
    for line in result.pop("report", []):
        print(f"{args.workload}: {line}")
    print(json.dumps(result))
    # A wrong output fails the run; refused or late requests are load
    # outcomes, counted in ``failed`` and gated through success_ratio.
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
