"""jsonsub benchmark: time `check` end to end, or split it by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads are `self-incl`, `rec-chain`,
`pair-mix` and `oracle-mix` (see `workloads.py`; BENCHMARK.json says why
each was chosen).  Every workload runs in its own fresh single-threaded
worker process as one client in a closed loop, calling the public library
API from `src/` and checking every output outside the timed region.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: `setup_s` (process start to first timed check:
import, input generation and parsing; median of nine fresh processes),
`pairs_per_s`, `verdict_ms_p50` and `verdict_ms_tail` (from each input's
median time in the run, see `worker.end_to_end`) and `peak_rss_mb`.
Every time is scaled to the reference speed of `speed.py`, from
calibration loops run next to the timed work, so that the drift of a
shared machine's speed does not show as a change of the program.  With
`--trace 1` it holds the per-layer metrics of `tracing.py` instead.
The lines above it report every metric with its base, `failed_ratio`,
the run's context and a row per input size or pair kind.  A record of the run, with the
per-check trace rows, goes to `perfbench/results/`.

The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("self-incl", "rec-chain", "pair-mix", "oracle-mix")
SETUP_PROBES = 9
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


@contextmanager
def worker(args, deadline: float, *extra: str):
    """A worker process, killed at the deadline and always waited for."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        if proc.stdout.readline().strip() != "ready":
            raise BenchError(f"worker did not set up (exit code {proc.wait()})")
        yield proc
        if proc.wait() != 0:
            raise BenchError(f"worker failed (exit code {proc.returncode})")
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def setup_seconds(args, deadline: float) -> list[float]:
    """Process start to ready, in fresh processes: import, inputs, parsing.

    Each probe is scaled by the calibration its process runs right after
    it is ready, on the CPU it set up on.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with worker(args, deadline, "--probe") as proc:
            raw = time.perf_counter() - t0
            cal_ms = float(proc.stdout.readline())
        times.append(speed.scale(raw, cal_ms))
    return times


def measure(args, deadline: float) -> dict:
    with worker(args, deadline, "--seconds", str(args.seconds), "--trace", str(args.trace)) as proc:
        lines = proc.stdout.readlines()
    if not lines:
        raise BenchError("worker printed no result")
    sys.stdout.write("".join(lines[:-1]))
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "jsonsub" / "__init__.py").is_file():
        print(f"no jsonsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops and waits for its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = [] if args.trace else setup_seconds(args, deadline)
        result = measure(args, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = result.pop("record")
    if not args.trace:
        value = statistics.median(setup)
        result["metrics"] = {"setup_s": {"value": value, "unit": "s"}, **result["metrics"]}
        print(f"metric setup_s = {value:.6g} s  [median of {len(setup)} fresh processes at reference speed: "
              + " ".join(f"{t:.4f}" for t in setup) + "]")
        record["metrics"]["setup_s"] = {"value": value, "unit": "s", "samples": setup}
    # failed_ratio is printed above; the JSON line carries it as failed/attempted
    result["metrics"].pop("failed_ratio", None)

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
