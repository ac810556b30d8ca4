"""One benchmark process: set up a workload, run it, check every output.

    python3 perfbench/worker.py --workload NAME --seed N --probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

`run.py` starts this script; it is not meant to be run by hand.  The
process is single-threaded and acts as one client in a closed loop: each
check starts when the previous one returns.  It prints `ready` once the
library is imported and the first round of inputs is parsed (the parent
times set-up up to that line; `--probe` then prints the calibration
reading of `speed.py` and exits), then human-readable report lines, then one
JSON line for the parent.

With `--trace 0` it runs whole rounds for `--seconds` and reports the
end-to-end metrics.  With `--trace 1` it runs whole rounds untraced for a
third of `--seconds`, then as many further rounds traced, and reports
the per-layer metrics; the traced wall time over the untraced one is the
tracing overhead.  The traced rounds are new rounds, not replays, so in
`self-incl` they carry fresh salts and stay cold.

Every 50 ms or so, between two checks, it runs the calibration loops of
`speed.py`; each check's time is scaled by the calibration reading of
the calibrations around it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import speed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

clock = time.perf_counter

TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
CAL_EVERY_S = 0.05


@dataclass
class Sample:
    case: Any
    secs: float
    outcome: Any  # None when the call raised
    error: Optional[str]  # exception type name, or why the output is wrong
    trace: Optional[dict] = None
    cal_ms: float = 0.0  # calibration reading around the check

    @property
    def scaled_ms(self) -> float:
        return speed.scale(self.secs * 1000, self.cal_ms)


def tail_percentile(n: int) -> tuple[float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies; the tail is then
    the maximum, with nothing beyond it.
    """
    for p in TAIL_LADDER:
        beyond = n - math.ceil(p * n / 100)
        if beyond >= TAIL_BEYOND:
            return p, beyond
    return 100.0, 0


def percentile(sorted_values: list[float], p: float) -> float:
    # nearest rank
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(workload, first: Optional[list], start: int, *, seconds=None, rounds=None, tracer=None):
    """Run whole rounds from round `start` until `seconds` or `rounds` run out.

    Returns the samples and the peak RSS after the first round, which is
    the same amount of work on every run whatever its speed.
    """
    samples: list[Sample] = []
    cals = [speed.calibrate()]
    marks: list[int] = []  # the last calibration before each sample
    last_cal = clock()
    rss_first_round = 0.0
    r = start
    began = clock()
    while True:
        cases = first if (r == start and first is not None) else workload.round(r)
        for case in cases:
            if clock() - last_cal >= CAL_EVERY_S:
                cals.append(speed.calibrate())
                last_cal = clock()
            marks.append(len(cals) - 1)
            before = tracer.snapshot() if tracer else None
            t0 = clock()
            try:
                out, err = workload.run(case), None
            except Exception as exc:  # a crash is counted and the run goes on
                out, err = None, type(exc).__name__
            dt = clock() - t0
            sample = Sample(case, dt, out, err)
            if tracer:
                sample.trace = _trace_delta(before, tracer.snapshot())
            samples.append(sample)
        r += 1
        if r == start + 1:
            rss_first_round = peak_rss_mb()
        if rounds is not None and r - start >= rounds:
            break
        if seconds is not None and clock() - began >= seconds:
            break
    cals.append(speed.calibrate())
    for s, i in zip(samples, marks):
        s.cal_ms = speed.reading(cals, i)
    return samples, rss_first_round


def _trace_delta(before, after) -> dict:
    (c0, s0), (c1, s1) = before, after
    out = {}
    for group, calls in c1.items():
        d = calls - c0.get(group, 0)
        if d:
            out[group] = [d, round((s1.get(group, 0.0) - s0.get(group, 0.0)) * 1000, 4)]
    return out


def verify_all(workload, samples: list[Sample]) -> None:
    for s in samples:
        if s.outcome is None:
            continue
        try:
            s.error = workload.verify(s.case, s.outcome)
        except Exception as exc:  # a check that cannot be verified is not right
            s.error = f"verification raised {type(exc).__name__}: {exc}"


def row_summary(samples: list[Sample]) -> list[dict]:
    """A row per size (sweeps) or per pair kind (pair pools)."""
    by_row: dict[str, list[Sample]] = defaultdict(list)
    for s in samples:
        by_row[s.case.row].append(s)
    rows = []
    for key, group in by_row.items():
        stats = [s.outcome.stats for s in group if s.outcome is not None and s.outcome.stats]
        rows.append({
            "row": key,
            "checks": len(group),
            "failed": sum(1 for s in group if s.error),
            "median_ms": round(statistics.median(s.secs for s in group) * 1000, 4),
            "included": sum(1 for s in group if s.outcome is not None and s.outcome.included),
            "median_steps": statistics.median(st.steps for st in stats) if stats else None,
        })
    rows.sort(key=lambda r: (len(r["row"]), r["row"]))
    return rows


def end_to_end(workload, samples: list[Sample], rss_mb: float) -> dict:
    """Latency and throughput from each input's median scaled time.

    Every input (a size of a sweep, a pair of a pool) is checked several
    times in a run, spread over its whole length.  Each check's time is
    scaled to the reference speed of `speed.py`, which takes out the
    machine's drift, and an input's cost is the median of its checks.
    An input with a failed check counts as a miss at the workload's
    wall-clock budget.
    """
    budget_ms = workload.budget_s * 1000
    failed_inputs = {s.case.key for s in samples if s.error}
    by_input: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        if s.case.key not in failed_inputs:
            by_input[s.case.key].append(s.scaled_ms)
    ok = [statistics.median(v) for v in by_input.values()]
    times = sorted(ok + [budget_ms] * len(failed_inputs))
    n = len(times)
    failed = sum(1 for s in samples if s.error)
    p, beyond = tail_percentile(n)
    reps = f"median of {len(samples) / n:.1f} checks each, ms at reference speed"
    return {
        "pairs_per_s": (1000 * len(ok) / sum(ok) if ok else 0.0, "1/s", f"{len(ok)} inputs, {reps}"),
        "verdict_ms_p50": (statistics.median(times), "ms", f"{n} inputs, {reps}"),
        "verdict_ms_tail": (percentile(times, p), "ms", f"p{p:g}, {n} inputs, {beyond} beyond"),
        "failed_ratio": (failed / len(samples), "ratio", f"{failed}/{len(samples)} checks"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss after the first round"),
    }


def per_layer(tracer, traced: list[Sample], untraced: list[Sample], probe, defects) -> tuple[dict, dict, dict]:
    """Per-layer metrics of the traced pass, each per check or as a ratio.

    Also returns the layer split (self time over traced wall time) and the
    inclusive shares that say which layer a workload stresses.
    """
    from tracing import LAYERS

    n = len(traced)
    calls, secs, hits = tracer.calls, tracer.secs, tracer.hits

    def per_check(value, unit, what):
        return (value / n, unit, f"{what} over {n} checks")

    def ratio(num, den, what):
        return (num / den if den else 0.0, "ratio", f"{num}/{den} {what}")

    def ms(group):
        return per_check(secs[group] * 1000, "ms/check", f"{secs[group] * 1000:.1f} ms")

    def count(group):
        return per_check(calls[group], "count/check", f"{calls[group]} calls")

    stats = [s.outcome.stats for s in traced if s.outcome is not None and s.outcome.stats]

    def stat_sum(field):
        total = sum(getattr(st, field) for st in stats)
        return per_check(total, "count/check", f"{total} {field}")

    invoked = [s for s in traced if s.outcome is not None and s.outcome.stats and s.outcome.stats.generation_invoked]
    fast_hits = sum(st.fast_path_hits for st in stats)
    fast_all = fast_hits + sum(st.fast_path_misses for st in stats)
    rel_hits, rel_misses, new_entries = tracer.cache
    traced_wall = sum(s.secs for s in traced)
    # the overhead compares scaled times, as the two passes run at different moments
    overhead = sum(s.scaled_ms for s in traced) / sum(s.scaled_ms for s in untraced)
    deep_failed = sum(1 for _, reason in probe if reason)
    metrics = {
        "compat.load_ms": ms("compat.load"),
        "compat.load_calls": count("compat.load"),
        "canon.expand_oneof_ms": ms("canon.expand_oneof"),
        "canon.stratify_ms": ms("canon.stratify"),
        "norm.dnf_ms": ms("norm.dnf"),
        "norm.dnf_self_ms": per_check(tracer.self_secs["norm.dnf"] * 1000, "ms/check", "dnf_of less nested patterns spans"),
        "norm.prepare_ms": ms("norm.prepare"),
        "norm.steps": stat_sum("steps"),
        "norm.cs_calls": stat_sum("cs_calls"),
        "norm.fast_path_hit_ratio": ratio(fast_hits, fast_all, "fast-path attempts"),
        "norm.memo_hits": stat_sum("memo_hits"),
        "norm.crefs_created": stat_sum("crefs_created"),
        "norm.max_disjuncts": stat_sum("max_disjuncts"),
        "norm.refuted_ratio": ratio(len(stats) - len(invoked), len(stats), "checker verdicts settled without generation"),
        "norm.deep_failed_ratio": ratio(deep_failed, len(probe), "chains past the seed's stack limit"),
        "witness.generate_ms": ms("witness.generate"),
        "witness.invoked_ratio": ratio(len(invoked), len(stats), "checker verdicts"),
        "witness.found_ratio": ratio(sum(1 for s in invoked if not s.outcome.included), len(invoked), "generation runs"),
        "witness.gen_rounds": stat_sum("gen_rounds"),
        "witness.gen_budget_hits": stat_sum("gen_budget_hits"),
        "patterns.relation_calls": count("patterns.relation"),
        "patterns.relation_ms": ms("patterns.relation"),
        "patterns.relation_hit_ratio": ratio(rel_hits, rel_hits + rel_misses, "relation cache lookups"),
        "patterns.compile_calls": count("patterns.compile"),
        "patterns.compile_ms": ms("patterns.compile"),
        "patterns.compile_hit_ratio": ratio(hits["patterns.compile"], calls["patterns.compile"], "outermost compiles"),
        "patterns.cache_entries": per_check(new_entries, "count/check", f"{new_entries} new entries"),
        "patterns.match_calls": count("patterns.match"),
        "patterns.match_ms": ms("patterns.match"),
        "patterns.example_ms": ms("patterns.example"),
        "engine.crosscheck_ms": ms("engine.crosscheck"),
        "engine.eval_calls": count("engine.eval"),
        "engine.eval_ms": ms("engine.eval"),
        "engine.universe_ms": ms("engine.universe"),
        "engine.universe_values": count("engine.universe_values"),
        "engine.checker_defect_ratio": ratio(len(defects[0]), defects[1], "cross-checked pairs where the untimed checker was refuted or raised"),
        "trace.overhead_ratio": (overhead, "ratio", "traced over untraced checks, at reference speed"),
    }
    split = {layer: tracer.self_secs[layer] / traced_wall for layer in LAYERS}
    split["other"] = 1 - sum(split.values())
    inclusive = {
        "patterns.relation": secs["patterns.relation"] / traced_wall,
        "norm+witness": (secs["norm.dnf"] + secs["norm.prepare"] + secs["witness.generate"]) / traced_wall,
        "engine.eval": secs["engine.eval"] / traced_wall,
    }
    return metrics, split, inclusive


def context(args) -> dict:
    from importlib import metadata

    try:
        jsonschema_version = metadata.version("jsonschema")
    except metadata.PackageNotFoundError:
        jsonschema_version = "missing"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "jsonschema": jsonschema_version,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def report(name: str, value: float, unit: str, base: str) -> None:
    print(f"metric {name} = {value:.6g} {unit}  [{base}]")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set up")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    first = workload.round(0)
    print("ready", flush=True)
    if args.probe:
        print(speed.reading([speed.calibrate() for _ in range(3)], 0))
        return 0

    ctx = context(args)
    print("context " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    record: dict = {"context": ctx}
    if args.trace:
        from tracing import Tracer

        untraced, _ = run_rounds(workload, first, 0, seconds=args.seconds / 3)
        rounds = len(untraced) // len(first)
        with Tracer() as tracer:
            traced, _ = run_rounds(workload, None, rounds, rounds=rounds, tracer=tracer)
        for name in tracer.missing:
            print(f"trace: {name} not found, its metrics read 0")
        probe = workload.deep_probe()
        samples = untraced + traced
        verify_all(workload, samples)
        defects = workload.checker_defects()
        metrics, split, inclusive = per_layer(tracer, traced, untraced, probe, defects)
        print("split (self time share of traced wall) " + " ".join(f"{k}={v:.1%}" for k, v in split.items()))
        print("inclusive share of traced wall " + " ".join(f"{k}={v:.1%}" for k, v in inclusive.items()))
        for label, reason in probe:
            print(f"deep probe {label}: {reason or 'ok'}")
        record.update(split=split, inclusive=inclusive, probe=probe,
                      checks=[{"check": s.case.label, "ms": round(s.secs * 1000, 4), "spans": s.trace} for s in traced])
    else:
        samples, rss = run_rounds(workload, first, 0, seconds=args.seconds)
        verify_all(workload, samples)
        defects = workload.checker_defects()
        metrics = end_to_end(workload, samples, rss)
        record["checks"] = [[s.case.key, round(s.secs * 1000, 4), round(s.scaled_ms, 4), s.error] for s in samples]

    rows = row_summary(samples)
    for row in rows:
        print("row " + " ".join(f"{k}={v}" for k, v in row.items()))
    failures = [{"check": s.case.label, "error": s.error} for s in samples if s.error]
    for f in failures[:20]:
        print(f"failed {f['check']}: {f['error']}")
    for line in defects[0]:
        print(f"checker defect {line}")
    for name, (value, unit, base) in metrics.items():
        report(name, value, unit, base)
    record.update(rows=rows, failures=failures, checker_defects=defects[0],
                  metrics={k: {"value": v, "unit": u, "base": b} for k, (v, u, b) in metrics.items()})
    print(json.dumps({
        "correct": not any(s.outcome is not None and s.error for s in samples),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        "record": record,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
