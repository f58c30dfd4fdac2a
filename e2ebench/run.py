#!/usr/bin/env python3
"""End-to-end benchmark of the taster pipeline. See README.md here.

Run from the repository root:

    python3 e2ebench/run.py --workload report-incore --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-check

It builds `taster` and the `e2ebench` measuring binary (into
$CARGO_TARGET_DIR, default .bench_build), computes the in-core reference
report for the seed, then starts one fresh process per iteration until
--seconds are used. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
Any report that differs from the reference makes the run exit 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("report-incore", "report-outofcore", "serve-ingest")
BATCH_THREADS = 2
# Below the sorted-cache footprint at scale 1 (about 163 MB for the pool
# worlds), so the out-of-core provider replays the log about 7 times.
# Scaled by events (scale^1.5) so small scales also go out of core.
OUTOFCORE_BUDGET_AT_SCALE_1 = 32 << 20
# Scenario seeds whose scale-1 world has 4 080 435 events within 1.5 %
# (20100801 is the paper default). Worlds of other seeds range from 3.5
# to 6.4 M events, and replay cost grows with the square of that, so
# drawing worlds from this band keeps seed-to-seed spread a property of
# the code rather than of the world's size.
SEED_POOL = (20100801, 9, 11, 20, 24, 43, 54, 70, 72, 108,
             110, 111, 118, 119, 124, 144, 147, 187, 223, 236)
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "report_s": "s",
    "events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_bytes": "bytes",
    "ingest_rows_per_s": "rows/s",
}
PER_LAYER = {
    "ecosystem.generate_s": "s",
    "ecosystem.events": "count",
    "ecosystem.cached_events": "count",
    "ecosystem.modelled_peak_bytes": "bytes",
    "process.peak_rss_bytes": "bytes",
    "mailsim.build_s": "s",
    "mailsim.replay_passes": "count",
    "mailsim.rows_replayed_per_event": "rows/event",
    "feeds.collect_s": "s",
    "feeds.events_per_s": "events/s",
    "feeds.unique_domains": "count",
    "crawler.classify_s": "s",
    "crawler.domains": "count",
    "analysis.coverage_s": "s",
    "analysis.purity_s": "s",
    "analysis.proportionality_s": "s",
    "analysis.timing_s": "s",
    "analysis.blocking_s": "s",
    "analysis.campaigns_s": "s",
    "core.render_s": "s",
    "core.report_bytes": "bytes",
    "serve.new_s": "s",
    "serve.advance_s": "s",
    "serve.advance_rows_per_s": "rows/s",
    "serve.seal_s": "s",
    "serve.seals": "count",
    "serve.seal_max_ms": "ms",
    "serve.checkpoint_bytes": "bytes",
    "serve.final_report_s": "s",
    "serve.requests": "count",
    "serve.sheds": "count",
    "serve.timeouts": "count",
    "serve.watchdog_trips": "count",
    "serve.query_p50_us": "us",
    "serve.query_p99_us": "us",
    "serve.query_samples": "count",
    "untimed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}
# Per-layer numbers taken from the untraced iterations of a traced run,
# keyed by the name the measuring binary prints them under.
FROM_UNTRACED = {
    "process.peak_rss_bytes": "peak_rss_bytes",
    "serve.requests": "serve.requests",
    "serve.sheds": "serve.sheds",
    "serve.timeouts": "serve.timeouts",
    "serve.watchdog_trips": "serve.watchdog_trips",
    "serve.query_p50_us": "query_p50_us",
    "serve.query_p99_us": "query_p99_us",
    "serve.query_samples": "query_samples",
}


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(2)


def build(root):
    """Builds both binaries; returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "taster"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return target / "release" / "taster", target / "release" / "e2ebench"


class Runner:
    """Runs iterations of one workload, each in a fresh process."""

    def __init__(self, bins, workload, seed, scale, work):
        self.taster, self.bench = bins
        self.workload = workload
        self.seed = SEED_POOL[seed % len(SEED_POOL)]
        self.scale = scale
        self.work = work
        self.count = 0

    def command(self, kind, traced, report, workdir):
        common = ["--seed", str(self.seed), "--scale", repr(self.scale),
                  "--report", str(report)]
        if kind == "serve-ingest":
            cmd = [self.bench, "serve", "--taster", self.taster, *common,
                   "--workdir", workdir]
        else:
            cmd = [self.bench, "batch", *common, "--threads", BATCH_THREADS]
        if kind == "report-outofcore":
            budget = int(OUTOFCORE_BUDGET_AT_SCALE_1 * self.scale ** 1.5)
            cmd += ["--max-mem-bytes", budget]
        if traced:
            cmd.append("--trace")
        return [str(c) for c in cmd]

    def run(self, traced, kind=None):
        """One iteration: (metrics dict, report digest), or (None, None)
        when the process fails."""
        self.count += 1
        workdir = self.work / f"it{self.count}"
        workdir.mkdir(parents=True)
        report = workdir / "report.txt"
        cmd = self.command(kind or self.workload, traced, report, workdir / "d")
        # A session of its own, so a timed-out serve iteration takes its
        # daemon down with it.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log(f"iteration timed out: {' '.join(cmd)}")
            return None, None
        if proc.returncode != 0 or not out.strip():
            log(f"iteration failed ({proc.returncode}): {' '.join(cmd)}")
            return None, None
        metrics = json.loads(out.strip().splitlines()[-1])
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        shutil.rmtree(workdir, ignore_errors=True)
        return metrics, digest


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(it):
    """The end-to-end numbers of one untraced iteration. Batch runs
    ingest during the collect call, serve runs from the first answered
    request until `status` reports ingestion complete."""
    window = it["ingest_s"] if "ingest_s" in it else it["collect_s"]
    return {
        "report_s": it["report_s"],
        "events_per_s": it["events"] / it["report_s"],
        "setup_s": it["setup_s"],
        "peak_rss_bytes": it["peak_rss_bytes"],
        "ingest_rows_per_s": it["events"] / window,
    }


def measure(runner, seconds, traced, reference):
    """Runs iterations (an untraced and a traced one per round when
    tracing) until the next round would overrun `seconds`. Stops at the
    first failed iteration or report mismatch."""
    plain, traces, attempted, failed = [], [], 0, 0
    # An untraced run takes at least two iterations, so a serve run
    # (about 16 s an iteration at scale 1) always reports a median of
    # two rather than one or two depending on the machine's pace.
    min_rounds = 1 if traced else 2
    start = time.monotonic()
    while True:
        for is_traced in ((False, True) if traced else (False,)):
            metrics, digest = runner.run(is_traced)
            attempted += 1
            if metrics is None or digest != reference:
                if metrics is not None:
                    log(f"report differs from the in-core reference ({digest})")
                return plain, traces, attempted, failed + 1
            # Serve iterations also count every client request.
            attempted += int(metrics.get("attempted", 0))
            failed += int(metrics.get("failed", 0))
            (traces if is_traced else plain).append(metrics)
        elapsed = time.monotonic() - start
        rounds = len(plain)
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return plain, traces, attempted, failed


def summarize(plain, traces, traced):
    """Medians over iterations of the metrics the result line carries."""
    if not traced:
        rows = [end_to_end(it) for it in plain]
        return {k: median([r[k] for r in rows]) for k in END_TO_END}
    out = {}
    for name in PER_LAYER:
        if name in FROM_UNTRACED:
            key = FROM_UNTRACED[name]
            out[name] = median([it[key] for it in plain if key in it])
        else:
            # Zero where the workload never calls the layer.
            out[name] = median([it[name] for it in traces if name in it])
    out["trace_overhead_frac"] = (
        median([it["report_s"] for it in traces])
        / median([it["report_s"] for it in plain]) - 1.0
    )
    return out


def print_table(workload, plain, attempted, failed):
    """Human-readable end-to-end medians, all eight metrics with units."""
    rows = [end_to_end(it) for it in plain]
    print(f"# {workload}: {len(plain)} untraced iterations, medians")
    for name, unit in END_TO_END.items():
        print(f"{name:>20} {median([r[name] for r in rows]):>16.6g} {unit}")
    serve = [it for it in plain if "query_p50_us" in it]
    for name, unit in (("query_p50_us", "us"), ("query_p99_us", "us"),
                       ("query_samples", "count")):
        value = f"{median([it[name] for it in serve]):.6g}" if serve else "n/a"
        print(f"{name:>20} {value:>16} {unit}")
    print(f"{'failed_frac':>20} {failed / max(attempted, 1):>16.6g} ratio")


def run_workload(args):
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        die("run from the root of a taster checkout (Cargo.toml and crates/ not found)")
    bins = build(root)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(bins, args.workload, args.seed, args.scale, work)
        # The in-core report for this seed and scale is the reference every
        # iteration's report must equal byte for byte. Untimed.
        ref, reference = runner.run(False, kind="report-incore")
        if ref is None:
            die("the in-core reference run failed")
        plain, traces, attempted, failed = measure(
            runner, args.seconds, args.trace == 1, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    if plain and (traces or not args.trace):
        print_table(args.workload, plain, attempted, failed)
        values = summarize(plain, traces, args.trace == 1)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_check():
    """Runs every workload traced and untraced at scale 0.05 and checks
    that each emits exactly the metrics BENCHMARK.json names, with their
    units, and that the in-process report equals `taster report`."""
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    taster, bench = build(root)
    seed = SEED_POOL[0]
    work = root / ".bench_work" / f"self-check-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cli = subprocess.run([str(taster), "report", "--scale", "0.05", "--seed", str(seed)],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
        mine = work / "report.txt"
        subprocess.run([str(bench), "batch", "--seed", str(seed), "--scale", "0.05",
                        "--threads", str(BATCH_THREADS), "--report", str(mine)],
                       stdout=subprocess.DEVNULL, check=True)
        if cli.stdout != mine.read_bytes():
            problems.append("e2ebench batch report differs from `taster report`")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
                stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            tag = f"{workload} --trace {trace}"
            if done.returncode != 0 or not result.get("correct"):
                problems.append(f"{tag}: exit {done.returncode}, result {result}")
            elif got != want[trace]:
                problems.append(f"{tag}: emitted {got}, BENCHMARK.json names {want[trace]}")
            else:
                print(f"ok {tag}: {len(got)} metrics")
    for p in problems:
        print(f"FAIL {p}")
    print("self-check passed" if not problems else "self-check failed")
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
