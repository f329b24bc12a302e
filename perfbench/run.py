#!/usr/bin/env python3
"""The repository benchmark: what a reuse study costs, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rtm --seed 1 --seconds 55 --trace 0

The first run configures and builds reuse_study and the layer probe
(perfbench/CMakeLists.txt) into .bench_build/. A workload is one documented
reuse_study command. With --trace 0 the benchmark times that command from
the parent, one child process at a time with telemetry off, and reports the
end-to-end metrics. With --trace 1 it reports the per-layer metrics: counts
and job spans from a --metrics/--trace run of the same command, and layer
prices from perfbench_layers. Every report is checked entry by entry against
the committed golden at zero tolerance. METRICS.md defines every metric.

--seed fixes the run schedule: the order in which set-up probes and timed
runs interleave, and the order of the probe's variants. The program's inputs
are the committed golden windows, whose data seed is --workload-seed. At any
other data seed no golden exists, so each report is instead checked against
the same command at the other thread count (1 <-> 4).

The last line of stdout is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}
"""
import sys

sys.dont_write_bytecode = True  # the benchmark writes only inside its checkout

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

BUILD = Path(".bench_build")
REUSE_STUDY = BUILD / "tlr" / "reuse_study"
LAYERS = BUILD / "perfbench_layers"
LAUNCH = BUILD / "perfbench_launch"
RUNS = BUILD / "runs"

# One invocation ends within this many seconds after the build, whatever
# --seconds says; a child still running then is killed and fails its entries.
DEADLINE_S = 170.0
MIN_TIMED_RUNS = 3
SETUP_RUNS = 21
SETUP_FIGURES = ("--figure", "none", "--length", "0")


@dataclass(frozen=True)
class Workload:
    golden: str          # the committed report this command reproduces
    profile: str
    threads: int
    figures: tuple       # reuse_study figure flags
    sections: frozenset  # golden figure sections checked: series, fig9, fig10


WORKLOADS = {
    "suite": Workload("tools/baseline_laptop.json", "laptop", 1,
                      ("--figure", "3"), frozenset({"series"})),
    "rtm": Workload("tools/baseline_ci.json", "ci", 1,
                    ("--figure", "9"), frozenset({"fig9"})),
    # Not in BENCHMARK.json: their runs spread past its bounds on a shared
    # host (METRICS.md, "Workloads"). They stay here to be run by hand.
    "spec": Workload("tools/baseline_ci.json", "ci", 1,
                     ("--figure", "none", "--fig10"), frozenset({"fig10"})),
    "study-4t": Workload("tools/baseline_ci.json", "ci", 4,
                         ("--fig10",), frozenset({"series", "fig9", "fig10"})),
}

END_TO_END_UNITS = {"minstr_per_s": "Minstr/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    ok: bool
    report: dict | None = None


def fail(message):
    """Exit non-zero without printing a result."""
    sys.exit(f"perfbench: {message}")


def build():
    for required in ("CMakeLists.txt", "src", "tools/reuse_study.cpp"):
        if not Path(required).exists():
            fail(f"{required} not found: run from the root of a checkout "
                 "of the repository")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    steps = [["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
              "--target", REUSE_STUDY.name, LAYERS.name, LAUNCH.name]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", "perfbench", "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(BUILD / "build.log", "ab") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                fail(f"build failed, see {BUILD / 'build.log'}")


def run_product(cmd, out, deadline):
    """Runs one reuse_study child to completion through perfbench_launch,
    which times it and reaps it."""
    out.unlink(missing_ok=True)
    timeout = max(1, int(deadline - time.monotonic()))
    with open(out.with_suffix(".log"), "wb") as log:
        done = subprocess.run([str(LAUNCH), str(timeout), *cmd, "--out",
                               str(out)], stdout=subprocess.PIPE, stderr=log)
    if done.returncode != 0:
        fail(f"{LAUNCH.name} failed, see {out.with_suffix('.log')}")
    cost = json.loads(done.stdout)
    run = Run(cost["wall_s"], cost["cpu_s"], cost["max_rss_kb"] / 1024.0,
              cost["exit"] == 0)
    if run.ok:
        try:
            run.report = json.loads(out.read_text())
        except (OSError, ValueError):
            run.ok = False
    return run


def entries(report):
    """The checked entries of a report: each workloads[] record, each figure
    block, and the profile and options blocks (meta is provenance)."""
    found = {"profile": report.get("profile"), "options": report.get("options")}
    for record in report.get("workloads", []):
        found["workloads/" + str(record.get("name"))] = record
    for block, value in report.get("figures", {}).items():
        found["figures/" + block] = value
    return found


def section_of(block):
    return block if block in ("fig9", "fig10") else "series"


def canonical(value):
    return json.dumps(value, sort_keys=True)


def digest(report):
    return hashlib.sha256(canonical(
        {k: v for k, v in report.items() if k != "meta"}).encode()).hexdigest()


class Checker:
    """Counts checked report entries and those missing or different from the
    expected ones at zero tolerance (failed / attempted = failed_frac)."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digests = set()  # of the checked reports, without meta

    def check(self, run):
        if run.report is None:
            self.attempted += len(self.expected)
            self.failed += len(self.expected)
            return
        self.digests.add(digest(run.report))
        got = entries(run.report)
        keys = self.expected.keys() | got.keys()
        self.attempted += len(keys)
        self.failed += sum(k not in got or k not in self.expected
                           or canonical(got[k]) != canonical(self.expected[k])
                           for k in keys)

    def check_exit(self, run):
        """A run whose report has no golden counts as one entry."""
        self.attempted += 1
        self.failed += not run.ok

    def streamed_instructions(self):
        """Instructions the command streams, counted the way
        tools/throughput.hpp counts them: one suite pass per workload plus
        one pass per fig9 heuristic and per fig10 predictor."""
        suite = sum(record["instructions"] for key, record in
                    self.expected.items() if key.startswith("workloads/"))
        fig9 = self.expected.get("figures/fig9", {}).get("heuristics", [])
        fig10 = self.expected.get("figures/fig10", {}).get("predictors", [])
        return suite * (1 + len(fig9) + len(fig10))


class Bench:
    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        golden_path = Path(args.golden or self.workload.golden)
        if not golden_path.is_file():
            fail(f"golden {golden_path} not found")
        golden = json.loads(golden_path.read_text())
        self.seed_flags = []
        if args.workload_seed not in (None, golden["profile"]["seed"]):
            self.seed_flags = ["--seed", str(args.workload_seed)]
        expected = {key: value for key, value in entries(golden).items()
                    if not key.startswith("figures/")
                    or section_of(key[len("figures/"):])
                    in self.workload.sections}
        self.checker = Checker(expected)
        self.rng = random.Random(args.seed)
        self.deadline = time.monotonic() + DEADLINE_S
        RUNS.mkdir(parents=True, exist_ok=True)

    def command(self, threads=None, figures=None):
        w = self.workload
        return [str(REUSE_STUDY), "--profile", w.profile,
                "--threads", str(threads or w.threads),
                *(w.figures if figures is None else figures),
                "--quiet", *self.seed_flags]

    def alt_threads(self):
        return 1 if self.workload.threads > 1 else 4

    def run(self, name, cmd):
        return run_product(cmd, RUNS / f"{name}.json", self.deadline)

    def held_out_reference(self, extra=()):
        """At a data seed without a golden, the other thread count's report
        is the reference every other report must equal."""
        ref = self.run("reference", [*self.command(self.alt_threads()),
                                     *extra])
        if ref.report is None:
            self.checker.check(ref)
        else:
            self.checker = Checker(entries(ref.report))
            self.checker.digests.add(digest(ref.report))
        return ref

    def end_to_end(self):
        if self.seed_flags:
            self.held_out_reference()
        plan = ["setup"] * SETUP_RUNS + ["timed"] * MIN_TIMED_RUNS
        self.rng.shuffle(plan)
        setups, timed = [], []
        start = time.monotonic()
        while plan or (time.monotonic() - start +
                       statistics.median(r.wall for r in timed)
                       <= self.args.seconds):
            kind = plan.pop() if plan else "timed"
            if time.monotonic() >= self.deadline:
                break
            if kind == "setup":
                run = self.run("setup", self.command(figures=SETUP_FIGURES))
                self.checker.check_exit(run)
                setups.append(run)
            else:
                run = self.run("timed", self.command())
                self.checker.check(run)
                timed.append(run)
        instructions = self.checker.streamed_instructions()
        walls = [r.wall for r in timed]
        self.summary = (f"{len(timed)} timed runs of {instructions} streamed "
                        f"instructions (wall s: best {min(walls):.4g}, median "
                        f"{statistics.median(walls):.4g}), {len(setups)} "
                        "set-up runs")
        # The work is deterministic, so host contention can only slow a run:
        # the best run is the steadiest estimate of the program's own cost.
        return {
            "minstr_per_s": instructions / min(walls) / 1e6,
            "cpu_s": min(r.cpu for r in timed),
            "peak_rss_mb": statistics.median(r.rss_mb for r in timed),
            "setup_s": min(r.wall for r in setups),
        }

    def probe(self, profile, layers, until):
        cmd = [str(LAYERS), "--profile", profile, "--layers", ",".join(layers),
               "--seconds", str(max(0.0, until - time.monotonic())),
               "--seed", str(self.args.seed)]
        if self.seed_flags:
            cmd += ["--workload-seed", self.seed_flags[1]]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline -
                                              time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"{LAYERS.name} ran past the deadline")
        if done.returncode != 0:
            fail(f"{LAYERS.name} failed: {done.stderr.strip()}")
        return json.loads(done.stdout)

    def per_layer(self):
        w = self.workload
        trace, metrics = RUNS / "trace.json", RUNS / "metrics.json"
        alt_trace = RUNS / "alt_trace.json"
        start = time.monotonic()
        alt_telemetry = ["--trace", str(alt_trace)]
        if self.seed_flags:
            alt = self.held_out_reference(alt_telemetry)
        runs = {}
        for kind in self.rng.sample(["untraced", "traced"], 2):
            telemetry = ["--trace", str(trace), "--metrics", str(metrics)]
            runs[kind] = self.run(kind, [*self.command(),
                                         *(telemetry if kind == "traced"
                                           else [])])
            self.checker.check(runs[kind])
        if not self.seed_flags:
            alt = self.run("alt", [*self.command(self.alt_threads()),
                                   *alt_telemetry])
            self.checker.check(alt)
        if not (runs["traced"].ok and alt.ok):
            fail("a traced run failed, so its spans and counts are missing")

        counters = json.loads(metrics.read_text())["counters"]
        self.checker.attempted += 1
        self.checker.failed += (counters["engine.instructions"]
                                != self.checker.streamed_instructions())
        # One of the two traced runs is at 1 thread and the other at 4.
        spans = {w.threads: job_spans(trace),
                 self.alt_threads(): job_spans(alt_trace)}
        jobs = spans[w.threads][0]
        one_thread = spans[1][0]
        four_threads, busy, extent = spans[4]
        twentieths = statistics.quantiles(jobs, n=20, method="inclusive")

        # Layers this command runs are priced at its own window; the ones it
        # does not run at the ci window, so every workload prices them all.
        until = start + self.args.seconds
        if w.profile == "ci":
            own = ci = self.probe("ci", ["suite", "rtm", "spec"], until)
        else:
            own = self.probe(w.profile, ["suite"], until)
            ci = self.probe("ci", ["rtm", "spec"], until)
        probes = [own] if ci is own else [own, ci]
        self.summary = f"{len(jobs)} jobs traced; probe rounds: " + ", ".join(
            f"{p['rounds']} at {p['profile']}" for p in probes)
        lookups = counters["rtm.lookups"]
        attempts = counters["spec.correct"] + counters["spec.misspecs"]
        return {
            "vm.ns_per_inst": price(own, "bare"),
            "workloads.build_s": statistics.median(own["variants"]["build"]),
            "reuse.table.ns_per_inst": price(own, "table", "bare"),
            "reuse.table.reusable_frac": own["reusable"] / own["instructions"],
            "reuse.partition.ns_per_inst": price(own, "partition", "table"),
            "timing.ns_per_inst": price(own, "suite", "partition"),
            "reuse.rtm.ns_per_inst": price(ci, "fig9/", "bare", per=4),
            "reuse.rtm.lookups": lookups,
            "reuse.rtm.probe_slots_per_lookup":
                ratio(counters["rtm.probe_slots"], lookups),
            "reuse.rtm.hit_frac": ratio(counters["rtm.hits"], lookups),
            "reuse.rtm.insertions": counters["rtm.insertions"],
            "spec.sim.ns_per_inst": price(ci, "spec_sim/", "bare", per=4),
            "spec.timer.ns_per_inst": price(ci, "fig10/", "spec_sim/"),
            "spec.accuracy": ratio(counters["spec.correct"], attempts),
            "spec.attempts": attempts,
            "engine.instructions": counters["engine.instructions"],
            "core.job_s.p50": twentieths[9],
            "core.job_s.p95": twentieths[18],
            "core.idle_frac": 1.0 - busy / (4 * extent),
            "core.job_inflation": sum(four_threads) / sum(one_thread),
            "obs.trace_overhead_frac":
                runs["traced"].wall / runs["untraced"].wall - 1.0,
        }


LAYER_UNITS = {
    "vm.ns_per_inst": "ns/inst",
    "workloads.build_s": "s",
    "reuse.table.ns_per_inst": "ns/inst",
    "reuse.table.reusable_frac": "ratio",
    "reuse.partition.ns_per_inst": "ns/inst",
    "timing.ns_per_inst": "ns/inst",
    "reuse.rtm.ns_per_inst": "ns/inst",
    "reuse.rtm.lookups": "count",
    "reuse.rtm.probe_slots_per_lookup": "slots/lookup",
    "reuse.rtm.hit_frac": "ratio",
    "reuse.rtm.insertions": "count",
    "spec.sim.ns_per_inst": "ns/inst",
    "spec.timer.ns_per_inst": "ns/inst",
    "spec.accuracy": "ratio",
    "spec.attempts": "count",
    "engine.instructions": "count",
    "core.job_s.p50": "s",
    "core.job_s.p95": "s",
    "core.idle_frac": "ratio",
    "core.job_inflation": "ratio",
    "obs.trace_overhead_frac": "ratio",
}

JOB_SPANS = ("analyze", "fig9_job", "fig10_job")


def job_spans(path):
    """Job span durations, total pool task time and the task extent (first
    task start to last task end), all in seconds, from a --trace file."""
    open_spans, jobs, busy = {}, [], 0.0
    first, last = float("inf"), float("-inf")
    for event in json.loads(path.read_text())["traceEvents"]:
        if event["ph"] == "B":
            open_spans.setdefault(event["tid"], []).append(event)
        elif event["ph"] == "E":
            begin = open_spans[event["tid"]].pop()
            seconds = (event["ts"] - begin["ts"]) / 1e6
            if begin["name"] in JOB_SPANS:
                jobs.append(seconds)
            elif begin["name"] == "task":
                busy += seconds
                first, last = min(first, begin["ts"]), max(last, event["ts"])
    return jobs, busy, (last - first) / 1e6


def price(probe, variant, base=None, per=1):
    """ns per streamed instruction (and per simulator, `per`) of `variant`
    minus `base`, taken round by round and the median over rounds. A name
    ending in "/" is a family (fig9/<heuristic>, ...) averaged over its
    members; a base family pairs each member with its own suffix."""
    seconds = probe["variants"]
    members = ([name for name in seconds if name.startswith(variant)]
               if variant.endswith("/") else [variant])

    def base_of(name):
        return base + name[len(variant):] if base.endswith("/") else base

    per_round = [
        sum(seconds[name][r] - (seconds[base_of(name)][r] if base else 0.0)
            for name in members) / len(members)
        for r in range(probe["rounds"])]
    return statistics.median(per_round) / probe["instructions"] / per * 1e9


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def main():
    parser = argparse.ArgumentParser(
        description="The repository benchmark (perfbench/METRICS.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the run schedule")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measuring time of one invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--workload-seed", type=int,
                        help="workload data seed (default: the golden's)")
    parser.add_argument("--golden", help="check against this report instead "
                        "of the workload's committed golden")
    args = parser.parse_args()

    build()
    bench = Bench(args)
    values = bench.per_layer() if args.trace else bench.end_to_end()
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    checker = bench.checker
    print(f"perfbench {args.workload}: {bench.summary}")
    for name, value in values.items():
        print(f"  {name:34} {value:<22.6g} {units[name]}")
    print(f"  {'failed_frac':34} {ratio(checker.failed, checker.attempted):<22.6g}"
          f" ({checker.failed} of {checker.attempted} checked entries)")
    for report_digest in sorted(checker.digests):
        print(f"  report digest {report_digest}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
