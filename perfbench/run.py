#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the ARTEMIS harness.

Run from the repository root:

  python3 perfbench/run.py --workload campaign-health --seed 1 --seconds 10 --trace 0

--trace 0 runs the workload's CLI command as child processes and reports
the end-to-end metrics; --trace 1 runs the in-process traced pass
(perfbench/trace) and reports the per-layer metrics.  --workload all runs
every workload in turn.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import checks
import stats

OUT = os.path.join("perfbench", "out")
BUILD_DIR = os.path.join("_build", "default")
FAULTSIM = os.path.join(BUILD_DIR, "bin", "faultsim.exe")
FLEET = os.path.join(BUILD_DIR, "bin", "artemis_fleet.exe")
TRACE = os.path.join(BUILD_DIR, "perfbench", "trace", "trace.exe")
CALIB = os.path.join(BUILD_DIR, "perfbench", "trace", "calib.exe")
SOURCES = ("dune-project", "bin/faultsim.ml", "bin/artemis_fleet.ml",
           "perfbench/trace/dune", "perfbench/trace/trace.ml",
           "perfbench/trace/calib.ml")

JOBS = 2
# The whole run, builds excepted, must end within this many seconds.
RUN_BUDGET_S = 170
SETUP_REPS = 31
# Host speed drifts by up to ~2x over minutes on a shared machine, and
# every workload's wall and CPU time move with it.  Timed metrics are
# therefore reported in calibrated seconds: the raw time scaled by
# CALIB_REF_S over the median time of the calibration kernel
# (perfbench/trace/calib.ml, standard library only) measured just before
# and after the timed invocations.  CALIB_REF_S is the kernel's time on
# a quiet 2-core host; raw times are printed beside the calibrated ones.
CALIB_REF_S = 0.2
CALIB_REPS = 5

E2E_METRICS = [
    ("wall_cal_s", "s"),
    ("cpu_cal_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER_METRICS = [
    ("scenario.build.us", "us"),
    ("scenario.build.calls", "count"),
    ("runtime.run.us", "us"),
    ("runtime.run.immortal.us", "us"),
    ("runtime.run.checkpoint.us", "us"),
    ("runtime.run.ink.us", "us"),
    ("runtime.run.mayfly.us", "us"),
    ("runtime.run.alpaca.us", "us"),
    ("faultsim.run_schedule.us", "us"),
    ("faultsim.oracles.us", "us"),
    ("faultsim.replay.s", "s"),
    ("faultsim.replay.us", "us"),
    ("faultsim.replay.sims_per_run", "ratio"),
    ("faultsim.campaign.s", "s"),
    ("faultsim.report.s", "s"),
    ("faultsim.report.mb", "MB"),
    ("faultsim.run_schedule.alloc_kw", "kw"),
    ("export.log_digest.us", "us"),
    ("fleet.run.s", "s"),
    ("fleet.device.us", "us"),
    ("fleet.report.s", "s"),
    ("fleet.device.alloc_kw", "kw"),
    ("par.efficiency", "ratio"),
    ("count.faultsim_runs", "count"),
    ("count.faultsim_injected", "count"),
    ("count.monitor_steps", "count"),
    ("count.monitor_calls", "count"),
    ("count.nvm_writes", "count"),
    ("count.nvm_tx_commits", "count"),
    ("count.task_executions", "count"),
    ("count.power_failures", "count"),
    ("sim.power_failures", "count"),
    ("sim.time_s", "s"),
    ("sim.energy_uj", "uJ"),
    ("other.s", "s"),
    ("trace.wall.s", "s"),
    ("trace.overhead_pct", "%"),
]


class Campaign:
    """faultsim --scenario S --depth K --json --jobs 2 (replay check on)."""

    def __init__(self, name, scenario, depth, runs):
        self.name, self.scenario, self.depth, self.runs = name, scenario, depth, runs

    def seed(self, seed):
        return 42 if seed is None else seed

    def argv(self, seed, setup=False):
        # Set-up runs one fixed random schedule whatever the seed, so its
        # work does not vary from run to run.
        size = ["--random", "1"] if setup else ["--depth", str(self.depth)]
        return [FAULTSIM, "--scenario", self.scenario, *size,
                "--seed", str(self.seed(None if setup else seed)),
                "--json", "--jobs", str(JOBS)]

    def check(self, doc, setup=False):
        if setup:
            return checks.check_campaign(doc, expect_runs=1, expect_coverage=None)
        return checks.check_campaign(doc, expect_runs=self.runs)

    def fingerprint(self, doc):
        return checks.campaign_fingerprint(doc)

    def trace_argv(self, seed, report):
        return [TRACE, "campaign", "--scenario", self.scenario, "--depth", str(self.depth),
                "--seed", str(self.seed(seed)), "--jobs", str(JOBS), "--report", report]


class Fleet:
    """artemis_fleet --json --jobs 2 over a scenario x harvester x backend
    matrix, default engine, SEEDS seeds per cell."""

    SCENARIOS = ["health", "quickstart"]
    HARVESTERS = ["default", "fixed:30s", "duty:200uw"]
    BACKENDS = ["immortal", "checkpoint", "ink", "mayfly", "alpaca"]
    SEEDS = 1000

    def __init__(self, name):
        self.name = name

    def seed_first(self, seed):
        return 0 if seed is None else seed * self.SEEDS

    def cells(self):
        return len(self.SCENARIOS) * len(self.HARVESTERS) * len(self.BACKENDS)

    def argv(self, seed, setup=False):
        argv = [FLEET, "--json", "--jobs", str(JOBS),
                "--seeds", str(1 if setup else self.SEEDS),
                "--seed-first", str(self.seed_first(None if setup else seed))]
        for flag, values in (("--scenario", self.SCENARIOS),
                             ("--harvester", self.HARVESTERS),
                             ("--backend", self.BACKENDS)):
            for v in values:
                argv += [flag, v]
        return argv

    def check(self, doc, setup=False):
        return checks.check_fleet(doc, self.cells() * (1 if setup else self.SEEDS))

    def fingerprint(self, doc):
        return checks.fleet_fingerprint(doc)

    def trace_argv(self, seed, report):
        # The document the CLI builds from its inline flags.
        spec = json.dumps({
            "name": "fleet", "scenarios": self.SCENARIOS,
            "seeds": {"first": self.seed_first(seed), "count": self.SEEDS},
            "harvesters": self.HARVESTERS, "engines": ["default"],
            "backends": self.BACKENDS})
        return [TRACE, "fleet", "--spec", spec, "--jobs", str(JOBS), "--report", report]


WORKLOADS = {
    w.name: w for w in [
        Campaign("campaign-health", "health", 1, 3514),
        Campaign("campaign-quickstart-d3", "quickstart", 3, 96160),
        Fleet("fleet-mixed"),
    ]
}


class Failure(Exception):
    pass


def fail(msg, code=1):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        fail(f"run from the repository root; missing {', '.join(missing)}", 2)
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./bin/faultsim.exe", "./bin/artemis_fleet.exe",
               "./perfbench/trace/trace.exe", "./perfbench/trace/calib.exe"]
    cmd = dune_command() + ["build", "--root", "."] + targets
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail(f"build failed: {' '.join(cmd)}")


class Invocation:
    def __init__(self, argv, wall, cpu, rss_mb, code, out_path):
        self.argv, self.wall, self.cpu, self.rss_mb = argv, wall, cpu, rss_mb
        self.code, self.out_path = code, out_path


def invoke(argv, out_path, deadline):
    """Run argv as one child process, stdout to out_path; wall, user+sys
    CPU and peak RSS of that process.  Killed at the run deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Failure("run budget exhausted")
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = code = os.waitstatus_to_exitcode(status)
    return Invocation(argv, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                      code, out_path)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def checked(wl, inv, setup=False):
    """Problems with one invocation's output, and its parsed report."""
    if inv.code != 0:
        return [f"exit status {inv.code}"], None
    with open(inv.out_path, "rb") as f:
        doc, problems = checks.parse_report(f.read())
    if doc is not None:
        problems = wl.check(doc, setup=setup)
    return problems, doc


def calibrate(deadline):
    """CALIB_REPS passes of the calibration kernel: seconds per pass."""
    out = os.path.join(OUT, "calib.txt")
    times = []
    for _ in range(CALIB_REPS):
        inv = invoke([CALIB], out, deadline)
        if inv.code != 0:
            raise Failure(f"calibration kernel exit status {inv.code}")
        with open(out) as f:
            times.append(float(f.read()))
    return times


class Ledger:
    """What earlier runs in this checkout saw, by command and binary: the
    sha256 of each command's report (every repetition must print a
    byte-identical one) and its end-to-end wall times (the traced pass
    measures its overhead against their median)."""

    PATH = os.path.join(OUT, "ledger.json")

    def __init__(self):
        try:
            with open(self.PATH) as f:
                self.data = json.load(f)
        except (OSError, ValueError):
            self.data = {}
        self.reports = self.data.setdefault("reports", {})
        self.walls = self.data.setdefault("walls", {})
        self.binaries = {}

    def key(self, argv):
        exe = argv[0]
        if exe not in self.binaries:
            self.binaries[exe] = sha256_file(exe)[:16]
        return " ".join([self.binaries[exe]] + argv[1:])

    def wall_key(self, wl):
        # Work per invocation does not depend on the seed.
        return self.key(wl.argv(None))

    def agrees(self, argv, digest):
        return self.reports.setdefault(self.key(argv), digest) == digest

    def save(self):
        tmp = self.PATH + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1, sort_keys=True)
        os.replace(tmp, self.PATH)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_e2e(wl, seed, seconds, deadline):
    ledger = Ledger()
    attempted = failed = 0
    problems_seen = []
    fingerprint = None
    mains, good = [], []

    def one(setup, tag):
        nonlocal attempted, failed, fingerprint
        argv = wl.argv(seed, setup=setup)
        inv = invoke(argv, os.path.join(OUT, f"{wl.name}.{tag}.json"), deadline)
        attempted += 1
        problems, doc = checked(wl, inv, setup=setup)
        if not problems and not ledger.agrees(argv, sha256_file(inv.out_path)):
            problems = ["report differs from an earlier repetition"]
        if doc is not None and not setup and not problems:
            fingerprint = wl.fingerprint(doc)
        if problems:
            failed += 1
            problems_seen.append(f"{' '.join(argv[1:])}: {'; '.join(problems)}")
        elif not setup:
            good.append(inv)
        return inv

    try:
        before_setup = calibrate(deadline)
        setups = [one(True, "setup").wall for _ in range(SETUP_REPS)]
        before_main = calibrate(deadline)
        start = time.monotonic()
        while True:
            mains.append(one(False, "main"))
            elapsed = time.monotonic() - start
            # Whole invocations only: stop once another would overrun.
            if elapsed + stats.median([m.wall for m in mains]) > seconds:
                break
        after_main = calibrate(deadline)
    finally:
        ledger.save()

    setup_scale = CALIB_REF_S / stats.median(before_setup + before_main)
    main_scale = CALIB_REF_S / stats.median(before_main + after_main)
    ledger.walls.setdefault(ledger.wall_key(wl), []).extend(m.wall * main_scale for m in good)
    ledger.save()
    walls = [m.wall for m in mains]
    cpus = [m.cpu for m in mains]
    rss = [m.rss_mb for m in mains]
    print(f"{wl.name}: {' '.join(wl.argv(seed)[1:])}")
    print(f"  {'calibration':<12} {stats.describe(before_setup + before_main + after_main)} s"
          f" per pass; scale {main_scale:.4g} (reference {CALIB_REF_S} s)")
    for name, values, scale, unit in (
            ("wall_s", walls, main_scale, "s"), ("cpu_s", cpus, main_scale, "s"),
            ("peak_rss_mb", rss, None, "MB"), ("setup_s", setups, setup_scale, "s")):
        line = f"  {name:<12} {stats.describe(values)} {unit}"
        if scale is not None:
            line += f"; calibrated median {stats.median(values) * scale:.6g} {unit}"
        print(line)
    print(f"  {'failed_frac':<12} {failed / attempted:.4g} ({failed}/{attempted} invocations)")
    for p in problems_seen:
        print(f"  FAILED {p}")
    if fingerprint is not None:
        print(f"  fingerprint {json.dumps(fingerprint, sort_keys=True)}")
        with open(os.path.join(OUT, f"{wl.name}.fingerprint.json"), "w") as f:
            json.dump(fingerprint, f, indent=1, sort_keys=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_cal_s": metric(stats.median(walls) * main_scale, "s"),
            "cpu_cal_s": metric(stats.median(cpus) * main_scale, "s"),
            "peak_rss_mb": metric(stats.median(rss), "MB"),
            "setup_s": metric(stats.median(setups) * setup_scale, "s"),
        },
    }


def layer_shares(m):
    """Where the traced wall time went: top-level phases (summing to 1)
    and each layer's share of the run loop, as fractions of traced wall."""
    wall = m["trace.wall.s"]
    if m["fleet.run.s"] > 0:
        phases = {"fleet.run": m["fleet.run.s"], "fleet.report": m["fleet.report.s"]}
        loop, per_item = m["fleet.run.s"], m["fleet.device.us"]
        parts = {"scenario.build": m["scenario.build.us"],
                 "runtime.run": m["runtime.run.us"]}
        parts["fleet.device.other"] = max(0.0, per_item - sum(parts.values()))
    else:
        phases = {"faultsim.campaign": m["faultsim.campaign.s"],
                  "faultsim.replay": m["faultsim.replay.s"],
                  "faultsim.report": m["faultsim.report.s"]}
        # Campaign and replay both consist of run_schedule calls.
        loop = m["faultsim.campaign.s"] + m["faultsim.replay.s"]
        per_item = m["faultsim.run_schedule.us"]
        parts = {"scenario.build": m["scenario.build.us"],
                 "runtime.run": m["runtime.run.us"],
                 "export.log_digest": m["export.log_digest.us"]}
        parts["faultsim.oracles"] = max(0.0, per_item - sum(parts.values()))
    phases["other"] = m["other.s"]
    shares = {k: v / wall for k, v in phases.items()}
    for k, v in parts.items():
        shares[k] = v / per_item * loop / wall
    return shares


def run_traced(wl, seed, deadline):
    attempted = failed = 0
    problems = []
    ledger = Ledger()
    argv = wl.argv(seed)
    key, wall_key = ledger.key(argv), ledger.wall_key(wl)
    report = os.path.join(OUT, f"{wl.name}.trace-report.json")
    calib = calibrate(deadline)
    tr = invoke(wl.trace_argv(seed, report), os.path.join(OUT, f"{wl.name}.trace.json"),
                deadline)
    attempted += 1
    scale = CALIB_REF_S / stats.median(calib + calibrate(deadline))
    trace_problems = []
    out = None
    if tr.code != 0:
        trace_problems.append(f"traced pass exit status {tr.code}")
    else:
        with open(tr.out_path) as f:
            out = json.loads(f.read().strip().splitlines()[-1])
        trace_problems += [f"{k} = {v}" for k, v in out["checks"].items()
                           if v != 0 and k not in ("runs", "sampled_runs", "devices")]
    if (out is not None and wall_key not in ledger.walls
            and deadline - time.monotonic() > 1.5 * out["metrics"]["trace.wall.s"]):
        # No untraced run of this workload yet in this checkout, and time
        # for one: make it, to measure the tracing overhead against.
        cli = invoke(argv, os.path.join(OUT, f"{wl.name}.main.json"), deadline)
        attempted += 1
        cli_problems, _ = checked(wl, cli)
        if cli_problems or not ledger.agrees(argv, sha256_file(cli.out_path)):
            failed += 1
            problems += cli_problems or ["report differs from an earlier repetition"]
        else:
            ledger.walls[wall_key] = [cli.wall * scale]
            ledger.save()
    if out is not None and key in ledger.reports and sha256_file(report) != ledger.reports[key]:
        trace_problems.append("in-process report differs from the CLI's")
    # Calibrated seconds, like the ledger's end-to-end walls.
    e2e_wall = stats.median(ledger.walls[wall_key]) if wall_key in ledger.walls else None
    if trace_problems:
        failed += 1
        problems += trace_problems
    values = {name: 0.0 for name, _ in PER_LAYER_METRICS}
    if out is not None:
        values.update(out["metrics"])
        if e2e_wall is not None:
            traced = values["trace.wall.s"] * scale
            values["trace.overhead_pct"] = (traced - e2e_wall) / e2e_wall * 100
    print(f"{wl.name} traced: e2e median wall {e2e_wall or 0:.4g} calibrated s, traced wall "
          f"{values['trace.wall.s']:.4g} s ({values['trace.wall.s'] * scale:.4g} calibrated s)")
    for name, unit in PER_LAYER_METRICS:
        print(f"  {name:<32} {values[name]:.6g} {unit}")
    if out is not None:
        shares = layer_shares(values)
        print("  share of traced wall: " +
              ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        with open(os.path.join(OUT, f"{wl.name}.layers.json"), "w") as f:
            json.dump({"metrics": values, "shares": shares}, f, indent=1, sort_keys=True)
    for p in problems:
        print(f"  FAILED {p}")
    units = dict(PER_LAYER_METRICS)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], units[name]) for name, _ in PER_LAYER_METRICS},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="campaign seed (default 42); fleet seeds start at seed*1000 (default 0)")
    ap.add_argument("--seconds", type=int, default=10,
                    help="measure whole invocations until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    build()
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            wl = WORKLOADS[name]
            if args.trace:
                results[name] = run_traced(wl, args.seed, deadline)
            else:
                results[name] = run_e2e(wl, args.seed, args.seconds, deadline)
    except Failure as e:
        fail(str(e))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


if __name__ == "__main__":
    main()
