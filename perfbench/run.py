"""End-to-end benchmark of the compact policy routing reproduction.

Usage::

    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --workload cowen-allpairs --seed 3 \\
        --seconds 30 --trace 0

Runs cold repetitions of one workload (each in a fresh interpreter, see
``rep.py``) until ``--seconds`` are used, checks every repetition's
outputs, and prints the metrics by name with their units.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates traced and untraced repetitions, so ``trace_overhead_pct``
compares the two.  The exit code is non-zero when any output check
fails.

Workloads, their rationale and the layer -> metric map are in
``workloads.py``; metric definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: A run never starts a repetition after this many seconds, so that it
#: ends well inside its 180-second limit.
LAST_START_S = 120.0

#: Untraced repetitions a run makes at the least: setup_s is a median
#: over at least these, table_bits_max and optimal_frac are taken over
#: exactly these.
MIN_REPS = 3


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, forced engines)."""


def metric_units():
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``.

    Names and units are declared once, in ``BENCHMARK.json``.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        declared = json.load(spec)
    return {kind: {metric["name"]: metric["unit"] for metric in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def preflight():
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchmarkError(f"no repro sources under {ROOT}/src")
    forced = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if forced:
        # A forced engine or a silent fallback must not pass for the
        # defaults.
        raise BenchmarkError(
            "refusing to run with REPRO_* variables set: " + ", ".join(forced))


def source_identity():
    """Git SHA when the checkout is a repository, and a hash of src/."""
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return sha, digest.hexdigest()[:16]


def run_rep(workload, seed, spans, deadline):
    """One repetition in a fresh interpreter, in its own process group.

    On a timeout the whole group (the server or pool workers it started
    included) is killed, and the run waits until the group is empty.
    """
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed)]
    if spans:
        command += ["--spans", spans]
    rep = subprocess.Popen(command, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, cwd=ROOT,
                           start_new_session=True)
    try:
        stdout, stderr = rep.communicate(
            timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"repetition of {workload} timed out") from None
    finally:
        _kill_group(rep)
    if rep.returncode != 0:
        raise BenchmarkError(f"repetition failed ({rep.returncode}):\n"
                             f"{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def _kill_group(process):
    """Kill what is left of *process*'s group and wait until it is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    process.communicate()
    for _ in range(200):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def instance_seed(seed, index):
    """The seed of a run's *index*-th input instance."""
    return seed * 100 + index


def repetitions(workload, seed, seconds, traced):
    """Cold repetitions until *seconds* are used, one input instance each.

    Each repetition gets the next instance of the run's seed, so a run's
    medians cover several inputs.  A traced run repeats every instance
    once untraced and once traced, so the two can be paired.
    """
    started = time.monotonic()
    deadline = started + 170.0
    plain, tracing = [], []
    walls = []
    while True:
        elapsed = time.monotonic() - started
        paired = len(tracing) == len(plain)
        enough = (paired and len(plain) >= 1) if traced else (
            len(plain) >= MIN_REPS)
        if enough and (elapsed + statistics.median(walls) > seconds
                       or elapsed > LAST_START_S):
            break
        want_trace = traced and not paired
        index = len(tracing) if want_trace else len(plain)
        spans = None
        if want_trace:
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(
                OUT, f"spans-{workload}-seed{seed}-{index}.jsonl")
        t0 = time.monotonic()
        rep = run_rep(workload, instance_seed(seed, index), spans, deadline)
        walls.append(time.monotonic() - t0)
        rep["instance"] = index
        (tracing if want_trace else plain).append(rep)
    return plain, tracing


def check_digests(workload, seed, reps):
    """Instances whose output digest differs from an earlier repetition's.

    Digests are kept in ``out/digests.json`` across runs, so a rerun of
    the same seed must reproduce every instance's outputs exactly.
    """
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    mismatched = set()
    for rep in reps:
        key = f"{workload}/{instance_seed(seed, rep['instance'])}"
        if known.setdefault(key, rep["digest"]) != rep["digest"]:
            mismatched.add(rep["instance"])
    os.makedirs(OUT, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(known, handle, sort_keys=True)
    os.replace(path + ".tmp", path)
    return sorted(mismatched)


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(samples, q):
    """The q-th percentile (1..99) of pooled samples."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(reps):
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    # Table size and optimality are fixed per instance: take them over the
    # instances every run has, so that they depend on the seed alone and
    # not on how many repetitions fit into the run.
    fixed = reps[:MIN_REPS]
    optimal = sum(rep["optimal"] for rep in fixed)
    optimal_of = sum(rep.get("optimal_of", rep["pairs"]) for rep in fixed)
    return {
        "setup_s": _median([rep["setup_s"] for rep in reps]),
        "run_s": _median([rep["run_s"] for rep in reps]),
        "pairs_per_s": _median([rep["pairs"] / rep["run_s"] for rep in reps]),
        "table_bits_max": _median([rep["table_bits_max"] for rep in fixed]),
        "optimal_frac": optimal / optimal_of if optimal_of else 0.0,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in reps]),
    }


def workload_metrics(reps):
    """Service latencies and protocol messages; 0 where they do not apply.

    These apply to one workload each, so they are not end-to-end metrics
    (those must exist on every workload): an untraced run prints them in
    its table, a traced run reports them as per-layer metrics.
    """
    def pooled(key):
        return [x for rep in reps for x in rep.get(key, ())]

    return {
        "service.route_p50_ms": _percentile(pooled("route_ms"), 50),
        "service.route_p95_ms": _percentile(pooled("route_ms"), 95),
        "service.reroute_p50_ms": _percentile(pooled("reroute_ms"), 50),
        "service.update_p50_ms": _percentile(pooled("update_ms"), 50),
        "protocols.messages": _median(
            [rep["messages"] for rep in reps if "messages" in rep]),
    }


def per_layer(plain, tracing, names):
    out = {name: 0 for name in names}
    for name in out:
        values = [rep["layers"][name] for rep in tracing
                  if name in rep["layers"]]
        if values:
            out[name] = _median(values)
    out.update(workload_metrics(plain))
    out["trace_overhead_pct"] = _median(
        [(traced["run_s"] / untraced["run_s"] - 1.0) * 100.0
         for untraced, traced in zip(plain, tracing)])
    return out


def run_workload(name, seed, seconds, trace, units):
    plain, tracing = repetitions(name, seed, seconds, trace)
    reps = plain + tracing
    failed_checks = sorted({check for rep in reps
                            for check, ok in rep["checks"].items() if not ok})
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    mismatched = check_digests(name, seed, reps)
    if mismatched:
        failed_checks.append(f"digest_repeats (instances {mismatched})")
        failed += len(mismatched)
    extra = {}
    if trace:
        units = units["per_layer"]
        values = per_layer(plain, tracing, units)
    else:
        units = units["end_to_end"]
        values = end_to_end(plain)
        layer = WORKLOADS[name].kind + "."
        extra = {key: value for key, value in workload_metrics(plain).items()
                 if key.startswith(layer)}
    if set(values) != set(units):
        raise BenchmarkError("BENCHMARK.json declares other metrics than "
                             f"the benchmark measures: {sorted(units)}")
    sha, src_hash = source_identity()
    first = reps[0]["provenance"]
    provenance = dict(
        first, workload=name, seed=seed, git_sha=sha, src_sha256=src_hash,
        usable_cpus=len(os.sched_getaffinity(0)), python=sys.version.split()[0],
        reps=len(plain), traced_reps=len(tracing),
        instance_seeds=[instance_seed(seed, rep["instance"]) for rep in plain],
        m=[rep["provenance"]["m"] for rep in plain],
        oracle_trees_built=[rep["provenance"].get("oracle_trees_built")
                            for rep in reps],
        # Wall seconds before scaling to reference speed (speed.py).
        raw_setup_s=_median([rep["raw_s"]["setup"] for rep in plain]),
        raw_run_s=_median([rep["raw_s"]["run"] for rep in plain]),
        probe_ms=_median([rep["probe_ms"] for rep in plain]),
        failed_checks=failed_checks)
    provenance["workload_metrics"] = extra
    return {
        "correct": not failed_checks and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
    }, provenance


def print_table(name, result, provenance, units):
    print(f"== {name} (seed {provenance['seed']}, {provenance['reps']} reps"
          f" + {provenance['traced_reps']} traced) ==")
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in provenance["workload_metrics"].items():
        print(f"  {key:36s} {value:>16.6g} {units['per_layer'][key]}"
              f"  (this workload only, not gated)")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind, so that run_rep kills the repetition's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        preflight()
        units = metric_units()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, provenance = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), units)
            print_table(name, result, provenance, units)
            results[name] = result
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
