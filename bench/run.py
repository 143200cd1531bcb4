"""mcmkit benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/run.py --workload resolve --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from ``src``.
A run pins itself, its workers and their children to one CPU, starts
SETUP_PROBES workers (``worker.py``) that only set up, and then one fresh,
single-threaded worker that runs rounds of the workload's whole job set
for ``--seconds`` (at least MIN_ROUNDS rounds); every round builds new
inputs, so no cache carries over from one round to the next.  The last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Times are given at the reference speed (``reference.py``): each job's time
is scaled by the reference timed just before and after it (a loop in the
worker, or a child interpreter for cli children and set-ups), because the
CPU speed of a shared host swings by nearly a factor of two over a second
to minutes as its neighbours load it.  A job's time is the median of its
scaled times over the rounds.

--trace 0 reports the end-to-end metrics:
  setup_s      median time from starting a worker to its first timed job,
               over the set-up probes and the measuring worker
  wall_s       summed job times: the time to finish the job set
  job_p50_s    median job time
  job_tail_s   the 11th-longest job time: ten jobs lie beyond it
  peak_rss_mb  peak RSS: of the worker through its first round for
               in-process workloads, of the largest child for cli
--trace 1 runs one untraced and one traced round and reports the per-layer
metrics of the traced one, with trace.overhead_s = traced wall - untraced
wall (unscaled).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("quiver", "resolve", "stable", "cli")
SETUP_PROBES = 3
MIN_ROUNDS = 2
IMPORT_PROBES = 5
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("peak_rss_mb", "MB"))


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(workload, seed, mode, trace, seconds=0.0, min_rounds=1):
    """Start a worker and wait for it; (seconds from start to first job, result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--trace", str(trace), "--seconds", str(seconds),
           "--min-rounds", str(min_rounds)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload}/{mode} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["first_job_at"] - started, result


def tail(times):
    """Highest percentile with TAIL_BEYOND jobs beyond it: the 11th-longest job."""
    ordered = sorted(times, reverse=True)
    return ordered[min(TAIL_BEYOND, len(ordered) - 1)]


def job_summary(times):
    return {"wall_s": sum(times), "job_p50_s": statistics.median(times),
            "job_tail_s": tail(times)}


def nominal_s(workload):
    """The reference a workload's jobs are scaled by: cli's are children."""
    return ref.CHILD_S if workload == "cli" else ref.LOOP_S


def job_times(rounds, nominal):
    """Each job's median time over the rounds, at the reference speed (every
    round runs the same jobs)."""
    times = {}
    for r in rounds:
        names = [j["name"] for j in r["jobs"]]
        if len(set(names)) != len(names) or (times and set(names) != set(times)):
            raise RuntimeError("rounds of one run must run the same, uniquely named jobs")
        for j, ref_s in zip(r["jobs"], ref.bracketing(r["ref_s"])):
            times.setdefault(j["name"], []).append(ref.scaled(j["s"], ref_s, nominal))
    return [statistics.median(ts) for ts in times.values()]


def tally(results):
    """(correct, attempted, failed, unexpected failures) over rounds."""
    jobs = [j for r in results for j in r["jobs"]]
    failed = [j for j in jobs if j["problem"] is not None]
    unexpected = [j for j in failed if j["known_fault"] is None]
    return not unexpected, len(jobs), len(failed), unexpected


def setup_probe(workload, seed, mode, seconds=0.0):
    """Start a worker; (its set-up time at the reference speed, its result)."""
    ref_s = ref.child()
    setup, result = spawn_worker(workload, seed, mode, 0, seconds, MIN_ROUNDS)
    return ref.scaled(setup, ref_s, ref.CHILD_S), result


def measure(workload, seed, seconds):
    setups = [setup_probe(workload, seed, "setup")[0] for _ in range(SETUP_PROBES)]
    setup, result = setup_probe(workload, seed, "run", seconds)
    setups.append(setup)
    rounds = result["rounds"]
    values = {"setup_s": statistics.median(setups), **job_summary(job_times(rounds, nominal_s(workload))),
              "peak_rss_mb": result["rss_mb"]}
    return {name: (values[name], unit) for name, unit in END_TO_END}, rounds


def import_seconds():
    """Median time of ``import mcmkit.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import mcmkit.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip()))
    return statistics.median(out)


def measure_traced(workload, seed):
    import tracer as tr

    plain = spawn_worker(workload, seed, "run", 0)[1]["rounds"][0]
    traced_run = spawn_worker(workload, seed, "run", 1)[1]  # same order as the untraced round
    traced = traced_run["rounds"][0]
    metrics = tr.layer_metrics(tr.load(traced_run["trace"]))
    metrics["cli.import_s"] = (import_seconds(), "s")
    child = sum(j["s"] for j in traced["jobs"]) if workload == "cli" else 0.0
    metrics["cli.child_s"] = (child, "s")
    overhead = sum(j["s"] for j in traced["jobs"]) - sum(j["s"] for j in plain["jobs"])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, [plain, traced]


def run_one(workload, seed, seconds, trace):
    if trace:
        metrics, rounds = measure_traced(workload, seed)
    else:
        metrics, rounds = measure(workload, seed, seconds)
    correct, attempted, failed, unexpected = tally(rounds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{'trace' if trace else 'result'}-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "metrics": metrics, "rounds": rounds}, indent=1)
        + "\n")
    for job in unexpected:
        print(f"UNEXPECTED FAILURE {workload}: {job['name']}: {job['problem']}")
    known = sorted({j["name"] for r in rounds for j in r["jobs"]
                    if j["problem"] is not None and j["known_fault"] is not None})
    for name in known:
        print(f"known fault {workload}: {name}")
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"{workload:8s} {name:32s} {shown}")
    print(f"{workload:8s} jobs attempted {attempted}, failed {failed}, rounds {len(rounds)}")
    if not trace:
        refs = [x for r in rounds for x in r["ref_s"]]
        print(f"{workload:8s} reference median {statistics.median(refs) * 1e3:.3f} ms "
              f"(job times above are scaled to {nominal_s(workload) * 1e3:g} ms)")
    return correct, attempted, failed, {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="mcmkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds through subprocess.run, which kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for this process and every worker and child: each reference
    # timing runs on the CPU of the job it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "mcmkit" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no mcmkit sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, got = run_one(name, args.seed, args.seconds, args.trace)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
