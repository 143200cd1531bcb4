"""The measured part of one run, or only its set-up, in a fresh interpreter.

    python3 bench/worker.py --workload resolve --seed 1 --seconds 40 --mode run --trace 0

The set-up (importing mcmkit, loading catalogs, building inputs) ends when
the first job starts; the worker reports that instant on the monotonic
clock, which the parent compares with the instant it started the worker.
``--mode setup`` stops there.

``--mode run`` then runs rounds until the next one would end more than
``--seconds`` after the first job started (and at least ``--min-rounds``).
A round runs the workload's whole job set once, timing each call from
outside.  Every round builds its inputs anew (untimed), so no job finds a
cache that an earlier round filled: mcmkit keeps its caches on the ring and
module objects, not in globals.  Each round also puts the jobs in a new
order.  Before each job the worker collects garbage, so that a job's
collector pauses are those its own allocations cause, whatever ran before
it, and then times a reference from ``reference.py`` (the loop, or for cli
a child interpreter before every other child), which tells the parent how fast the host ran at that
moment; one more reference follows the last job.  Both are untimed.

The first round's answers are checked after its peak memory is read, so the
checker's imports (sympy) stay out of the memory high-water mark; later
rounds are checked as they end.  The result is one JSON object on the last
line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120


def _problem(check, out):
    try:
        return check(out)
    except Exception as exc:  # a checker crash is reported as a failed check
        return f"checker raised {type(exc).__name__}: {exc}"


def _record(name, seconds, problem, known_fault):
    return {"name": name, "s": seconds, "problem": problem, "known_fault": known_fault}


def _rngs(seed, round_):
    """(inputs and in-group order: the same every round, group order: this round's)."""
    return random.Random(seed), random.Random(f"{seed}/{round_}")


def _rounds(args, first_job_at, run_round):
    """Run rounds until the next one is expected to end after the deadline."""
    deadline = first_job_at + args.seconds
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(len(rounds)))
        last = time.perf_counter() - t0
        if len(rounds) >= args.min_rounds and time.perf_counter() + last > deadline:
            return rounds


def run_inprocess(args):
    import mcmkit  # noqa: F401  (set-up: the import is part of what is timed)

    import jobs

    spans = None
    if args.trace:  # only traced rounds pay for importing and installing the tracer
        import tracer

        spans = tracer.Tracer()
        tracer.install(spans)

    build = jobs.BUILDERS[args.workload]
    pending = [build(*_rngs(args.seed, 0))]
    first_job_at = time.perf_counter()
    if args.mode == "setup":
        return {"first_job_at": first_job_at}
    rss_mb = None

    def run_round(i):
        nonlocal rss_mb
        job_list = pending.pop() if pending else build(*_rngs(args.seed, i))
        outputs, refs = [], []
        for job in job_list:
            gc.collect()
            refs.append(reference.loop())
            t0 = time.perf_counter()
            try:
                out, err = job.fn(), None
            except Exception as exc:  # the program's failure is a counted result
                out, err = None, f"{type(exc).__name__}: {exc}"
            outputs.append((job, time.perf_counter() - t0, out, err))
        gc.collect()
        refs.append(reference.loop())  # the last job's reference after it
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"jobs": [_record(job.name, dt, err or _problem(job.check, out), job.known_fault)
                         for job, dt, out, err in outputs], "ref_s": refs}

    rounds = _rounds(args, first_job_at, run_round)
    result = {"first_job_at": first_job_at, "rounds": rounds, "rss_mb": rss_mb}
    if spans is not None:
        result["trace"] = tracer.dump(spans)
    return result


def _run_child(cmd, out_path, err_path):
    """Run one child to its end; (seconds, exit code, peak RSS in MB)."""
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def run_cli(args):
    import mcmkit.cli as cli

    import cli_jobs

    workdir = OUT / f"cli-inputs-{args.seed}"
    job_list, files = cli_jobs.build(*_rngs(args.seed, 0), workdir)
    for name, path in files.items():  # parse every input the way the commands will
        if name.endswith("_mf"):
            cli.load_mf(path)
        elif name.endswith("_ring"):
            cli.load_ring(path)
        else:
            cli.load_module(path)
    first_job_at = time.perf_counter()
    if args.mode == "setup":
        return {"first_job_at": first_job_at}
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    trace_path = workdir / "child.trace.json"
    merged = None
    first_stdout = {}
    peak = 0.0

    def run_round(i):
        nonlocal merged, peak
        order = job_list if i == 0 else cli_jobs.build(*_rngs(args.seed, i), workdir)[0]
        records, refs = [], []
        for k, job in enumerate(order):
            if args.trace:
                cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(trace_path)] + job.argv
            else:
                cmd = [sys.executable, "-m", "mcmkit.cli"] + job.argv
            # a child reference takes half as long as a job: one before every other job
            refs.append(reference.child() if k % 2 == 0 else refs[-1])
            seconds, code, rss_mb = _run_child(cmd, out_path, err_path)
            peak = max(peak, rss_mb)
            stdout = out_path.read_bytes()
            if code != 0:
                problem = f"exit code {code}: {err_path.read_text(errors='replace').strip()[-300:]}"
            else:
                problem = _problem(job.check, stdout.decode("utf-8"))
            command = job.name.rsplit(" #", 1)[0]
            if problem is None and command in first_stdout and first_stdout[command] != stdout:
                problem = "stdout differs between two runs of the same command"
            first_stdout.setdefault(command, stdout)
            records.append(_record(job.name, seconds, problem, None))
            if args.trace:
                import tracer

                state = json.loads(trace_path.read_text())
                merged = state if merged is None else tracer.merge(merged, state)
        refs.append(reference.child())  # the last job's reference after it
        return {"jobs": records, "ref_s": refs}

    rounds = _rounds(args, first_job_at, run_round)
    result = {"first_job_at": first_job_at, "rounds": rounds, "rss_mb": peak}
    if args.trace:
        result["trace"] = merged
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the child clean-up above


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    result = run_cli(args) if args.workload == "cli" else run_inprocess(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
