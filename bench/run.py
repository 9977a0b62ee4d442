"""Run one workload of the fiberfull benchmark and print its metrics.

    python3 bench/run.py --workload degeneration --seed 1 --seconds 44 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  One thread, instances solved one after another (a closed
loop with one client).  The workload's instances are solved in passes until
``--seconds`` is used up; every pass solves every instance.  Each instance
runs under a time cap enforced by SIGALRM.  A cliff instance, kept to show
where the engine stops finishing, has a short cap and is expected to hit it;
in untraced passes it runs in a forked child, so that its partial work stays
out of the measuring process.  Answers are checked by the workload's oracles
after the passes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; set-up time is taken from fresh interpreters started with
``--setup-only``.  With ``--trace 1`` untraced and traced passes alternate,
and the metrics are the per-layer counters and self times from the first
traced pass plus the tracing overhead.  Spans go to ``.bench_out/`` in the
checkout.
"""

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("degeneration", "locus", "monomial")

CLIFF_CAP_S = 1.0  # cliff instances: expected to time out
CAP_S = 30.0  # any other instance; hitting it is a failure
HARD_LIMIT_S = 150.0  # no instance runs past this, so the process ends in time
SETUPS_PER_PASS = 2  # fresh processes timed for setup_s after each pass
SETUP_LIMIT_S = 60  # a --setup-only process is killed by SIGALRM after this


class InstanceTimeout(BaseException):
    """Raised from the alarm handler.  Not an Exception, so that no handler
    in the library can swallow it."""


def _alarm(signum, frame):
    raise InstanceTimeout()


def set_up(workload, seed, workdir):
    """Import the library and the workload code, generate the inputs from the
    seed, write and parse the problem files.  Returns the instances."""
    import workloads

    return workloads.WORKLOADS[workload](seed, workdir)


def time_setup(workload, seed):
    """Seconds from the start of a fresh interpreter to the end of its
    set-up: the process runs ``--setup-only`` and exits, and its exit is
    inside the timing.  The wait blocks in waitpid (a wait with a timeout
    polls, which would round the time up); the child ends itself after
    SETUP_LIMIT_S."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def solve(instance, cap, tracer=None):
    """Solve one instance under a time cap: (status, seconds, output), where
    status is ok, timeout or error and a timeout counts at its cap."""
    # start each instance from a collected heap, as a fresh process would, so
    # that no instance pays for a collection of its predecessors' garbage
    gc.collect()
    if tracer is not None:
        tracer.begin(instance.name)
    status, output = "ok", None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            output = instance.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        status = "timeout"
    except Exception as exc:  # an instance that raises is a failure, not the end of the run
        status, output = "error", "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end(keep=status == "ok")
    return status, (cap if status == "timeout" else seconds), output


def solve_forked(instance, cap):
    """solve() in a forked child process, which sends back its result and
    exits.  A cliff rung runs this way in untraced passes: how far it gets
    before its cap depends on the machine's speed, and in the measuring
    process its partial work would set peak_rss_mb."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(solve(instance, cap), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    if not text:
        return "error", cap, "the child process gave no result"
    status, seconds, output = json.loads(text)
    return status, seconds, output


def run_pass(instances, deadline, tracer=None, fork_cliffs=False):
    out = []
    for inst in instances:
        limit = CLIFF_CAP_S if inst.cliff else CAP_S
        cap = max(0.01, min(limit, deadline - time.perf_counter()))
        if inst.cliff and fork_cliffs:
            out.append(solve_forked(inst, cap))
        else:
            out.append(solve(inst, cap, tracer))
    return out


def pass_wall(results):
    return sum(seconds for _, seconds, _ in results)


def evaluate(instances, passes):
    """Check every answer: outputs of one instance must agree across passes
    and pass its oracle.  Returns (correct, failed, unfinished, notes), where
    failed counts attempts that erred, answered wrongly or hit the cap of a
    non-cliff instance, and unfinished counts every attempt without a
    verified answer, cliff timeouts included."""
    correct = True
    failed = unfinished = 0
    notes = []
    for k, inst in enumerate(instances):
        results = [p[k] for p in passes]
        outputs = sorted({out for status, _, out in results if status == "ok"})
        reason = None
        if len(outputs) > 1:
            reason = "outputs differ between passes"
        elif outputs:
            try:
                reason = inst.check(outputs[0])
            except Exception as exc:  # a garbled answer is a wrong answer
                reason = "oracle raised %s: %s" % (type(exc).__name__, exc)
        for status, _, out in results:
            if status == "ok" and reason is None:
                continue
            unfinished += 1
            if status == "timeout" and inst.cliff:
                continue
            failed += 1
            if status != "timeout":
                correct = False
        statuses = ",".join(status for status, _, _ in results)
        if reason is not None:
            notes.append("%s: %s" % (inst.name, reason))
        elif "error" in statuses:
            notes.append("%s: %s" % (inst.name, next(o for s, _, o in results if s == "error")))
        elif "timeout" in statuses and not inst.cliff:
            notes.append("%s: hit its time cap" % inst.name)
    return correct, failed, unfinished, notes


def end_to_end(instances, passes, setup_s, rss_mb, unfinished):
    """The --trace 0 metrics.  The time metrics cover the instances that are
    not cliff rungs: a cliff rung always reads its cap, which would only
    dilute a change in the others; the cliffs count in fail_frac."""
    per_instance = [statistics.median(p[k][1] for p in passes) for k in range(len(instances))]
    timed = [k for k, inst in enumerate(instances) if not inst.cliff]
    finished = [per_instance[k] for k in timed if all(p[k][0] == "ok" for p in passes)]
    attempts = len(instances) * len(passes)
    return per_instance, {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(p[k][1] for k in timed) for p in passes), "s"),
        "geomean_s": (math.exp(statistics.fmean(math.log(per_instance[k]) for k in timed)), "s"),
        "max_instance_s": (max(finished or [per_instance[k] for k in timed]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "fail_frac": (unfinished / attempts, "ratio"),
    }


def report(instances, passes, metrics, correct, failed, notes, per_instance=None):
    for k, inst in enumerate(instances):
        statuses = " ".join(p[k][0] for p in passes)
        median = "" if per_instance is None else "%10.4f s" % per_instance[k]
        print("%-28s %s%s  [%s]" % (inst.name, "cliff " if inst.cliff else "", median, statuses))
    print("pass walls (s):", " ".join("%.4f" % pass_wall(p) for p in passes))
    for note in notes:
        print("FAIL", note)
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": len(instances) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up the workload and exit; used to time set-up")
    return p.parse_args(argv)


def run_traced(instances, seconds, deadline):
    """Untraced and traced passes in pairs, until ``seconds`` is used up (one
    pair at least).  Pairs alternate their order (untraced first, then traced
    first), so that neither kind always runs on the colder or the slower
    side.  The per-layer metrics and spans come from the first traced pass;
    trace.overhead_s is the median traced pass minus the median untraced
    pass."""
    untraced, traced, first = [], [], None
    start = time.perf_counter()
    longest = 0.0
    while True:
        pair_start = time.perf_counter()
        for with_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_tracer:
                untraced.append(run_pass(instances, deadline))
                continue
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(run_pass(instances, deadline, tracer))
            finally:
                tracer.remove()
            first = first or tracer
        now = time.perf_counter()
        longest = max(longest, now - pair_start)
        if now + longest > min(start + seconds, deadline):
            break
    overhead = (statistics.median(pass_wall(p) for p in traced)
                - statistics.median(pass_wall(p) for p in untraced))
    return untraced + traced, first, overhead


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fiberfull" / "__init__.py").is_file():
        print("bench: no fiberfull sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".bench_out" / ("%s-s%d" % (args.workload, args.seed))
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        signal.alarm(SETUP_LIMIT_S)
        set_up(args.workload, args.seed, workdir)
        return 0

    deadline = time.perf_counter() + HARD_LIMIT_S
    instances = set_up(args.workload, args.seed, workdir)
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        passes, tracer, overhead = run_traced(instances, args.seconds, deadline)
        correct, failed, _, notes = evaluate(instances, passes)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (overhead, "s")
        write_spans(workdir / "spans.jsonl", tracer.spans)
        report(instances, passes, metrics, correct, failed, notes)
        return 0

    # set-up is sampled after every pass, so that its median spans the same
    # phases of the machine's speed as the passes do
    passes, setups = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(instances, deadline, fork_cliffs=True))
        setups += [time_setup(args.workload, args.seed) for _ in range(SETUPS_PER_PASS)]
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        if now + longest > min(start + args.seconds, deadline):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, failed, unfinished, notes = evaluate(instances, passes)
    per_instance, metrics = end_to_end(instances, passes, statistics.median(setups), rss_mb,
                                       unfinished)
    report(instances, passes, metrics, correct, failed, notes, per_instance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
