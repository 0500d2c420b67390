"""One workload in one process: set up, self-test, run the ops, report.

Started by ``run.py`` with the BLAS thread variables set to 1 and
``src`` on ``PYTHONPATH``.  Prints ``READY`` once capdist is imported and
the inputs are generated (the end of set-up), then one JSON line with the
per-op records.  With ``--mode setup`` it prints its set-up CPU time
instead (not scaled: the time to start and import did not follow the
reference kernel's speed).

A fixed numpy kernel that uses no capdist code (``KERNELS``: a small one
for ``points`` and ``outer``, an 8 MB array pass for ``large``) is timed
before every op, after the last, and at a fixed rate of user CPU time
during an op (see ``MachineSpeed``); against the kernel's nominal time
each sample is the machine-speed factor at that moment.  An op's factor is the mean of
the samples taken during it and of the boundary samples around it (the
two next to it and SPAN more on each side).  Its reported (scaled) time is
its CPU time, less the in-op samples, divided by that factor; an op
stopped by its deadline counts at its nominal deadline.  On a shared
2-vCPU x86-64 VM the CPU time of the same code moved by up to 1.9x
between runs, and within a run it switched between a fast and a slow
state several times a second, so neither a run-wide factor nor samples
taken only between ops followed multi-second ops.  The deadline is on the
same scaled time: at every in-op sample the op is stopped once its CPU
time so far, less the sampling, divided by the mean of its in-op samples
passes the nominal deadline.  So an op gets the same amount of work in a
slow state as in a fast one, and whether it fails does not depend on
when the machine switched states.

Op times, the reference kernel's time and the deadline are on the worker's
CPU time (``tracing.clock``).  Each op runs under a SIGPROF deadline.  Its
outcome is one of ok, raise (any exception, including NotCertified and
SolverNonmonotone), warning (a convergence_warning on a returned point),
deadline, or check (the result fails its solver-independent check, which
runs after the op, outside its timing).  A check failure whose reason
starts with ``checks.INVALID`` marks a wrong answer, not a missed
tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import capdist as cd
import numpy as np

import checks
import tracing
import workloads
from tracing import DeadlineExceeded
from workloads import Op


# Reference samples on each side of an op, beyond the two next to it, that
# set its speed factor.
SPAN = 2
# See ``timed``.
BACKSTOP = 3.0
_REF_CHANNEL = np.random.default_rng(0).dirichlet(np.ones(5), size=6)


def _alarm(signum, frame):
    raise DeadlineExceeded()


def reference_kernel() -> None:
    """300 capacity iterations on a fixed 6 x 5 channel in plain numpy: the
    solver's mix of small array operations and Python loop overhead."""
    p = np.full(6, 1.0 / 6.0)
    for _ in range(300):
        q = p @ _REF_CHANNEL
        p = p * np.exp((_REF_CHANNEL * np.log(_REF_CHANNEL / q)).sum(axis=1))
        p /= p.sum()


def array_kernel() -> None:
    """Allocate, fill, exp and sum 2^20 doubles (8 MB) in numpy: the
    memory-bound array passes of the ``large`` workload.  The small kernel
    slows down more than these passes when the machine is in its slow
    state; next to a K = 10 block point, the op's time over this kernel's
    varied by 8 % (coefficient of variation), over the small kernel's by
    17 %, and unscaled by 12 %."""
    float(np.exp(-np.linspace(0.0, 1.0, 1 << 20)).sum())


# Per workload: the reference kernel that resembles its ops, the kernel's
# median time in ms at nominal machine speed (reported times are scaled to
# it; the array kernel's was set against the small one's 2.5 ms on the same
# machine), and the user CPU seconds between two samples inside an op.
KERNELS = {
    "points": (reference_kernel, 2.5, 0.1),
    "outer": (reference_kernel, 2.5, 0.1),
    "large": (array_kernel, 7.0, 0.25),
}


class MachineSpeed:
    """Reference-kernel time relative to its nominal time.

    ``samples[i]`` is taken just before op i.  While an op runs, a SIGVTALRM
    every ``every_s`` of user CPU time runs the kernel once more between
    two bytecodes of the op: ``in_op[i]`` holds those samples and
    ``in_op_s[i]`` the CPU time they took, which is taken off the op's
    time."""

    def __init__(self, kernel, reference_ms: float, every_s: float, held=lambda: 0.0):
        # held(): CPU time so far that is not the op's (the tracer's own work)
        self.kernel, self.reference_ms, self.every_s, self.held = kernel, reference_ms, every_s, held
        for _ in range(5):  # warm-up, not recorded
            kernel()
        self.samples: list[float] = []
        self.in_op: list[list[float]] = []
        self.in_op_s: list[float] = []
        self._armed = self._busy = False
        signal.signal(signal.SIGVTALRM, self._tick)

    def sample(self, repeats: int = 3) -> None:
        times = []
        for _ in range(repeats):
            t0 = tracing.clock()
            self.kernel()
            times.append(tracing.clock() - t0)
        self.samples.append(statistics.median(times) * 1e3 / self.reference_ms)

    def recent(self) -> float:
        return statistics.median(self.samples[-(SPAN + 1):])

    def arm(self, limit: float) -> None:
        """Start sampling; stop the op once its scaled time passes ``limit``."""
        self.in_op.append([])
        self.in_op_s.append(0.0)
        self._limit, self._start = limit, tracing.clock() - self.held()
        self._armed = True
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every_s, self.every_s)

    def disarm(self) -> None:
        self._armed = False  # a signal still pending is dropped
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def _tick(self, signum, frame):
        if self._busy or not self._armed:
            return
        self._busy = True
        t0 = tracing.clock()
        try:
            self.kernel()
            self.in_op[-1].append((tracing.clock() - t0) * 1e3 / self.reference_ms)
        finally:  # a deadline can stop the kernel too
            self.in_op_s[-1] += tracing.clock() - t0
            self._busy = False
        own = tracing.clock() - self.held() - self._start - self.in_op_s[-1]  # the op's CPU time so far
        if own > self._limit * statistics.fmean(self.in_op[-1]):
            raise DeadlineExceeded()

    def op_factors(self) -> list[float]:
        """Per op i, the mean of boundary samples i - SPAN .. i + 1 + SPAN
        and of the samples taken during it.  A mean, not a median: the
        machine switches between a fast and a slow state within seconds,
        and an op's time adds up both."""
        return [statistics.fmean(self.samples[max(0, i - SPAN):i + 2 + SPAN] + inside)
                for i, inside in enumerate(self.in_op)]


def timed(call, limit: float, speed: MachineSpeed | None = None):
    """(result, error, seconds): error is "deadline", an exception, or None.

    Without ``speed`` the call is stopped after ``limit`` s of CPU time.
    With it, the kernel is sampled during the call, which is stopped once
    its scaled time passes ``limit``; a CPU-time timer at BACKSTOP times
    ``limit``, stretched by the last boundary samples, is only a backstop."""
    t0 = tracing.clock()
    try:
        if speed is None:
            signal.setitimer(tracing.TIMER, limit)
        else:
            signal.setitimer(tracing.TIMER, BACKSTOP * limit * speed.recent())
            speed.arm(limit)
        try:
            result = call()
        finally:
            if speed is not None:
                speed.disarm()
            signal.setitimer(tracing.TIMER, 0)
        return result, None, tracing.clock() - t0
    except DeadlineExceeded:
        return None, "deadline", tracing.clock() - t0
    except Exception as exc:  # every raise is a counted failure, never a crash
        return None, exc, tracing.clock() - t0


def _warning(result) -> str | None:
    warning = getattr(result, "convergence_warning", None)
    for pt in getattr(result, "points", ()):
        warning = warning or pt.convergence_warning
    if getattr(result, "certified", True) is False:
        warning = "not certified"
    return warning


def classify(op, result, error) -> tuple[str, str, bool]:
    """(outcome, detail, wrong answer)."""
    if error == "deadline":
        return "deadline", "", False
    if error is not None:
        return "raise", f"{type(error).__name__}: {error}", False
    warning = _warning(result)
    if warning:
        return "warning", warning, False
    bad = op.check(result)
    if not bad:
        return "ok", "", False
    return "check", bad, bad.startswith(checks.INVALID)


def self_test() -> dict:
    """Genuine results pass their checks, perturbed ones are counted as
    failed, and the deadline stops a long op close to time."""
    problems = []

    def expect(label, op, result, outcome):
        got, detail, _ = classify(op, result, None)
        if got != outcome:
            problems.append(f"{label}: expected {outcome}, got {got} {detail}")

    r, budget = 0.3, 0.05
    scalar = cd.scalar_multiplicative_model(r)
    point = cd.capacity_distortion_point(scalar, budget)
    op = workloads._point_op("self-test", scalar, budget, workloads._scalar_checker(r))
    expect("scalar point", op, point, "ok")
    expect("scalar capacity + 1e-5", op, dataclasses.replace(point, capacity=point.capacity + 1e-5), "check")
    over = cd.InputDistribution(point.optimizer.probs + np.array([1e-6, -1e-6]))
    expect("scalar law over budget", op, dataclasses.replace(point, optimizer=over), "check")

    rng = np.random.default_rng(0)
    model = cd.validate_channel(rng.dirichlet(np.ones(3), size=(3, 2)), [0.6, 0.4], workloads.HAMMING2)
    cost = cd.optimal_estimator(model).cost_vector
    budget = float(cost.min() + 0.5 * (cost.max() - cost.min()))
    point = cd.capacity_distortion_point(model, budget)
    op = workloads._point_op("self-test", model, budget,
                             lambda b, pt: checks.check_point_dual(model, b, pt))
    expect("random point", op, point, "ok")
    cheap = np.zeros(3)
    cheap[int(np.argmin(cost))] = 1.0
    moved = cd.InputDistribution(0.9 * point.optimizer.probs + 0.1 * cheap)
    expect("random law moved 10% to the cheapest letter", op,
           dataclasses.replace(point, optimizer=moved, capacity=cd.mutual_information(model, moved)), "check")

    family = cd.CompoundFamily(cd.scalar_multiplicative_model(0.3).transition, workloads.SCALAR_PRIORS,
                               workloads.HAMMING2)
    rates = tuple(p[1] for p in workloads.SCALAR_PRIORS)
    law = cd.InputDistribution([0.2, 0.8])
    value = min(cd.mutual_information(m, law) for m in family.models)
    fake = cd.CompoundResult(value, law, 0, 0.0, True)
    op = Op("self-test", None, lambda res: checks.check_compound_scalar(family, 0.1, res, rates))
    expect("compound law off the max-min", op, fake, "check")
    op = Op("self-test", None, lambda res: checks.check_compound_random(family, 0.1, res))
    expect("compound law off the LP bound", op, fake, "check")

    slope = -np.log(1 - r) / r
    op = Op("self-test", None, lambda res: checks.check_cpud(scalar, res, slope))
    expect("cpud value + 1%", op, cd.CpudResult(1.01 * slope, None, "sup-definition"), "check")

    law = np.array([0.4, 0.6])
    report = cd.simulate(scalar, law, 20_000, 1)
    op = Op("self-test", None,
            lambda rep: checks.check_simulation(scalar, law, np.array([r, 0.0]), 20_000, rep))
    expect("simulation", op, report, "ok")
    expect("simulated distortion + 0.02", op,
           dataclasses.replace(report, empirical_distortion=report.empirical_distortion + 0.02), "check")

    # A CPU-time timer expires on a scheduler tick (4 ms at HZ = 250, 10 ms
    # at HZ = 100), so the probe allows two ticks of overshoot.
    _, error, seconds = timed(lambda: cd.cpud_sup_definition(scalar), 0.05)
    if error != "deadline" or seconds > 0.07:
        problems.append(f"deadline probe: {error!r} after {seconds:.4f} s of 0.05 s")
    return {"ok": not problems, "problems": problems}


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stop-after", type=float, default=0.0,
                        help="start no op after this many wall-clock seconds of the op loop")
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    ops = workloads.build_ops(args.workload, args.seed)
    setup_s = time.process_time()  # CPU time since the process started
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    signal.signal(tracing.TIMER_SIGNAL, _alarm)
    test = self_test()
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()

    deadline = workloads.DEADLINE_S[args.workload]
    speed = MachineSpeed(*KERNELS[args.workload], held=(lambda: tracer.paused) if tracer else (lambda: 0.0))
    records = []
    measured = 0.0
    stop = time.perf_counter() + args.stop_after
    nominal = []  # per op: its deadline at nominal speed
    held = []  # per op: the tracer's own CPU time inside it
    while len(records) < args.ops and time.perf_counter() < stop:
        speed.sample()
        op = ops[len(records) % len(ops)]
        call = op.call if tracer is None else (lambda: tracer.run_op(op.call))
        nominal.append(deadline * op.budgets)
        before = speed.held()
        result, error, seconds = timed(call, nominal[-1], speed)
        measured += seconds
        held.append(speed.held() - before)
        records.append([op.label, seconds, *classify(op, result, error)])
        del result
    speed.sample()
    factors = speed.op_factors()
    scaled = [limit if rec[2] == "deadline" else (rec[1] - sampling - tracer_s) / f
              for rec, f, sampling, tracer_s, limit in zip(records, factors, speed.in_op_s, held, nominal)]

    out = {
        "records": records,
        "measured_s": measured,
        "deadline_s": deadline,
        "scaled": scaled,
        "speed_factor": statistics.median(factors),
        "reference_ms": speed.reference_ms,
        "reference_samples": len(speed.samples) + sum(map(len, speed.in_op)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "self_test": test,
        "machine": machine(),
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics(len(records))
        out["absent"] = tracer.absent
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
