"""Layer tracing for the traced run, from outside the package.

``install`` rebinds the public functions the ops call and the two private
hot spots without a public boundary (``solver._ascend`` in every module
that binds it, and ``solver._Objective.scores``) to wrappers that record
spans and counters.  Nothing is hooked in the untraced timing run.  A hook
whose target no longer exists is listed as absent, and the counters that
depend on it are left out of the report instead of reading zero.

Spans (op id, name, start, end, parent) are kept in memory for the public
calls and written out at the end; ascents and score evaluations, which run
thousands of times per op, only feed counters.  A span's self time is its
duration minus the time its child spans cover.  Recording is on only while
an op runs, so input generation and output checks are never counted, and
the tracer's own point certification runs on a paused clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import signal
import time
import weakref
from collections import Counter

import checks

EXT_KINDS = ("cpud_sup_definition", "compound_cd", "_solve_weighted")
STORED = {
    "op", "capacity_distortion_point", "cd_curve", "cpud_sup_definition", "compound_cd",
    "block_multiplicative_model", "block_to_super_symbol", "optimal_estimator", "simulate",
}


# Op times, deadlines and spans are on the worker's CPU time (user +
# system), not on the wall clock.  It leaves out the time other processes
# hold the CPU and, in a Linux guest with paravirtual steal-time accounting,
# the time the hypervisor gives the vCPU to other tenants; page faults and
# memory zeroing stay in.  The op deadline is the matching timer,
# ITIMER_PROF.  The clock is the thread's: the worker runs one thread (BLAS
# threads 1), and while a process CPU timer is armed Linux reads the
# process CPU clock only to the scheduler tick (4 ms at HZ = 250).
clock = time.thread_time
TIMER = signal.ITIMER_PROF
TIMER_SIGNAL = signal.SIGPROF


class DeadlineExceeded(BaseException):
    """Raised from a signal handler (the SIGPROF timer, or the worker's
    in-op speed sampling) to stop an op at its deadline.

    A BaseException, so that no ``except Exception`` in the code under test
    can swallow it."""


class Tracer:
    def __init__(self):
        self.paused = 0.0
        self.stack: list[list] = []  # [kind, start, child_time, parent_span]
        self.spans: list[tuple] = []
        self.op_id = -1
        self.recording = False
        self.total = Counter()  # kind -> summed duration
        self.self_time = Counter()  # kind -> summed self time
        self.n = Counter()  # event counters
        self.gap_max = 0.0
        self.absent: list[str] = []
        self._costs = weakref.WeakKeyDictionary()

    def now(self) -> float:
        return clock() - self.paused

    def inside(self, *kinds) -> bool:
        return any(frame[0] in kinds for frame in self.stack)

    def call(self, kind, fn, args, kwargs, on_return=None):
        if not self.recording:
            return fn(*args, **kwargs)
        parent = self.stack[-1][3] if self.stack else None
        frame = [kind, self.now(), 0.0, parent]
        if kind in STORED:
            frame[3] = len(self.spans)
            self.spans.append(None)  # filled in on exit
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except DeadlineExceeded:
            if kind == "_ascend":
                self.n["deadline_in_ascent"] += 1
            raise
        finally:
            self.stack.pop()
            end = self.now()
            duration = end - frame[1]
            self.total[kind] += duration
            self.self_time[kind] += duration - frame[2]
            self.n[kind] += 1
            if self.stack:
                self.stack[-1][2] += duration
            if kind in STORED:
                self.spans[frame[3]] = (self.op_id, kind, frame[1], end, parent)
        if on_return is not None:
            on_return(result, args, kwargs)
        return result

    def run_op(self, fn):
        self.op_id += 1
        self.recording = True
        try:
            return self.call("op", fn, (), {})
        finally:
            self.recording = False

    # -- counters at return -------------------------------------------------

    def _paused(self, work):
        """Run tracer-side work with the clock, the op's deadline and the
        worker's speed sampling (ITIMER_VIRTUAL) stopped."""
        timers = {which: signal.setitimer(which, 0) for which in (TIMER, signal.ITIMER_VIRTUAL)}
        t0 = clock()
        try:
            work()
        finally:
            self.paused += clock() - t0
            for which, (remaining, interval) in timers.items():
                if remaining > 0:
                    signal.setitimer(which, remaining, interval)

    def _cost(self, model, estimator):
        if model not in self._costs:
            self._costs[model] = estimator(model).cost_vector
        return self._costs[model]

    def on_point(self, estimator):
        def record(point, args, kwargs):
            if self.inside(*EXT_KINDS):
                self.n["ext_points"] += 1

            def certify():
                model, budget = args[0], float(args[1])
                cost = self._cost(model, estimator)
                probs = point.optimizer.probs
                ok = (float(probs @ cost) <= budget + checks.COST_TOL
                      and checks.dual_gap(model, probs, budget, cost) <= checks.POINT_TOL)
                self.n["certified"] += ok
                self.n["returned_points"] += 1

            self._paused(certify)
        return record

    def on_ascend(self, result, args, kwargs):
        self.n["iter_cap"] += bool(result[2])
        if self.inside("capacity_distortion_point"):
            self.n["ascents_in_points"] += 1
        if self.inside(*EXT_KINDS):
            self.n["ext_ascents"] += 1

    def on_weighted(self, result, args, kwargs):
        self.n["ext_points"] += 1

    def on_compound(self, result, args, kwargs):
        self.gap_max = max(self.gap_max, float(result.gap))

    def on_block(self, model, args, kwargs):
        self.n["block_bytes"] += model.transition.nbytes

    def on_simulate(self, report, args, kwargs):
        self.n["samples"] += report.samples
        self.n["draw_bytes"] += report.samples * args[0].output_size * 8

    def on_scores(self, result, args, kwargs):
        self.n["score_bytes"] += sum(2 * pyx.size * 8 for _, pyx, _ in getattr(args[0], "terms", ()))
        if self.stack and self.stack[-1][0] == "_ascend":
            self.n["scores_in_ascents"] += 1

    # -- installation --------------------------------------------------------

    def _wrap(self, owner, name, kind, on_return=None):
        fn = getattr(owner, name, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(kind, fn, args, kwargs, on_return)

        setattr(owner, name, wrapper)

    def install(self):
        import capdist

        # capdist.simulate is the function; the module is capdist.simulate in sys.modules.
        analytic, extensions, simulate, solver = (
            importlib.import_module(f"capdist.{name}") for name in ("analytic", "extensions", "simulate", "solver"))

        estimator = getattr(solver, "optimal_estimator", None) or capdist.optimal_estimator
        on_point = self.on_point(estimator)
        for mod in (capdist, solver, extensions):
            self._wrap(mod, "capacity_distortion_point", "capacity_distortion_point", on_point)
        for mod in (solver, extensions):
            self._wrap(mod, "_ascend", "_ascend", self.on_ascend)
        objective = getattr(solver, "_Objective", None)
        if objective is None:
            self.absent.append("capdist.solver._Objective.scores")
        else:
            self._wrap(objective, "scores", "scores", self.on_scores)
        for mod in (solver, extensions, simulate):
            self._wrap(mod, "optimal_estimator", "optimal_estimator")
        self._wrap(analytic, "block_to_super_symbol", "block_to_super_symbol", self.on_block)
        self._wrap(extensions, "_solve_weighted", "_solve_weighted", self.on_weighted)
        self._wrap(capdist, "cd_curve", "cd_curve")
        self._wrap(capdist, "cpud_sup_definition", "cpud_sup_definition")
        self._wrap(capdist, "compound_cd", "compound_cd", self.on_compound)
        self._wrap(capdist, "block_multiplicative_model", "block_multiplicative_model")
        self._wrap(capdist, "simulate", "simulate", self.on_simulate)

    # -- report --------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; totals are per op of the traced pass."""
        ops = max(n_ops, 1)
        n, total, own = self.n, self.total, self.self_time

        def ratio(a, b):
            return a / b if b else 0.0

        ext_ops = n["cpud_sup_definition"] + n["compound_cd"]
        needs = {
            "channel.estimator_calls": ("optimal_estimator",),
            "channel.estimator_s": ("optimal_estimator",),
            "channel.block_build_s": ("block_to_super_symbol",),
            "channel.block_bytes_computed": ("block_to_super_symbol",),
            "solver.points": ("capacity_distortion_point",),
            "solver.ascents_per_point": ("_ascend", "capacity_distortion_point"),
            "solver.score_evals_per_ascent": ("_ascend", "scores"),
            "solver.ascent_self_s": ("_ascend", "scores"),
            "solver.iter_cap_hits": ("_ascend",),
            "solver.deadline_hits": ("_ascend",),
            "solver.certified_ratio": ("capacity_distortion_point",),
            "solver.score_evals": ("scores",),
            "solver.score_s": ("scores",),
            "solver.score_bytes_computed": ("scores",),
            "extensions.points_per_op": ("capacity_distortion_point", "_solve_weighted"),
            "extensions.ascents_per_op": ("_ascend",),
            "extensions.self_s": ("_solve_weighted",),
            "extensions.gap_max": ("compound_cd",),
            "simulate.s": ("simulate",),
            "simulate.samples_per_s": ("simulate",),
            "simulate.draw_bytes_computed": ("simulate",),
        }
        values = {
            "channel.estimator_calls": (n["optimal_estimator"] / ops, "call/op"),
            "channel.estimator_s": (total["optimal_estimator"] / ops, "s/op"),
            "channel.block_build_s": (total["block_to_super_symbol"] / ops, "s/op"),
            "channel.block_bytes_computed": (n["block_bytes"] / ops, "byte/op"),
            "solver.points": (n["capacity_distortion_point"] / ops, "point/op"),
            "solver.ascents_per_point": (ratio(n["ascents_in_points"], n["capacity_distortion_point"]), "ascent/point"),
            "solver.score_evals_per_ascent": (ratio(n["scores_in_ascents"], n["_ascend"]), "eval/ascent"),
            "solver.ascent_self_s": (own["_ascend"] / ops, "s/op"),
            "solver.iter_cap_hits": (n["iter_cap"] / ops, "count/op"),
            "solver.deadline_hits": (n["deadline_in_ascent"] / ops, "count/op"),
            "solver.certified_ratio": (ratio(n["certified"], n["returned_points"]), "ratio"),
            "solver.score_evals": (n["scores"] / ops, "eval/op"),
            "solver.score_s": (total["scores"] / ops, "s/op"),
            "solver.score_bytes_computed": (n["score_bytes"] / ops, "byte/op"),
            "extensions.points_per_op": (ratio(n["ext_points"], ext_ops), "point/op"),
            "extensions.ascents_per_op": (ratio(n["ext_ascents"], ext_ops), "ascent/op"),
            "extensions.self_s": (sum(own[k] for k in EXT_KINDS) / ops, "s/op"),
            "extensions.gap_max": (self.gap_max, "nats"),
            "simulate.s": (total["simulate"] / ops, "s/op"),
            "simulate.samples_per_s": (ratio(n["samples"], total["simulate"]), "1/s"),
            "simulate.draw_bytes_computed": (n["draw_bytes"] / ops, "byte/op"),
        }
        missing = {a.rsplit(".", 1)[-1] for a in self.absent}
        return {k: v for k, v in values.items() if not missing.intersection(needs[k])}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["op_id", "name", "start", "end", "parent"], "spans": self.spans}, fh)
