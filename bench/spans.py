"""Tracing from outside the program: spans around calls into each layer.

The tracer replaces functions at the names their callers look them up
by.  The learner and the CLI import engine functions by name, so each
of those modules is patched as well as the module that defines the
function.  Spans stay in memory until the run ends; self time is a
span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import time
from array import array
from pathlib import Path

# (module, attribute, span name).  Several sites may share a span name
# when they are the same function imported into different modules.
SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "learn", "learner.learn"),
    ("cli", "parse_json_dtmc", "dtmc.parse_json_dtmc"),
    ("cli", "check_ltl", "engine.check_ltl"),
    ("learner", "gbe_step", "learner.gbe_step"),
    ("learner", "canonicalize", "ltl.canonicalize"),
    ("learner", "size_bucket", "learner.size_bucket"),
    ("learner", "pts", "learner.pts"),
    ("learner", "bsc", "learner.bsc"),
    ("learner", "check_consistency", "learner.check_consistency"),
    ("learner", "check_ltl", "engine.check_ltl"),
    ("learner", "learn", "learner.learn"),
    ("engine", "check_ltl", "engine.check_ltl"),
    ("engine", "refine", "engine.refine"),
    ("engine", "solve_linear", "engine.solve_linear"),
)

# Per-layer metrics in report order, with units.  Every one is reported
# on every workload; a layer a workload never reaches reports 0.
METRICS = {
    "learner.gbe_step.self_s": "s",
    "ltl.canonicalize.s": "s",
    "learner.size_bucket.s": "s",
    "learner.gbe_step.constructed": "count",
    "learner.gbe_step.kept_ratio": "ratio",
    "engine.check_ltl.calls": "count",
    "engine.check_ltl.self_s": "s",
    "engine.refine.calls": "count",
    "engine.refine.s": "s",
    "engine.refine.states_out_sum": "count",
    "engine.refine.states_out_max": "count",
    "engine.refine.repeat_prefix_share": "ratio",
    "engine.solve_linear.calls": "count",
    "engine.solve_linear.s": "s",
    "engine.solve_linear.dim_max": "count",
    "engine.solve_linear.flops": "flop",
    "learner.pts.self_s": "s",
    "learner.pts.bodies": "count",
    "learner.pts.discarded": "count",
    "learner.pts.pooled": "count",
    "learner.pts.dup_chain_share": "ratio",
    "learner.bsc.self_s": "s",
    "learner.bsc.combos": "count",
    "learner.learn.verify_s": "s",
    "dtmc.parse.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        # Span i is (names[kind[i]], parent[i], request[i], start[i], end[i]),
        # kept in flat arrays the garbage collector never scans.
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("q")
        self.request_ids = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.patched: list[tuple[object, str, object]] = []
        # Counts taken at the call boundaries.
        self.constructed = self.kept = 0
        self.refine_states: list[int] = []
        self.refine_repeats = 0
        self.prefixes: set = set()
        self.chains: dict[int, object] = {}  # keeps every chain seen alive, so ids stay unique
        self.open_checks: list[tuple[int, list]] = []  # (id of chain, refined prefix)
        self.solve_dims: list[int] = []
        self.pts_bodies = self.pts_discarded = self.engine_calls = self.dup_calls = 0
        self.run_stats: dict[int, object] = {}
        self.combos = 0

    # -- spans ---------------------------------------------------------

    def _kind(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, kind: int) -> int:
        stack = self.stack
        i = len(self.start)
        self.kind.append(kind)
        self.parent.append(stack[-1] if stack else -1)
        self.request_ids.append(self.request_id)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def request(self, request_id: int, fn, *args):
        """Run one benchmark request under a root span."""
        self.request_id = request_id
        i = self._open(self._kind("request"))
        try:
            return fn(*args)
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        kind = self._kind(name)
        enter = getattr(self, "_enter_" + name.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + name.replace(".", "_"), None)

        if enter is None and leave is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = self._open(kind)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(i)

            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            state = enter(*args, **kwargs) if enter else None
            result = None
            i = self._open(kind)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(i)
                if leave:
                    leave(state, result, *args, **kwargs)

        return hooked

    def install(self) -> None:
        for module, attr, name in SITES:
            mod = getattr(self.pkg, module)
            orig = getattr(mod, attr)
            self.patched.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        sample = self.pkg.dtmc.Sample
        orig = sample.__dict__["build"]
        self.patched.append((sample, "build", orig))
        sample.build = staticmethod(self._wrap("dtmc.Sample.build", orig.__func__))

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, orig = self.patched.pop()
            setattr(owner, attr, orig)

    # -- counts at the boundaries ---------------------------------------

    def _enter_engine_check_ltl(self, m, f, *rest, **kw):
        self.chains[id(m)] = m
        self.open_checks.append((id(m), []))

    def _leave_engine_check_ltl(self, state, result, *args, **kw):
        self.open_checks.pop()

    def _enter_engine_refine(self, r, psi, p, prop):
        chain, prefix = self.open_checks[-1]
        prefix.append(psi)
        key = (chain, tuple(prefix))
        if key in self.prefixes:
            self.refine_repeats += 1
        else:
            self.prefixes.add(key)

    def _leave_engine_refine(self, state, result, *args):
        if result is not None:
            self.refine_states.append(len(result.origin))

    def _enter_engine_solve_linear(self, A, c):
        self.solve_dims.append(len(c))

    def _enter_learner_gbe_step(self, state, n, *rest, **kw):
        return state.stats.constructed.get(n, 0)

    def _leave_learner_gbe_step(self, before, result, state, n, *rest, **kw):
        self.constructed += state.stats.constructed.get(n, 0) - before
        self.kept += sum(len(layer) for layer in state.buckets.get(n, ()))

    def _enter_learner_pts(self, formulas, sample, *rest, stats=None, **kw):
        chains = [*sample.positive, *sample.negative]
        dup = sum(1 for i, m in enumerate(chains) if m in chains[:i])
        n = len(formulas)
        self.pts_bodies += n
        self.engine_calls += n * len(chains)
        self.dup_calls += n * dup
        if stats is not None:
            self.run_stats[id(stats)] = stats

    def _leave_learner_pts(self, state, result, *args, **kw):
        if result is not None:
            self.pts_discarded += len(result.discards)

    def _enter_learner_bsc(self, pooled, run):
        return run.stats.combos_tried

    def _leave_learner_bsc(self, before, result, pooled, run):
        self.combos += run.stats.combos_tried - before

    # -- results --------------------------------------------------------

    def layer_totals(self) -> dict[str, list[float]]:
        """span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.start)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                child[parent] += end - start
        totals = [[0, 0.0, 0.0] for _ in self.names]
        for kind, start, end, inner in zip(self.kind, self.start, self.end, child):
            t = totals[kind]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - inner
        return dict(zip(self.names, totals))

    def metrics(self) -> dict[str, float]:
        t = self.layer_totals()
        calls = lambda n: t.get(n, [0, 0.0, 0.0])[0]  # noqa: E731
        total = lambda n: t.get(n, [0, 0.0, 0.0])[1]  # noqa: E731
        own = lambda n: t.get(n, [0, 0.0, 0.0])[2]  # noqa: E731
        refines = len(self.refine_states)
        return {
            "learner.gbe_step.self_s": own("learner.gbe_step"),
            "ltl.canonicalize.s": total("ltl.canonicalize"),
            "learner.size_bucket.s": total("learner.size_bucket"),
            "learner.gbe_step.constructed": self.constructed,
            "learner.gbe_step.kept_ratio": self.kept / self.constructed if self.constructed else 0.0,
            "engine.check_ltl.calls": calls("engine.check_ltl"),
            "engine.check_ltl.self_s": own("engine.check_ltl"),
            "engine.refine.calls": refines,
            "engine.refine.s": total("engine.refine"),
            "engine.refine.states_out_sum": sum(self.refine_states),
            "engine.refine.states_out_max": max(self.refine_states, default=0),
            "engine.refine.repeat_prefix_share": self.refine_repeats / refines if refines else 0.0,
            "engine.solve_linear.calls": len(self.solve_dims),
            "engine.solve_linear.s": total("engine.solve_linear"),
            "engine.solve_linear.dim_max": max(self.solve_dims, default=0),
            # Computed, not measured: 2n^3/3 per dense elimination.
            "engine.solve_linear.flops": sum(2 * n**3 / 3 for n in self.solve_dims),
            "learner.pts.self_s": own("learner.pts"),
            "learner.pts.bodies": self.pts_bodies,
            "learner.pts.discarded": self.pts_discarded,
            "learner.pts.pooled": sum(s.total("pooled") for s in self.run_stats.values()),
            "learner.pts.dup_chain_share": self.dup_calls / self.engine_calls if self.engine_calls else 0.0,
            "learner.bsc.self_s": own("learner.bsc"),
            "learner.bsc.combos": self.combos,
            "learner.learn.verify_s": total("learner.check_consistency"),
            "dtmc.parse.s": total("dtmc.parse_json_dtmc") + total("dtmc.Sample.build"),
            "cli.main.self_s": own("cli.main"),
        }

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: request, span, parent, name, start, end
        (seconds from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("request\tspan\tparent\tname\tstart_s\tend_s\n")
            spans = zip(self.request_ids, self.parent, self.kind, self.start, self.end)
            for i, (request, parent, kind, start, end) in enumerate(spans):
                fh.write(f"{request}\t{i}\t{parent}\t{self.names[kind]}\t{start - t0:.9f}\t{end - t0:.9f}\n")
