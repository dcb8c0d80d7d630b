"""In-memory spans around the calls into each ``jumpcompare`` layer.

The traced run replaces public functions of the package modules with timing
wrappers for the duration of ``instrumented(tracer)`` and puts the originals
back on exit; the untraced run never installs them.  Nothing under ``src/``
knows about tracing.

A frame is opened for every wrapped call.  Coarse calls (checks, Monte
Carlo runs, chunks, builds) are also kept as ``Span`` records (name, start,
end, parent) to be written out at the end; hot leaf calls (driver sampling,
the violation statistic, eigen-solves, coefficient evaluations) only add to
per-name totals, so a run with millions of them stays small in memory.
Either way a frame's duration is charged to its parent as child time, so

    self time = duration - (time covered by direct child frames).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from jumpcompare import cli, conditions, engine, psdcone


# kinds of wrapped call
SPAN = "span"  # kept as a Span record
FRAME = "frame"  # on the stack, so its children's time is subtracted, not kept
LEAF = "leaf"  # calls nothing wrapped: totals only, no stack push (hot calls)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    tag: str  # the scenario run this span belongs to


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "start", "child_s", "span", "group")

    def __init__(self, name: str, start: float, span: int, group: Optional[str]):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span = span
        self.group = group


class Tracer:
    """Span stack, per-name time totals and exact counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.tag = ""
        self._stack: List[_Frame] = []
        self._group_depth: Dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Start a fresh accounting window (spans already recorded stay)."""
        self.stats: Dict[str, Stat] = defaultdict(Stat)
        self.counters: Dict[str, int] = defaultdict(int)
        self.groups: Dict[str, float] = defaultdict(float)  # outermost-only time
        self.covered_s = 0.0  # time under root frames
        self.bookkeeping_s = 0.0  # counter updates, charged to no layer

    def enter(self, name: str, record: bool = False, group: Optional[str] = None) -> _Frame:
        span = -1
        if record:
            parent = self._stack[-1].span if self._stack else -1
            span = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, self.tag))
        if group is not None:
            self._group_depth[group] += 1
        frame = _Frame(name, 0.0, span, group)
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def exit(self, frame: _Frame) -> float:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        dur = end - frame.start
        st = self.stats[frame.name]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - frame.child_s
        if frame.span >= 0:
            rec = self.spans[frame.span]
            rec.start, rec.end = frame.start, end
        if frame.group is not None:
            self._group_depth[frame.group] -= 1
            if self._group_depth[frame.group] == 0:
                self.groups[frame.group] += dur
        if self._stack:
            self._stack[-1].child_s += dur
        else:
            self.covered_s += dur
        return dur

    @contextlib.contextmanager
    def span(self, name: str, record: bool = True, group: Optional[str] = None) -> Iterator[None]:
        frame = self.enter(name, record, group)
        try:
            yield
        finally:
            self.exit(frame)

    def _charge_bookkeeping(self, dt: float) -> None:
        self.bookkeeping_s += dt
        if self._stack:
            self._stack[-1].child_s += dt

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += int(n)

    def wrap(self, name: str, fn: Callable, *, kind: str = FRAME,
             group: Optional[str] = None,
             after: Optional[Callable[["Tracer", tuple, object], None]] = None) -> Callable:
        """``fn`` timed as frame ``name`` of the given kind (``SPAN``,
        ``FRAME`` or ``LEAF``); ``after(tracer, args, result)`` updates
        counters once the frame is closed."""
        record = kind == SPAN

        if kind == LEAF:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                start = self.clock()
                result = fn(*args, **kwargs)
                dur = self.clock() - start
                st = self.stats[name]
                st.calls += 1
                st.total_s += dur
                st.self_s += dur
                if self._stack:
                    self._stack[-1].child_s += dur
                else:
                    self.covered_s += dur
                if after is not None:
                    start = self.clock()
                    after(self, args, result)
                    self._charge_bookkeeping(self.clock() - start)
                return result

            traced_leaf.__wrapped_by_tracer__ = True
            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name, record, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if after is not None:
                t = self.clock()
                after(self, args, result)
                self._charge_bookkeeping(self.clock() - t)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def coeff_hook(self, fn: Callable) -> Callable:
        """Wrap a coefficient callable the benchmark supplies."""
        return self.wrap("model.coeff", fn, kind=LEAF)


# ---------------------------------------------------------------------------
# counters read from return values
# ---------------------------------------------------------------------------


def _after_drivers(tr: Tracer, args: tuple, drv: engine.DriverRealization) -> None:
    jumps = np.flatnonzero(drv.jump_atoms >= 0)
    tr.count("engine.driver_paths")
    tr.count("engine.path_steps", drv.n_segments - jumps.size)
    if jumps.size:
        # segment i ending at the r-th jump lies in uniform step i - r; the
        # jump-adapted loop takes (jumps in the step + 1) sub-steps there
        steps = jumps - np.arange(jumps.size)
        tr.count("engine.jump_events", jumps.size)
        tr.count("engine.jump_substeps", jumps.size + 1 + np.count_nonzero(np.diff(steps)))


def _after_mc(tr: Tracer, args: tuple, rep: engine.McReport) -> None:
    tr.count("engine.failed_paths", rep.failed)
    tr.count("mc.paths", rep.paths)


def _rows(name: str) -> Callable[[Tracer, tuple, object], None]:
    def after(tr: Tracer, args: tuple, out) -> None:
        tr.count(name, args[0].shape[0])

    return after


def _after_eval37(tr: Tracer, args: tuple, val: psdcone.Theorem37Value) -> None:
    if val.degenerate:
        tr.count("psdcone.degenerate_probes")


def _after_check(tr: Tracer, args: tuple, check) -> None:
    if isinstance(check, conditions.Theorem31Report):
        parts = [check.sigma_equal, *check.cond_a, *check.cond_b, *check.cond_c,
                 check.ii_prime]
        tr.count("conditions.witnesses", len(check.all_witnesses()))
    else:
        parts = [check]
    tr.count("check.probes", sum(v.samples_used for v in parts))


def _after_ii_prime(tr: Tracer, args: tuple, verdict: conditions.Verdict) -> None:
    tr.count("conditions.ii_prime_probes", verdict.samples_used)


# (modules holding the name, attribute, frame name, kind, group, after)
_TARGETS = (
    ((cli,), "config_from_dict", "cli.parse", SPAN, None, None),
    ((cli,), "build_problem", "model.build", SPAN, None, None),
    ((cli,), "run_full", "cli.run_full", SPAN, None, None),
    ((cli, conditions), "check_theorem31", "conditions.check_theorem31", SPAN, "check",
     _after_check),
    ((conditions,), "check_sigma_equal", "conditions.sigma_equal", SPAN, None, None),
    ((conditions,), "check_condition_a", "conditions.cond_a", SPAN, None, None),
    ((conditions,), "check_condition_b", "conditions.cond_b", SPAN, None, None),
    ((conditions,), "check_condition_c", "conditions.cond_c", SPAN, None, None),
    ((conditions,), "check_ii_prime", "conditions.ii_prime", SPAN, None, _after_ii_prime),
    ((cli, psdcone), "check_theorem37", "psdcone.check_theorem37", SPAN, "check",
     _after_check),
    ((psdcone,), "eval_theorem37", "psdcone.eval_theorem37", FRAME, None, _after_eval37),
    ((psdcone,), "eig_sym", "psdcone.eig_sym", LEAF, None, None),
    ((cli, psdcone), "mc_matrix_comparison", "psdcone.mc_matrix_comparison", SPAN, "mc",
     None),
    ((engine,), "mc_comparison", "engine.mc_comparison", SPAN, "mc", _after_mc),
    ((engine,), "_run_chunk", "engine.run_chunk", SPAN, None, None),
    ((engine,), "sample_drivers", "engine.sample_drivers", LEAF, None, _after_drivers),
    ((engine,), "componentwise_stat", "engine.componentwise_stat", LEAF, None,
     _rows("engine.stat_rows")),
)


def _spectral_factory(tr: Tracer, factory: Callable) -> Callable:
    """``spectral_violation_stat(m)`` returns the statistic; wrap what it returns."""

    @functools.wraps(factory)
    def make(m: int):
        return tr.wrap("psdcone.spectral_stat", factory(m), kind=LEAF,
                       after=_rows("psdcone.spectral_stat_rows"))

    make.__wrapped_by_tracer__ = True
    return make


def patch_points() -> List[tuple]:
    """Every (module, attribute) the traced run replaces."""
    points = [(mod, attr) for mods, attr, *_ in _TARGETS for mod in mods]
    return points + [(psdcone, "spectral_violation_stat")]


@contextlib.contextmanager
def instrumented(tr: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the body of the ``with``; always restore."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in patch_points()]
    try:
        for mods, attr, name, kind, group, after in _TARGETS:
            wrapped = tr.wrap(name, getattr(mods[0], attr), kind=kind, group=group,
                              after=after)
            for mod in mods:
                setattr(mod, attr, wrapped)
        psdcone.spectral_violation_stat = _spectral_factory(
            tr, psdcone.spectral_violation_stat)
        yield tr
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
