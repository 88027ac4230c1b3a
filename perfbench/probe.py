"""Instrumentation the benchmark attaches from outside the simulator.

:class:`Probe` sees every :class:`~repro.sim.simulator.NetworkSimulator`
built while it is active — the workloads that go through
``faults.chaos`` build theirs internally — and times its construction.
With a :class:`Tracer` attached it also wraps the public calls of each
layer and records one span per call (name, start, end, parent span),
kept in memory until the run ends.  Patches go on classes, a module
(``postmortem``) and instances inside this process only: class and
module patches are undone when the probe exits, instance patches die
with their simulator.  The simulator's source is never touched.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.faults.chaos import ChaosController
from repro.network.channel import VirtualChannel
from repro.reconfig.controller import ReconfigController
from repro.routing.base import Action
from repro.routing.cache import RouteCache
from repro.sim import postmortem
from repro.sim.engine import HookChain
from repro.sim.simulator import NetworkSimulator


class Captured:
    """One simulation seen by the probe."""

    __slots__ = ("sim", "init_s", "epoch0", "result")

    def __init__(self, sim: NetworkSimulator, init_s: float):
        self.sim = sim
        self.init_s = init_s
        #: Fault epoch once built (static placement already applied).
        self.epoch0 = sim.faults.epoch
        #: The :class:`~repro.sim.stats.RunResult` ``sim.run()`` returned.
        self.result = None


class Tracer:
    """In-memory span recorder plus the counters kept beside it.

    Spans live in four parallel arrays; a span's parent is the span
    open when it started (``-1`` for a root).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        #: Sampled engine state: (vc occupancy, in flight, queued).
        self.samples: List[tuple] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, starts, ends = (
            self.name, self.parent, self.start, self.end
        )
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls only (no span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator_span(self, name: str, gen_fn: Callable) -> Callable:
        """Wrap a generator function: one span per ``next()``, so the
        time is charged while the generator runs, not while its caller
        consumes the yielded values."""
        step = self.span(name, next)

        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                yield value

        return wrapper

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, dict]:
        """Per span name: call count, inclusive and self time (ns).

        A span's self time is its duration minus the durations of its
        direct children, which cover disjoint parts of its interval.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out = {n: {"calls": 0, "incl_ns": 0, "self_ns": 0} for n in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl_ns"] += dur[i]
            row["self_ns"] += own[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip TSV: name, parent index, start ns, end ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            names = self.names
            fh.writelines(
                f"{names[n]}\t{p}\t{s}\t{e}\n"
                for n, p, s, e in zip(
                    self.name, self.parent, self.start, self.end
                )
            )


class Sampler:
    """``on_cycle`` hook that samples engine state every ``stride``
    executed cycles.

    It only reads state, so it declares ``next_event_cycle`` as
    ``None`` (no event of its own): the quiescence fast-forward stays
    on and skips it along with the idle cycles it could not observe
    anything in.  Reserved virtual channels are read from the
    tracer's reserve/release counters, not by scanning the bank.
    """

    def __init__(self, tracer: Tracer, engine, stride: int = 4):
        self.samples = tracer.samples
        self.counts = tracer.counts
        self.stride = stride
        self._tick = 0
        self._vcs = (
            engine.topology.num_channels * engine.channels.vcs_per_channel
        )
        self._base = self._reserved() - engine.channels.reserved_count()

    def _reserved(self) -> int:
        return self.counts["channel.reserve"] - self.counts["channel.release"]

    def next_event_cycle(self, engine) -> Optional[int]:
        return None

    def __call__(self, engine) -> None:
        self._tick += 1
        if self._tick % self.stride:
            return
        self.samples.append((
            (self._reserved() - self._base) / self._vcs,
            len(engine.active),
            sum(map(len, engine.queues)),
        ))


class Probe:
    """Context manager capturing every simulation built inside it."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.sims: List[Captured] = []
        self._undo: List[tuple] = []

    # -- patch bookkeeping --------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Probe":
        probe = self
        tr = self.tracer
        init = NetworkSimulator.__init__
        run = NetworkSimulator.run
        if tr is not None:
            init = tr.span("simulator.init", init)
            run = tr.span("simulator.run", run)

        def timed_init(sim, *args, **kwargs):
            t0 = perf_counter()
            init(sim, *args, **kwargs)
            cap = Captured(sim, perf_counter() - t0)
            probe.sims.append(cap)
            if probe.tracer is not None:
                probe._instrument(cap)

        def capturing_run(sim, on_cycle=None):
            if probe.tracer is not None:
                sampler = Sampler(probe.tracer, sim.engine)
                on_cycle = (
                    sampler if on_cycle is None
                    else HookChain([on_cycle, sampler])
                )
            result = run(sim, on_cycle=on_cycle)
            for cap in probe.sims:
                if cap.sim is sim:
                    cap.result = result
            return result

        if tr is not None:
            for meth in ("adaptive_candidates", "misroute_candidates",
                         "escape"):
                self._patch(RouteCache, meth, tr.span(
                    "routing.cache", RouteCache.__dict__[meth]
                ))
            self._patch(VirtualChannel, "reserve", tr.counted(
                "channel.reserve", VirtualChannel.__dict__["reserve"]
            ))
            self._patch(VirtualChannel, "release", tr.counted(
                "channel.release", VirtualChannel.__dict__["release"]
            ))
            self._patch(ChaosController, "__call__", tr.span(
                "chaos.hook", ChaosController.__dict__["__call__"]
            ))
            self._patch(ReconfigController, "__call__", tr.span(
                "reconfig.hook", ReconfigController.__dict__["__call__"]
            ))
            self._patch(postmortem, "diagnose", tr.span(
                "postmortem.diagnose", postmortem.diagnose
            ))
        self._patch(NetworkSimulator, "__init__", timed_init)
        self._patch(NetworkSimulator, "run", capturing_run)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- per-simulation instance patches ------------------------------
    def _instrument(self, cap: Captured) -> None:
        tr = self.tracer
        sim = cap.sim
        engine = sim.engine
        counts = tr.counts
        reserve = Action.RESERVE
        decide = sim.protocol.decide

        def counting_decide(ctx, msg):
            decision = decide(ctx, msg)
            if decision.action is reserve:
                counts["routing.reserve_decisions"] += 1
            return decision

        sim.protocol.decide = tr.span("routing.decide", counting_decide)
        bank = engine.channels
        bank.free_adaptive = tr.span(
            "channel.free_adaptive", bank.free_adaptive
        )
        traffic = engine.traffic
        traffic.destination = tr.span(
            "traffic.destination", traffic.destination
        )
        inj = engine.injection
        inj.arrivals = tr.generator_span("traffic.arrivals", inj.arrivals)
        inj.skip_cycles = tr.span("traffic.skip", inj.skip_cycles)
        faults = engine.faults
        faults.fail_node = tr.span("faults.fail", faults.fail_node)
        faults.fail_link = tr.span("faults.fail", faults.fail_link)
        if engine.auditor is not None:
            engine.auditor.audit = tr.span(
                "invariants.audit", engine.auditor.audit
            )
        engine.step = tr.span("engine.step", engine.step)
        engine.run = tr.span("engine.run", engine.run)
        engine.drain = tr.span("engine.drain", engine.drain)
        sim.results = tr.span("stats.summarize", sim.results)
