"""Host-time spans around the public entry points of each ``repro`` layer.

The wrappers live here, in the benchmark, not in ``src/``: :class:`Tracer`
patches the entry points named in :data:`ENTRY_POINTS` for the duration
of a ``with`` block and restores them afterwards.  Each wrapped call (or,
for a generator entry point, each *resume* of the generator) records one
span: name, start, end, parent span and scenario id.  Spans are kept in
memory as flat columns and written out when the run ends.

A layer's self time is its spans' time minus the part of each span that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter
from typing import Dict, List, Sequence, Tuple

#: (module, owner attribute or None for a module-level function, attribute,
#: span name).  A module-level function is patched in every module that
#: binds it, so each call site sees the wrapper.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.simcore.simulator", "Simulator", "run", "simcore.run"),
    ("repro.network.switch", "Switch", "transmit", "network.transmit"),
    ("repro.network.switch", "Switch", "transmit_flight", "network.transmit_flight"),
    ("repro.network.nic", "Nic", "send", "network.nic_send"),
    ("repro.network.nic", "Nic", "request", "network.nic_request"),
    ("repro.dsm.process", "DsmProcess", "apply_notices", "dsm.apply_notices"),
    ("repro.dsm.process", "DsmProcess", "access", "dsm.access"),
    ("repro.dsm.process", "DsmProcess", "access_batch", "dsm.access_batch"),
    ("repro.dsm.process", None, "make_diff", "dsm.make_diff"),
    ("repro.dsm.intervals", "Diff", "apply", "dsm.diff_apply"),
    ("repro.openmp.program", "OmpApi", "parallel_for", "openmp.parallel_for"),
    ("repro.apps.base", "AppKernel", "verify", "apps.verify"),
    ("repro.core.runtime", "AdaptiveRuntime", "at_adaptation_point",
     "core.at_adaptation_point"),
    ("repro.core.runtime", None, "absorb_leaver_pages", "core.absorb_leaver_pages"),
    ("repro.core.runtime", None, "migrate_process", "core.migrate_process"),
    ("repro.core.urgent", None, "migrate_process", "core.migrate_process"),
    ("repro.core.runtime", None, "ship_page_maps", "core.ship_page_maps"),
    ("repro.core.runtime", None, "run_recovery", "core.run_recovery"),
    ("repro.exec.pool", None, "execute_spec", "exec.execute_spec"),
    ("repro.api", None, "execute_spec", "exec.execute_spec"),
    ("repro.exec.cache", "ResultCache", "get", "exec.cache_get"),
    ("repro.exec.cache", "ResultCache", "put", "exec.cache_put"),
)

#: The kernels' ``ParallelFor`` bodies are bound methods handed to the
#: construct, so they are wrapped where the construct is built.
BODY_SPAN = "apps.body"
#: One root span per scenario (or per sweep); its self time is the
#: remainder outside every layer span.
ROOT_SPAN = "scenario"

#: Layer of each span name.  The oracle (``apps.verify``) is a layer of
#: its own so that kernel time and verification time stay apart.
LAYER_OF: Dict[str, str] = {name: name.split(".", 1)[0]
                            for *_, name in ENTRY_POINTS}
LAYER_OF[BODY_SPAN] = "apps"
LAYER_OF["apps.verify"] = "verify"
LAYER_OF[ROOT_SPAN] = "remainder"


class _TracedGen:
    """Generator proxy that records one span per resume."""

    __slots__ = ("_gen", "_tracer", "_nid")

    def __init__(self, gen, tracer: "Tracer", nid: int):
        self._gen = gen
        self._tracer = tracer
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        idx = tracer.enter(self._nid)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit(idx)

    def throw(self, *args):
        tracer = self._tracer
        idx = tracer.enter(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit(idx)

    def close(self):
        self._gen.close()


class Tracer:
    """Span recorder plus the patching of the layers' entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.scenario = -1
        #: Calls per span name (generator entry points count the call,
        #: not the resumes) — part of the deterministic work ledger.
        self.calls: Counter = Counter()
        #: Notices handed to ``DsmProcess.apply_notices``.
        self.notices = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.scenario_col = array("i")

    # -- recording -------------------------------------------------------
    def truncate(self, first: int) -> None:
        """Drop the spans recorded from index ``first`` on."""
        for col in (self.name_col, self.start_col, self.end_col,
                    self.parent_col, self.scenario_col):
            del col[first:]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.start_col)
        stack = self._stack
        self.name_col.append(nid)
        self.parent_col.append(stack[-1] if stack else -1)
        self.scenario_col.append(self.scenario)
        self.end_col.append(0.0)
        stack.append(idx)
        self.start_col.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        end = self.end_col[idx] = time.perf_counter()
        stack = self._stack
        if stack and stack[-1] == idx:
            stack.pop()
        elif idx in stack:
            # A host-deadline alarm raised between a child's ``enter`` and
            # its ``try``: close the spans it left open at this end.
            while stack[-1] != idx:
                self.end_col[stack.pop()] = end
            stack.pop()

    def spans(self, first: int = 0) -> List[Tuple[str, float, float, int]]:
        """Recorded spans from index ``first`` as (name, start, end, parent)."""
        names = self.names
        return [
            (names[self.name_col[i]], self.start_col[i], self.end_col[i],
             self.parent_col[i] - first if self.parent_col[i] >= first else -1)
            for i in range(first, len(self.start_col))
        ]

    # -- patching --------------------------------------------------------
    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        tracer = self
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                calls[name] += 1
                return _TracedGen(fn(*args, **kwargs), tracer, nid)
        elif name == "dsm.apply_notices":
            def traced(proc, notices, sender_vc):
                if type(notices) is not list:
                    notices = list(notices)
                calls[name] += 1
                tracer.notices += len(notices)
                idx = tracer.enter(nid)
                try:
                    return fn(proc, notices, sender_vc)
                finally:
                    tracer.exit(idx)
        else:
            def traced(*args, **kwargs):
                calls[name] += 1
                idx = tracer.enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(idx)
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        from repro.apps.base import AppKernel
        from repro.openmp.program import ParallelFor

        for module_name, owner_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self._set(owner, attr, self._wrap(owner.__dict__[attr], name))

        body_nid = self.name_id(BODY_SPAN)
        construct = ParallelFor.__init__
        tracer = self

        def traced_init(pf, name, iterations, body, *args, **kwargs):
            if isinstance(getattr(body, "__self__", None), AppKernel):
                raw = body

                def body(*a, **kw):
                    tracer.calls[BODY_SPAN] += 1
                    return _TracedGen(raw(*a, **kw), tracer, body_nid)
            construct(pf, name, iterations, body, *args, **kwargs)

        self._set(ParallelFor, "__init__", traced_init)
        self.root_nid = self.name_id(ROOT_SPAN)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------
def self_times(spans: Sequence[Tuple[str, float, float, int]]) -> List[float]:
    """Self time of every span: its duration minus the union of the parts
    of its interval that its direct children cover.

    ``spans`` are ``(name, start, end, parent_index)`` with ``-1`` for a
    span without a parent.  Children may nest, sit side by side, or (as
    synthetic input may) overlap one another; overlapping coverage is
    counted once and clipped to the parent's interval.
    """
    n = len(spans)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in sorted(range(n), key=lambda k: spans[k][1]):
        _, start, end, parent = spans[i]
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        lo = max(start, p_start, reach[parent])
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [end - start - covered[i]
            for i, (_, start, end, _) in enumerate(spans)]
