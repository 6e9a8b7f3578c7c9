"""Outside-in per-layer tracing: wraps public ``repro`` functions.

No program code changes.  :class:`LayerTracer` replaces each traced
function or method with a wrapper that counts calls, keeps a histogram
of operand breakpoint counts where the layer has one, and accumulates
*self time*: the wrapper's wall time minus the part spent inside other
traced layers it called.  Frames live on one stack, so nesting between
layers (an admission walk calling a switch check calling
``delay_bound``) is split correctly.

Two kinds of target need more than a call wrapper:

* functions imported by name (``from .bitstream import aggregate``)
  are bound in every importing module, so every ``repro`` module that
  holds the original object gets the wrapper too;
* step generators (``setup_steps``, ``teardown_steps``,
  ``deliver_steps``) return at once and do their work when resumed, so
  the wrapper times each resumption of the returned generator.
  Otherwise the walk's work would land on whatever resumed it -- the
  engine's dispatch loop.

:meth:`LayerTracer.install` applies every wrapper and
:meth:`LayerTracer.uninstall` restores the originals, so traced and
untraced units can run in the same process.  Counts accumulate across
installs until the tracer is discarded.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

_clock = time.perf_counter


def _len0(args, kwargs) -> int:
    return len(args[0])


def _len_max2(args, kwargs) -> int:
    return max(len(args[0]), len(args[1]))


def _len_max3(args, kwargs) -> int:
    return max(len(args[0]), len(args[1]), len(args[2]))


def _len_total(args, kwargs) -> int:
    return sum(len(stream) for stream in args[0])


def _pending(args, kwargs) -> int:
    return args[0].pending_events


def _in_flight(args, kwargs) -> int:
    return args[0].in_flight + 1


#: ``(layer, module, qualified name, kind, size)``.  ``kind`` is
#: ``"call"``, ``"steps"`` (time the returned generator's resumptions)
#: or ``"iterable"`` (materialize the first argument, then call).
#: ``size`` maps the call's arguments to the number recorded in the
#: layer's histogram: operand breakpoints for stream operations, queue
#: depth at entry for the engine, walks in flight for the plane.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("bitstream.patch", "repro.core.bitstream", "BitStream.patched",
     "call", _len_max3),
    ("bitstream.add", "repro.core.bitstream", "BitStream.__add__",
     "call", _len_max2),
    ("bitstream.sub", "repro.core.bitstream", "BitStream.__sub__",
     "call", _len_max2),
    ("bitstream.filter", "repro.core.bitstream", "BitStream.filtered",
     "call", _len0),
    ("bitstream.delay", "repro.core.bitstream", "BitStream.delayed",
     "call", _len0),
    ("bitstream.aggregate", "repro.core.bitstream", "aggregate",
     "iterable", _len_total),
    ("delay_bound", "repro.core.delay_bound", "delay_bound",
     "call", _len0),
    ("port_state.apply", "repro.core.port_state", "PortState.apply_same",
     "call", None),
    ("port_state.apply", "repro.core.port_state", "PortState.apply_higher",
     "call", None),
    ("switch_cac.check", "repro.core.switch_cac", "SwitchCAC.check",
     "call", None),
    ("switch_cac.check_batch", "repro.core.switch_cac",
     "SwitchCAC.check_batch", "call", None),
    ("admission.setup", "repro.core.admission", "NetworkCAC.setup_steps",
     "steps", None),
    ("admission.teardown", "repro.core.admission",
     "NetworkCAC.teardown_steps", "steps", None),
    ("admission.setup_many", "repro.core.admission",
     "NetworkCAC.setup_many", "call", None),
    ("plane.submit", "repro.core.plane", "AdmissionPlane.submit",
     "call", _in_flight),
    ("signaling.deliver", "repro.network.signaling",
     "SignalingChannel.deliver_steps", "steps", None),
    ("engine", "repro.sim.engine", "Engine.run", "call", _pending),
    ("routing.alternate_paths", "repro.network.routing", "alternate_paths",
     "call", None),
    ("churn.report", "repro.workload.churn", "ChurnEngine.report",
     "call", None),
    ("evaluation.link_bound", "repro.rtnet.evaluation",
     "RingAnalysis.link_bound", "call", None),
)

#: Time inside a traced unit that no traced layer covers.
OTHER = "other"


class Layer:
    """Counters of one traced layer."""

    __slots__ = ("calls", "self_s", "sizes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        #: size -> occurrences; a histogram keeps memory flat.
        self.sizes: Dict[int, int] = {}

    def size_quantile(self, q: float) -> float:
        """The ``q`` quantile of the recorded sizes (0 when none)."""
        total = sum(self.sizes.values())
        if total == 0:
            return 0.0
        rank = q * (total - 1)
        seen = 0
        for size in sorted(self.sizes):
            seen += self.sizes[size]
            if seen > rank:
                return float(size)
        return float(max(self.sizes))


def steps_proxy(steps, begin: Callable[[], None], end: Callable[[], None],
                done: Optional[Callable[[], None]] = None):
    """Drive generator ``steps``, calling ``begin``/``end`` around every
    resumption and ``done`` once it finishes, however it finishes.

    ``send``, ``throw`` and ``close`` are forwarded, so the proxy can
    stand in for ``steps`` under ``yield from`` or an engine process.
    """
    value = None
    error: Optional[BaseException] = None
    try:
        while True:
            begin()
            try:
                if error is None:
                    item = steps.send(value)
                else:
                    item = steps.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                end()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                steps.close()
                raise
            except BaseException as exc:  # forwarded into ``steps``
                value = None
                error = exc
    finally:
        if done is not None:
            done()


class LayerTracer:
    """Self time, calls and operand sizes per layer; see module doc."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        #: Open frames: ``[start, time spent in traced children]``.
        self._frames: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: Targets that could not be resolved (absent in this version).
        self.missing: Set[str] = set()

    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer()
        return layer

    # -- frames ----------------------------------------------------------

    def _begin(self) -> None:
        self._frames.append([_clock(), 0.0])

    def _end(self, layer: Layer) -> None:
        start, children = self._frames.pop()
        elapsed = _clock() - start
        layer.self_s += elapsed - children
        if self._frames:
            self._frames[-1][1] += elapsed

    @contextmanager
    def root(self) -> Iterator[None]:
        """Span one traced unit; its uncovered time is :data:`OTHER`."""
        if self._frames:
            raise RuntimeError("a traced unit is already open")
        self._begin()
        try:
            yield
        finally:
            self._end(self.layer(OTHER))

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, layer: Layer, fn, size):
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            layer.calls += 1
            if size is not None:
                key = size(args, kwargs)
                layer.sizes[key] = layer.sizes.get(key, 0) + 1
            begin()
            try:
                return fn(*args, **kwargs)
            finally:
                end(layer)

        return traced

    def _wrap_steps(self, layer: Layer, fn):
        begin, end = self._begin, self._end

        def finish() -> None:
            end(layer)

        def traced(*args, **kwargs):
            layer.calls += 1
            begin()
            try:
                steps = fn(*args, **kwargs)
            finally:
                end(layer)
            return steps_proxy(steps, begin, finish)

        return traced

    def _wrap_iterable(self, layer: Layer, fn, size):
        call = self._wrap_call(layer, fn, size)

        def traced(streams, *args, **kwargs):
            return call(list(streams), *args, **kwargs)

        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap every target this version of the program has."""
        for name, module_name, qualname, kind, size in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.add(f"{module_name}.{qualname}")
                continue
            owner, attr = module, qualname
            if "." in qualname:
                class_name, attr = qualname.split(".", 1)
                owner = getattr(module, class_name, None)
            original = getattr(owner, attr, None) if owner is not None \
                else None
            if original is None:
                self.missing.add(f"{module_name}.{qualname}")
                continue
            layer = self.layer(name)
            if kind == "steps":
                wrapper = self._wrap_steps(layer, original)
            elif kind == "iterable":
                wrapper = self._wrap_iterable(layer, original, size)
            else:
                wrapper = self._wrap_call(layer, original, size)
            if owner is module:
                # Rebind the name in every repro module that imported it.
                for holder in list(sys.modules.values()):
                    if holder is None or not getattr(
                            holder, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)
            else:
                self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

