"""The pure per-port CAC domain state (Section 4.3's aggregates).

One :class:`PortState` owns everything the paper keeps per output link
``j`` and priority ``p``:

* ``Sia(i, j, p)`` per incoming link ``i`` -- the ground-truth
  aggregated worst-case arrival stream of the connections routed
  ``i -> j`` at priority ``p``;
* the derived-aggregate caches patched by one ``+``/``-`` delta per
  admit/release -- ``Sif(i, j, p)``, ``Soa(j, p)``, the higher-priority
  interference aggregates ``Sia(i, j)(p)`` / ``Sif(i, j)(p)`` /
  ``sum_i Sif(i, j)(p)`` / ``Sof(j)(p)`` -- and the memoized
  :class:`~repro.core.delay_bound.ServiceCurve`.

The object is *pure domain state*: no journaling, no two-phase
bookkeeping, no metrics registry -- those belong to
:class:`~repro.core.switch_cac.SwitchCAC`.  The only outward hooks are

* ``higher_ports`` -- a provider (injected by the owning
  :class:`~repro.core.switch_cac.SwitchCAC`) yielding the sibling
  :class:`PortState` objects of strictly higher priority on the same
  output link, which the lazy rebuilds of the interference caches read;
* ``on_cache`` -- an optional ``(hit, cache_name)`` callback the owner
  uses to count cache hits/misses without this layer importing the
  observability stack.

Incremental discipline (see ``docs/performance.md``): when a stream is
admitted or released at priority ``p``, :meth:`apply_same` patches the
same-priority state of the ``(j, p)`` port and :meth:`apply_higher`
patches the interference caches of every *lower*-priority sibling.
Callers must invoke ``apply_higher`` on the lower siblings **before**
``apply_same`` on the port itself, so that any forced lazy rebuild
still reads the pre-change aggregates.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .bitstream import BitStream, Number, ZERO_STREAM, aggregate
from .delay_bound import ServiceCurve

__all__ = ["PortState", "CacheObserver", "HigherPortsProvider"]

#: ``(hit, cache_name)`` callback counting derived-cache hits/misses.
CacheObserver = Callable[[bool, str], None]

#: Provider of the same-out-link ports of strictly higher priority,
#: ordered highest priority first.
HigherPortsProvider = Callable[[], Iterable["PortState"]]


def _no_observer(_hit: bool, _cache: str) -> None:
    """Default cache observer: count nothing."""


class PortState:
    """CAC aggregates and caches of one ``(out_link, priority)`` port.

    Parameters
    ----------
    out_link / priority:
        The port's coordinates; ``priority`` follows the repository
        convention that smaller numbers are served first.
    advertised_bound:
        The fixed queueing-delay bound ``D(j, p)`` the switch
        advertises for this port (Section 4.1).
    filter_per_input:
        Whether per-input aggregates are smoothed by the incoming link
        before being summed at the output port (the paper's scheme).
    higher_ports:
        Provider of the strictly-higher-priority sibling ports on the
        same output link (highest first); consulted by the lazy
        rebuilds of the interference caches.
    on_cache:
        Optional ``(hit, cache_name)`` observer.
    """

    __slots__ = ("out_link", "priority", "advertised_bound",
                 "filter_per_input", "higher_ports", "on_cache",
                 "_sia", "_sif", "_soa", "_higher", "_sif_higher",
                 "_higher_sum", "_sof", "_service",
                 "ledger_rate", "ledger_burst",
                 "ledger_higher_rate", "ledger_higher_burst")

    def __init__(self, out_link: str, priority: int,
                 advertised_bound: Number,
                 filter_per_input: bool = True,
                 higher_ports: Optional[HigherPortsProvider] = None,
                 on_cache: Optional[CacheObserver] = None):
        self.out_link = out_link
        self.priority = priority
        self.advertised_bound = advertised_bound
        self.filter_per_input = filter_per_input
        self.higher_ports: HigherPortsProvider = higher_ports or (lambda: ())
        self.on_cache: CacheObserver = on_cache or _no_observer
        #: Sia(i, j, p) per incoming link -- the ground truth.
        self._sia: Dict[str, BitStream] = {}
        #: Sif(i, j, p) = filter(Sia(i, j, p)), cached per incoming link.
        self._sif: Dict[str, BitStream] = {}
        #: Soa(j, p) = sum_i Sif(i, j, p).
        self._soa: Optional[BitStream] = None
        #: Sia(i, j)(p): per-pair aggregate of priorities higher than p.
        self._higher: Dict[str, BitStream] = {}
        #: Sif(i, j)(p) = filter(Sia(i, j)(p)).
        self._sif_higher: Dict[str, BitStream] = {}
        #: sum_i Sif(i, j)(p), before the final output filter.
        self._higher_sum: Optional[BitStream] = None
        #: Sof(j)(p) = filter(sum_i Sif(i, j)(p)).
        self._sof: Optional[BitStream] = None
        #: memoized ServiceCurve of Sof(j)(p).
        self._service: Optional[ServiceCurve] = None
        #: Headroom ledger (admission fast path): running sums of the
        #: per-leg ``(sigma, rho)`` envelopes at this priority ...
        self.ledger_rate: Number = 0
        self.ledger_burst: Number = 0
        #: ... and of the strictly-higher-priority legs on this out_link.
        self.ledger_higher_rate: Number = 0
        self.ledger_higher_burst: Number = 0

    # ------------------------------------------------------------------
    # Plain accessors
    # ------------------------------------------------------------------

    def in_links(self) -> List[str]:
        """Incoming links currently carrying traffic to this port, sorted."""
        return sorted(self._sia)

    def is_idle(self) -> bool:
        """True when no traffic is admitted at this port's priority."""
        return not self._sia

    def long_run_rate(self) -> Number:
        """Total admitted long-run rate through this port."""
        total: Number = 0
        for stream in self._sia.values():
            total += stream.long_run_rate
        return total

    def in_link_rate(self, in_link: str) -> Number:
        """Admitted long-run rate entering via one incoming link."""
        stream = self._sia.get(in_link)
        return 0 if stream is None else stream.long_run_rate

    def _filter(self, stream: BitStream) -> BitStream:
        """Per-input link filtering (identity in the ablation mode)."""
        return stream.filtered() if self.filter_per_input else stream

    # ------------------------------------------------------------------
    # The aggregates (lazy caches)
    # ------------------------------------------------------------------

    def sia(self, in_link: str) -> BitStream:
        """``Sia(i, j, p)``: the per-pair per-priority aggregate."""
        return self._sia.get(in_link, ZERO_STREAM)

    def sia_items(self) -> Iterable[Tuple[str, BitStream]]:
        """``(in_link, Sia)`` pairs, in admission order."""
        return self._sia.items()

    def sif(self, in_link: str) -> BitStream:
        """``Sif(i, j, p)``: the per-input aggregate after link filtering."""
        cached = self._sif.get(in_link)
        if cached is None:
            self.on_cache(False, "sif")
            cached = self._filter(self.sia(in_link))
            self._sif[in_link] = cached
        else:
            self.on_cache(True, "sif")
        return cached

    def higher_sia(self, in_link: str) -> BitStream:
        """``Sia(i, j)(p)``: aggregate of the strictly higher priorities."""
        cached = self._higher.get(in_link)
        if cached is not None:
            self.on_cache(True, "higher")
        else:
            self.on_cache(False, "higher")
            cached = aggregate([
                port.sia(in_link) for port in self.higher_ports()
                if not port.sia(in_link).is_zero
            ])
            self._higher[in_link] = cached
        return cached

    def sif_higher(self, in_link: str) -> BitStream:
        """``Sif(i, j)(p)``: the filtered higher-priority aggregate."""
        cached = self._sif_higher.get(in_link)
        if cached is None:
            self.on_cache(False, "sif_higher")
            cached = self._filter(self.higher_sia(in_link))
            self._sif_higher[in_link] = cached
        else:
            self.on_cache(True, "sif_higher")
        return cached

    def _higher_in_links(self) -> List[str]:
        """Incoming links carrying any higher-priority traffic, sorted."""
        links = set()
        for port in self.higher_ports():
            links.update(link for link, stream in port.sia_items()
                         if not stream.is_zero)
        return sorted(links)

    def higher_sum(self) -> BitStream:
        """``sum_i Sif(i, j)(p)``, the pre-filter output interference."""
        cached = self._higher_sum
        if cached is not None:
            self.on_cache(True, "higher_sum")
        else:
            self.on_cache(False, "higher_sum")
            cached = aggregate([
                self.sif_higher(in_link)
                for in_link in self._higher_in_links()
            ])
            self._higher_sum = cached
        return cached

    def soa(self, replace: Optional[Tuple[str, BitStream]] = None,
            ) -> BitStream:
        """``Soa(j, p)``: the output-port arrival stream.

        ``replace`` substitutes the (already filtered) per-input
        aggregate of one incoming link -- how an admission check builds
        ``S'oa`` without mutating state: one O(m) subtract-and-add
        delta against the cached sum.
        """
        base = self._soa
        if base is not None:
            self.on_cache(True, "soa")
        else:
            self.on_cache(False, "soa")
            base = aggregate([self.sif(i) for i in sorted(self._sia)])
            self._soa = base
        if replace is None:
            return base
        in_link, replacement = replace
        return base.patched(self.sif(in_link), replacement)

    def soa_with(self, replacements: Mapping[str, BitStream]) -> BitStream:
        """``S'oa`` with several per-input aggregates substituted at once.

        The batched-admission generalisation of ``soa(replace=...)``:
        ``replacements`` maps incoming links to their candidate
        (already filtered) aggregates.  Still one O(m) delta per
        substituted link against the cached sum.
        """
        base = self.soa()
        for in_link in sorted(replacements):
            base = base.patched(self.sif(in_link), replacements[in_link])
        return base

    def sof_higher(self, extra: Optional[Tuple[str, BitStream]] = None,
                   ) -> BitStream:
        """``Sof(j)(p)``: filtered higher-priority output interference.

        ``extra`` adds a candidate connection's stream to the
        higher-priority aggregate of one incoming link (checking the
        impact of a new higher-priority connection on this port);
        like ``replace`` above, an O(m) delta against the cached sum.
        """
        if extra is None:
            cached = self._sof
            if cached is None:
                self.on_cache(False, "sof")
                cached = self.higher_sum().filtered()
                self._sof = cached
            else:
                self.on_cache(True, "sof")
            return cached
        in_link, stream = extra
        return self.sof_higher_with({in_link: stream})

    def sof_higher_with(self, extras: Mapping[str, BitStream]) -> BitStream:
        """``S'of(j)(p)`` with candidate higher-priority streams added.

        ``extras`` maps incoming links to the aggregate candidate
        stream arriving there at some higher priority.  The batched
        form of ``sof_higher(extra=...)``: each substituted link costs
        one O(m) delta against the cached interference sum.
        """
        total = self.higher_sum()
        for in_link in sorted(extras):
            combined = self.higher_sia(in_link) + extras[in_link]
            total = total.patched(self.sif_higher(in_link),
                                  self._filter(combined))
        return total.filtered()

    def service(self) -> ServiceCurve:
        """Memoized :class:`ServiceCurve` of ``Sof(j)(p)``."""
        cached = self._service
        if cached is None:
            self.on_cache(False, "service")
            cached = ServiceCurve(self.sof_higher())
            self._service = cached
        else:
            self.on_cache(True, "service")
        return cached

    # ------------------------------------------------------------------
    # Incremental deltas
    # ------------------------------------------------------------------

    def apply_same(self, in_link: str, stream: BitStream,
                   add: bool, patch_caches: bool = True) -> None:
        """Patch the same-priority state for one admit/release delta.

        ``Sia``, ``Sif`` and the cached ``Soa`` sum are updated by a
        single ``+``/``-`` of the connection's stream (Algorithms
        3.2/3.3) -- O(m) in the aggregate breakpoint count.

        ``patch_caches=False`` is the bulk-apply mode of the batched
        pipeline: the ground-truth ``Sia`` merge still runs (per leg,
        in order -- bit-identity of the committed state depends on it)
        but the derived caches are *invalidated* instead of patched.
        A batch touching a port many times pays one lazy rebuild at the
        next check instead of one patch per leg.

        The headroom ledger is patched in *both* modes: its entries are
        plain scalar running sums (one add/sub per delta), so there is
        nothing to gain from deferring them, and the admission screen
        must see current values even mid-batch.
        """
        sign = 1 if add else -1
        self.ledger_rate = self.ledger_rate + sign * stream.long_run_rate
        self.ledger_burst = self.ledger_burst + sign * stream.burst
        old_sia = self.sia(in_link)
        if patch_caches and self._soa is None:
            # Build the missing Soa cache *now*, from the pre-change
            # state, rather than at the next read.  Patched float caches
            # must be a function of the mutation sequence alone: if the
            # rebuild point depended on when a check happened to read
            # the cache, the screened fast path (which skips reads that
            # the exact path performs) would accumulate ulp-different
            # sums and could flip a razor-edge decision.
            self.on_cache(False, "soa")
            self._soa = aggregate([self.sif(i) for i in sorted(self._sia)])
        new_sia = (old_sia + stream) if add else (old_sia - stream)
        if new_sia.is_zero:
            self._sia.pop(in_link, None)
        else:
            self._sia[in_link] = new_sia
        if not patch_caches:
            self._sif.pop(in_link, None)
            self._soa = None
            return
        old_sif = self._sif.get(in_link)
        new_sif = self._filter(new_sia)
        self._sif[in_link] = new_sif
        if old_sif is None:
            old_sif = self._filter(old_sia)
        self._soa = self._soa.patched(old_sif, new_sif)

    def apply_higher(self, in_link: str, stream: BitStream,
                     add: bool, patch_caches: bool = True) -> None:
        """Patch the interference caches after a higher-priority delta.

        Invoked on every *lower*-priority sibling when a stream is
        admitted/released above it -- and, critically, **before** the
        higher port's own :meth:`apply_same`, so a forced lazy rebuild
        of ``Sia(i, j)(p)`` still reads the pre-change aggregates.
        The final output filter and the ServiceCurve are cheap O(m)
        rebuilds; they are just marked dirty.

        ``patch_caches=False`` (bulk-apply mode) drops the affected
        cache entries instead of patching them; see :meth:`apply_same`.
        The higher-priority headroom ledger is patched in both modes
        (scalar running sums, see :meth:`apply_same`).
        """
        sign = 1 if add else -1
        self.ledger_higher_rate = (self.ledger_higher_rate
                                   + sign * stream.long_run_rate)
        self.ledger_higher_burst = (self.ledger_higher_burst
                                    + sign * stream.burst)
        if not patch_caches:
            self._higher.pop(in_link, None)
            self._sif_higher.pop(in_link, None)
            self._higher_sum = None
            self._sof = None
            self._service = None
            return
        # Force the missing caches into existence *now*, from the
        # pre-change aggregates, so the running float sums are a
        # function of the mutation sequence alone (never of when an
        # admission check first read them -- the screened fast path
        # skips reads the exact path performs, and a read-timed build
        # would let the two accumulate ulp-different interference).
        if self._higher_sum is None:
            self.higher_sum()
        previous = self._higher.get(in_link)
        if previous is None:
            previous = self.higher_sia(in_link)
        patched = (previous + stream) if add else (previous - stream)
        self._higher[in_link] = patched
        old_hf = self._sif_higher.pop(in_link, None)
        if old_hf is None:
            old_hf = self._filter(previous)
        new_hf = self._filter(patched)
        self._sif_higher[in_link] = new_hf
        self._higher_sum = self._higher_sum.patched(old_hf, new_hf)
        self._sof = None
        self._service = None

    # ------------------------------------------------------------------
    # Lifecycle / verification
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every aggregate and cache (crash / restore preamble)."""
        self._sia.clear()
        self._sif.clear()
        self._soa = None
        self._higher.clear()
        self._sif_higher.clear()
        self._higher_sum = None
        self._sof = None
        self._service = None
        self.ledger_rate = 0
        self.ledger_burst = 0
        self.ledger_higher_rate = 0
        self.ledger_higher_burst = 0

    def verify_against(self, fresh: Mapping[Tuple[str, str, int], BitStream],
                       tolerance: float = 1e-9) -> bool:
        """Do this port's caches match a from-scratch rebuild?

        ``fresh`` maps ``(in_link, out_link, priority)`` to the
        ground-truth aggregates recomputed from the per-leg streams
        alone (see :meth:`SwitchCAC.recompute_aggregates`).
        """
        j, p = self.out_link, self.priority
        keys = {i for (i, j2, q) in fresh if j2 == j and q == p}
        keys.update(self._sia)
        for in_link in keys:
            current = self.sia(in_link)
            expected = fresh.get((in_link, j, p), ZERO_STREAM)
            if not current.approx_equal(expected, tolerance):
                return False
        for in_link, cached in self._higher.items():
            expected = aggregate([
                stream for (i2, j2, q), stream in fresh.items()
                if i2 == in_link and j2 == j and q < p
            ])
            if not cached.approx_equal(expected, tolerance):
                return False
        if self._soa is not None:
            expected = aggregate([
                self._filter(stream)
                for (_i2, j2, q), stream in sorted(fresh.items())
                if j2 == j and q == p
            ])
            if not self._soa.approx_equal(expected, tolerance):
                return False
        if self._higher_sum is not None:
            per_input: Dict[str, BitStream] = {}
            for (i2, j2, q), stream in sorted(fresh.items()):
                if j2 == j and q < p:
                    per_input[i2] = per_input.get(i2, ZERO_STREAM) + stream
            expected = aggregate([
                self._filter(per_input[i2]) for i2 in sorted(per_input)
            ])
            if not self._higher_sum.approx_equal(expected, tolerance):
                return False
        # Headroom ledger: the rate sums must match the ground truth
        # (long-run rates add exactly under multiplexing); the burst
        # sums are per-leg and hence only *conservative* for the
        # aggregates (sigma is sub-additive), so they are checked as a
        # one-sided bound.
        same_rate: Number = 0
        same_burst: Number = 0
        higher_rate: Number = 0
        higher_burst: Number = 0
        for (_i2, j2, q), stream in fresh.items():
            if j2 != j:
                continue
            if q == p:
                same_rate += stream.long_run_rate
                same_burst += stream.burst
            elif q < p:
                higher_rate += stream.long_run_rate
                higher_burst += stream.burst
        if abs(self.ledger_rate - same_rate) > tolerance:
            return False
        if abs(self.ledger_higher_rate - higher_rate) > tolerance:
            return False
        if self.ledger_burst + tolerance < same_burst:
            return False
        if self.ledger_higher_burst + tolerance < higher_burst:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"PortState(out_link={self.out_link!r}, "
            f"priority={self.priority}, in_links={self.in_links()}, "
            f"advertised={self.advertised_bound})"
        )
