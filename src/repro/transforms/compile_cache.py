"""Fingerprint-keyed compile caching.

A :class:`CompileCache` memoizes pass-manager runs: the key is
``(textual fingerprint of the input, canonical pipeline spec)`` and
the value is the optimized module *as text* — printed with ``loc(...)``
trailers, the lossless transport the disk tier already uses — plus the statistics and remarks the run produced.  The
textual fingerprint is a hash of the *printed* module: hits splice a
printable result back in, so the key must capture exactly what
determines output identity, including SSA name spellings (the
structural fingerprint in ``repro.ir.fingerprint`` deliberately ignores
those; it serves name-insensitive equivalence queries like function
deduplication).  Compiling the same module through the same pipeline a
second time short-circuits the whole pipeline: the entry's text is
parsed into a fresh module and spliced back in, which prints
byte-identically to a cold compile.  Every hit parses its own private
module, so later mutation of a spliced result cannot poison the cache.

Holding text rather than a template ``Operation`` tree keeps an entry at
the size of its printed form (about 10 KB for a ~100-op module,
against ~110 KB of Python IR objects), so a daemon's cache memory does not grow
with the number of distinct modules it has compiled.

The cache is thread-safe (one lock around the LRU table) and is designed
to be *shared*: one cache serves every segment of a ``repro-opt``
batch run and every request thread of ``repro-served``.

The in-memory table can sit on top of a persistent
:class:`~repro.transforms.disk_cache.DiskCache` (``disk=``), forming a
two-tier read-through/write-through hierarchy.  Both tiers hold the same
text: a memory miss consults the disk store and promotes the loaded text
as is (no parse until a hit materializes it), and a store prints once
and writes that text through, so a warm compile survives the process.
An entry whose text fails to materialize is evicted on the spot and the
compile runs cold; when the text came from disk the disk entry is
recovered too: no cache state can fail a compile a cold run would
pass.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import Operation

#: Cache keys: ``(input fingerprint, canonical pipeline spec)``.
CacheKey = Tuple[str, str]


def text_fingerprint(text: str) -> str:
    """Hex digest of a printed module: the cache's input identity."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class CachedCompile:
    """The reusable outcome of one pass-manager run."""

    #: The optimized module printed with ``loc(...)`` trailers.
    text: str
    #: ``(pass_name, statistic name, value)`` triples.
    statistics: List[Tuple[str, str, int]] = field(default_factory=list)
    remarks: List[str] = field(default_factory=list)
    #: Class names of analyses the compiling run left valid for the cached
    #: module; a hit carries them so consumers know what can be warmed.
    preserved_analyses: Tuple[str, ...] = ()
    #: The text was promoted from the disk tier (a failed materialization
    #: then recovers the disk entry as well).
    from_disk: bool = False

    def materialize(self) -> Operation:
        """A private module parsed from the cached text.

        Unregistered ops are accepted: the text is the printer's output
        for a module that already held them (input parsed with
        ``allow_unregistered``), and a hit must reproduce it.
        """
        from ..ir import parse_module

        return parse_module(self.text, allow_unregistered=True,
                            filename="<compile-cache>")


@dataclass
class CacheStats:
    """Hit/miss counters, exposed in reports and ``BENCH_4.json``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class CompileCache:
    """An LRU map from ``(fingerprint, pipeline spec)`` to compile results.

    ``max_entries=None`` means unbounded — the right default for a batch
    driver whose working set is one invocation.  Long-lived services
    should bound it; eviction is least-recently-used.
    """

    def __init__(self, max_entries: Optional[int] = None, disk=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        self.max_entries = max_entries
        #: Optional :class:`~repro.transforms.disk_cache.DiskCache`
        #: backing tier (read-through on miss, write-through on store).
        self.disk = disk
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CachedCompile]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key_for(op: Operation, pipeline_spec: str) -> CacheKey:
        """The cache key of compiling ``op`` through ``pipeline_spec``.

        Must be computed *before* the run — the fingerprint of the input,
        not of the optimized output.  Keyed on the printed form: inputs
        that print identically compile identically, and inputs that print
        differently (even only in SSA names) must never share a key, or a
        hit would rewrite the later input's spelling.
        """
        from ..ir import Printer

        return (text_fingerprint(Printer().print_module(op)), pipeline_spec)

    def lookup(self, key: CacheKey) -> Optional[CachedCompile]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
        if self.disk is None:
            return None
        # Read-through: disk I/O runs outside the lock so it does not
        # serialize concurrent compiles.
        payload = self.disk.load(key)
        if payload is None:
            return None
        entry = CachedCompile(
            text=payload["text"],
            statistics=[tuple(triple) for triple in payload["statistics"]],
            remarks=list(payload["remarks"]),
            preserved_analyses=tuple(payload["preserved_analyses"]),
            from_disk=True,
        )
        self._promote(key, entry)
        return entry

    def _promote(self, key: CacheKey, entry: CachedCompile) -> None:
        """Install a disk-tier hit in the memory table without touching
        hit/miss counters (the lookup already counted a memory miss)."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def store(self, key: CacheKey, entry: CachedCompile) -> None:
        self._promote(key, entry)
        if self.disk is not None:
            self.disk.store(
                key, entry.text,
                statistics=entry.statistics,
                remarks=entry.remarks,
                preserved_analyses=entry.preserved_analyses,
            )

    def evict(self, key: CacheKey) -> bool:
        """Drop one entry: the self-healing path, taken when a hit fails
        to materialize or splice, so the next compile runs cold instead
        of re-serving the corrupt text.  An entry read from disk is
        recovered (evicted and counted) in the disk tier as well."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self.stats.evictions += 1
        if entry.from_disk and self.disk is not None:
            self.disk.recover(key)
        return True

    def add_stats(self, stats: Dict[str, Dict[str, int]]) -> None:
        """Fold in a worker process's counters (``{"memory": {...},
        "disk": {...}}``), so a batch compiled across worker processes
        reports its cache like one compiled in-process."""
        with self._lock:
            for name, value in stats.get("memory", {}).items():
                setattr(self.stats, name, getattr(self.stats, name) + value)
        if self.disk is not None:
            self.disk.add_stats(stats.get("disk", {}))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def describe(self) -> Dict[str, object]:
        """JSON-able snapshot for reports and benchmarks.

        Memory-tier counters live at the top level (their historical
        shape); when a disk tier is attached its counters appear under
        the ``"disk"`` sub-dict.
        """
        with self._lock:
            summary: Dict[str, object] = {
                "entries": len(self._entries),
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
            }
        if self.disk is not None:
            summary["disk"] = self.disk.describe()
        return summary

    def __repr__(self) -> str:
        return (f"<CompileCache entries={len(self)} "
                f"hits={self.stats.hits} misses={self.stats.misses}>")
