"""Multi-model serving registry with byte-budgeted eviction of decoded plans.

A serving process holds many named model images (per keyword set, per
device tier, per A/B arm).  The packed images themselves are tiny — 2 bits
per weight — so the registry keeps **all** registered images resident, but
the decoded bit-plane plans are several times larger, so they are built
lazily and admitted against a **byte budget**: ``capacity_bytes`` bounds the
total :meth:`~repro.serving.packed.PackedModel.decoded_bytes` of resident
plans, evicting least-recently-used plans when a cold decode would overflow
it.  Evicted models re-decode transparently on next use; a model whose plan
alone exceeds the budget is still served, just never cached.

Registrations are **version-aware**: every image lives under a ``(name,
version)`` key (``register(name, image, version="v2")``), one version per
name is *current* (what ``get(name)`` resolves to), and byte accounting is
available per version via :meth:`ModelRegistry.resident_by_version` — the
in-process mirror of the cluster's versioned placements, sharing the same
byte budget semantics.  ``register(name, image)`` without a version keeps
the pre-versioning behaviour: it replaces the current version (or registers
``v1`` for a new name).

All operations are thread-safe; the returned :class:`PackedModel` objects
are immutable and may be used concurrently with registry mutation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.deploy.image import ModelImage
from repro.errors import ConfigError
from repro.serving.catalog import VersionedCatalog, catalog_errors, make_key
from repro.serving.packed import PackedModel
from repro.serving.telemetry import get_registry

#: internal registry key: (model name, version)
ModelKey = Tuple[str, str]

#: default decoded-plan budget (64 MiB)
DEFAULT_CAPACITY_BYTES = 64 * 2**20


@dataclass
class RegistryStats:
    """Decode-cache behaviour counters.

    ``resident_bytes`` tracks the current total decoded-plan footprint (it
    never exceeds ``capacity_bytes``) and
    ``peak_resident_bytes`` its lifetime high-water mark.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    resident_bytes: int = 0
    peak_resident_bytes: int = 0


class ModelRegistry:
    """Name → model image store with a byte-budgeted decoded-plan cache.

    ``capacity_bytes`` is the byte budget: the total ``decoded_bytes()`` of
    resident plans never exceeds it (default :data:`DEFAULT_CAPACITY_BYTES`).
    """

    def __init__(self, *, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        if capacity_bytes < 1:
            raise ConfigError("registry capacity_bytes must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.stats = RegistryStats()
        #: versioned bookkeeping lives in the shared catalog; entries are
        #: the ModelImage objects (see repro.serving.catalog for the
        #: CatalogError -> ConfigError mapping policy — the registry keeps
        #: its historical everything-is-ConfigError surface)
        self._catalog = VersionedCatalog()
        self._decoded: "OrderedDict[ModelKey, PackedModel]" = OrderedDict()
        self._inflight: Dict[ModelKey, threading.Event] = {}  # single-flight decodes
        self._lock = threading.RLock()
        # latest registry wins the "registry" prefix on the process-wide
        # metrics plane; held weakly, so a dropped registry unmounts itself
        get_registry().register_source("registry", self.telemetry_tree)

    def telemetry_tree(self) -> Dict[str, object]:
        """The decode-cache counters as a plain metrics subtree."""
        with self._lock:
            stats = self.stats
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "resident_bytes": stats.resident_bytes,
                "peak_resident_bytes": stats.peak_resident_bytes,
                "models": self._catalog.entry_count(),
                "decoded": len(self._decoded),
            }

    # -- mutation ---------------------------------------------------------- #

    def register(
        self,
        name: str,
        image: Union[ModelImage, bytes],
        *,
        version: Optional[str] = None,
        activate: bool = True,
    ) -> None:
        """Add or replace an image under ``(name, version)``.

        ``version=None`` replaces the current version (or registers
        ``v1`` for a new name) — the pre-versioning behaviour.  With
        ``activate=True`` (default) the registered version becomes current;
        ``activate=False`` stages it without touching resolution (a
        deploy's warm-up) and requires an explicit ``version=``.  A
        brand-new name's first version becomes current regardless of
        ``activate`` — a registered model always has a current version.
        Replacing an existing key drops any stale plan.
        """
        with catalog_errors(ConfigError, ConfigError):
            # validate the full spec before deserializing the image bytes
            self._catalog.check_spec(name, version=version, activate=activate)
        if isinstance(image, (bytes, bytearray)):
            image = ModelImage.from_bytes(bytes(image))
        with self._lock, catalog_errors(ConfigError, ConfigError):
            version = self._catalog.register(
                name, image, version=version, activate=activate
            )
            self._drop_plan((name, version))

    def remove(self, name: str, *, version: Optional[str] = None) -> None:
        """Forget a model (or one version) and its decoded plans.

        ``version=None`` removes every version of ``name``; naming one
        removes just that key — removing the *current* version while other
        versions exist is rejected (:meth:`set_current` first).  Unknown
        names/versions raise.
        """
        with self._lock:
            with catalog_errors(ConfigError, ConfigError):
                doomed = self._catalog.remove(name, version=version)
            for doomed_version in doomed:
                self._drop_plan((name, doomed_version))

    def set_current(self, name: str, version: str) -> None:
        """Atomically flip which version ``get(name)`` resolves to."""
        with self._lock, catalog_errors(ConfigError, ConfigError):
            self._catalog.set_current(name, version)

    def _resolve(self, name: str, version: Optional[str]) -> ModelKey:
        """Resolve ``(name, version)`` with ``None`` meaning current (under lock)."""
        with catalog_errors(ConfigError, ConfigError):
            return (name, self._catalog.resolve_version(name, version))

    def _drop_plan(self, key: ModelKey) -> None:
        """Discard ``key``'s decoded plan (if resident), keeping byte accounts."""
        if self._decoded.pop(key, None) is not None:
            self._sync_resident()

    def _sync_resident(self) -> None:
        """Re-derive ``stats.resident_bytes`` from the resident plans.

        Deriving (rather than incrementally maintaining) the counter means no
        mutation path can drift it away from the cache contents — the budget
        invariant in :meth:`_cache` keys off this value.
        """
        self.stats.resident_bytes = sum(m.decoded_bytes() for m in self._decoded.values())

    # -- lookup ------------------------------------------------------------ #

    def get(self, name: str, version: Optional[str] = None) -> PackedModel:
        """Fetch the decoded runtime for ``(name, version)`` — ``None``
        meaning the current version — decoding (and possibly evicting LRU
        plans) on a cache miss.

        The decode itself runs outside the lock so a cold model never blocks
        concurrent hits on hot ones.  Cold decodes are **single-flight**:
        when many threads miss the same model at once, exactly one performs
        the decode while the rest wait on it and then take the hit path — a
        thundering herd costs one decode, not one per thread (so
        ``stats.misses`` counts decodes exactly).
        """
        while True:
            with self._lock:
                key = self._resolve(name, version)
                image = self._catalog.get(key[0], key[1])
                model = self._decoded.get(key)
                if model is not None:
                    self.stats.hits += 1
                    self._decoded.move_to_end(key)
                    return model
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = waiter = threading.Event()
                    self.stats.misses += 1
                    break  # this thread is the decode leader
            waiter.wait()  # a leader is decoding; retry once it lands
        try:
            model = PackedModel(image, cache=True)
        except BaseException:
            with self._lock:  # wake followers; one of them retries as leader
                self._inflight.pop(key, None)
                waiter.set()
            raise
        with self._lock:
            # cache *before* releasing the latch (atomically with it), so a
            # woken follower always finds the plan and can never become a
            # second leader decoding the same image
            if self._catalog.find(*key) is image:  # not re-registered/removed mid-decode
                self._cache(key, model)
            self._inflight.pop(key, None)
            waiter.set()
            return model

    def _cache(self, key: ModelKey, model: PackedModel) -> None:
        """Admit a freshly decoded plan, evicting LRU plans to stay in budget.

        Eviction happens *before* insertion so ``stats.resident_bytes`` never
        exceeds the byte budget, not even transiently.  An oversized plan
        (larger than the whole budget) is served uncached.
        """
        cost = model.decoded_bytes()
        if cost > self.capacity_bytes:
            return  # cannot fit even an empty cache; serve uncached
        while self.stats.resident_bytes + cost > self.capacity_bytes:
            self._evict_lru()
        self._decoded[key] = model
        self._sync_resident()
        self.stats.peak_resident_bytes = max(
            self.stats.peak_resident_bytes, self.stats.resident_bytes
        )

    def _evict_lru(self) -> None:
        """Drop the least-recently-used decoded plan."""
        self._decoded.popitem(last=False)
        self._sync_resident()
        self.stats.evictions += 1

    def predict(self, name: str, x: np.ndarray, *, version: Optional[str] = None) -> np.ndarray:
        """Run a batch through the named model (current version by default)."""
        return self.get(name, version)(x)

    # -- introspection ----------------------------------------------------- #

    def names(self) -> List[str]:
        """All registered model names, sorted."""
        with self._lock:
            return self._catalog.names()

    def versions(self, name: str) -> List[str]:
        """Registered versions of ``name``, sorted (empty for unknown names)."""
        with self._lock:
            return self._catalog.versions(name)

    def current_version(self, name: str) -> str:
        """The version ``get(name)`` resolves to; unknown names raise."""
        with self._lock, catalog_errors(ConfigError, ConfigError):
            return self._catalog.current_version(name)

    def decoded_names(self) -> List[str]:
        """Model keys (``"name@version"``) resident in decoded form, LRU first."""
        with self._lock:
            return [make_key(name, version) for name, version in self._decoded]

    def resident_by_version(self) -> Dict[str, int]:
        """Per-version byte accounting of the resident decoded plans.

        Maps ``"name@version"`` keys to their plans' ``decoded_bytes()``;
        the values sum to ``stats.resident_bytes``, so the budget invariant
        can be audited version by version.
        """
        with self._lock:
            return {
                make_key(name, version): model.decoded_bytes()
                for (name, version), model in self._decoded.items()
            }

    def decoded_bytes(self) -> int:
        """Total resident size of all decoded plans.

        Reads the same accounting :meth:`_sync_resident` derives from the
        resident plans on every mutation — one source of truth.
        """
        with self._lock:
            return self.stats.resident_bytes

    def snapshot(self) -> RegistryStats:
        """Atomic copy of the counters, taken under the registry lock.

        Mirrors :meth:`BatchingEngine.snapshot
        <repro.serving.batching.BatchingEngine.snapshot>` — the unified
        stats accessor name across the serving layer: concurrent readers
        (monitoring, tests asserting budget invariants mid-traffic) get one
        consistent state instead of fields from different moments.
        """
        with self._lock:
            return replace(self.stats)

    def __contains__(self, name: str) -> bool:
        """True when ``name`` is a registered model (any version)."""
        with self._lock:
            return name in self._catalog

    def __len__(self) -> int:
        """Number of registered images across all versions (decoded or not)."""
        with self._lock:
            return self._catalog.entry_count()
