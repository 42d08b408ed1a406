"""Content-addressed artifact cache for the flow engine.

Two pieces live here:

- :func:`stable_hash` -- a deterministic fingerprint of the objects the
  flow passes between stages (``Module``, ``Library``, option
  dataclasses, plain containers).  The hash is computed from canonical
  *content* (sorted dict items, dataclass fields, netlist connectivity)
  so it is stable across processes and Python hash randomisation --
  which is what lets a disk cache survive between runs.
- :class:`ArtifactCache` -- a pickle-backed store keyed by stage keys
  (see :mod:`repro.engine.executor`), with hit/miss accounting.  An
  engine without one (``cache=None``, the ``--no-cache`` escape hatch)
  runs every stage.

Every stage key and every fingerprint is seeded with
:data:`CACHE_SCHEMA`, a hand-bumped constant: bumping it moves every
key, so entries written under an older layout are never looked up.  An
entry whose pickles no longer load is a miss rather than a crash deep
inside a stage.

Stage keys chain Merkle-style: a derived artifact's fingerprint is the
key of the stage that produced it, so only *root* inputs (the imported
netlist, the library, the option values) are ever content-hashed.
Changing one gate in the input design, one option field, or the library
variant therefore changes exactly the keys of the stages downstream of
that change -- the basis of the invalidation tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import pickle
import tempfile
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

try:  # POSIX advisory file locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from ..liberty.model import FINGERPRINT_MEMO
from ..netlist.core import Module

#: seeds every stage key and fingerprint.  Bump it when a cache entry
#: written before a change would be wrong after it: the layout of a
#: pickled class changes (``tests/test_engine.py`` records a digest of
#: them and fails until this is bumped), the canonical hash below
#: changes, or the Verilog reader's output changes (the CLI keys its
#: input on the file's bytes, not on the parsed netlist).
CACHE_SCHEMA = "3"

#: manifest layout written by :meth:`ArtifactCache.put`
MANIFEST_FORMAT = 3


def key_hasher():
    """A sha256 hasher seeded with the current :data:`CACHE_SCHEMA`."""
    return hashlib.sha256(f"repro-cache/{CACHE_SCHEMA}|".encode())


class HashError(TypeError):
    """Raised when an object cannot be canonically fingerprinted."""


def _feed(hasher, obj: Any, depth: int = 0) -> None:
    """Feed the canonical byte form of ``obj`` into ``hasher``."""
    if depth > 50:
        raise HashError("stable_hash recursion too deep")
    if obj is None:
        hasher.update(b"N")
    elif obj is True or obj is False:
        hasher.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        hasher.update(b"I" + str(obj).encode())
    elif isinstance(obj, float):
        hasher.update(b"F" + repr(obj).encode())
    elif isinstance(obj, str):
        hasher.update(b"S" + obj.encode())
    elif isinstance(obj, bytes):
        hasher.update(b"Y" + obj)
    elif isinstance(obj, Enum):
        hasher.update(b"E" + type(obj).__name__.encode())
        _feed(hasher, obj.value, depth + 1)
    elif isinstance(obj, (list, tuple)):
        hasher.update(b"L" + str(len(obj)).encode())
        for item in obj:
            _feed(hasher, item, depth + 1)
    elif isinstance(obj, (set, frozenset)):
        hasher.update(b"T" + str(len(obj)).encode())
        for digest in sorted(stable_hash(item) for item in obj):
            hasher.update(digest.encode())
    elif isinstance(obj, dict):
        hasher.update(b"D" + str(len(obj)).encode())
        try:
            items = sorted(obj.items())
        except TypeError:
            items = sorted(obj.items(), key=lambda kv: stable_hash(kv[0]))
        for key, value in items:
            _feed(hasher, key, depth + 1)
            _feed(hasher, value, depth + 1)
    elif isinstance(obj, Module):
        _feed_module(hasher, obj)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        hasher.update(b"C" + type(obj).__qualname__.encode())
        for fld in dataclasses.fields(obj):
            hasher.update(fld.name.encode())
            _feed(hasher, getattr(obj, fld.name), depth + 1)
    else:
        _feed_object(hasher, obj, depth)


def _feed_module(hasher, module: Module) -> None:
    """Canonical netlist content: ports, connectivity, attributes."""
    hasher.update(b"M" + module.name.encode())
    for name in sorted(module.ports):
        port = module.ports[name]
        hasher.update(
            f"P{name}|{port.direction.value}|{port.msb}|{port.lsb};".encode()
        )
    for name in sorted(module.instances):
        inst = module.instances[name]
        hasher.update(f"i{name}|{inst.cell}".encode())
        for pin in sorted(inst.pins):
            hasher.update(f"|{pin}={inst.pins[pin]}".encode())
        if inst.attributes:
            _feed(hasher, inst.attributes, 1)
    for name in sorted(module.nets):
        net = module.nets[name]
        if net.is_constant:
            hasher.update(f"k{name}={net.constant_value}".encode())
    _feed(hasher, sorted(module.assigns), 1)
    _feed(hasher, module.attributes, 1)


def _feed_object(hasher, obj: Any, depth: int) -> None:
    """Generic fallback: public attributes of a plain object.

    Covers ``Library``, ``Gatefile``, ``SdcFile`` constraints and the
    small bookkeeping classes; private/cached attributes (``_fn_cache``
    and friends) are deliberately excluded from the fingerprint.
    """
    try:
        state = vars(obj)
    except TypeError:
        slots = getattr(type(obj), "__slots__", None)
        if slots is None:
            raise HashError(
                f"cannot fingerprint object of type {type(obj).__name__}"
            )
        state = {s: getattr(obj, s) for s in slots if hasattr(obj, s)}
    hasher.update(b"O" + type(obj).__qualname__.encode())
    for key in sorted(state):
        if key.startswith("_"):
            continue
        hasher.update(key.encode())
        _feed(hasher, state[key], depth + 1)


def stable_hash(obj: Any) -> str:
    """Deterministic content fingerprint of ``obj`` (sha256 hex)."""
    hasher = key_hasher()
    _feed(hasher, obj)
    return hasher.hexdigest()


def library_fingerprint(library) -> str:
    """Content fingerprint of a library, memoised on the object.

    Libraries are immutable for the duration of a flow (the controller
    cells are added before any stage runs), so the fingerprint is
    computed once per library content and reused by every stage key
    and by the STA ladder memo; ``Library.add_cell`` drops the memo.
    """
    cached = library.__dict__.get(FINGERPRINT_MEMO)
    if cached is None:
        cached = stable_hash(
            {
                "name": library.name,
                "wire_cap": library.default_wire_cap,
                "corners": library.corners,
                "cells": library.cells,
            }
        )
        library.__dict__[FINGERPRINT_MEMO] = cached
    return cached


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: lookups that found an entry but could not use it (unknown
    #: manifest format, unreadable pickle); each also counts as a miss
    rejected: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "hit_rate": round(self.hit_rate, 4),
        }


class CacheEntryError(RuntimeError):
    """A cache entry's sidecar could not be loaded.

    ``key`` names the entry, so the engine can evict it and recompute
    what it held (see :meth:`repro.engine.executor.FlowEngine.run`).
    """

    def __init__(self, key: str, path: str, cause: BaseException):
        super().__init__(
            f"cache entry {key[:12]}: cannot load "
            f"{os.path.basename(path)} ({type(cause).__name__}: {cause})"
        )
        self.key = key
        self.path = path


class LazyArtifact:
    """A sidecar artifact deferred until first access.

    Cache hits for stages with large outputs (netlist snapshots) hand
    these out instead of eagerly unpickling; the executor's artifact
    map resolves them on first read, so a fully-cached replay only pays
    the deserialisation cost of the artifacts something actually
    consumes.  A sidecar that is missing, truncated or otherwise
    unreadable raises :class:`CacheEntryError` naming entry ``key``.
    """

    __slots__ = ("path", "key", "_value", "_loaded")

    def __init__(self, path: str, key: str):
        self.path = path
        self.key = key
        self._value = None
        self._loaded = False

    def load(self) -> Any:
        if not self._loaded:
            # unpickling a netlist allocates objects that all survive:
            # collections during the load would free nothing
            enabled = gc.isenabled()
            gc.disable()
            try:
                with open(self.path, "rb") as handle:
                    self._value = pickle.load(handle)
            except Exception as exc:
                raise CacheEntryError(self.key, self.path, exc) from exc
            finally:
                if enabled:
                    gc.enable()
            self._loaded = True
        return self._value

    def __repr__(self) -> str:
        state = "loaded" if self._loaded else "deferred"
        return f"LazyArtifact({os.path.basename(self.path)!r}, {state})"


class DeferredArtifact:
    """An initial artifact computed on first read.

    ``fingerprint`` stands in for the value's content hash in the stage
    keys, so a run is keyed without computing the value: the CLI keys
    its input netlist on the file's bytes and parses it only when the
    stage that reads it has to run.  The engine's artifact map calls
    :meth:`load` on first access, like a :class:`LazyArtifact`.
    """

    __slots__ = ("fingerprint", "_compute", "_value", "_loaded")

    def __init__(self, compute: Callable[[], Any], fingerprint: str):
        self.fingerprint = fingerprint
        self._compute = compute
        self._value = None
        self._loaded = False

    def load(self) -> Any:
        if not self._loaded:
            self._value = self._compute()
            self._loaded = True
        return self._value

    def __repr__(self) -> str:
        state = "loaded" if self._loaded else "deferred"
        return f"DeferredArtifact({self.fingerprint[:12]!r}, {state})"


#: artifacts pickling larger than this live in their own sidecar file
INLINE_LIMIT = 32 * 1024

#: share of ``max_bytes`` an eviction brings the cache down to
EVICT_TO = 0.75


class ArtifactCache:
    """Disk cache mapping stage keys to pickled artifact dicts.

    An entry is a manifest ``<directory>/<key[:2]>/<key>.pkl`` holding
    every small artifact inline plus references to per-artifact sidecar
    files (``<key>.<n>.pkl``) for large ones, so lazy readers can skip
    deserialising netlist snapshots nobody consumes.  Writes are atomic
    (tempfile + rename, sidecars before manifest) so concurrent runs
    sharing one cache directory never observe a torn entry; on POSIX an
    advisory ``.lock`` file additionally serialises ``put``/``clear``
    across *processes*, so daemon workers can share ``.repro_cache/``.

    ``max_bytes`` caps the on-disk size: once a store takes the cache
    past it, entries are evicted least-recently-used first (manifest
    mtime; hits touch the manifest) until the cache is down to
    :data:`EVICT_TO` of the cap, so a cache held at its cap walks once
    per quarter of the cap stored, not on every store.  The entry just
    written survives even when it alone exceeds the cap.  A walk at the
    first store sizes the cache and later stores add what they write,
    so a store under the cap walks nothing; writes by other processes
    sharing the directory are seen at the next walk.
    """

    def __init__(
        self,
        directory: str,
        max_bytes: Optional[int] = None,
    ):
        self.directory = os.path.abspath(directory)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        #: bytes on disk at the last walk plus those stored since
        self._bytes: Optional[int] = None

    @contextlib.contextmanager
    def _advisory_lock(self):
        """Inter-process write guard (no-op where flock is missing)."""
        if fcntl is None:
            yield
            return
        os.makedirs(self.directory, exist_ok=True)
        lock_path = os.path.join(self.directory, ".lock")
        handle = open(lock_path, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()

    def _path(self, key: str, part: Optional[int] = None) -> str:
        name = key if part is None else f"{key}.{part}"
        return os.path.join(self.directory, key[:2], name + ".pkl")

    def _load_manifest(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key), "rb") as handle:
                manifest = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            manifest = None
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != MANIFEST_FORMAT
        ):
            self.stats.rejected += 1
            return None
        for name in manifest["sidecar"].values():
            if not os.path.isfile(
                os.path.join(self.directory, key[:2], name)
            ):
                return None
        return manifest

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Load the artifacts stored under ``key`` (``None`` on miss)."""
        lazy = self.get_lazy(key)
        if lazy is None:
            return None
        return {
            name: value.load() if isinstance(value, LazyArtifact) else value
            for name, value in lazy.items()
        }

    def get_lazy(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get`, but sidecar artifacts come back as
        :class:`LazyArtifact` handles instead of loaded objects."""
        manifest = self._load_manifest(key)
        if manifest is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        try:
            # touch the manifest so mtime-ordered eviction is LRU, not
            # merely FIFO
            os.utime(self._path(key))
        except OSError:
            pass
        outputs: Dict[str, Any] = {}
        try:
            for name, blob in manifest["inline"].items():
                outputs[name] = pickle.loads(blob)
        except Exception:
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.rejected += 1
            return None
        for name, filename in manifest["sidecar"].items():
            outputs[name] = LazyArtifact(
                os.path.join(self.directory, key[:2], filename), key
            )
        return outputs

    def _write_atomic(self, path: str, payload: bytes) -> bool:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def put(self, key: str, value: Dict[str, Any]) -> bool:
        """Store ``value`` under ``key``; False if unpicklable."""
        with self._advisory_lock():
            written = self._put_locked(key, value)
            if written is not None and self.max_bytes is not None:
                if self._bytes is not None:
                    self._bytes += written
                if self._bytes is None or self._bytes > self.max_bytes:
                    self._evict(protect=key)
        return written is not None

    def _put_locked(self, key: str, value: Dict[str, Any]) -> Optional[int]:
        """Write the entry; returns the bytes written, None on failure."""
        os.makedirs(os.path.dirname(self._path(key)), exist_ok=True)
        inline: Dict[str, bytes] = {}
        sidecar: Dict[str, str] = {}
        written = 0
        part = 0
        for name, artifact in value.items():
            try:
                blob = pickle.dumps(
                    artifact, protocol=pickle.HIGHEST_PROTOCOL
                )
            except (pickle.PickleError, TypeError):
                return None
            if len(blob) <= INLINE_LIMIT:
                inline[name] = blob
            else:
                if not self._write_atomic(self._path(key, part), blob):
                    return None
                sidecar[name] = os.path.basename(self._path(key, part))
                written += len(blob)
                part += 1
        manifest = pickle.dumps(
            {"format": MANIFEST_FORMAT, "inline": inline, "sidecar": sidecar},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        if not self._write_atomic(self._path(key), manifest):
            return None
        self.stats.stores += 1
        return written + len(manifest)

    def _entries(self) -> List[Tuple[float, str, List[str], int]]:
        """Cache entries as ``(manifest mtime, key, files, bytes)``.

        Sidecars (``<key>.<n>.pkl``) are billed to their manifest, so an
        entry is always evicted as a unit.
        """
        groups: Dict[str, Dict[str, Any]] = {}
        if not os.path.isdir(self.directory):
            return []
        for root, _dirs, files in os.walk(self.directory):
            for name in files:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(root, name)
                stem = name[: -len(".pkl")]
                key, dot, part = stem.rpartition(".")
                if not dot or not part.isdigit():
                    key = stem
                entry = groups.setdefault(
                    key, {"files": [], "bytes": 0, "mtime": None}
                )
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entry["files"].append(path)
                entry["bytes"] += stat.st_size
                if stem == key:  # the manifest itself
                    entry["mtime"] = stat.st_mtime
        return sorted(
            (e["mtime"] or 0.0, key, e["files"], e["bytes"])
            for key, e in groups.items()
        )

    def size_bytes(self) -> int:
        """Total bytes currently stored (manifests plus sidecars)."""
        return sum(size for _mtime, _key, _files, size in self._entries())

    def _evict(self, protect: Optional[str] = None) -> int:
        """Walk the cache and, if it is over ``max_bytes``, drop
        least-recently-used entries until it is down to
        :data:`EVICT_TO` of it; records the size left."""
        if self.max_bytes is None:
            return 0
        entries = self._entries()
        total = sum(size for _mtime, _key, _files, size in entries)
        target = self.max_bytes
        if total > target:
            target *= EVICT_TO
        evicted = 0
        for _mtime, key, files, size in entries:
            if total <= target:
                break
            if key == protect:
                continue
            for path in files:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            total -= size
            evicted += 1
        self._bytes = total
        self.stats.evictions += evicted
        return evicted

    def evict(self, key: str) -> int:
        """Delete the entry under ``key``: its manifest and its sidecars,
        which :meth:`put` numbers from 0 without gaps; returns the
        number of files removed."""

        def unlink(path: str) -> bool:
            try:
                os.unlink(path)
            except OSError:
                return False
            return True

        with self._advisory_lock():
            removed = int(unlink(self._path(key)))
            part = 0
            while unlink(self._path(key, part)):
                removed += 1
                part += 1
        if removed:
            self.stats.evictions += 1
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        with self._advisory_lock():
            for root, _dirs, files in os.walk(self.directory):
                for name in files:
                    if name.endswith(".pkl"):
                        try:
                            os.unlink(os.path.join(root, name))
                            removed += 1
                        except OSError:
                            pass
        return removed

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.directory):
            return 0
        for _root, _dirs, files in os.walk(self.directory):
            count += sum(1 for name in files if name.endswith(".pkl"))
        return count

    def __repr__(self) -> str:
        return (
            f"ArtifactCache({self.directory!r}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
