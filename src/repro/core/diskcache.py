"""Persistent on-disk compile cache.

Compiling a ``(source, options)`` point costs the whole pass pipeline;
an experiment grid re-runs the same points across processes and across
days.  :class:`CompileCache` stores the finished
:class:`~repro.core.driver.CompiledProgram` as a content-addressed
pickle under a cache root (``~/.cache/repro`` by default, overridable
with ``REPRO_CACHE_DIR`` or an explicit ``--cache-dir``), keyed on

* the SHA-256 of the source text,
* the canonical *options closure* — every ``CompilerOptions`` field,
  including the machine model, rendered deterministically,
* a *pipeline fingerprint* — cache schema version, package version,
  and the ordered stage names — so a pipeline or format change can
  never resurrect stale artifacts.

Loads are corruption-safe by contract: a missing, truncated,
wrong-schema, or otherwise unreadable entry is treated as a miss (and
best-effort deleted), never an error — the caller simply recompiles.
Stores are atomic (temp file + ``os.replace``) so concurrent sweep
workers sharing one cache root cannot observe half-written entries.

``repro cache stats`` / ``repro cache clear`` manage the cache from
the command line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from . import passes

if TYPE_CHECKING:
    from .driver import CompiledProgram

#: bump when the pickled payload layout — or the meaning of a pass
#: product in it — changes; part of the pipeline fingerprint, so old
#: entries become silent misses, not errors.  4: ``CompiledProgram``
#: derives ``lowering``/``slabs`` on first read (a schema-3
#: pickle carries them as fields and lacks the memo the properties use).
#: 5: the IR carries the facts ``Procedure.finalize()`` stamps (affine
#: forms, flops, the statement order); a schema-4 tree lacks them.
CACHE_SCHEMA = 5

_MAGIC = "repro-compile-cache"
_SUFFIX = ".pkl"


def _package_version() -> str:
    # Deferred so this module never participates in an import cycle
    # with the package __init__.
    try:
        from .. import __version__

        return __version__
    except Exception:  # pragma: no cover - partial-import edge
        return "unknown"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


#: sorted field names per options class (None: not a dataclass), so a
#: render walks a tuple instead of ``dataclasses.fields`` and a sort
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}


def _field_names(cls: type) -> tuple[str, ...] | None:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (
            tuple(sorted(f.name for f in dataclasses.fields(cls)))
            if dataclasses.is_dataclass(cls)
            else None
        )
        _FIELD_NAMES[cls] = names
        return names


def _render_fields(value: Any, names: tuple[str, ...], sep: str) -> str:
    return sep.join(
        f"{name}={_canonical_value(getattr(value, name))}" for name in names
    )


def _canonical_value(value: Any) -> str:
    """Deterministic rendering of one options field value."""
    names = _field_names(type(value))
    if names is None:
        return repr(value)
    return f"{type(value).__name__}({_render_fields(value, names, ',')})"


def options_signature(options: Any) -> str:
    """The canonical *options closure*: every field of the options
    dataclass (machine model included), in name order."""
    return _render_fields(options, _field_names(type(options)), ";")


def pipeline_fingerprint() -> str:
    """Fingerprint of the compilation pipeline an entry was produced
    by: schema version, package version, ordered stage names."""
    stages = ",".join(passes.DEFAULT_PIPELINE)
    payload = f"{_MAGIC}:{CACHE_SCHEMA}:{_package_version()}:{stages}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class DiskCacheStats:
    """Per-session activity counters of one :class:`CompileCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    store_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "store_errors": self.store_errors,
        }


class CompileCache:
    """Content-addressed pickle store for :class:`CompiledProgram`."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.stats = DiskCacheStats()

    # -- keys --------------------------------------------------------------

    def key(self, source: str, options: Any) -> str:
        """Content address of one compile: (source hash, options
        closure, pipeline fingerprint)."""
        digest = hashlib.sha256()
        digest.update(hashlib.sha256(source.encode("utf-8")).digest())
        digest.update(options_signature(options).encode("utf-8"))
        digest.update(pipeline_fingerprint().encode("utf-8"))
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    # -- load / store ------------------------------------------------------

    def load(self, key: str) -> "CompiledProgram | None":
        """Return the cached program, or None on miss.  Any unreadable
        entry (truncated pickle, foreign file, schema drift) counts as
        a miss: the bad file is best-effort removed and the caller
        recompiles — a cache must never be able to crash a build."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                magic, schema, compiled = pickle.load(handle)
            if magic != _MAGIC or schema != CACHE_SCHEMA:
                raise ValueError(f"unexpected cache header {magic!r}/{schema!r}")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return compiled

    def store(self, key: str, compiled: "CompiledProgram") -> bool:
        """Atomically persist ``compiled`` under ``key``.  Best-effort:
        a full disk or unpicklable payload degrades to False, never an
        exception."""
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(
                        (_MAGIC, CACHE_SCHEMA, compiled),
                        handle,
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            self.stats.store_errors += 1
            return False
        self.stats.stores += 1
        return True

    def get_or_compile(
        self,
        source: str,
        options: Any,
        compile_fn: Callable[[], "CompiledProgram"],
    ) -> "tuple[CompiledProgram, bool]":
        """``(program, was_hit)``: load if present, else compile via
        ``compile_fn`` and persist the result."""
        key = self.key(source, options)
        compiled = self.load(key)
        if compiled is not None:
            return compiled, True
        compiled = compile_fn()
        self.store(key, compiled)
        return compiled, False

    # -- management --------------------------------------------------------

    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"??/*{_SUFFIX}"))

    def entry_count(self) -> int:
        return len(self._entry_paths())

    def total_bytes(self) -> int:
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats_dict(self) -> dict[str, Any]:
        """On-disk footprint plus this session's activity counters
        (``repro cache stats`` and the CI artifact print this)."""
        return {
            "root": str(self.root),
            "entries": self.entry_count(),
            "bytes": self.total_bytes(),
            "schema": CACHE_SCHEMA,
            "session": self.stats.as_dict(),
        }


def as_compile_cache(
    cache: "CompileCache | str | os.PathLike | bool | None",
) -> "CompileCache | None":
    """Normalize the ``cache=`` convenience forms every entry point
    accepts: None/False → disabled, True → default root, a path →
    cache rooted there, a :class:`CompileCache` → itself."""
    if cache is None or cache is False:
        return None
    if isinstance(cache, CompileCache):
        return cache
    if cache is True:
        return CompileCache()
    return CompileCache(cache)
