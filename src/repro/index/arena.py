"""Memory-mapped coverage arena: interned coverage columns on disk.

The columnar coverage store (PR 1) keeps every distinct coverage as an
immutable sorted ``int32`` array, and the checkpoint protocol (PR 3) already
serializes those arrays as one values+offsets CSR column pair. This module
moves that column pair into a **memory-mapped file**, so corpora whose
coverage columns do not fit in RAM stay queryable: a
:class:`~repro.index.coverage.CoverageView` backed by the arena hands out a
zero-copy ``np.memmap`` slice, and the OS page cache — not the Python heap —
decides which coverage bytes are resident. The design follows the
extracted-graph-materialization tradeoff of "Extracting and Analyzing Hidden
Graphs from Relational Databases" (Xirogiannopoulos & Deshpande): keep a
compact on-disk representation and expand views lazily.

File layout (append-friendly, one values segment per append batch)::

    [ header   ] HEADER_SIZE bytes — JSON (magic, schema version, counts,
                 content digest), padded with spaces.
    [ values   ] num_values * int32, little-endian. Appends only ever
                 extend this column, so existing slices stay valid.
    [ offsets  ] (num_interned + 1) * int64 footer (slot ``i`` is
                 ``values[offsets[i]:offsets[i+1]]``).

Every append batch **self-commits**: the new values extend the column (over
the previous footer, which the values column grows into), the footer is
rewritten after the new extent, and the header — the commit point — is
updated last. Readers trust only the counts the header records, so the file
is consistent after every batch; a crash *mid-batch* leaves the arena
detectably corrupt (the next :meth:`CoverageArena.open` fails loudly), never
silently wrong — rebuild the index to regenerate a scratch arena. The
content digest (BLAKE2b over the values column plus the offsets footer) is
verified on every reattach, so a truncated, corrupted, or swapped arena
file raises :class:`~repro.errors.ConfigurationError`; note this also means
a checkpoint's arena *reference* is pinned to the exact contents at save
time — appending to the arena afterwards (e.g. reusing the file for a new
build) deliberately invalidates older checkpoint references.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError

ARENA_MAGIC = "repro-coverage-arena"
ARENA_SCHEMA_VERSION = 1
"""Bump whenever the header layout or column dtypes change."""

HEADER_SIZE = 4096
"""Fixed byte budget for the JSON header at the start of the file."""

VALUES_DTYPE = np.dtype("<i4")
OFFSETS_DTYPE = np.dtype("<i8")

def _content_digest(values_digest: "hashlib._Hash", offsets: np.ndarray) -> str:
    """Hex digest committing to both columns (values incrementally hashed)."""
    combined = values_digest.copy()
    combined.update(np.ascontiguousarray(offsets, dtype=OFFSETS_DTYPE).tobytes())
    return combined.hexdigest()


def _new_values_digest() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=16)


class CoverageArena:
    """One append-friendly memory-mapped file of interned coverage columns.

    Use :meth:`create` for a fresh arena and :meth:`open` to reattach an
    existing file (e.g. after a process restart, driven by a checkpoint's
    arena reference). Slots are dense ``0..num_interned-1`` in append order;
    slot contents are immutable once appended.
    """

    def __init__(
        self,
        path: str,
        file,
        offsets: List[int],
        values_digest: "hashlib._Hash",
        owns_temp: bool = False,
        read_only: bool = False,
    ) -> None:
        self.path = path
        self._file = file
        self._offsets: List[int] = offsets
        self._values_digest = values_digest
        self._values_map: Optional[np.ndarray] = None
        self._mapped_values = 0
        self._read_only = read_only
        self._dirty = not read_only
        if owns_temp:
            self._temp_finalizer = weakref.finalize(
                self, _unlink_quietly, path
            )
        else:
            self._temp_finalizer = None

    # -------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, path: Optional[str] = None) -> "CoverageArena":
        """Create a fresh arena at ``path`` (or a temp file when ``None``).

        A temp arena is unlinked on close (or when garbage collected), so it
        cannot be reattached after the process exits: checkpoints carry its
        columns inline instead of referencing it (see :attr:`temporary`).
        """
        owns_temp = path is None
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-arena-", suffix=".bin")
            os.close(handle)
        try:
            file = open(path, "w+b")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create coverage arena at {path}: {exc}"
            ) from exc
        arena = cls(
            path,
            file,
            offsets=[0],
            values_digest=_new_values_digest(),
            owns_temp=owns_temp,
        )
        arena.flush()
        return arena

    @classmethod
    def open(
        cls,
        path: str,
        expected_digest: Optional[str] = None,
        read_only: bool = False,
    ) -> "CoverageArena":
        """Reattach the arena at ``path``, verifying header and content.

        With ``read_only=True`` the file is opened without write access and
        :meth:`append_many` is refused — the multi-tenant attach mode, where
        many tenants map one immutable arena and nothing may mutate the
        shared columns. Raises :class:`~repro.errors.ConfigurationError` when
        the file is missing, is not an arena, is truncated, fails its own
        recorded digest, or (when given) does not match ``expected_digest``
        — the checkpoint-reference reattach path.
        """
        try:
            file = open(path, "rb" if read_only else "r+b")
        except FileNotFoundError:
            raise ConfigurationError(
                f"coverage arena file not found: {path}"
            ) from None
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open coverage arena {path}: {exc}"
            ) from exc
        try:
            header = cls._read_header(file, path)
            num_interned = int(header["num_interned"])
            num_values = int(header["num_values"])
            values_end = HEADER_SIZE + num_values * VALUES_DTYPE.itemsize
            footer_end = values_end + (num_interned + 1) * OFFSETS_DTYPE.itemsize
            file.seek(0, os.SEEK_END)
            if file.tell() < footer_end:
                raise ConfigurationError(
                    f"coverage arena {path} is truncated: header records "
                    f"{num_values} values / {num_interned} slots but the file "
                    f"is {file.tell()} bytes (need {footer_end})"
                )
            values_digest = _new_values_digest()
            file.seek(HEADER_SIZE)
            remaining = num_values * VALUES_DTYPE.itemsize
            while remaining:
                chunk = file.read(min(remaining, 1 << 22))
                if not chunk:
                    raise ConfigurationError(
                        f"coverage arena {path} ended mid-values"
                    )
                values_digest.update(chunk)
                remaining -= len(chunk)
            offsets = np.frombuffer(
                file.read((num_interned + 1) * OFFSETS_DTYPE.itemsize),
                dtype=OFFSETS_DTYPE,
            )
            if offsets.size != num_interned + 1:
                raise ConfigurationError(
                    f"coverage arena {path} ended mid-offsets"
                )
            if (
                offsets.size == 0
                or int(offsets[0]) != 0
                or int(offsets[-1]) != num_values
                or (offsets.size > 1 and bool(np.any(np.diff(offsets) < 0)))
            ):
                raise ConfigurationError(
                    f"coverage arena {path} has an inconsistent offsets column"
                )
            digest = _content_digest(values_digest, offsets)
            recorded = header.get("digest")
            if recorded is not None and digest != recorded:
                raise ConfigurationError(
                    f"coverage arena {path} is corrupted: content digest "
                    f"{digest} does not match the recorded {recorded}"
                )
            if expected_digest is not None and digest != expected_digest:
                raise ConfigurationError(
                    f"coverage arena {path} does not match its checkpoint "
                    f"reference: digest {digest} != expected {expected_digest} "
                    f"(the arena was modified after the checkpoint was taken)"
                )
        except BaseException:
            file.close()
            raise
        arena = cls(
            path,
            file,
            offsets=[int(o) for o in offsets],
            values_digest=values_digest,
            read_only=read_only,
        )
        arena._dirty = False
        return arena

    @staticmethod
    def _read_header(file, path: str) -> dict:
        file.seek(0)
        raw = file.read(HEADER_SIZE)
        if len(raw) < HEADER_SIZE:
            raise ConfigurationError(
                f"{path} is not a coverage arena (file shorter than its header)"
            )
        try:
            header = json.loads(raw.decode("utf-8").rstrip())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"{path} is not a coverage arena (unreadable header: {exc})"
            ) from exc
        if not isinstance(header, dict) or header.get("magic") != ARENA_MAGIC:
            raise ConfigurationError(f"{path} is not a coverage arena file")
        version = header.get("schema_version")
        if version != ARENA_SCHEMA_VERSION:
            raise ConfigurationError(
                f"coverage arena {path} has schema version {version!r}; this "
                f"build reads version {ARENA_SCHEMA_VERSION}"
            )
        if (
            header.get("values_dtype") != VALUES_DTYPE.str
            or header.get("offsets_dtype") != OFFSETS_DTYPE.str
        ):
            raise ConfigurationError(
                f"coverage arena {path} uses unsupported column dtypes "
                f"({header.get('values_dtype')}/{header.get('offsets_dtype')})"
            )
        return header

    def close(self) -> None:
        """Flush, close the file, and drop the arena's own memory map.

        Idempotent: calling it twice (or after garbage collection already ran
        a finalizer) is a no-op. Views handed out earlier keep their own
        reference to the memmap they were sliced from, so they stay readable;
        the arena merely stops pinning the mapping itself, which is what
        lets Windows-style strict-unlink filesystems delete the file once the
        last view dies. Appends and fresh slices raise after close. A
        :attr:`temporary` arena's file is unlinked.
        """
        file = self._file
        if file is not None and not file.closed:
            if self._dirty and not self._read_only:
                self.flush()
            file.close()
        # Release the mapping eagerly instead of waiting for GC: the open
        # mmap — not the closed file handle — is what blocks strict-unlink.
        self._values_map = None
        self._mapped_values = 0
        if self._temp_finalizer is not None:
            self._temp_finalizer()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (or the backing file is gone)."""
        return self._file is None or self._file.closed

    @property
    def read_only(self) -> bool:
        """True when attached without write access (multi-tenant mode)."""
        return self._read_only

    @property
    def temporary(self) -> bool:
        """True for an arena created without a path (a process-local file)."""
        return self._temp_finalizer is not None

    def reopen_read_only(self) -> "CoverageArena":
        """Flush and swap the writable handle for a read-only one, in place.

        The freeze point of a :class:`~repro.serving.TenantPool` build:
        after this call the columns are immutable and the arena can be
        shared across tenants with the same guarantees as a
        ``open(path, read_only=True)`` attach. Existing views stay valid —
        they reference the mapping, not the file handle. Returns ``self``.
        """
        if self._read_only:
            return self
        if self.closed:
            raise ConfigurationError(
                f"coverage arena {self.path} is closed; cannot reopen"
            )
        if self._dirty:
            self.flush()
        self._file.close()
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot reopen coverage arena {self.path} read-only: {exc}"
            ) from exc
        self._read_only = True
        self._dirty = False
        return self

    def detach(self) -> None:
        """Release the file descriptor and mapping, keeping slot metadata.

        The pre-fork half of the cross-process handoff: a supervisor that
        built and sealed the arena detaches before spawning workers, so no
        child ever inherits the parent's mapping — each worker calls
        :meth:`reattach` (a fresh ``open`` of the same path) in its own
        process. Only a read-only arena may detach; offsets, digest state,
        and the path survive, so :meth:`reattach` can verify it is looking
        at the same contents. Idempotent.
        """
        if self.closed:
            return
        if not self._read_only:
            raise ConfigurationError(
                f"coverage arena {self.path} is writable; seal it with "
                f"reopen_read_only() before detaching"
            )
        self._file.close()
        self._values_map = None
        self._mapped_values = 0

    def reattach(self) -> "CoverageArena":
        """Reopen the arena file by path with a fresh descriptor and mapping.

        The post-spawn half of the handoff: verifies the on-disk header still
        records the digest this arena object carries (a swapped or truncated
        file raises :class:`~repro.errors.ConfigurationError` instead of
        serving wrong coverage bytes), then attaches read-only. A no-op when
        already attached. Returns ``self``.
        """
        if not self.closed:
            return self
        try:
            file = open(self.path, "rb")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot reattach coverage arena {self.path}: {exc}"
            ) from exc
        try:
            header = self._read_header(file, self.path)
            recorded = header.get("digest")
            if recorded is not None and recorded != self.digest:
                raise ConfigurationError(
                    f"coverage arena {self.path} changed on disk since detach: "
                    f"digest {recorded} != expected {self.digest}"
                )
            if int(header.get("num_interned", -1)) != self.num_interned:
                raise ConfigurationError(
                    f"coverage arena {self.path} records "
                    f"{header.get('num_interned')} slots on disk but this "
                    f"handle expects {self.num_interned}"
                )
        except BaseException:
            file.close()
            raise
        self._file = file
        self._read_only = True
        self._dirty = False
        self._values_map = None
        self._mapped_values = 0
        return self

    # -------------------------------------------------------------- accessors
    @property
    def num_interned(self) -> int:
        """Number of slots appended so far."""
        return len(self._offsets) - 1

    @property
    def num_values(self) -> int:
        """Total int32 values across all slots."""
        return self._offsets[-1]

    @property
    def values_bytes(self) -> int:
        """On-disk size of the values column."""
        return self.num_values * VALUES_DTYPE.itemsize

    def values_column(self) -> np.ndarray:
        """The whole values column (zero-copy read-only mmap when non-empty)."""
        if not self.num_values:
            return np.empty(0, dtype=VALUES_DTYPE)
        return self._ensure_map(self.num_values)[: self.num_values]

    def offsets_array(self) -> np.ndarray:
        """The offsets column as an ``int64`` array (copy, cheap)."""
        return np.asarray(self._offsets, dtype=np.int64)

    @property
    def digest(self) -> str:
        """Content digest over the current values + offsets columns."""
        return _content_digest(self._values_digest, self.offsets_array())

    def slot_length(self, slot: int) -> int:
        """Number of ids in ``slot``."""
        return self._offsets[slot + 1] - self._offsets[slot]

    def values_slice(self, slot: int) -> np.ndarray:
        """Zero-copy read-only mmap slice for ``slot``'s sorted id array."""
        if not 0 <= slot < self.num_interned:
            raise ConfigurationError(
                f"coverage arena has no slot {slot} (num_interned="
                f"{self.num_interned})"
            )
        start, stop = self._offsets[slot], self._offsets[slot + 1]
        if start == stop:
            empty = np.empty(0, dtype=np.int32)
            empty.setflags(write=False)
            return empty
        values = self._ensure_map(stop)
        return values[start:stop]

    def _ensure_map(self, upto: int) -> np.ndarray:
        """A read-only memmap covering at least the first ``upto`` values.

        The map only ever grows; slices handed out earlier keep their own
        reference to the memmap they were cut from, so remapping after an
        append never invalidates existing views.
        """
        if self._values_map is None or self._mapped_values < upto:
            if self.closed:
                raise ConfigurationError(
                    f"coverage arena {self.path} is closed; cannot map values"
                )
            if not self._read_only:
                self._file.flush()
            count = self.num_values
            self._values_map = np.memmap(
                self.path,
                dtype=VALUES_DTYPE,
                mode="r",
                offset=HEADER_SIZE,
                shape=(count,),
            )
            self._values_map.flags.writeable = False
            self._mapped_values = count
        return self._values_map

    # ---------------------------------------------------------------- appends
    def append(self, ids: np.ndarray) -> int:
        """Append one sorted ``int32`` id array; returns its slot index."""
        return self.append_many([ids])[0]

    def append_many(self, arrays: Sequence[np.ndarray]) -> List[int]:
        """Append several id arrays with one values write; returns their slots.

        This is the column-concatenation primitive: the arrays become one
        contiguous values segment, and the offsets column is extended by
        rebasing each array's extent onto the current ``num_values``. The
        batch self-commits (footer + header are rewritten before returning),
        so the file is consistent between any two appends; only a crash
        *inside* this call corrupts the arena, and that corruption is
        detected loudly by the next :meth:`open`.
        """
        if not arrays:
            return []
        if self._read_only:
            raise ConfigurationError(
                f"coverage arena {self.path} is attached read-only; tenant "
                f"interns belong in an OverlayCoverageStore, not the shared "
                f"columns"
            )
        if self.closed:
            raise ConfigurationError(
                f"coverage arena {self.path} is closed; cannot append"
            )
        slots: List[int] = []
        chunks: List[bytes] = []
        for array in arrays:
            array = np.ascontiguousarray(array, dtype=VALUES_DTYPE)
            slots.append(len(self._offsets) - 1)
            self._offsets.append(self._offsets[-1] + int(array.size))
            if array.size:
                chunks.append(array.tobytes())
        payload = b"".join(chunks)
        if payload:
            self._file.seek(HEADER_SIZE + (self._offsets[slots[0]]) * VALUES_DTYPE.itemsize)
            self._file.write(payload)
            self._values_digest.update(payload)
        self._dirty = True
        self.flush()
        return slots

    # ------------------------------------------------------------ persistence
    def flush(self) -> None:
        """Write the offsets footer and commit the header (no-op when clean).

        Footer first, then the header — the commit point — so an interrupted
        flush is detected as corruption by :meth:`open` instead of being
        read as a half-updated state.
        """
        if self._file is None or self._file.closed or not self._dirty:
            return
        offsets = self.offsets_array()
        self._file.seek(HEADER_SIZE + self.values_bytes)
        self._file.write(offsets.astype(OFFSETS_DTYPE, copy=False).tobytes())
        self._file.flush()
        header = {
            "magic": ARENA_MAGIC,
            "schema_version": ARENA_SCHEMA_VERSION,
            "values_dtype": VALUES_DTYPE.str,
            "offsets_dtype": OFFSETS_DTYPE.str,
            "num_interned": self.num_interned,
            "num_values": self.num_values,
            "digest": _content_digest(self._values_digest, offsets),
        }
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        if len(encoded) > HEADER_SIZE:
            raise ConfigurationError(
                "coverage arena header exceeds its fixed size"
            )
        self._file.seek(0)
        self._file.write(encoded.ljust(HEADER_SIZE, b" "))
        self._file.flush()
        self._dirty = False

    def __repr__(self) -> str:
        return (
            f"CoverageArena(path={self.path!r}, slots={self.num_interned}, "
            f"values={self.num_values})"
        )


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
