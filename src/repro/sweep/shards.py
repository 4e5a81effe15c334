"""Sharded, columnar sweep results for out-of-core grids.

A million-point decision surface does not fit comfortably in one
in-memory :class:`~repro.sweep.result.SweepResult`, and row-by-row
JSON/CSV serialisation is orders of magnitude too slow at that scale.
This module stores sweep output as a directory of *shards* — plain
``.npz`` files holding one numpy array per column for a contiguous
block of points — plus a small ``manifest.json`` describing the layout:

- :class:`ShardWriter` — accepts column blocks in enumeration order and
  streams them to ``shard-NNNNN.npz`` files of a fixed row count, so
  peak memory is bounded by the shard size, never the grid size
  (``compress=True`` writes ``np.savez_compressed`` shards for
  cold-storage surveys; reads stay format-transparent),
- :class:`ShardReader` — iterates shard blocks (optionally a column
  subset; ``.npz`` members load lazily, so scanning two columns of a
  wide table never touches the rest),
- :class:`ShardedSweepResult` — a lazy, read-only view over a shard
  directory with the :class:`SweepResult` accessors downstream analysis
  needs (``column``, ``crossover``, ``iter_blocks``), concatenating
  columns on demand and never materialising the full table unless asked
  (:meth:`ShardedSweepResult.to_result`).

Numeric and boolean columns are stored as native numpy arrays (no
per-row Python objects anywhere on the write path); object columns
(e.g. a zipped ``facility`` label) are stored as JSON-encoded string
arrays and decoded on read, so ``from_shards(to_shards(r))`` round-trips
exactly.

Writes are crash-safe *and recoverable*: every shard and the manifest
land via a temporary file plus an atomic :func:`os.replace`, so a sweep
killed mid-write never leaves a torn ``.npz`` or a half-written
manifest under the final name — and before the manifest lands, an
append-only ``journal.jsonl`` records each committed shard (row range,
row count, sha256) the moment it is durable.  A killed ``out=`` sweep
therefore leaves a journal describing exactly which prefix of the grid
is safely on disk; :meth:`ShardWriter.resume` checksum-verifies that
prefix (tolerating a torn final journal line and shards whose bytes no
longer match their journaled hash) and hands back a writer positioned
to continue, producing a directory byte-identical to an uninterrupted
run.  The manifest itself carries per-shard sha256 checksums (manifest
version 2; version-1 directories remain readable), which is what
``repro verify`` audits.  Readers verify the manifest against the files
actually on disk and surface an actionable error naming the bad file —
never a raw numpy/zipfile traceback — when a directory was corrupted by
other means.

For deterministic fault testing, :class:`ShardWriter` and
:class:`ShardReader` accept a ``chaos`` hook object (see
:mod:`repro.testing.chaos`) consulted at each commit stage, journal
append and shard read; production runs pass ``None`` and pay nothing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import queue
import threading
import zipfile
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ValidationError
from .result import SweepResult, _first_crossings, _group_order, _run_heads

__all__ = [
    "MANIFEST_NAME",
    "JOURNAL_NAME",
    "ShardWriter",
    "ShardReader",
    "ShardedSweepResult",
    "open_shards",
]

MANIFEST_NAME = "manifest.json"

#: Crash journal written alongside the shards: one JSON line per
#: committed shard, appended *before* the manifest lands.
JOURNAL_NAME = "journal.jsonl"

_MANIFEST_VERSION = 2

#: Manifest versions this reader understands (v1 predates per-shard
#: checksums; v2 adds ``sha256`` per shard entry).
_SUPPORTED_MANIFEST_VERSIONS = (1, 2)

_JOURNAL_VERSION = 1

#: numpy dtype kinds stored natively (everything else goes through JSON).
_NATIVE_KINDS = "fiub"


def _json_cell(value: Any) -> Any:
    """One object-column cell reduced to a JSON-safe value (lossless)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ValidationError(
        "shard columns must hold numbers, booleans, strings or None; "
        f"got {type(value).__name__}: {value!r}"
    )


def _encode_column(name: str, arr: np.ndarray) -> Tuple[np.ndarray, str]:
    """Encode one column for ``.npz`` storage, returning (array, kind)."""
    if arr.dtype.kind in _NATIVE_KINDS:
        return arr, "numeric"
    encoded = np.array([json.dumps(_json_cell(v)) for v in arr], dtype=str)
    return encoded, "json"


def _decode_column(arr: np.ndarray, kind: str) -> np.ndarray:
    """Invert :func:`_encode_column`."""
    if kind == "numeric":
        return arr
    out = np.empty(len(arr), dtype=object)
    out[:] = [json.loads(str(v)) for v in arr]
    return out


def _stored_member_offsets(
    path: pathlib.Path,
) -> Optional[Dict[str, Tuple[int, int]]]:
    """Member name -> ``(data_offset, data_size)`` for every entry of an
    *uncompressed* zip (``np.savez`` writes ``ZIP_STORED`` members), or
    ``None`` when any member is compressed or the local headers do not
    parse — callers then fall back to ``np.load``.

    The data offset comes from each member's *local* file header (the
    central directory's ``header_offset`` plus the 30-byte fixed header
    plus the local name/extra lengths, which legitimately differ from
    the central directory's) — this is what lets a reader map the raw
    ``.npy`` bytes straight out of the archive without inflating or
    CRC-scanning them.
    """
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
        if any(i.compress_type != zipfile.ZIP_STORED for i in infos):
            return None
        offsets: Dict[str, Tuple[int, int]] = {}
        with open(path, "rb") as fh:
            for info in infos:
                fh.seek(info.header_offset)
                header = fh.read(30)
                if len(header) != 30 or header[:4] != b"PK\x03\x04":
                    return None
                name_len = int.from_bytes(header[26:28], "little")
                extra_len = int.from_bytes(header[28:30], "little")
                start = info.header_offset + 30 + name_len + extra_len
                offsets[info.filename] = (start, info.file_size)
    return offsets


def _npy_header(fh: Any) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of the ``.npy`` header at
    ``fh``'s position, leaving ``fh`` at the first data byte."""
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(fh)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(fh)
    raise ValueError(f"unsupported .npy format version {version}")


def _mmap_npy_member(
    mm: np.memmap, start: int, size: int
) -> np.ndarray:
    """One ``.npy`` member of a memory-mapped uncompressed ``.npz`` as a
    zero-copy (read-only) array view over the mapping."""
    header = io.BytesIO(bytes(mm[start : start + min(size, 4096)]))
    shape, fortran, dtype = _npy_header(header)
    count = int(np.prod(shape))
    arr = np.frombuffer(mm, dtype=dtype, count=count, offset=start + header.tell())
    return arr.reshape(shape, order="F" if fortran else "C")


def _sha256_file(path: pathlib.Path) -> str:
    """Hex sha256 of a file's bytes, streamed in 1 MiB chunks (the file
    was just written, so the pages are cache-hot and this is cheap)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_journal_lines(
    path: pathlib.Path,
) -> Tuple[Optional[Dict[str, Any]], Optional[List[Dict[str, Any]]], List[Dict[str, Any]]]:
    """Parse a crash journal into ``(header, schema_columns, shard_entries)``.

    A torn *final* line (the classic residue of a crash mid-append) is
    silently dropped — everything before it is trusted.  A line that
    fails to parse anywhere *else* means the journal was corrupted by
    other means and raises an actionable :class:`ValidationError`.
    """
    raw_lines = path.read_text().splitlines()
    header: Optional[Dict[str, Any]] = None
    schema: Optional[List[Dict[str, Any]]] = None
    entries: List[Dict[str, Any]] = []
    for lineno, line in enumerate(raw_lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("journal records must be JSON objects")
        except ValueError as exc:
            if lineno == len(raw_lines) - 1:
                break  # torn tail from a crash mid-append: drop it
            raise ValidationError(
                f"shard journal {path} has a corrupt record on line "
                f"{lineno + 1} ({exc}); the journal cannot be trusted — "
                "delete the directory and rerun the sweep"
            ) from exc
        kind = record.get("type")
        if kind == "header":
            header = record
        elif kind == "schema":
            schema = record.get("columns")
        elif kind == "shard":
            entries.append(record)
        # unknown record types are skipped (forward compatibility)
    return header, schema, entries


def _as_block_column(name: str, values: Any) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(
            f"shard column {name!r} must be 1-D, got shape {arr.shape}"
        )
    if arr.dtype.kind in _NATIVE_KINDS:
        return arr
    out = np.empty(len(arr), dtype=object)
    out[:] = list(values)
    return out


class ShardWriter:
    """Stream column blocks into fixed-size ``.npz`` shards.

    Blocks (``{column: 1-D array}``) arrive in enumeration order via
    :meth:`append`; whenever ``shard_size`` rows have accumulated a
    shard file is written and the buffer drained, so memory stays
    O(shard_size) regardless of how many points flow through.  The
    manifest is written on :meth:`close` (or context-manager exit).

    With ``integrity=True`` (the default) every committed shard is
    sha256-hashed, the hash lands in both an append-only crash journal
    (``journal.jsonl``, flushed before the next block is accepted) and
    the final manifest, and a killed run can be continued with
    :meth:`resume`.  ``integrity=False`` skips hashing and journalling
    entirely — the pre-journal write path, kept for benchmarks and for
    workloads that prefer raw throughput over resumability.

    ``chaos`` is a deterministic fault-injection hook (see
    :mod:`repro.testing.chaos`) consulted at each commit stage; leave it
    ``None`` outside tests.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        shard_size: int = 100_000,
        axis_names: Sequence[str] = (),
        compress: bool = False,
        integrity: bool = True,
        chaos: Optional[Any] = None,
    ) -> None:
        if shard_size < 1:
            raise ValidationError(f"shard_size must be >= 1, got {shard_size!r}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_size = int(shard_size)
        self.compress = bool(compress)
        self.integrity = bool(integrity)
        self.chaos = chaos
        self.axis_names: Tuple[str, ...] = tuple(axis_names)
        self._names: Optional[List[str]] = None
        self._kinds: Dict[str, str] = {}
        self._buffer: List[Dict[str, np.ndarray]] = []
        self._buffered = 0
        self._shards: List[Dict[str, Any]] = []
        self.n_rows = 0
        self._closed = False
        self._journal: Optional[Any] = None
        # Hashing every shard serially would tax the write path (sha256
        # runs at ~1 GB/s, comparable to the write itself), so in
        # production the digest + journal line for a committed shard are
        # computed on a small worker thread, overlapping the producer's
        # next block (hashlib releases the GIL on large updates).  Crash
        # semantics are unchanged — a shard whose journal line had not
        # landed yet is simply rewritten on resume, the same window a
        # post-commit kill already exercises.  With a chaos hook armed
        # the writer stays fully synchronous, so fault-injection tests
        # see deterministic commit/journal ordering.
        self._async = self.integrity and chaos is None
        self._integrity_errors: List[BaseException] = []
        self._integrity_queue: Optional["queue.Queue"] = None
        self._integrity_thread: Optional[threading.Thread] = None
        if self.integrity:
            self._open_journal(truncate=True)
            self._journal_write(
                {
                    "type": "header",
                    "journal": _JOURNAL_VERSION,
                    "shard_size": self.shard_size,
                    "axis_names": list(self.axis_names),
                    "compress": self.compress,
                }
            )
        if self._async:
            self._integrity_queue = queue.Queue()
            self._integrity_thread = threading.Thread(
                target=self._integrity_worker,
                name="shard-integrity",
                daemon=True,
            )
            self._integrity_thread.start()

    # ------------------------------------------------------------------
    # journal plumbing
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> pathlib.Path:
        """Where this writer's crash journal lives (whether or not one
        is being written — ``integrity=False`` writers never create it)."""
        return self.directory / JOURNAL_NAME

    def _open_journal(self, truncate: bool) -> None:
        mode = "w" if truncate else "a"
        self._journal = open(self.journal_path, mode, encoding="utf-8")

    def _journal_write(self, record: Dict[str, Any]) -> None:
        """Append one record and flush it to the OS, so a killed process
        never loses an already-reported line (only ever tears the last)."""
        assert self._journal is not None
        line = json.dumps(record, sort_keys=True) + "\n"
        if self.chaos is not None and record.get("type") == "shard":
            line = self.chaos.on_journal_line(int(record["index"]), line)
        self._journal.write(line)
        self._journal.flush()

    def _integrity_worker(self) -> None:
        """Drain queued integrity work: hash a committed shard, fill its
        manifest entry, journal it — in commit order (FIFO queue)."""
        assert self._integrity_queue is not None
        while True:
            item = self._integrity_queue.get()
            if item is None:
                return
            try:
                kind = item[0]
                if kind == "hash":
                    _, index, path, entry, row_start = item
                    digest = _sha256_file(path)
                    entry["sha256"] = digest
                    self._journal_write(
                        {
                            "type": "shard",
                            "index": index,
                            "file": entry["file"],
                            "row_start": row_start,
                            "row_stop": row_start + entry["n_rows"],
                            "n_rows": entry["n_rows"],
                            "sha256": digest,
                        }
                    )
                else:  # ("line", record) — e.g. the schema record
                    self._journal_write(item[1])
            except BaseException as exc:  # surfaced at the next append
                self._integrity_errors.append(exc)

    def _drain_integrity(self) -> None:
        """Stop the integrity worker (if any) and re-raise its first
        failure; after this every manifest entry carries its sha256."""
        if self._integrity_thread is not None:
            assert self._integrity_queue is not None
            self._integrity_queue.put(None)
            self._integrity_thread.join()
            self._integrity_thread = None
        if self._integrity_errors:
            raise self._integrity_errors[0]

    # ------------------------------------------------------------------
    def append(self, block: Dict[str, Any]) -> None:
        """Buffer one column block, flushing full shards to disk."""
        if self._closed:
            raise ValidationError("ShardWriter is closed")
        if self._integrity_errors:
            raise self._integrity_errors[0]
        if not block:
            raise ValidationError("shard blocks need at least one column")
        cols = {name: _as_block_column(name, vals) for name, vals in block.items()}
        lengths = {len(v) for v in cols.values()}
        if len(lengths) != 1:
            raise ValidationError(
                f"shard block columns must share one length, got {sorted(lengths)}"
            )
        if self._names is None:
            self._names = list(cols)
            missing = [a for a in self.axis_names if a not in cols]
            if missing:
                raise ValidationError(
                    f"axis columns missing from shard block: {missing}"
                )
        elif set(cols) != set(self._names):
            raise ValidationError(
                "shard blocks must share one column set; got "
                f"{sorted(cols)} vs {sorted(self._names)}"
            )
        n = lengths.pop()
        if n == 0:
            return
        self._buffer.append(cols)
        self._buffered += n
        self.n_rows += n
        while self._buffered >= self.shard_size:
            self._flush(self.shard_size)

    def _flush(self, n: int) -> None:
        """Write the first ``n`` buffered rows as one shard file."""
        assert self._names is not None
        merged: Dict[str, np.ndarray] = {}
        if len(self._buffer) == 1:
            whole = self._buffer[0]
        else:
            whole = {
                name: np.concatenate([b[name] for b in self._buffer])
                for name in self._names
            }
        for name in self._names:
            merged[name] = whole[name][:n]
        rest = {name: whole[name][n:] for name in self._names}
        self._buffer = [rest] if len(next(iter(rest.values()))) else []
        self._buffered -= n

        payload: Dict[str, np.ndarray] = {}
        for name in self._names:
            encoded, kind = _encode_column(name, merged[name])
            prior = self._kinds.setdefault(name, kind)
            if prior != kind:
                raise ValidationError(
                    f"shard column {name!r} changed kind between blocks "
                    f"({prior} -> {kind})"
                )
            payload[name] = encoded
        index = len(self._shards)
        fname = f"shard-{index:05d}.npz"
        save = np.savez_compressed if self.compress else np.savez
        # Crash-safe write: savez into a temp name (which must itself
        # end in ``.npz`` or numpy appends the suffix), then atomically
        # rename into place — a sweep killed mid-write leaves at worst a
        # ``.tmp-*`` orphan, never a torn shard under the final name.
        tmp = self.directory / f".tmp-{fname}"
        final = self.directory / fname
        save(tmp, **payload)
        digest = (
            _sha256_file(tmp) if (self.integrity and not self._async) else None
        )
        if self.chaos is not None:
            self.chaos.on_shard("pre-commit", index, str(tmp))
        os.replace(tmp, final)
        if self.chaos is not None:
            self.chaos.on_shard("post-commit", index, str(final))
        entry: Dict[str, Any] = {"file": fname, "n_rows": n}
        if digest is not None:
            entry["sha256"] = digest
        row_start = sum(int(s["n_rows"]) for s in self._shards)
        schema_record: Optional[Dict[str, Any]] = None
        if self._journal is not None and index == 0:
            # Column names/kinds become known at the first flush;
            # record them so a resume that never appends new data
            # (the run died after the last shard) can still close.
            schema_record = {
                "type": "schema",
                "columns": [
                    {"name": c, "kind": self._kinds[c]} for c in self._names
                ],
            }
        if self._async:
            assert self._integrity_queue is not None
            if schema_record is not None:
                self._integrity_queue.put(("line", schema_record))
            self._integrity_queue.put(
                ("hash", index, final, entry, row_start)
            )
        elif self._journal is not None:
            if schema_record is not None:
                self._journal_write(schema_record)
            self._journal_write(
                {
                    "type": "shard",
                    "index": index,
                    "file": fname,
                    "row_start": row_start,
                    "row_stop": row_start + n,
                    "n_rows": n,
                    "sha256": digest,
                }
            )
        if self.chaos is not None:
            self.chaos.on_shard("post-journal", index, str(final))
        self._shards.append(entry)

    def close(self) -> pathlib.Path:
        """Flush the tail shard and write the manifest; returns its path.

        A writer that never saw a row closes cleanly too: a zero-point
        sweep writes a valid empty manifest (no shards, no columns) that
        :class:`ShardReader` and ``repro verify`` accept — an empty grid
        is an answer, not a crash.
        """
        if self._closed:
            return self.directory / MANIFEST_NAME
        if self._buffered:
            self._flush(self._buffered)
        # All outstanding hashes and journal lines must land before the
        # manifest certifies them (and any worker failure must surface
        # instead of a manifest with holes).
        self._drain_integrity()
        manifest = {
            "version": _MANIFEST_VERSION,
            "axis_names": list(self.axis_names),
            "n_rows": self.n_rows,
            "shard_size": self.shard_size,
            "compress": self.compress,
            "columns": [
                {"name": n, "kind": self._kinds[n]}
                for n in (self._names or [])
            ],
            "shards": self._shards,
        }
        path = self.directory / MANIFEST_NAME
        # Manifest last, atomically: its presence certifies that every
        # shard it lists is complete on disk.
        tmp = self.directory / f".tmp-{MANIFEST_NAME}"
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp, path)
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        self._closed = True
        return path

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        directory: Union[str, pathlib.Path],
        shard_size: int = 100_000,
        axis_names: Sequence[str] = (),
        compress: bool = False,
        chaos: Optional[Any] = None,
    ) -> Tuple["ShardWriter", int]:
        """Reopen a crashed sweep directory for continuation.

        Reads the crash journal, checksum-verifies every journaled
        shard in order, and returns ``(writer, completed_rows)`` — a
        writer whose internal state matches the verified prefix, so the
        caller restarts enumeration at row ``completed_rows`` and the
        finished directory is byte-identical to an uninterrupted run.

        Recovery is conservative: verification stops at the first
        journaled shard that is missing, out of sequence or fails its
        checksum (a *stale* journal entry — e.g. the shard file itself
        was torn after the journal line landed), and everything from
        that point is rewritten.  A torn final journal line is dropped;
        unjournaled shard files, ``.tmp-*`` orphans and any stale
        manifest are deleted.  The parameters must match the original
        run's (the journal header records them) — resuming with a
        different shard size or compression would silently produce a
        frankenstein directory, so that raises instead.

        An empty or journal-less directory resumes from row 0 (a plain
        fresh writer), so ``resume=True`` is safe to pass on the first
        run too.
        """
        directory = pathlib.Path(directory)
        journal_path = directory / JOURNAL_NAME
        schema: Optional[List[Dict[str, Any]]] = None
        entries: List[Dict[str, Any]] = []
        if journal_path.exists():
            header, schema, entries = _parse_journal_lines(journal_path)
            if header is None:
                # The crash tore the very first line: nothing in this
                # journal is trustworthy, start over.
                schema, entries = None, []
            else:
                mismatches = []
                if int(header.get("shard_size", shard_size)) != int(shard_size):
                    mismatches.append(
                        f"shard_size {header.get('shard_size')} != {shard_size}"
                    )
                if bool(header.get("compress", compress)) != bool(compress):
                    mismatches.append(
                        f"compress {header.get('compress')} != {compress}"
                    )
                if tuple(header.get("axis_names", axis_names)) != tuple(axis_names):
                    mismatches.append(
                        f"axis_names {header.get('axis_names')} != {list(axis_names)}"
                    )
                if mismatches:
                    raise ValidationError(
                        f"cannot resume {directory}: the journal was written "
                        f"with different parameters ({'; '.join(mismatches)}); "
                        "rerun with the original parameters or start fresh "
                        "in a new directory"
                    )
        verified: List[Dict[str, Any]] = []
        for i, rec in enumerate(entries):
            try:
                index = int(rec["index"])
                fname = str(rec["file"])
                n_rows = int(rec["n_rows"])
                digest = rec["sha256"]
            except (KeyError, TypeError, ValueError):
                break  # malformed entry: rewrite from here
            if index != i or n_rows < 1:
                break  # out-of-sequence journal: rewrite from here
            shard_path = directory / fname
            if not shard_path.exists():
                break  # journaled but gone: rewrite from here
            if digest is not None and _sha256_file(shard_path) != digest:
                break  # stale journal / torn shard: rewrite from here
            verified.append(
                {"index": index, "file": fname, "n_rows": n_rows, "sha256": digest}
            )
        if verified and schema is None:  # pragma: no cover - defensive
            verified = []
        # Drop residue the continued run will not regenerate under the
        # same name: tmp orphans, unverified shard files, and any stale
        # manifest (close() rewrites it last, as usual).
        keep = {rec["file"] for rec in verified}
        if directory.exists():
            for path in directory.glob(".tmp-*"):
                path.unlink()
            for path in directory.glob("shard-*.npz"):
                if path.name not in keep:
                    path.unlink()
            manifest = directory / MANIFEST_NAME
            if manifest.exists():
                manifest.unlink()
        writer = cls(
            directory,
            shard_size=shard_size,
            axis_names=axis_names,
            compress=compress,
            integrity=True,
            chaos=chaos,
        )
        # __init__ rewrote the journal with a fresh header; replay the
        # verified prefix into it (and into the writer's state) without
        # chaos interference, then re-arm the caller's chaos hooks.
        # (Replay writes the journal directly; in async-integrity mode
        # the worker's queue is still empty here, so ordering holds.)
        writer.chaos = None
        if verified:
            assert schema is not None
            writer._names = [c["name"] for c in schema]
            writer._kinds = {c["name"]: c["kind"] for c in schema}
            writer._journal_write({"type": "schema", "columns": schema})
            row_start = 0
            for rec in verified:
                writer._journal_write(
                    {
                        "type": "shard",
                        "index": rec["index"],
                        "file": rec["file"],
                        "row_start": row_start,
                        "row_stop": row_start + rec["n_rows"],
                        "n_rows": rec["n_rows"],
                        "sha256": rec["sha256"],
                    }
                )
                entry: Dict[str, Any] = {
                    "file": rec["file"],
                    "n_rows": rec["n_rows"],
                }
                if rec["sha256"] is not None:
                    entry["sha256"] = rec["sha256"]
                writer._shards.append(entry)
                row_start += rec["n_rows"]
            writer.n_rows = row_start
        writer.chaos = chaos
        return writer, writer.n_rows


def _resolve_manifest(source: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(source)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise ValidationError(f"no shard manifest at {path}")
    return path


class ShardReader:
    """Read shard blocks back in enumeration order.

    Opening a directory validates the manifest against what is actually
    on disk: a manifest that fails to parse, lists shard files that are
    missing, or whose per-shard row counts disagree with its total
    (a stale manifest left next to rewritten shards) raises a
    :class:`~repro.errors.ValidationError` naming the offending file,
    so a crashed or tampered sweep surfaces as an actionable message
    instead of a numpy traceback deep inside analysis.

    ``mmap`` (default ``None`` = auto) controls the read path for
    *uncompressed* shards: ``np.savez`` stores members ``ZIP_STORED``,
    so each numeric column's raw ``.npy`` bytes can be memory-mapped
    straight out of the archive — no zlib, no zipfile CRC scan, no
    copy — which is what makes repeated incremental analysis scans of
    a million-point directory cheap.  Mapped columns are **read-only
    views** over the file; compressed shards and JSON-encoded object
    columns transparently fall back to ``np.load``, as does the whole
    reader with ``mmap=False`` (which also makes every returned array
    an owned, writable copy, the historical behaviour).
    """

    def __init__(
        self,
        source: Union[str, pathlib.Path],
        mmap: Optional[bool] = None,
        chaos: Optional[Any] = None,
    ) -> None:
        self.mmap = True if mmap is None else bool(mmap)
        self.chaos = chaos
        #: Per-shard member-offset tables (``None`` where the shard is
        #: not mappable), parsed lazily once per shard per reader.
        self._member_offsets: Dict[int, Optional[Dict[str, Tuple[int, int]]]] = {}
        self.manifest_path = _resolve_manifest(source)
        self.directory = self.manifest_path.parent
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"shard manifest {self.manifest_path} is not valid JSON "
                f"({exc}); the sweep likely crashed mid-write — delete the "
                "directory and rerun the sweep"
            ) from exc
        if manifest.get("version") not in _SUPPORTED_MANIFEST_VERSIONS:
            raise ValidationError(
                f"unsupported shard manifest version {manifest.get('version')!r}"
                f" (supported: {list(_SUPPORTED_MANIFEST_VERSIONS)})"
            )
        self.manifest_version: int = int(manifest["version"])
        missing_keys = [
            k
            for k in ("axis_names", "n_rows", "shard_size", "columns", "shards")
            if k not in manifest
        ]
        if missing_keys:
            raise ValidationError(
                f"shard manifest {self.manifest_path} is missing keys "
                f"{missing_keys}; the sweep likely crashed mid-write — "
                "delete the directory and rerun the sweep"
            )
        self.axis_names: Tuple[str, ...] = tuple(manifest["axis_names"])
        self.n_rows: int = int(manifest["n_rows"])
        self.shard_size: int = int(manifest["shard_size"])
        # Reads are format-transparent (np.load handles both layouts);
        # the flag is surfaced for tooling/summaries.
        self.compress: bool = bool(manifest.get("compress", False))
        self.column_kinds: Dict[str, str] = {
            c["name"]: c["kind"] for c in manifest["columns"]
        }
        self.column_names: Tuple[str, ...] = tuple(self.column_kinds)
        self.shards: List[Dict[str, Any]] = list(manifest["shards"])
        missing_files = [
            s["file"]
            for s in self.shards
            if not (self.directory / s["file"]).exists()
        ]
        if missing_files:
            raise ValidationError(
                f"shard manifest {self.manifest_path} lists shard files "
                f"that are missing on disk: {missing_files}; the directory "
                "is incomplete (crashed or partially copied sweep) — "
                "rerun the sweep to regenerate it"
            )
        listed = sum(int(s["n_rows"]) for s in self.shards)
        if listed != self.n_rows:
            raise ValidationError(
                f"shard manifest {self.manifest_path} is stale: its shards "
                f"sum to {listed} rows but it claims {self.n_rows}; "
                "delete the directory and rerun the sweep"
            )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def _select(self, columns: Optional[Sequence[str]]) -> List[str]:
        if columns is None:
            return list(self.column_names)
        unknown = [c for c in columns if c not in self.column_kinds]
        if unknown:
            raise ValidationError(
                f"unknown shard columns {unknown}; have {list(self.column_names)}"
            )
        return list(columns)

    def read_shard(
        self, index: int, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        """One shard as a ``{column: array}`` block (optionally a subset
        of columns; untouched columns are never loaded)."""
        if not 0 <= index < self.n_shards:
            raise ValidationError(
                f"shard index {index} out of range [0, {self.n_shards})"
            )
        names = self._select(columns)
        path = self.directory / self.shards[index]["file"]
        # A torn/truncated .npz (e.g. from a copy that died mid-file)
        # surfaces from np.load — or from the mmap offset/header parse —
        # as a zipfile/OS error; translate it into an actionable message
        # naming the bad file instead of letting the raw traceback
        # escape into analysis code.  The chaos seam sits inside the
        # same translation, so injected transient OSErrors surface to
        # callers exactly like real ones (a ValidationError whose cause
        # is the OSError — what the analysis-layer retry predicate keys
        # on).
        try:
            if self.chaos is not None:
                self.chaos.on_read(str(path))
            out: Dict[str, np.ndarray] = {}
            offsets = self._stored_offsets(index, path)
            mapped = (
                np.memmap(path, dtype=np.uint8, mode="r")
                if offsets is not None
                else None
            )
            npz = None
            try:
                for name in names:
                    member = name + ".npy"
                    if (
                        mapped is not None
                        and self.column_kinds[name] == "numeric"
                        and member in offsets
                    ):
                        out[name] = _mmap_npy_member(mapped, *offsets[member])
                        continue
                    if npz is None:
                        npz = np.load(path, allow_pickle=False)
                    try:
                        raw = npz[name]
                    except KeyError as exc:
                        raise ValidationError(
                            f"shard file {path} is missing column {name!r} "
                            "promised by the manifest; the shard is corrupt "
                            "or from a different sweep — rerun the sweep"
                        ) from exc
                    out[name] = _decode_column(raw, self.column_kinds[name])
            finally:
                if npz is not None:
                    npz.close()
            return out
        except ValidationError:
            raise  # already actionable (ValidationError is a ValueError)
        except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
            raise ValidationError(
                f"shard file {path} is corrupt or truncated ({exc}); the "
                "sweep likely crashed or the file was partially copied — "
                "rerun the sweep to regenerate it"
            ) from exc

    def _stored_offsets(
        self, index: int, path: pathlib.Path
    ) -> Optional[Dict[str, Tuple[int, int]]]:
        """The shard's mappable-member offsets, or ``None`` when the
        mmap fast path does not apply (disabled, compressed shards, or
        unparseable local headers); parsed once per shard per reader."""
        if not self.mmap or self.compress:
            return None
        if index not in self._member_offsets:
            self._member_offsets[index] = _stored_member_offsets(path)
        return self._member_offsets[index]

    def iter_blocks(
        self, columns: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Iterate all shards in order as column blocks."""
        for i in range(self.n_shards):
            yield self.read_shard(i, columns=columns)


class ShardedSweepResult:
    """Lazy sweep-table view over a shard directory.

    Offers the accessors downstream analysis uses on an in-memory
    :class:`~repro.sweep.result.SweepResult` — ``column`` (concatenated
    on demand, one column at a time), ``crossover`` (a streaming
    per-block scan), ``iter_blocks`` — without ever holding the whole
    table.  :meth:`to_result` materialises everything when you really
    want the full table in memory.
    """

    def __init__(
        self,
        source: Union[str, pathlib.Path, ShardReader],
        mmap: Optional[bool] = None,
    ) -> None:
        self.reader = (
            source
            if isinstance(source, ShardReader)
            else ShardReader(source, mmap=mmap)
        )

    # ------------------------------------------------------------------
    # SweepResult-compatible surface
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> Tuple[str, ...]:
        return self.reader.axis_names

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self.reader.column_names

    @property
    def metric_names(self) -> Tuple[str, ...]:
        return tuple(
            n for n in self.reader.column_names if n not in self.reader.axis_names
        )

    @property
    def n_rows(self) -> int:
        return self.reader.n_rows

    @property
    def n_shards(self) -> int:
        return self.reader.n_shards

    @property
    def directory(self) -> pathlib.Path:
        return self.reader.directory

    def __len__(self) -> int:
        return self.n_rows

    def iter_blocks(
        self, columns: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, np.ndarray]]:
        """Shard-sized column blocks in enumeration order."""
        return self.reader.iter_blocks(columns=columns)

    def column(self, name: str) -> np.ndarray:
        """One full column, concatenated across shards (loads only that
        column — sibling columns stay on disk)."""
        parts = [block[name] for block in self.iter_blocks(columns=(name,))]
        if not parts:  # zero-point sweep: the column exists but is empty
            self.reader._select((name,))
            return np.empty(0)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def unique(self, name: str) -> List[Any]:
        """Distinct values of one column in first-appearance order,
        collected shard-by-shard (per-block dedup is vectorized, so the
        Python-level work is O(distinct values), not O(rows))."""
        seen: Dict[Any, None] = {}
        for block in self.iter_blocks(columns=(name,)):
            seen.update(dict.fromkeys(_block_unique(block[name], seen)))
        return list(seen)

    def to_result(self) -> SweepResult:
        """Materialise the whole table as an in-memory SweepResult."""
        columns = {
            name: self.column(name) for name in self.reader.column_names
        }
        return SweepResult(columns, axis_names=self.axis_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedSweepResult({self.n_rows} rows, {self.n_shards} shards, "
            f"dir={str(self.directory)!r})"
        )

    # ------------------------------------------------------------------
    # Incremental crossover
    # ------------------------------------------------------------------
    def crossover(
        self,
        x: str,
        metric: str = "speedup",
        threshold: float = 1.0,
        group_by: Sequence[str] = (),
    ) -> List[Dict[str, Any]]:
        """Streaming counterpart of :meth:`SweepResult.crossover`.

        Shards are scanned block-by-block holding only the ``x``,
        ``metric`` and ``group_by`` columns of one shard at a time.  Each
        shard is reduced with segment operations: one stable sort groups
        its rows (table order kept inside a group), one mask checks that
        every group ascends in ``x``, and a ``minimum.reduceat`` over the
        group segments finds each group's first row at or above
        ``threshold``, interpolated with the same float64 arithmetic as
        the in-memory locator.  One boundary row per group (its last x
        and metric) carries into the next shard, so crossings that
        straddle a shard boundary are exact.  Only the distinct groups
        surface as Python objects.

        Requires each group's rows to arrive sorted by ``x`` (true for
        every sweep executed in enumeration order over ascending axes);
        when a group turns out unsorted the scan transparently falls
        back to loading just the needed columns and sorting — still
        never the whole table.
        """
        index: Dict[Tuple[Any, ...], int] = {}  # group values -> id, in order
        # Per group id: crossing found / crossing x / last row seen.
        done, has_prev = np.zeros((2, 0), dtype=bool)
        cross, prev_x, prev_m = np.zeros((3, 0))
        for block in self.iter_blocks(columns=(x, metric, *group_by)):
            cols = [np.asarray(block[g]) for g in group_by]
            order, starts = _group_order(cols, len(block[x]))
            if not starts.size:
                continue
            xs = np.asarray(block[x], dtype=float)[order]
            ms = np.asarray(block[metric], dtype=float)[order]
            appear = np.argsort(order[starts])
            firsts = order[starts[appear]]
            keys = list(zip(*(c[firsts] for c in cols))) if cols else [()]
            ids = list(map(index.get, keys))
            if None in ids:  # groups first seen in this shard
                ids = [index.setdefault(key, len(index)) for key in keys]
                done, has_prev, cross, prev_x, prev_m = (
                    np.append(a, np.zeros(len(index) - len(a), a.dtype))
                    for a in (done, has_prev, cross, prev_x, prev_m)
                )
            gid = np.empty(len(starts), dtype=np.intp)
            gid[appear] = ids
            # Exact only while every group's rows arrive in ascending x
            # (checked even after a crossing: order is the premise).
            steps = np.diff(xs) >= 0
            steps[starts[1:] - 1] = True  # a new group may start lower
            seg_has = has_prev[gid]
            in_order = steps.all() and np.all(~seg_has | (xs[starts] >= prev_x[gid]))
            if not in_order:  # load just the needed columns and sort
                needed = dict.fromkeys((x, metric, *group_by))
                small = SweepResult({name: self.column(name) for name in needed})
                return small.crossover(x, metric, threshold, group_by)
            found, where = _first_crossings(
                xs, ms, starts, threshold, (seg_has, prev_x[gid], prev_m[gid])
            )
            new = found & ~done[gid]
            cross[gid[new]] = where[new]
            done[gid[new]] = True
            ends = np.append(starts[1:], len(xs)) - 1
            prev_x[gid] = xs[ends]
            prev_m[gid] = ms[ends]
            has_prev[gid] = True
        return [
            {**dict(zip(group_by, key)), x: where_g if found_g else None}
            for key, found_g, where_g in zip(index, done.tolist(), cross.tolist())
        ]


def _block_unique(values: np.ndarray, seen: Any = ()) -> List[Any]:
    """Distinct values of one column block in first-appearance order,
    from one stable sort (see :func:`_group_order`; object columns of
    mixed, non-comparable types fall back to a dict pass).  Runs of a
    repeated value are collapsed first, and a numeric block whose
    values are all in ``seen`` returns ``[]`` after one value sort."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biuf":
        heads = _run_heads(arr)
        arr = arr if heads is None else arr[heads]
        if seen:  # sorted by hand: plain np.unique would import numpy.ma
            ordered = np.sort(arr)
            distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            if all(map(seen.__contains__, distinct.tolist())):
                return []
    order, starts = _group_order([arr], len(arr))
    return list(arr[np.sort(order[starts])])


def open_shards(
    source: Union[str, pathlib.Path], mmap: Optional[bool] = None
) -> ShardedSweepResult:
    """Open a shard directory (or manifest path) as a lazy sweep table.

    ``mmap`` (default auto) memory-maps numeric columns of uncompressed
    shards — zero-copy, read-only views; see :class:`ShardReader`."""
    return ShardedSweepResult(source, mmap=mmap)
