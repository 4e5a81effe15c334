"""Integrity audit of a sharded sweep directory (``repro verify``).

A shard directory is a result artifact: it gets copied between
filesystems, parked on cold storage and read months later, and any of
those steps can silently tear a file.  :func:`verify_shards` audits a
directory against its own metadata — manifest checksums (manifest v2),
per-shard row counts, row-range coverage, journal/manifest agreement —
and returns a structured :class:`VerifyReport` with one actionable
finding per file, instead of the first :class:`ValidationError` a
reader would throw.

Severity levels:

- ``error`` — the data cannot be trusted (torn or missing shard,
  checksum mismatch, wrong row count, manifest/journal disagreement).
  ``repro verify`` exits non-zero when any error is found.
- ``warning`` — the data itself checks out but the directory carries
  residue worth knowing about (``.tmp-*`` orphans from a crash, shard
  files the manifest does not list, checksums missing because the
  manifest predates them).
"""

from __future__ import annotations

import json
import pathlib
import zipfile
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple, Union

import numpy as np

from .shards import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    _SUPPORTED_MANIFEST_VERSIONS,
    _npy_header,
    _parse_journal_lines,
    _sha256_file,
    _stored_member_offsets,
)

__all__ = ["Finding", "VerifyReport", "verify_shards"]


@dataclass(frozen=True)
class Finding:
    """One audit finding: which file, how bad, and what to do about it."""

    file: str
    level: str  # "error" | "warning"
    problem: str

    def __str__(self) -> str:
        return f"{self.level.upper():7s} {self.file}: {self.problem}"


@dataclass
class VerifyReport:
    """The outcome of auditing one shard directory.

    ``ok`` is true when no *error*-level finding was recorded (warnings
    do not fail an audit); :meth:`format_report` renders the per-file
    findings plus a one-line verdict for terminal output.
    """

    directory: str
    n_shards_checked: int = 0
    n_rows: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        """Error-level findings only."""
        return [f for f in self.findings if f.level == "error"]

    @property
    def warnings(self) -> List[Finding]:
        """Warning-level findings only."""
        return [f for f in self.findings if f.level == "warning"]

    @property
    def ok(self) -> bool:
        """True when the directory's data can be trusted."""
        return not self.errors

    def add(self, file: str, level: str, problem: str) -> None:
        """Record one finding."""
        self.findings.append(Finding(file=file, level=level, problem=problem))

    def format_report(self) -> str:
        """Human-readable audit report, one line per finding."""
        lines = [f"verify {self.directory}"]
        lines += [f"  {f}" for f in self.findings]
        verdict = "OK" if self.ok else "CORRUPT"
        lines.append(
            f"{verdict}: {self.n_shards_checked} shard(s), {self.n_rows} "
            f"row(s), {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)


def _row_counts(
    path: pathlib.Path, columns: List[str]
) -> Iterator[Tuple[str, int]]:
    """``(column, rows)`` for each column of one shard file.

    Uncompressed shards are answered from each member's ``.npy`` header
    (zip local headers parsed once, nothing inflated or CRC-scanned),
    and each member's declared data must lie within both its zip entry
    and the file — so a truncated member is caught even without the
    sha256 check.  Compressed shards, and shards whose zip headers do
    not parse, are read with ``np.load`` one column at a time.
    """
    try:
        offsets = _stored_member_offsets(path)
    except (zipfile.BadZipFile, OSError, EOFError):
        offsets = None  # np.load below reports what is wrong
    if offsets is None:
        with np.load(path, allow_pickle=False) as npz:
            for column in columns:
                yield column, int(len(npz[column]))
        return
    file_size = path.stat().st_size
    with open(path, "rb") as fh:
        for column in columns:
            start, size = offsets[column + ".npy"]
            fh.seek(start)
            shape, _, dtype = _npy_header(fh)
            if dtype.hasobject:
                raise ValueError(f"member {column}.npy holds pickled objects")
            extent = fh.tell() - start + int(np.prod(shape)) * dtype.itemsize
            stored = min(size, file_size - start)
            if extent > stored:
                raise ValueError(
                    f"member {column}.npy declares {extent} bytes but only "
                    f"{stored} are stored"
                )
            yield column, int(shape[0])


def verify_shards(
    source: Union[str, pathlib.Path],
    check_hashes: bool = True,
    check_rows: bool = True,
) -> VerifyReport:
    """Audit a shard directory and return a :class:`VerifyReport`.

    Checks, in order: the manifest parses and carries a supported
    version and its required keys; every listed shard file exists,
    matches its recorded sha256 (``check_hashes``; v1 manifests predate
    checksums and get a warning instead), holds exactly the recorded
    number of rows in every column (``check_rows`` — this is what
    catches a torn store that still unzips), and the per-shard counts
    sum to the manifest total; the crash journal, when present, agrees
    with the manifest entry by entry; and the directory carries no
    ``.tmp-*`` orphans or unlisted shard files (warnings).

    Never raises for corruption — every problem becomes a finding — so
    one broken shard does not hide the state of the other thousand.
    """
    directory = pathlib.Path(source)
    if directory.is_file():
        directory = directory.parent
    report = VerifyReport(directory=str(directory))
    manifest_path = directory / MANIFEST_NAME
    if not directory.is_dir():
        report.add(str(directory), "error", "not a directory")
        return report
    if not manifest_path.exists():
        report.add(
            MANIFEST_NAME,
            "error",
            "missing manifest; the sweep never completed — resume it with "
            "`repro sweep ... --resume` or rerun it",
        )
        _scan_residue(directory, set(), report)
        return report
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        report.add(
            MANIFEST_NAME,
            "error",
            f"manifest does not parse ({exc}); rerun the sweep",
        )
        return report
    if manifest.get("version") not in _SUPPORTED_MANIFEST_VERSIONS:
        report.add(
            MANIFEST_NAME,
            "error",
            f"unsupported manifest version {manifest.get('version')!r} "
            f"(supported: {list(_SUPPORTED_MANIFEST_VERSIONS)})",
        )
        return report
    missing_keys = [
        k
        for k in ("axis_names", "n_rows", "shard_size", "columns", "shards")
        if k not in manifest
    ]
    if missing_keys:
        report.add(
            MANIFEST_NAME,
            "error",
            f"manifest is missing keys {missing_keys}; rerun the sweep",
        )
        return report

    shards: List[Dict[str, Any]] = list(manifest["shards"])
    columns = [c["name"] for c in manifest["columns"]]
    listed_rows = 0
    for entry in shards:
        fname = str(entry.get("file"))
        n_rows = int(entry.get("n_rows", 0))
        listed_rows += n_rows
        path = directory / fname
        report.n_shards_checked += 1
        if not path.exists():
            report.add(
                fname,
                "error",
                "listed in the manifest but missing on disk; the directory "
                "is incomplete (partial copy?) — recopy or rerun the sweep",
            )
            continue
        digest = entry.get("sha256")
        if check_hashes:
            if digest is None:
                report.add(
                    fname,
                    "warning",
                    "no checksum recorded (v1 manifest, pre-integrity); "
                    "row counts are still verified",
                )
            elif _sha256_file(path) != digest:
                report.add(
                    fname,
                    "error",
                    "sha256 mismatch: the file's bytes differ from what the "
                    "sweep wrote (torn copy or bit rot) — restore it from "
                    "the source or rerun the sweep",
                )
                continue  # the bytes are wrong; row counts add nothing
        if check_rows and columns:
            try:
                for column, actual in _row_counts(path, columns):
                    if actual != n_rows:
                        report.add(
                            fname,
                            "error",
                            f"column {column!r} holds {actual} rows, manifest "
                            f"says {n_rows}; the file is torn or from a "
                            "different sweep — rerun the sweep",
                        )
                        break
            except KeyError as exc:
                report.add(
                    fname,
                    "error",
                    f"missing column member {exc} promised by the manifest; "
                    "the file is torn or from a different sweep",
                )
            except Exception as exc:  # torn zip, bad npy header, OSError
                report.add(
                    fname,
                    "error",
                    f"unreadable ({type(exc).__name__}: {exc}); the file is "
                    "torn or truncated — restore it or rerun the sweep",
                )
    report.n_rows = int(manifest["n_rows"])
    if listed_rows != report.n_rows:
        report.add(
            MANIFEST_NAME,
            "error",
            f"per-shard rows sum to {listed_rows} but the manifest claims "
            f"{report.n_rows}: a row-range gap — the manifest is stale, "
            "rerun the sweep",
        )

    _check_journal(directory, shards, report)
    _scan_residue(directory, {str(s.get("file")) for s in shards}, report)
    return report


def _check_journal(
    directory: pathlib.Path,
    shards: List[Dict[str, Any]],
    report: VerifyReport,
) -> None:
    """Cross-check the crash journal (when present) against the manifest."""
    journal_path = directory / JOURNAL_NAME
    if not journal_path.exists():
        return
    try:
        _header, _schema, entries = _parse_journal_lines(journal_path)
    except Exception as exc:
        report.add(
            JOURNAL_NAME,
            "error",
            f"journal does not parse ({exc}); shard data may still be "
            "intact, but resume would start over",
        )
        return
    for i, (entry, listed) in enumerate(zip(entries, shards)):
        mismatch = [
            f"{key} {entry.get(key)!r} != {listed.get(key)!r}"
            for key in ("file", "n_rows", "sha256")
            if key in listed and entry.get(key) != listed.get(key)
        ]
        if mismatch:
            report.add(
                JOURNAL_NAME,
                "error",
                f"journal entry {i} disagrees with the manifest "
                f"({'; '.join(mismatch)}); one of them is stale — rerun "
                "the sweep",
            )
    if len(entries) != len(shards):
        report.add(
            JOURNAL_NAME,
            "error",
            f"journal records {len(entries)} shard(s), manifest lists "
            f"{len(shards)}; one of them is stale — rerun the sweep",
        )


def _scan_residue(
    directory: pathlib.Path,
    listed: set,
    report: VerifyReport,
) -> None:
    """Flag crash residue: tmp orphans and unlisted shard files."""
    for path in sorted(directory.glob(".tmp-*")):
        report.add(
            path.name,
            "warning",
            "temp-file orphan from an interrupted write; safe to delete",
        )
    for path in sorted(directory.glob("shard-*.npz")):
        if path.name not in listed:
            report.add(
                path.name,
                "warning",
                "shard file not listed in the manifest (crash residue or a "
                "foreign file); readers ignore it — safe to delete",
            )
