"""``verify_shards`` / ``repro verify``: every corruption mode becomes a
finding, clean directories audit OK, and exit codes follow severity."""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.parameters import aps_to_alcf_defaults
from repro.sweep import (
    Axis,
    ShardWriter,
    SweepResult,
    SweepSpec,
    run_model_sweep,
    verify_shards,
)
from repro.sweep.shards import JOURNAL_NAME, MANIFEST_NAME

BASE = aps_to_alcf_defaults()
SHARD = 64


@pytest.fixture()
def store(tmp_path):
    """A freshly streamed 4-shard store (256 rows)."""
    spec = SweepSpec.grid(
        Axis.geomspace("bandwidth_gbps", 1.0, 100.0, 16),
        Axis.geomspace("s_unit_gb", 0.1, 10.0, 16),
    )
    out = tmp_path / "store"
    run_model_sweep(spec, base=BASE, out=str(out), block_size=SHARD)
    return out


def _manifest(store):
    return json.loads((store / MANIFEST_NAME).read_text())


def _write_manifest(store, manifest):
    (store / MANIFEST_NAME).write_text(json.dumps(manifest))


class TestCleanStore:
    def test_fresh_store_is_ok(self, store):
        report = verify_shards(store)
        assert report.ok
        assert report.errors == []
        assert report.warnings == []
        assert report.n_shards_checked == 4
        assert report.n_rows == 256
        assert report.format_report().splitlines()[-1].startswith("OK:")

    def test_manifest_path_accepted(self, store):
        assert verify_shards(store / MANIFEST_NAME).ok

    def test_empty_store_is_ok(self, tmp_path):
        # A zero-block sweep writes a valid empty manifest + journal.
        out = tmp_path / "empty"
        writer = ShardWriter(out, shard_size=SHARD)
        writer.close()
        report = verify_shards(out)
        assert report.ok
        assert report.n_shards_checked == 0
        assert report.n_rows == 0

    def test_v1_manifest_without_checksums_warns_only(self, store):
        manifest = _manifest(store)
        manifest["version"] = 1
        for entry in manifest["shards"]:
            entry.pop("sha256")
        _write_manifest(store, manifest)
        (store / JOURNAL_NAME).unlink()  # journal would disagree on sha256
        report = verify_shards(store)
        assert report.ok
        assert len(report.warnings) == 4
        assert all("no checksum recorded" in f.problem for f in report.warnings)


class TestCorruption:
    def test_checksum_mismatch(self, store):
        shard = store / "shard-00002.npz"
        shard.write_bytes(shard.read_bytes()[:-40] + b"\x00" * 40)
        report = verify_shards(store)
        assert not report.ok
        assert any(
            f.file == "shard-00002.npz" and "sha256 mismatch" in f.problem
            for f in report.errors
        )

    def test_truncated_shard_without_hashes_caught_by_rows(self, store):
        # Even with --skip-hashes, a torn zip surfaces as unreadable.
        shard = store / "shard-00001.npz"
        shard.write_bytes(shard.read_bytes()[:120])
        report = verify_shards(store, check_hashes=False)
        assert not report.ok
        assert any(
            f.file == "shard-00001.npz" and "unreadable" in f.problem
            for f in report.errors
        )

    def test_member_extent_past_eof_without_hashes(self, tmp_path):
        # A zip that still parses, but whose last member stores only
        # part of the data its .npy header declares: the declared extent
        # runs past the end of the file.
        table = SweepResult(
            {"x": np.arange(4096.0), "speedup": np.linspace(0.0, 2.0, 4096)},
            axis_names=("x",),
        )
        table.to_shards(tmp_path, shard_size=4096)
        shard = tmp_path / "shard-00000.npz"
        with zipfile.ZipFile(shard) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        last = list(members)[-1]
        members[last] = members[last][:200]
        with zipfile.ZipFile(shard, "w", zipfile.ZIP_STORED) as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        report = verify_shards(tmp_path, check_hashes=False)
        assert not report.ok
        assert any(
            f.file == "shard-00000.npz" and "declares" in f.problem
            for f in report.errors
        )

    def test_compressed_store_rows_checked(self, tmp_path):
        spec = SweepSpec.grid(Axis.geomspace("bandwidth_gbps", 1.0, 100.0, 40))
        run_model_sweep(
            spec, base=BASE, out=str(tmp_path), block_size=16, compress=True
        )
        assert verify_shards(tmp_path, check_hashes=False).ok
        manifest = _manifest(tmp_path)
        manifest["shards"][0]["n_rows"] += 1
        manifest["n_rows"] += 1
        _write_manifest(tmp_path, manifest)
        (tmp_path / JOURNAL_NAME).unlink()
        report = verify_shards(tmp_path, check_hashes=False)
        assert any(
            f.file == "shard-00000.npz" and "holds 16 rows" in f.problem
            for f in report.errors
        )

    def test_missing_shard_file(self, store):
        (store / "shard-00003.npz").unlink()
        report = verify_shards(store)
        assert not report.ok
        assert any(
            f.file == "shard-00003.npz" and "missing on disk" in f.problem
            for f in report.errors
        )

    def test_row_count_mismatch(self, store):
        # Rewrite one shard with a row lopped off every column, keeping
        # the manifest checksum in sync so only the row check can object.
        shard = store / "shard-00000.npz"
        with np.load(shard) as npz:
            arrays = {name: npz[name][:-1] for name in npz.files}
        np.savez(shard, **arrays)
        manifest = _manifest(store)
        from repro.sweep.shards import _sha256_file

        manifest["shards"][0]["sha256"] = _sha256_file(shard)
        _write_manifest(store, manifest)
        (store / JOURNAL_NAME).unlink()
        report = verify_shards(store)
        assert any(
            f.file == "shard-00000.npz" and "63 rows" in f.problem
            for f in report.errors
        )

    def test_stale_manifest_row_sum(self, store):
        manifest = _manifest(store)
        manifest["n_rows"] = 9999
        _write_manifest(store, manifest)
        report = verify_shards(store)
        assert any(
            f.file == MANIFEST_NAME and "row-range gap" in f.problem
            for f in report.errors
        )

    def test_missing_manifest(self, store):
        (store / MANIFEST_NAME).unlink()
        report = verify_shards(store)
        assert not report.ok
        assert any("missing manifest" in f.problem for f in report.errors)

    def test_unsupported_manifest_version(self, store):
        manifest = _manifest(store)
        manifest["version"] = 99
        _write_manifest(store, manifest)
        report = verify_shards(store)
        assert any("unsupported manifest version" in f.problem for f in report.errors)

    def test_manifest_missing_keys(self, store):
        manifest = _manifest(store)
        del manifest["columns"]
        _write_manifest(store, manifest)
        report = verify_shards(store)
        assert any("missing keys" in f.problem for f in report.errors)

    def test_not_a_directory(self, tmp_path):
        report = verify_shards(tmp_path / "nope")
        assert not report.ok


class TestJournalCrossCheck:
    def test_journal_manifest_disagreement(self, store):
        manifest = _manifest(store)
        manifest["shards"][1]["sha256"] = "0" * 64
        _write_manifest(store, manifest)
        report = verify_shards(store, check_hashes=False, check_rows=False)
        assert any(
            f.file == JOURNAL_NAME and "disagrees with the manifest" in f.problem
            for f in report.errors
        )

    def test_journal_shard_count_mismatch(self, store):
        journal = store / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")  # drop last shard rec
        report = verify_shards(store, check_hashes=False, check_rows=False)
        assert any(
            f.file == JOURNAL_NAME and "one of them is stale" in f.problem
            for f in report.errors
        )

    def test_corrupt_journal_is_an_error(self, store):
        journal = store / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines[2] = "{not json"
        journal.write_text("\n".join(lines) + "\n")
        report = verify_shards(store)
        assert any(
            f.file == JOURNAL_NAME and "does not parse" in f.problem
            for f in report.errors
        )

    def test_absent_journal_is_fine(self, store):
        (store / JOURNAL_NAME).unlink()
        assert verify_shards(store).ok


class TestResidue:
    def test_tmp_orphan_warns(self, store):
        (store / ".tmp-shard-00009.npz").write_bytes(b"partial")
        report = verify_shards(store)
        assert report.ok  # warnings never fail the audit
        assert any("temp-file orphan" in f.problem for f in report.warnings)

    def test_unlisted_shard_warns(self, store):
        extra = store / "shard-00099.npz"
        extra.write_bytes((store / "shard-00000.npz").read_bytes())
        report = verify_shards(store)
        assert report.ok
        assert any(
            f.file == "shard-00099.npz" and "not listed" in f.problem
            for f in report.warnings
        )


class TestSkipFlags:
    def test_skip_hashes_skips_digest_work(self, store):
        shard = store / "shard-00002.npz"
        # Flip bytes inside the zip *past* the local headers: the hash
        # check would catch it, the row check might not.
        data = bytearray(shard.read_bytes())
        data[-30] ^= 0xFF
        shard.write_bytes(bytes(data))
        assert not verify_shards(store).ok

    def test_skip_rows(self, store):
        report = verify_shards(store, check_rows=False)
        assert report.ok


class TestCli:
    def test_cli_exit_codes_and_report(self, store, capsys):
        assert cli_main(["verify", str(store)]) == 0
        out = capsys.readouterr().out
        assert "OK: 4 shard(s), 256 row(s)" in out
        shard = store / "shard-00000.npz"
        shard.write_bytes(shard.read_bytes()[:80])
        assert cli_main(["verify", str(store)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "shard-00000.npz" in out

    def test_cli_skip_flags(self, store, capsys):
        assert cli_main(["verify", str(store), "--skip-hashes", "--skip-rows"]) == 0
        capsys.readouterr()
