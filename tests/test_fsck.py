"""``pld fsck``: healing a deliberately-corrupted artifact store."""

import os
import time

import pytest

from repro.cli import main as cli_main
from repro.core import BuildEngine, O1Flow
from repro.errors import StoreError
from repro.resilience import (
    BuildJournal,
    completed_steps,
    fsck_store,
    journal_path,
    load_journal,
)
from repro.store import ArtifactStore, decode_artifact

from tests.test_core_flows import EFFORT, make_project
from tests.test_store import encode_v1


def _warm_store(cache_dir):
    """A real build's worth of objects plus a journal."""
    store = ArtifactStore(cache_dir=cache_dir)
    with BuildJournal(cache_dir) as journal:
        engine = BuildEngine(cache=store, journal=journal)
        journal.begin_build("o1", "tiny")
        O1Flow(effort=EFFORT).compile(make_project(n_ops=2), engine)
        journal.end_build()
    return store


def _backdate(path, age=3600.0):
    """Make a file look like the residue of a long-dead process."""
    then = time.time() - age
    os.utime(path, (then, then))


def _corrupt(cache_dir):
    """Plant all three defect classes the issue calls for."""
    objects = cache_dir / "objects"
    arts = sorted(objects.glob("*/*.art"))
    assert arts
    # 1. A truncated object (full-disk or torn write).
    arts[0].write_bytes(arts[0].read_bytes()[:10])
    # 2. An orphan .tmp staging file (killed mid-publish), backdated
    # past the grace period that protects in-flight writers.
    orphan = arts[0].parent / "orphan123.tmp"
    orphan.write_bytes(b"partial")
    _backdate(orphan)
    # 3. A torn journal tail (SIGKILL mid-append).
    with open(journal_path(cache_dir), "ab") as handle:
        handle.write(b'{"t": "end", "step": "torn"')
    return arts[0].stem


class TestFsck:
    def test_heals_all_defects_and_second_run_is_noop(self, tmp_path):
        _warm_store(tmp_path)
        corrupt_key = _corrupt(tmp_path)

        report = fsck_store(tmp_path)
        assert not report.clean
        assert report.orphan_tmps_removed == 1
        assert report.corrupt_objects_removed == 1
        assert report.journal_bytes_truncated > 0
        assert report.journal_entries_dropped == 1   # the truncated object
        assert report.objects_checked > 1
        assert "healed" in report.summary()

        # The corrupt object is gone and its journal completion revoked,
        # so a resume will rebuild that step instead of skipping it.
        records, good = load_journal(journal_path(tmp_path))
        assert corrupt_key not in completed_steps(records).values()
        assert good == journal_path(tmp_path).stat().st_size

        second = fsck_store(tmp_path)
        assert second.clean
        assert second.defects_found == 0
        assert "clean" in second.summary()

    def test_old_format_objects_count_as_stale_not_corrupt(self, tmp_path):
        store = _warm_store(tmp_path)
        arts = sorted((tmp_path / "objects").glob("*/*.art"))
        for path in arts[:2]:
            _kind, artifact = decode_artifact(path.read_bytes())
            path.write_bytes(encode_v1(path.stem, artifact))
        arts[2].write_bytes(arts[2].read_bytes()[:10])

        report = fsck_store(tmp_path)
        assert report.stale_format_objects_removed == 2
        assert report.corrupt_objects_removed == 1
        assert report.journal_entries_dropped == 3   # their completions
        assert report.defects_found == 6
        stale = [a for a in report.actions if "stale-format" in a]
        assert len(stale) == 2 and "version mismatch" in stale[0]
        assert not any(path.exists() for path in arts[:3])
        assert len(list(store.keys())) == len(arts) - 3
        assert fsck_store(tmp_path).clean

    def test_store_reads_an_old_format_object_as_a_miss(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        key = "cc" + "0" * 22
        store.put(key, {"x": 1})
        path = next((tmp_path / "objects").glob("*/*.art"))
        path.write_bytes(encode_v1(key, {"x": 1}))
        assert ArtifactStore(cache_dir=tmp_path).get(key) is None
        assert not path.exists()

    def test_resume_after_fsck_rebuilds_only_the_healed_step(self, tmp_path):
        _warm_store(tmp_path)
        _corrupt(tmp_path)
        fsck_store(tmp_path)

        store = ArtifactStore(cache_dir=tmp_path)
        with BuildJournal(tmp_path, resume=True) as journal:
            engine = BuildEngine(cache=store, journal=journal)
            build = O1Flow(effort=EFFORT).compile(make_project(n_ops=2),
                                                  engine)
        assert len(build.rebuilt) == 1          # just the corrupted object
        assert len(build.resumed) == len(build.reused)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no such store"):
            fsck_store(tmp_path / "never-created")

    def test_empty_store_is_clean(self, tmp_path):
        ArtifactStore(cache_dir=tmp_path)       # creates objects/
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.objects_checked == 0

    def test_cli_fsck_exits_zero_and_prints_summary(self, tmp_path, capsys):
        _warm_store(tmp_path)
        _corrupt(tmp_path)
        assert cli_main(["fsck", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "defect(s) healed" in out
        assert cli_main(["fsck", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out


class TestStoreHygiene:
    def test_prune_reaps_planted_stale_tmp(self, tmp_path):
        """Regression: a stale .tmp from a killed writer is swept."""
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("aa" + "0" * 22, {"x": 1})
        stale = tmp_path / "objects" / "aa" / "stale-writer.tmp"
        stale.write_bytes(b"half-written artefact")
        _backdate(stale)
        removed = store.prune(keep=list(store.keys()))
        assert not stale.exists()
        assert removed == 1
        # The kept object survived the sweep.
        assert list(store.keys())

    def test_fresh_tmp_survives_maintenance(self, tmp_path):
        """An in-flight writer's staging file must not be swept."""
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("bb" + "0" * 22, {"x": 1})
        live = tmp_path / "objects" / "bb" / "in-flight.tmp"
        live.write_bytes(b"being written right now")
        store.prune(keep=list(store.keys()))
        report = fsck_store(tmp_path)
        assert live.exists()
        assert report.orphan_tmps_removed == 0

    def test_disk_write_leaves_no_tmp_behind(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        for i in range(5):
            store.put(f"{i:02x}" + "e" * 22, {"i": i})
        assert list((tmp_path / "objects").glob("*/*.tmp")) == []

class TestGraceParameter:
    """The orphan-.tmp grace window is a parameter, not a constant."""

    def _plant_fresh_tmp(self, cache_dir):
        _warm_store(cache_dir)
        objects = cache_dir / "objects"
        arts = sorted(objects.glob("*/*.art"))
        tmp = arts[0].parent / "inflight456.tmp"
        tmp.write_bytes(b"still being written")
        return tmp

    def test_default_grace_protects_inflight_writers(self, tmp_path):
        tmp = self._plant_fresh_tmp(tmp_path)
        report = fsck_store(tmp_path)            # default: 60 s window
        assert report.orphan_tmps_removed == 0
        assert tmp.exists()

    def test_zero_grace_reaps_immediately(self, tmp_path):
        tmp = self._plant_fresh_tmp(tmp_path)
        report = fsck_store(tmp_path, grace=0)
        assert report.orphan_tmps_removed == 1
        assert not tmp.exists()

    def test_cli_fsck_grace_flag(self, tmp_path, capsys):
        tmp = self._plant_fresh_tmp(tmp_path)
        assert cli_main(["fsck", str(tmp_path)]) == 0
        assert tmp.exists()                      # default window held
        assert cli_main(["fsck", str(tmp_path),
                         "--fsck-grace", "0"]) == 0
        assert not tmp.exists()
        capsys.readouterr()

    def test_cli_fsck_needs_a_target(self):
        with pytest.raises(SystemExit):
            cli_main(["fsck"])
