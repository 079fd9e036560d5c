"""``pld fsck`` — the artifact-store doctor.

A store directory can be left messy by a crash: orphan ``.tmp`` files
from a process killed between ``mkstemp`` and the atomic publish, a
torn final journal line from a SIGKILL mid-append, an object truncated
by a full disk, a stale journal completion whose object a prune already
swept.  None of these are *dangerous* — reads re-hash and degrade to
misses, resume only skips what the store actually holds — but they
accumulate, and a store shared by several processes deserves a doctor.

:func:`fsck_store` takes the store's exclusive advisory lock, then:

* reaps every orphan ``.tmp`` file under ``objects/``;
* re-reads and re-hashes every ``.art`` object, removing any that fail
  the integrity check (the content-addressed heal: the next build
  simply rebuilds that key).  An object written in another store format
  version is removed too, but counted as stale-format, not corrupt;
* repairs the journal — truncates the torn tail and drops completion
  records whose object no longer exists, so ``--resume`` never skips a
  step it cannot reuse.

Running it twice is a no-op the second time; that property is tested.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import List

from repro.resilience.journal import journal_path, repair_journal
from repro.resilience.lock import StoreLock

#: Minimum age before a ``.tmp`` staging file counts as orphaned.  A
#: *live* writer in another process sits between ``mkstemp`` and
#: ``os.replace`` for milliseconds; anything this old is the residue of
#: a killed process, not an in-flight publish.
TMP_GRACE_SECONDS = 60.0


def stale_tmps(objects_dir, grace: float = TMP_GRACE_SECONDS):
    """Orphaned ``.tmp`` staging files older than the grace period."""
    cutoff = time.time() - grace
    for tmp in sorted(pathlib.Path(objects_dir).glob("*/*.tmp")):
        try:
            if tmp.stat().st_mtime <= cutoff:
                yield tmp
        except OSError:
            continue                   # vanished underfoot


@dataclass
class FsckReport:
    """What one fsck pass found and did."""

    cache_dir: str = ""
    objects_checked: int = 0
    orphan_tmps_removed: int = 0
    corrupt_objects_removed: int = 0
    stale_format_objects_removed: int = 0
    journal_bytes_truncated: int = 0
    journal_entries_dropped: int = 0
    #: Human-readable log of every repair action, in order.
    actions: List[str] = field(default_factory=list)

    @property
    def defects_found(self) -> int:
        return (self.orphan_tmps_removed + self.corrupt_objects_removed
                + self.stale_format_objects_removed
                + self.journal_entries_dropped
                + (1 if self.journal_bytes_truncated else 0))

    @property
    def clean(self) -> bool:
        """True when the pass found nothing to repair (a no-op run)."""
        return self.defects_found == 0

    def summary(self) -> str:
        if self.clean:
            return (f"fsck {self.cache_dir}: clean "
                    f"({self.objects_checked} objects verified)")
        lines = [f"fsck {self.cache_dir}: "
                 f"{self.objects_checked} objects verified, "
                 f"{self.defects_found} defect(s) healed"]
        lines += [f"  - {action}" for action in self.actions]
        return "\n".join(lines)


def fsck_store(cache_dir, lock_timeout: float = 30.0,
               grace: float = TMP_GRACE_SECONDS) -> FsckReport:
    """Check and heal one store directory (under the exclusive lock).

    Safe to run at any time — concurrent builds in *other* processes
    wait on the advisory lock for maintenance, and every repair either
    deletes something unreferenced or rewrites the journal atomically.

    ``grace`` is the orphan-``.tmp`` age threshold (seconds): staging
    files younger than this survive the sweep as presumed in-flight
    writes.  The CLI exposes it as ``pld fsck --fsck-grace``; tests and
    fast CI pass 0 instead of spoofing mtimes.
    """
    # Imported lazily: repro.store pulls in repro.core.build, and fsck
    # must stay importable from the bare resilience package.
    from repro.errors import StaleFormatError, StoreError
    from repro.store.serial import decode_artifact

    root = pathlib.Path(cache_dir)
    report = FsckReport(cache_dir=str(root))
    if not root.exists():
        raise StoreError(f"no such store directory: {root}")
    objects = root / "objects"

    with StoreLock(root, exclusive=True, timeout=lock_timeout):
        # 1. Orphan temp files: a crash between mkstemp and os.replace.
        # Only *stale* staging files are reaped — a concurrent writer's
        # in-flight tmp (milliseconds old) must survive the sweep.
        if objects.is_dir():
            for tmp in stale_tmps(objects, grace=grace):
                try:
                    tmp.unlink()
                    report.orphan_tmps_removed += 1
                    report.actions.append(
                        f"removed orphan temp file {tmp.name}")
                except OSError:
                    pass

            # 2. Object integrity: re-hash every artefact.
            for path in sorted(objects.glob("*/*.art")):
                report.objects_checked += 1
                try:
                    decode_artifact(path.read_bytes(), expect_key=path.stem)
                    continue
                except StaleFormatError as exc:
                    what, reason = "stale-format", str(exc)
                except StoreError as exc:
                    what, reason = "corrupt", str(exc)
                except OSError:
                    continue           # vanished underfoot: nothing to do
                try:
                    path.unlink()
                except OSError:
                    continue
                if what == "corrupt":
                    report.corrupt_objects_removed += 1
                else:
                    report.stale_format_objects_removed += 1
                report.actions.append(
                    f"removed {what} object {path.stem} ({reason})")

        # 3. Journal: truncate the torn tail, drop stale completions.
        jpath = journal_path(root)
        if jpath.exists():
            def key_exists(key: str) -> bool:
                return (objects / key[:2] / f"{key}.art").exists()

            truncated, dropped = repair_journal(jpath, key_exists)
            report.journal_bytes_truncated = truncated
            report.journal_entries_dropped = dropped
            if truncated:
                report.actions.append(
                    f"truncated {truncated} byte(s) of torn journal tail")
            if dropped:
                report.actions.append(
                    f"dropped {dropped} journal completion(s) whose "
                    f"object is gone")
    return report
