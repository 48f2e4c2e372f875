"""The crash-file contract: atomic writes, durable appends, one journal.

Every file this package must keep across a hard kill (a SIGKILL, a spot
VM reclaim, an OOM) follows the same three rules, stated here once and
used by the fleet checkpoint journal (:mod:`repro.fleet.journal`), the
serve state directory (:mod:`repro.serve.state`) and the result store
(:mod:`repro.store.cas`):

- **Atomic replace.** :func:`write_atomic` writes a same-directory temp
  file, fsyncs it, then publishes it with ``os.replace``. A reader sees
  the complete old file, the complete new file, or nothing — never a
  partial one. :func:`fsync_dir` makes the rename itself durable where
  the platform allows it.
- **Durable appends.** :func:`append_line` adds one line with a single
  ``write`` on an ``O_APPEND`` descriptor, then fsyncs it. A line
  either lands whole or, if the kill lands mid-write, as a torn tail:
  the one artifact a crash can leave in an append-only file.
- **Torn final line only.** A :class:`Journal` is a header line plus
  records. Reading drops an unparseable *final* line and reports it;
  an unparseable earlier line is damage no crash produces, so it
  raises rather than silently shortening what is recovered. Opening a
  journal rewrites header + kept records atomically before the first
  append, so a torn fragment never has a new record written onto it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, NamedTuple

__all__ = [
    "Journal",
    "JournalContents",
    "append_line",
    "fsync_dir",
    "write_atomic",
]


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: same-dir temp, fsync, ``os.replace``."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


def fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (rename durability on POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # lint: disable=EXC001 - platform without dir fsync
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append_line(path: Path, line: bytes, fsync: bool = True) -> None:
    """Append one newline-terminated line in a single ``O_APPEND`` write.

    Lines far below ``PIPE_BUF`` land atomically even with concurrent
    appenders; with ``fsync`` the line is durable when this returns.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


class JournalContents(NamedTuple):
    """What :meth:`Journal.read` salvaged: header, records, torn tail."""

    header: dict[str, Any] | None
    records: list[dict[str, Any]]
    torn_tail: bool


class Journal:
    """A JSONL file of one header line followed by records.

    ``error`` is the exception type raised on damage, so each caller
    keeps its own error domain. ``sort_keys`` fixes the line encoding
    (canonical or insertion-ordered JSON); ``fsync`` applies to
    :meth:`append` — the rewrite in :meth:`open` is always durable.
    """

    def __init__(
        self,
        path: Path,
        error: type[Exception],
        sort_keys: bool = False,
        fsync: bool = True,
    ) -> None:
        self.path = Path(path)
        self.error = error
        self.sort_keys = sort_keys
        self.fsync = fsync
        self._open = False

    def _line(self, payload: dict[str, Any]) -> bytes:
        text = json.dumps(payload, sort_keys=self.sort_keys, separators=(",", ":"))
        return (text + "\n").encode("utf-8")

    def read(self) -> JournalContents:
        """Parse the journal; a missing or empty file has no header.

        Raises ``error`` naming ``path:line`` for an unparseable line
        that is not the last one.
        """
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            return JournalContents(None, [], False)
        parsed: list[dict[str, Any]] = []
        damaged = 0  # line number of an unparseable line, once seen
        with handle:
            for number, line in enumerate(handle, start=1):
                if damaged:
                    raise self.error(
                        f"corrupt journal record at {self.path}:{damaged}"
                    )
                try:
                    parsed.append(json.loads(line))
                except ValueError:
                    damaged = number
        header = parsed[0] if parsed else None
        return JournalContents(header, parsed[1:], bool(damaged))

    def open(self, header: dict[str, Any], records: list[dict[str, Any]]) -> None:
        """Rewrite header + ``records`` atomically; appends may follow."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = b"".join(self._line(line) for line in [header, *records])
        write_atomic(self.path, data)
        fsync_dir(self.path.parent)
        self._open = True

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (see :func:`append_line`)."""
        if not self._open:
            raise self.error(f"journal not open: {self.path}")
        append_line(self.path, self._line(record), self.fsync)

    def close(self) -> None:
        """Refuse further appends (every append is already durable)."""
        self._open = False
