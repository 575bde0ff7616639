from __future__ import annotations

import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from cpl import core

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def seed_source() -> str:
    return (FIXTURES / "seed.lean").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def intersection_proof_declaration() -> str:
    return (FIXTURES / "alpha_open_intersection.lean").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fake_repl_cmd() -> list[str]:
    """The command that starts `fixtures/fake_repl.py`, a stand-in Lean REPL."""
    return [sys.executable, str(FIXTURES / "fake_repl.py")]


@pytest.fixture(scope="session")
def repl_gone():
    """`repl_gone(pid_file)`: whether the process whose pid `pid_file` holds
    is gone or a zombie, waiting up to 2 s for it. Reads `/proc`; a test
    that uses it is skipped where there is none."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")

    def gone(pid_file: Path) -> bool:
        stat = Path(f"/proc/{int(pid_file.read_text())}/stat")
        deadline = time.monotonic() + 2.0
        while True:
            try:
                # The state follows the command name in parentheses.
                state = stat.read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return True
            if state == "Z" or time.monotonic() > deadline:
                return state == "Z"
            time.sleep(0.01)

    return gone


# `write_atomically` writes to `<name>.<16 hex digits>.tmp` beside `name`.
_TEMP_SUFFIX = re.compile(r"\.[0-9a-f]{16}\.tmp$")


@dataclass(frozen=True)
class Write:
    """One `core.write_file` call: the file, the bytes, where they go (`at`,
    None for an append) and whether the file is fsynced after them."""

    path: Path
    data: bytes
    at: int | None
    fsync: bool

    @property
    def name(self) -> str:
        """The file's name; for a temp file of `write_atomically`, its target's."""
        return _TEMP_SUFFIX.sub("", self.path.name)


class Writes(list):
    """The writes through `core.write_file`, in order, as `Write`s.

    `tear` makes a write put down only part of its bytes and raise, as a
    kill or a full disk leaves it."""

    def __init__(self):
        super().__init__()
        self._real = core.write_file
        self.tear()

    def tear(self, error: BaseException | None = None, index: int | None = None,
             name: str | None = None, keep=lambda data: len(data) // 2) -> None:
        """From now on the write at `index` of this list, and every write to
        a file named `name`, puts down its first `keep(data)` bytes, unsynced,
        then raises `error`. With no `error`, every write goes through whole."""
        self._error, self._index, self._name, self._keep = error, index, name, keep

    def steps(self) -> list[tuple[str, str]]:
        """Each write as its steps on the file it names: "append" or "cut"
        when it puts down bytes or cuts, then "fsync" when it fsyncs."""
        steps = []
        for write in self:
            if write.data or write.at is not None:
                steps.append((write.name, "append" if write.at is None else "cut"))
            if write.fsync:
                steps.append((write.name, "fsync"))
        return steps

    def __call__(self, path, data: bytes, at: int | None = None, fsync: bool = False) -> None:
        write = Write(Path(path), data, at, fsync)
        self.append(write)
        if self._error is not None and (len(self) - 1 == self._index or write.name == self._name):
            self._real(path, data[: self._keep(data)], at)
            raise self._error
        self._real(path, data, at, fsync)


@pytest.fixture
def writes(monkeypatch) -> Writes:
    """Every write cpl makes to a file, recorded; see `Writes`."""
    recorder = Writes()
    monkeypatch.setattr(core, "write_file", recorder)
    return recorder
