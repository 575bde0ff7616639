from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

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
