"""Golden CLI corpus: every recorded invocation replays byte for byte.

The cases and their inputs live in `tests/golden/`; see `replay.py`
there for how the corpus is recorded.
"""
import contextlib
import difflib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import limitalg

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
import replay  # noqa: E402

EXPECTED = json.loads((GOLDEN / "corpus.json").read_text())
FIELDS = ("exit", "stdout", "stderr")
# the slowest case takes about 0.5 s; one still running after ten times
# that is hung (a hung case can hold over 1 GB by then)
CASE_DEADLINE_S = 5


class _PastDeadline(BaseException):
    """Raised in a hung case; no `except Exception` in the CLI catches it."""


@contextlib.contextmanager
def _deadline(seconds: float):
    """Interrupt the main thread once `seconds` of wall-clock time pass."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise _PastDeadline

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _mismatch(name: str, actual: dict) -> str:
    """A unified diff of each differing field, or '' when all agree."""
    expected = EXPECTED[name]
    lines = []
    for field in FIELDS:
        if expected[field] != actual[field]:
            lines += difflib.unified_diff(
                str(expected[field]).splitlines(), str(actual[field]).splitlines(),
                f"{name} {field} (recorded)", f"{name} {field} (now)",
                lineterm="")
    return "\n".join(lines)


def test_corpus_lists_every_case():
    assert sorted(EXPECTED) == sorted(replay.CASES)
    for name, (argv, _) in replay.CASES.items():
        assert EXPECTED[name]["argv"] == list(argv), name


@pytest.mark.parametrize("name", sorted(replay.CASES))
def test_case_replays(name, monkeypatch):
    monkeypatch.delenv("LIMITALG_HORIZON", raising=False)
    try:
        with _deadline(CASE_DEADLINE_S):
            actual = replay.run_case(*replay.CASES[name])
    except _PastDeadline:
        pytest.fail(f"{name} still ran after {CASE_DEADLINE_S} s",
                    pytrace=False)
    diff = _mismatch(name, actual)
    if diff:
        pytest.fail(diff, pytrace=False)


def test_corpus_replays_under_optimized_mode():
    # a verdict or error that rests on an `assert` differs once -O strips it
    src = str(Path(limitalg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("LIMITALG_HORIZON", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", str(GOLDEN / "replay.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    diffs = "\n".join(filter(None, (_mismatch(name, results[name])
                                   for name in sorted(replay.CASES))))
    assert not diffs, diffs
