"""Smoke tests: the quick examples must run end-to-end.

(The heavier examples — gc_comparison, characterize_device,
emulator_fidelity — exercise code paths the benchmark harness already
covers; CI's "Every example runs" step runs them instead, so tier-1 time
stays small.)
"""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "zone_invalid_write (as expected)" in out
    assert "zone report:" in out


def test_zns_log_store_runs():
    out = run_example("zns_log_store.py")
    assert "zone GC runs" in out
    assert "no errors" in out


def test_examples_directory_complete():
    expected = {
        "quickstart.py",
        "zns_log_store.py",
        "characterize_device.py",
        "gc_comparison.py",
        "emulator_fidelity.py",
    }
    assert {p.name for p in EXAMPLES.glob("*.py")} == expected
