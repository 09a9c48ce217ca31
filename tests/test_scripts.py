"""Exit codes of the helper scripts, run as subprocesses."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args,message", [
    (["--suite", "no-such-suite"], "unknown suite 'no-such-suite'"),
    (["--p", "1", "--suite", "chains"], "p must be an integer >= 2"),
])
def test_run_verification_usage_errors_exit_2(tmp_path, args, message):
    proc = run_script("run_verification.py", *args,
                      "--out-dir", str(tmp_path / "reports"))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "reports").exists()


def test_run_verification_failed_check_exits_1(tmp_path):
    proc = run_script("run_verification.py", "--p", "2", "--suite",
                      "mutations", "--out-dir", str(tmp_path))
    assert proc.returncode == 1
    assert (tmp_path / "report_p2.json").exists()


def test_run_verification_crash_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_script("run_verification.py", "--p", "2", "--suite",
                      "mutations", "--out-dir", str(blocker))
    assert proc.returncode == 3
    assert "Traceback" in proc.stderr


@pytest.mark.parametrize("args,message", [
    (["--objects", "cqzd", "nosuch"], "unknown export object 'nosuch'"),
    (["--objects", "chain(0)"], "unknown export object 'chain(0)'"),
    (["--p", "1", "--objects", "cqzd"], "p must be an integer >= 2"),
])
def test_export_tables_usage_errors_exit_2(tmp_path, args, message):
    proc = run_script("export_tables.py", *args,
                      "--out-dir", str(tmp_path / "tables"))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "tables").exists()


def test_export_tables_writes_and_exits_0(tmp_path):
    proc = run_script("export_tables.py", "--objects", "cqzd", "chain(2)",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "chain2_p2.json", "cqzd_p2.json"]


def test_export_tables_crash_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_script("export_tables.py", "--objects", "cqzd",
                      "--out-dir", str(blocker))
    assert proc.returncode == 3
    assert "Traceback" in proc.stderr
