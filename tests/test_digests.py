"""Byte-identity gate: `tests/digests.py` still prints `tests/digests.txt`,
the sha256 digests of short runs' logs, checkpoints and decoded dev
hypotheses.  BLAS kernels and numpy's SIMD loops round differently across
builds and CPUs, so the test skips on a host whose numpy version, OpenBLAS
build or CPU features differ from the lines that head the file."""

import os
import pathlib
import subprocess
import sys

import pytest

from digests import host_lines

HERE = pathlib.Path(__file__).resolve().parent


def test_training_prints_the_recorded_digests(tmp_path):
    want = (HERE / "digests.txt").read_text(encoding="utf-8")
    host = host_lines()
    recorded = want.splitlines()[:len(host)]
    if recorded != host:
        pytest.skip(f"tests/digests.txt was recorded with {recorded}; "
                    f"this host has {host}")
    path = [str(HERE.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    got = subprocess.run([sys.executable, str(HERE / "digests.py"), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                         capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout == want
