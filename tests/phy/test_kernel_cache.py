"""The compiled-kernel build cache survives damaged files and racing
compiles.

A cached library is loaded only after its size and digest match the
stamp written with it; a damaged one is moved aside and rebuilt, so
the process still comes up on the compiled backend (a truncated file
used to kill the interpreter with SIGBUS, a zero-byte one to leave it
on numpy for good).  Each compile uses its own copy of the source
under a lock, so processes starting together on a cold cache all load
``cext``.

The backend is chosen once per process, so every scenario runs in fresh
interpreters against a private ``REPRO_KERNELS_CACHE``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.phy import _kernels_c, kernels

SRC = Path(__file__).resolve().parents[2] / "src"

REPORT = (
    "import json\n"
    "from repro.phy import kernels\n"
    "info = kernels.kernel_info()\n"
    "print(json.dumps({'backend': info['backend'],"
    " 'repairs': info['cache_repairs'],"
    " 'reason': info['fallback_reason']}))\n"
)


@pytest.fixture(autouse=True)
def compiled_backend():
    kernels.kernel_info()
    if kernels._compiled is None:
        pytest.skip("compiled kernel backend unavailable")


def _start(cache: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop(kernels.KERNELS_ENV, None)
    env[_kernels_c.CACHE_DIR_ENV] = str(cache)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-c", REPORT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _report(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, f"exit {proc.returncode}: {err[-2000:]}"
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def cached_library(tmp_path) -> Path:
    """A private cache holding a copy of this process's library."""
    so_path, _ = _kernels_c._build_library()
    target = tmp_path / os.path.basename(so_path)
    shutil.copy(so_path, target)
    shutil.copy(so_path + ".sha256", str(target) + ".sha256")
    return target


@pytest.mark.parametrize("keep", [1000, 0], ids=["truncated", "zero_byte"])
def test_damaged_library_is_moved_aside_and_rebuilt(cached_library, keep):
    cached_library.write_bytes(cached_library.read_bytes()[:keep])
    report = _report(_start(cached_library.parent))
    assert report["backend"] == "cext"
    assert report["reason"] is None
    (repair,) = report["repairs"]
    assert repair.startswith(f"{cached_library}: size {keep} != stamped")
    # The rebuilt library matches its new stamp: the next process loads
    # it as it is.
    assert _kernels_c._verify(str(cached_library)) is None


def test_concurrent_cold_starts_all_load_compiled(tmp_path):
    procs = [_start(tmp_path) for _ in range(6)]
    reports = [_report(proc) for proc in procs]
    assert [r["backend"] for r in reports] == ["cext"] * 6
    assert all(r["repairs"] == [] for r in reports)
    left = sorted(p.name for p in tmp_path.iterdir())
    stem = left[0].rsplit(".", 1)[0]
    assert left == [stem + ".lock", stem + ".so", stem + ".so.sha256"]
