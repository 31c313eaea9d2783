import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import argn

GET_THREADS = "scipy_openblas_get_num_threads64_"


def bundled_openblas() -> list[str]:
    """The OpenBLAS libraries beside numpy that report their thread count."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    return [str(p) for p in libs if hasattr(ctypes.CDLL(str(p)), GET_THREADS)]


def test_importing_argn_pins_the_bundled_openblas_to_one_thread_whatever_the_environment():
    libs = bundled_openblas()
    if not libs:
        pytest.skip(f"numpy ships no OpenBLAS with {GET_THREADS}")
    script = (
        "import ctypes, sys\n"
        "import numpy  # a library caller's numpy comes first\n"
        "import argn\n"
        f"get_threads = ctypes.CDLL(sys.argv[1]).{GET_THREADS}\n"
        "get_threads.argtypes, get_threads.restype = [], ctypes.c_int\n"
        "print(get_threads())\n"
    )
    src = str(Path(argn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, libs[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_importing_the_cli_leaves_the_thread_pool_and_decimal_modules_unloaded():
    """``scan_rows`` imports its pool and the digit encoder ``decimal`` when
    they first run, so a fresh ``import argn.cli`` loads neither."""
    script = "import sys\nimport argn.cli\nprint(sorted({'concurrent.futures', 'decimal'} & set(sys.modules)))\n"
    src = str(Path(argn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
