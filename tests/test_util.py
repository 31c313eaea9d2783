import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import argn
from argn.util import scan_rows

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


def test_importing_the_cli_leaves_decimal_unloaded_and_dcr_never_loads_a_thread_pool(tmp_path):
    """The digit encoder imports ``decimal`` when it first runs, so a fresh
    ``import argn.cli`` does not load it; and argn scans on the calling
    thread, so even ``argn dcr`` never imports ``concurrent.futures``."""
    data = tmp_path / "data.csv"
    data.write_text("c,x\n" + "".join(f"k{i % 3},{i * 0.5}\n" for i in range(600)))  # 3 row blocks
    script = (
        "import sys\n"
        "import argn.cli\n"
        "print(sorted({'concurrent.futures', 'decimal'} & set(sys.modules)))\n"
        "code = argn.cli.cli(['dcr', '--train', sys.argv[1], '--syn', sys.argv[1], '--test', sys.argv[1],\n"
        "                     '--out-cdf', sys.argv[2]])\n"
        "print(code, 'concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(argn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(data), str(tmp_path / "cdf.csv")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 False"


@pytest.mark.parametrize("n_rows,block", [(0, 3), (1, 3), (3, 3), (7, 3), (2, 5), (6, 1), (5, 2)])
def test_scan_rows_concatenates_consecutive_full_blocks_in_row_order(n_rows, block):
    seen = []

    def block_fn(rows: slice) -> np.ndarray:
        seen.append(rows)
        return np.arange(rows.start, rows.stop) * 2.0

    out = scan_rows(n_rows, block_fn, block)
    assert out.dtype == np.float64 and np.array_equal(out, np.arange(n_rows) * 2.0)
    assert [i for rows in seen for i in range(rows.start, rows.stop)] == list(range(n_rows))
    assert all(rows.stop - rows.start == block for rows in seen[:-1])  # only the last block is short
    assert all(0 < rows.stop - rows.start <= block for rows in seen)
