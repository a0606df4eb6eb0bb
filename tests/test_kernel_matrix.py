"""scripts/kernel_matrix.py's reading of a pytest run's output."""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    path = os.path.join(REPO_ROOT, "scripts", "kernel_matrix.py")
    spec = importlib.util.spec_from_file_location("kernel_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HEADER = (
    "numpy 2.4.6; blas scipy-openblas 0.3.31 (built as: OpenBLAS 0.3.31 DYNAMIC_ARCH"
    " Haswell MAX_THREADS=64; running: Sandybridge); simd X86_V3; cpus 2\n"
)


def test_running_core_and_counts_come_from_the_header_and_the_summary():
    km = load_script()
    passed = HEADER + "....\n========== 78 passed, 1 skipped in 41.20s ==========\n"
    assert km.running_core(passed) == "Sandybridge"
    assert km.counts(passed) == (78, 0)
    failed = HEADER + "== 1 failed, 77 passed, 2 errors in 40.02s ==\n"
    assert km.counts(failed) == (77, 3)
    # a run that died before its summary, or a header without the core
    assert km.counts(HEADER + "Fatal Python error: Illegal instruction\n") is None
    assert km.running_core("numpy 2.4.6; blas (core not reported)\n") is None
