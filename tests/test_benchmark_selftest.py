"""The benchmark's own self-tests pass against this checkout.

perfbench/oracles.py and perfbench/selftest.py read and mutate model
objects (they set Relation.kind and deep-copy hierarchies), so a change
to the model can break the benchmark's oracles without any other test
noticing. The self-tests run as they are, in their own process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
