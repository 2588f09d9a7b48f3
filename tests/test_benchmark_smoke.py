"""The benchmark's smoke test, run in a subprocess as part of this suite.

Perfbench times the toolchain by rebinding xvliw functions by name
(``exec_sequential``, ``exec_vliw``, ``hazard_check``,
``MapStore.snapshot``, each compile layer) and reads fields such as
``RunReport.cycles``. A rename that breaks one of those must fail here,
not silently drop a metric from the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "ok refuses to run without the toolchain's sources" in done.stdout
