"""numpy is the only runtime dependency: a real command never loads scipy.

The command runs in a fresh interpreter, so a lazy ``import scipy`` anywhere
on the Table 1 path (sizing, characterization, replay, rendering) shows up in
``sys.modules`` just as a top-level one would.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_PROBE = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["--no-cache", "--cycles", "2000", "run", "table1"])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_table1_run_never_imports_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 []"
