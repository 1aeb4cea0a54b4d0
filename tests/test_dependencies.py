"""The package imports and checks itself with only its declared dependencies.

``pyproject.toml`` declares numpy alone; ``networkx`` serves only the graph
exports of :class:`~repro.core.topology.HexGrid`.  Each test runs a fresh
interpreter in which ``import networkx`` fails.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCK_NETWORKX = "import sys; sys.modules['networkx'] = None; sys.path.insert(0, {src!r}); "


def _run_without_networkx(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", BLOCK_NETWORKX.format(src=str(SRC)) + code],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_import_repro_without_networkx():
    result = _run_without_networkx(
        "import repro, repro.cli, repro.engines; "
        "assert 'networkx' not in [m for m, v in sys.modules.items() if v is not None]"
    )
    assert result.returncode == 0, result.stderr


def test_repro_check_runs_without_networkx():
    result = _run_without_networkx(
        "import runpy; sys.argv = ['repro', 'check']; "
        "runpy.run_module('repro', run_name='__main__')"
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout
