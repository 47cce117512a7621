"""Start-up: importing the command line loads none of the heavy standard
modules that a run can do without."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import mislab

#: dataclasses brings inspect; statistics brings fractions and decimal
HEAVY = ["dataclasses", "inspect", "statistics", "fractions", "decimal"]


def test_importing_the_cli_loads_no_heavy_module():
    """In a fresh interpreter without `site` (-S), so that no hook preloads
    anything. Where the lean _sha256 exists, OpenSSL's _hashlib stays out
    too; elsewhere the spec hash falls back to hashlib."""
    heavy = HEAVY + (["_hashlib"] if importlib.util.find_spec("_sha256") else [])
    code = ("import sys\n"
            "import mislab.cli\n"
            "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(mislab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *heavy], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
