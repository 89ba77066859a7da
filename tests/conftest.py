import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

import intrinsic_time

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def run_python(script: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter that
    imports ``intrinsic_time`` from where these tests import it."""
    package_root = str(Path(intrinsic_time.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout
