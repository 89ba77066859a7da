import contextlib
import os
import subprocess
import sys
import threading
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


def child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports ``intrinsic_time``
    from where these tests import it."""
    package_root = str(Path(intrinsic_time.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(script: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter that
    imports ``intrinsic_time`` from where these tests import it."""
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env=child_env()).stdout


def read_through_a_fifo(path, read):
    """``read`` of a FIFO that one thread fills with the bytes of ``path``."""
    fifo = path.with_name("fifo")
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(OSError), open(fifo, "wb") as fh:  # EPIPE if read fails
            fh.write(path.read_bytes())

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read(fifo)
    finally:
        # unblocks a writer still waiting for a reader, also one that had
        # not opened the FIFO yet when ``read`` returned without opening it
        while writer.is_alive():
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(0.1)
