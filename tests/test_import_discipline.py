"""A local ``pld compile`` imports only its own stack (DESIGN.md §9).

Every module a command loads is start-up time it pays on every run, and
a warm compile is mostly start-up.  The serving stack, the process pool
and the host runtime are for other commands; this pins that a cold and
then a warm in-process compile never load them.
"""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Modules a local compile has no use for.
FOREIGN = (
    "asyncio",
    "ssl",
    "multiprocessing",
    "concurrent.futures.process",
    "numpy",
    "repro.store.remote.aio",
    "repro.service.daemon",
    "repro.platform",
)

SCRIPT = """
import contextlib, io, sys
import repro.cli
for _ in range(2):                      # cold, then warm
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(["compile", "spam-filter", "--flow", "o1",
                               "--effort", "0.05",
                               "--cache-dir", sys.argv[1]])
    assert code == 0, code
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


def test_local_compile_loads_no_serving_stack(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "cache"), *FOREIGN],
        capture_output=True, text=True, env=env, cwd=str(REPO),
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
