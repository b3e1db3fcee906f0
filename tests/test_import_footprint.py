"""``import repro`` and a one-shot match stay off asyncio, ssl and hashlib.

The network layer, the replay harness and ``AsyncMatchingService`` are
PEP 562 lazy exports; they must still resolve on first access. Runs in a
fresh interpreter, because this test process has long since imported
everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import repro

objects = repro.Dataset([[0.1, 0.9], [0.5, 0.5], [0.9, 0.2], [0.3, 0.3]])
prefs = [repro.LinearPreference(0, (0.5, 0.5)),
         repro.LinearPreference(1, (0.9, 0.1))]
assert repro.match(objects, prefs).as_set() == {(0, 0), (1, 2)}
loaded = [name for name in ("asyncio", "ssl", "hashlib", "repro.net",
                            "repro.replay") if name in sys.modules]
assert not loaded, loaded

from repro import AsyncMatchingClient
assert AsyncMatchingClient.__name__ == "AsyncMatchingClient"
assert repro.MatchingServer.__module__ == "repro.net.server"
assert repro.AsyncMatchingService.__name__ == "AsyncMatchingService"
assert repro.replay.Trace is repro.Trace
assert repro.engine.AsyncMatchingService is repro.AsyncMatchingService
try:
    repro.no_such_export
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
print("ok")
"""


def test_import_repro_skips_network_and_digest_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
