"""The core library imports without third-party packages.

``pyproject.toml`` declares ``dependencies = []`` and ``repro.sim.stats``
promises dependency-free collectors, so importing the public layers must
not pull in numpy.  Nor may they pull in the test tools (pytest,
hypothesis): the CI campaign jobs run ``python -m repro campaign``
without installing them.  The check runs in a fresh interpreter: the
test process itself has those modules loaded.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_public_layers_import_without_numpy():
    code = ("import sys\n"
            "import repro, repro.system, repro.verify, repro.sim.tlm\n"
            "print('numpy' in sys.modules)\n"
            "print([name for name in ('pytest', 'hypothesis')\n"
            "       if name in sys.modules])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "[]"]
