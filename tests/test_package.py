"""The package exports no names: `import dasqos` binds its version and
loads nothing else, and its modules import as dasqos.<module>."""
import os
import subprocess
import sys
from pathlib import Path

import dasqos

IMPORT_CHECK = """\
import sys
import dasqos
assert not [m for m in sys.modules if m.startswith("dasqos.")], sorted(sys.modules)
assert "numpy" not in sys.modules
assert [k for k in vars(dasqos) if not k.startswith("_")] == [], vars(dasqos)
assert isinstance(dasqos.__version__, str), dasqos.__version__
from dasqos import cli, delay, geometry, outage, placement, slotsim
assert [m.__name__ for m in (cli, delay, geometry, outage, placement, slotsim)] == [
    "dasqos.cli", "dasqos.delay", "dasqos.geometry", "dasqos.outage", "dasqos.placement",
    "dasqos.slotsim",
]
assert not hasattr(dasqos, "numpy")  # the submodules' numpy is not the package's
"""


def test_import_loads_no_submodule_and_binds_only_the_version():
    # run in a fresh interpreter: this one has loaded every submodule already
    # (pyproject.toml takes the distribution's version from dasqos.__version__)
    src = Path(dasqos.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
