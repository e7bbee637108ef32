"""The runtime dependencies: numpy and the standard library, nothing else."""

import subprocess
import sys

# Prints, one a line, the modules that importing the package and its CLI adds
# to a fresh interpreter that has already imported numpy.
_ADDED_MODULES = """
import sys
import numpy
before = set(sys.modules)
import noisyqn, noisyqn.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_package_imports_only_the_standard_library_beyond_numpy():
    """scipy and the like stay out, and so does any module-level import
    that would add to every run's start-up time."""
    proc = subprocess.run(
        [sys.executable, "-c", _ADDED_MODULES], capture_output=True, text=True, check=True
    )
    added = proc.stdout.split()
    assert "noisyqn.cli" in added
    outside = [
        name for name in added
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "noisyqn"
    ]
    assert outside == []
