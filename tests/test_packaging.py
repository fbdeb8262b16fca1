"""The package the README says you can install (``pip install -e .``).

``setup.py`` carries the metadata itself — there is no ``pyproject.toml``
in the tree — so an install must find every subpackage under ``src/``
and a console script that resolves.  Nothing under ``src/`` reads a file
outside the package, so an installed copy simulates the same numbers as
the checkout (``tests/cluster/test_pool.py`` pins the clock constants).
"""

import subprocess
import sys
from pathlib import Path

from setuptools import find_packages

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_names_the_distribution():
    done = subprocess.run(
        [sys.executable, "setup.py", "--name"], cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert done.stdout.split()[-1] == "salo-repro"


def test_every_source_directory_is_an_installed_package():
    found = set(find_packages(str(ROOT / "src")))
    assert {"repro", "repro.cluster", "repro.accelerator"} <= found
    with_sources = {
        ".".join(path.parent.relative_to(ROOT / "src").parts)
        for path in (ROOT / "src").rglob("*.py")
    }
    assert with_sources == found


def test_the_console_script_target_exists():
    assert 'salo-repro = repro.cli:main' in (ROOT / "setup.py").read_text()
    from repro.cli import main

    assert callable(main)
