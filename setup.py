"""Package metadata: ``pip install -e .`` provides ``repro`` and ``salo-repro``.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so the editable
install also works in offline environments whose pip/setuptools cannot
perform PEP 660 editable installs (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="salo-repro",
    version="1.0.0",
    description="Reproduction of SALO: a spatial accelerator for hybrid sparse attention",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["salo-repro = repro.cli:main"]},
)
