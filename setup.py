"""Package metadata and install script.

The offline test environment lacks the ``wheel`` package, which PEP 517
editable installs require; with this file and no ``pyproject.toml``,
``pip install -e .`` falls back to ``setup.py develop``.  All metadata
lives here — adding a ``pyproject.toml`` would switch pip to build
isolation, which an offline host cannot satisfy.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
    python_requires=">=3.9",
)
