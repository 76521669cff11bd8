"""Setuptools shim for environments without the ``wheel`` package.

The canonical metadata lives in ``pyproject.toml``; this file exists so
``pip install -e . --no-build-isolation --no-use-pep517`` works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Promatch: adaptive predecoding for real-time "
        "quantum error correction (ASPLOS 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=2.0", "scipy>=1.8", "networkx>=2.8"],
)
