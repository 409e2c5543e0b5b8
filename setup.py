"""Setuptools entry point.

The package metadata and runtime dependencies live here; there is no
``pyproject.toml``.  ``pip install -e .`` and ``python setup.py develop``
both work offline.  The test suite additionally needs ``pytest`` and
``hypothesis``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "CrAQR: crowdsensed data acquisition using multi-dimensional point "
        "processes (ICDE Workshops 2015 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=2.0", "scipy>=1.7"],
)
