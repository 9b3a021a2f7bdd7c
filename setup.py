"""Packaging for the AdvSGM reproduction (``repro``).

The package lives under ``src/``.  ``pip install -e .`` installs it with its
runtime dependencies: NumPy for every kernel, SciPy for ``logsumexp``
(privacy accounting) and ``rankdata`` (AUC).  The test and benchmark suites
additionally need ``pytest`` and ``pytest-benchmark``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Differentially private graph learning via adversarial skip-gram (AdvSGM)",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
