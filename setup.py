"""Package metadata and the ``repro`` console entry point.

The offline environment ships setuptools 65.x without the ``wheel`` package,
so PEP 660 editable installs (which require ``bdist_wheel``) are unavailable.
Keeping the metadata in ``setup.py`` (and omitting a ``[build-system]``
table) lets ``pip install -e .`` fall back to the legacy ``setup.py develop``
code path, which works offline and still installs the ``repro`` console
script.
"""

import os
import re

from setuptools import find_packages, setup


def _read_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    init_path = os.path.join(here, "src", "repro", "__init__.py")
    with open(init_path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M)
    if not match:
        raise RuntimeError("could not find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-darwin",
    version=_read_version(),
    description=(
        "Reproduction of 'Adaptive Rule Discovery for Labeling Text Data' "
        "(Darwin), with a declarative engine API and checkpoint/resume"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
