"""Packaging for the ICDCS 2019 read-uncommitted-transactions reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/`` and a
``repro`` console script (the CLI in :mod:`repro.cli`), so experiments run
without PYTHONPATH gymnastics::

    pip install -e .
    repro run figure2 --smoke --workers 4
"""

from setuptools import find_packages, setup

setup(
    name="repro-sereth",
    version="1.1.0",
    description=(
        "Reproduction of 'Read-Uncommitted Transactions for Smart Contract "
        "Performance' (Cook, Painter, Peterson, Dechev - ICDCS 2019): "
        "Hash-Mark-Set, semantic mining, and RAA on a simulated Ethereum network"
    ),
    long_description=__doc__,
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Topic :: Scientific/Engineering",
    ],
)
