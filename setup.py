"""Packaging for the AdEle (DAC 2021) reproduction.

Installing registers the ``repro`` console script, which is the same entry
point as ``python -m repro`` (the parallel experiment engine CLI:
``repro sweep`` / ``repro compare``).

The only third-party runtime dependency is numpy, which powers the
array-based objective evaluation.
"""

from setuptools import find_packages, setup

setup(
    name="repro-adele",
    version="1.20.0",
    description=(
        "Reproduction of AdEle: adaptive congestion- and energy-aware "
        "elevator selection for partially connected 3D NoCs (DAC 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # 3.10+ for dataclass(slots=True) on the simulation hot-path objects.
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.exec.cli:main",
        ]
    },
)
