"""Package metadata for the CGO 2015 flash-RAM trade-off reproduction.

Editable installs need no wheel of this package::

    pip install -e .          # numpy, the only runtime dependency
    pip install -e ".[test]"  # plus pytest, hypothesis and scipy for the tests

which also installs the ``repro-eval`` console entry point for running the
paper's figures through the experiment engine.
"""

from setuptools import find_packages, setup

setup(
    name="repro-flash-ram",
    version="0.2.0",
    description=("Reproduction of Pallister, Eder & Hollis (CGO 2015): "
                 "Optimizing the flash-RAM energy trade-off in deeply "
                 "embedded systems"),
    long_description=("A mini-C compiler, Cortex-M3-like simulator with an "
                      "energy model, ILP-based flash/RAM basic-block "
                      "placement, and a cached parallel experiment engine "
                      "that reproduces the paper's figures."),
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.8",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    # scipy's HiGHS is the outside LP/ILP oracle of tests/test_lp.py,
    # tests/test_placement_and_transform.py and benchmarks/bench_ilp.py.
    extras_require={"test": ["pytest", "hypothesis", "scipy"]},
    entry_points={
        "console_scripts": [
            "repro-eval = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Software Development :: Compilers",
        "Topic :: System :: Emulators",
    ],
)
