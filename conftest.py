"""Test-session setup shared by ``tests/`` and ``bench/``.

The suite runs with one BLAS thread, as ``bench/run.py`` runs the benchmark.
``bench/test_bench.py`` calls the benchmark in-process, so it sees only the
test process's settings; a multi-threaded BLAS there also makes small matrix
products stall at random. The variables must be set before numpy loads, and
an explicit setting in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
