"""Pin BLAS and OpenMP pools to one thread before numpy is first imported.

The suite's matrix products are small; a second BLAS thread adds CPU time
without shortening the run, and competes with any other process on the host.
An explicit setting in the environment still wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
