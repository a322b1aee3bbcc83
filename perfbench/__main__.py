import os
import sys

# numpy's BLAS would otherwise start a worker thread at import; the benchmark
# runs the pipeline in one thread, as the CLI's pure-Python stages do.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# Pipeline calls and the reference loop beside them run on one CPU, whose
# speed they share; the set-up processes inherit the pin.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

from perfbench import use_checkout_source

use_checkout_source()

from perfbench.run import main

sys.exit(main())
