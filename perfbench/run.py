"""Benchmark of the deft CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {finetune-1k,finetune-32,verify} \
        --seed N --seconds S --trace {0,1}

Inputs are generated from --seed; use a second seed to check a claim made on
the first. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run and the tracing overhead. The last line of output is
a JSON object with keys correct, attempted, failed and metrics. Scratch files
go under .perfbench_work/ in the checkout. BLAS runs with one thread per CPU
this process may use. Exits 2 when the checkout has no deft sources.
"""

import os
import sys

if __name__ == "__main__":
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    from bench import main

    sys.exit(main(sys.argv[1:]))
