"""Zero-shot IoT device fingerprinting toolkit.

Pipeline: ingest packet traces, train a self-attention feature extractor on
seen devices, derive per-device attribute vectors, train a conditional VAE to
synthesize pseudo latents for all devices, and classify seen and unseen
devices with a linear SVM. Clustering baselines (VAE-K, SeqCR, SeqCS, DEFT)
run over the same extracted features.

Imported before numpy with no BLAS thread count set, the package sets one:
a run's bytes then do not depend on the host's CPU count, and SANE's helper
thread gets the second CPU (`sane._helper_gets_a_cpu`).
"""

import os
import sys

# where OpenBLAS, numpy's BLAS, reads its thread count as it loads, the first
# set winning (none: one thread per CPU); once numpy has loaded, a count set
# would only mislead `sane`
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not os.environ.keys() & {*_BLAS_THREAD_VARS}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
