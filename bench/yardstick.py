"""
Reference kernels that gauge the host's current speed
====================================================
A shared cloud host runs the same code up to twice as slowly for tens
of seconds to minutes at a time, and the guest cannot see it: thread
CPU time swings as much as wall time and no steal time is counted.  So
a plain wall time of an op tells as much about the neighbours as about
the library.

The benchmark therefore times a fixed reference kernel right before
each op, in the same thread of the same process on the same CPU, and
once more after the last op.  Nothing else runs meanwhile, so the
library cannot share the interpreter or the CPU with it.  An op's
reported time is its wall time times ``REF_S / t``, where ``t`` is the
mean time of the kernel runs just before and just after it.  ``REF_S``
is a fixed constant near the kernel's time on the reference host when
that host is not slowed, so reported times read as seconds on that
host.  The raw wall times go into the result file too.

There are two kernels, one for each kind of work a workload does:

  series   small numpy arrays, scipy special functions and interpreter
           overhead, like the fbl series and quadrature code
  sampler  one 250 x 2048 chunk of complex Gaussian draws, phase
           alignment and a coherent sum, like montecarlo.sample_snr:
           8 MB arrays, so it feels memory-bandwidth slowdowns too

Neither calls risfbl, so a change to the library cannot change them.
"""

import math
import time

import numpy as np
from scipy import special

_V = np.linspace(-8.0, 8.0, 401)
_KS = np.arange(1, 33, dtype=float)[:, None]


def series_kernel():
    acc = 0.0
    soft = np.log1p(np.exp(_V))[None, :]
    for k in range(1, 65):
        dens = np.exp(k * 0.05 * _V - np.exp(_V) - special.gammaln(k * 0.5))
        terms = np.exp(-0.1 * _KS * soft) @ dens
        acc += math.log1p(float(np.sum(terms))) + float(special.gammaln(k + 0.5))
    return acc


def sampler_kernel():
    rng = np.random.Generator(np.random.Philox(key=[1, 2]))
    shape = (250, 2048)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cascade = a * b
    total = np.sum(cascade * np.exp(-1j * np.angle(cascade)), axis=1)
    return float(np.sum(np.abs(total) ** 2))


# kernel name -> (function, REF_S in seconds)
KERNELS = {
    "series": (series_kernel, 0.004),
    "sampler": (sampler_kernel, 0.080),
}


def measure(kind):
    """Wall time of one run of kernel ``kind``, in seconds."""
    fn = KERNELS[kind][0]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def ref_s(kind):
    return KERNELS[kind][1]
