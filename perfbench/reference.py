"""Reference kernel: a fixed amount of work that does not touch tqsl.

The host this benchmark was written on changes speed by up to 1.7x over
minutes, for tqsl and for plain numpy loops alike. run.py therefore runs
this kernel on either side of every pass and before every set-up probe,
and reports each time scaled to reference speed:

    scaled = measured / kernel time * REF_SECONDS

that is, in seconds on a host where the kernel takes REF_SECONDS. A change
to tqsl moves the scaled time as it moves the measured one; a change of
host speed moves both the pass and the kernel, and cancels. Changing the
kernel or REF_SECONDS changes the unit, so neither may change without
measuring the baseline again.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

# A round figure near the kernel's median time on the machine the baseline
# was recorded on (2-core Xeon VM, one BLAS thread).
REF_SECONDS = 0.035


@dataclass(frozen=True)
class _Record:
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite record")


def reference_kernel() -> float:
    """Run the fixed work (small Hermitian eigensolves, validated records,
    number formatting, a 128x128 complex matrix power); return its wall time."""
    start = perf_counter()
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = a + a.conj().T
    m = rng.normal(size=(128, 128)) + 0j
    lines = []
    for _ in range(600):
        w, v = np.linalg.eigh(a)
        record = _Record(v @ (w * v[:, 0]))
        lines.append(f"{float(record.values[0].real):.12g}")
    for _ in range(20):
        m = m @ m
        m /= np.abs(m).max()
    return perf_counter() - start
