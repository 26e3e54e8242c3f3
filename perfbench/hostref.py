"""Fixed reference kernel that measures how fast the host runs right now.

The 2-core host this benchmark was built on changes speed by up to 80 %
over tens of seconds (noisy neighbours; process CPU time drifts with wall
time, so it is not steal time).  Every timed unit of the benchmark is
therefore bracketed by timings of this kernel, and each raw time is
scaled by REF_NOMINAL_MS / (reference time measured around it), which
reports it at nominal host speed.

The kernel uses numpy and scipy only, single-threaded, and never calls
phasekit, so a change to phasekit cannot move it.  Its four parts mirror
what the workloads spend their time on: a 2D complex FFT pair, a complex
exponential (the chirps), a complex matmul and a Hermitian eigensolve.
The sizes were chosen by timing each candidate part next to the jobs over
two minutes and keeping the ones whose ratio to the job time varied least.
The functions are bound here at import, so the traced run, which wraps
scipy.linalg.eigh and the scipy.fft entry points, never sees them.
"""

from __future__ import annotations

import time

import numpy as np
from numpy import exp as _exp
from numpy import matmul as _matmul
from scipy.fft import fft2 as _fft2
from scipy.fft import ifft2 as _ifft2
from scipy.linalg import eigh as _eigh

#: Kernel time, in ms, that defines nominal host speed.  Fixed once, on the
#: 2-core Intel Xeon host at its fast state, and never tuned afterwards:
#: changing it rescales every reported time.
REF_NOMINAL_MS = 10.0

_SEED = 20140114
_FFT_N = 256
_EXP_N = 256
_MATMUL_N = 128
_EIGH_N = 128


class HostReference:
    """The reference kernel with its fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_SEED)

        def complex_matrix(n: int) -> np.ndarray:
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        self._fft_in = complex_matrix(_FFT_N)
        self._phase = 1j * rng.uniform(-np.pi, np.pi, (_EXP_N, _EXP_N))
        self._left = complex_matrix(_MATMUL_N)
        self._right = complex_matrix(_MATMUL_N)
        h = complex_matrix(_EIGH_N)
        self._hermitian = h + h.conj().T
        self.measure_ms()  # first calls pay for plan and workspace set-up

    def _run(self) -> float:
        spectrum = _ifft2(_fft2(self._fft_in, workers=1), workers=1)
        chirp = _exp(self._phase)
        product = _matmul(self._left, self._right)
        values = _eigh(self._hermitian, eigvals_only=True)
        # Consume every result so no part can be skipped.
        return float(spectrum[0, 0].real + chirp[0, 0].real
                     + product[0, 0].real + values[0])

    def measure_ms(self) -> float:
        """One timing of the whole kernel, in milliseconds."""
        start = time.perf_counter()
        self._run()
        return (time.perf_counter() - start) * 1e3


def local_reference(refs: list[float], job: int) -> float:
    """Reference time for timed unit `job`, which ran between refs[job] and
    refs[job + 1]: the median of the four timings nearest it (two before,
    two after), so one disturbed timing cannot set a job's scale."""
    lo = max(0, job - 1)
    hi = min(len(refs), job + 3)
    return float(np.median(refs[lo:hi]))


def scale(ref_ms: float) -> float:
    """Factor that takes a time measured at reference time ref_ms to
    nominal host speed."""
    return REF_NOMINAL_MS / ref_ms
