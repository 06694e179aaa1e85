"""The array kernel of scatter's amplitude columns.

scatter._amplitude_columns imports this module only once numpy is
loaded, so a process without numpy, as every closed-form CLI process
is, never compiles it.  Its bits are those of
scatter.scattering_amplitudes at each energy.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .core import Mat2
from .scatter import _AMPLITUDE_MAX, _DEGENERACY_TOL


def _amplitude_block(junction: Mat2, k: np.ndarray) -> tuple[list | None, tuple]:
    """A code per energy, and the columns (r, t, reflect_prob,
    transmit_prob, flux_residual) of scatter._amplitude_columns for finite
    energies k.

    The code is 0 for a good energy, else why it fails: 1 for k <= 0 (or
    nan), 2 for D = 0, 3 for |r| or |t| from _AMPLITUDE_MAX.  The codes are
    None where every energy is good; a failing energy's columns hold nan.
    The nan fills run only for a block where some energy fails.
    """
    j11, j12, j21, j22 = junction.m11, junction.m12, junction.m21, junction.m22
    with np.errstate(all="ignore"):
        q = np.sqrt(k)
        d_re, d_im = k * j12 - j21, q * (j11 + j22)
        degenerate = (np.hypot(d_re, d_im) == np.inf) | (
            (abs(d_re) <= _DEGENERACY_TOL * (k * abs(j12) + abs(j21)))
            & (abs(d_im) <= _DEGENERACY_TOL * (q * (abs(j11) + abs(j22))))
        )
        code = np.where(k > 0.0, np.where(degenerate, 2, 0), 1)
        r_re, r_im = _c_quot(k * j12 + j21, q * (j22 - j11), d_re, d_im)
        # CPython 3.11 turns the float operand of a mixed float/complex
        # operation into complex(x, 0.0) and then runs the complex formula,
        # 0.0 parts included, so they are spelled out to keep signed zeros.
        a_re, a_im = _c_prod(j11, 0.0, 1.0 + r_re, 0.0 + r_im)  # j11 * (1.0 + r)
        b_re, b_im = _c_prod(0.0, 1.0, q, 0.0)  # 1j * q
        b_re, b_im = _c_prod(b_re, b_im, j12, 0.0)  # ... * j12
        b_re, b_im = _c_prod(b_re, b_im, 1.0 - r_re, 0.0 - r_im)  # ... * (1.0 - r)
        amps = np.empty((2, k.size), dtype=complex)
        amps[0].real, amps[0].imag = r_re, r_im
        amps[1].real, amps[1].imag = a_re + b_re, a_im + b_im
        failing = code != 0
        if failing.any():
            amps[:, failing] = complex(math.nan, math.nan)
        mods = np.hypot(amps.real, amps.imag)
        fine = (mods < _AMPLITUDE_MAX).all(axis=0)
        if not fine.all():  # a failing energy's nan modulus is not fine either
            overflow = ~failing & ~fine
            code[overflow] = 3
            amps[:, overflow] = complex(math.nan, math.nan)
            mods[:, overflow] = math.nan
        # abs(.) ** 2 is libm's pow(x, 2.0), as is math.pow, and rounds
        # differently from x * x
        rr, tt = (list(map(math.pow, row.tolist(), repeat(2.0))) for row in mods)
        det_j = junction.det()
        rr_a, tt_a = (np.fromiter(col, float, k.size) for col in (rr, tt))
        flux = (tt_a + det_j * rr_a - det_j) / np.maximum(1.0, np.maximum(rr_a, tt_a))
    codes = code.tolist() if code.any() else None
    return codes, (*amps.tolist(), rr, tt, flux.tolist())


def _c_quot(a_re, a_im, b_re, b_im):
    """a / b as CPython's _Py_c_quot (Smith's method), over arrays.

    Its zero-divisor branch (ZeroDivisionError) and its nan branch never
    apply to the rows kept: they are flagged as inconsistent first.
    """
    real_first = abs(b_re) >= abs(b_im)
    ratio = np.where(real_first, b_im / b_re, b_re / b_im)
    denom = np.where(real_first, b_re + b_im * ratio, b_re * ratio + b_im)
    re = np.where(real_first, a_re + a_im * ratio, a_re * ratio + a_im) / denom
    im = np.where(real_first, a_im - a_re * ratio, a_im * ratio - a_re) / denom
    return re, im


def _c_prod(a_re, a_im, b_re, b_im):
    """a * b as CPython's _Py_c_prod."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re
