"""Continuous wavelet scalograms, adaptive cutoff selection, and filters.

The denoising strategy: compare the normalized wavelet-coefficient slice at
the impact instant (transient noise + steady-state signal) with the slice at
the end of the analysis window (steady state only).  The lowest frequency
where the difference exceeds a threshold marks the onset of transient noise
(``f_n``); the highest frequency still present at the end marks the
steady-state band (``f_ss``).  The low-pass cutoff is ``max(f_ss, f_n)``
capped at 180 Hz, and is applied with a zero-phase Butterworth filter.

Implementation choices the underlying method leaves open (documented here,
configurable where it matters): analytic Morlet wavelet with center frequency
``MORLET_OMEGA0 = 6`` rad/s, 12 voices per octave from 2 Hz to Nyquist/2.001,
symmetric boundary padding, zero-phase (forward-backward) filtering so the
filter adds no group delay to the curves being compared.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries1, TimeSeries3
from .errors import DataError, DegenerateSignalError

__all__ = [
    "Scalogram",
    "CoefficientSlices",
    "CutoffResult",
    "cwt",
    "normalized_slices",
    "select_cutoff",
    "resolve_cutoff",
    "butterworth_lowpass",
    "cfc_filter",
    "MORLET_OMEGA0",
    "VOICES_PER_OCTAVE",
    "GRID_FMIN_HZ",
    "CUTOFF_CAP_HZ",
]

log = logging.getLogger(__name__)

#: Center (angular) frequency of the analytic Morlet wavelet.
MORLET_OMEGA0 = 6.0
#: Log-frequency grid resolution; resolves threshold crossings to ~6%.
VOICES_PER_OCTAVE = 12
#: Lowest analyzed frequency in Hz.
GRID_FMIN_HZ = 2.0
#: Upper limit for the adaptive cutoff (SAE J211 guidance).
CUTOFF_CAP_HZ = 180.0
#: Minimum series length accepted by :func:`cwt`.
MIN_CWT_SAMPLES = 64


@dataclass(frozen=True)
class Scalogram:
    """|CWT| magnitudes over a time x frequency grid.

    Attributes
    ----------
    times : numpy.ndarray, shape (n,)
        Sample times of the analyzed series, in seconds.
    freqs : numpy.ndarray, shape (m,)
        Strictly increasing log-spaced frequency grid, in Hz.
    coeffs : numpy.ndarray, shape (m, n)
        Non-negative coefficient magnitudes; ``coeffs[j, i]`` is the response
        at ``freqs[j]``, ``times[i]``.
    coi_hz : numpy.ndarray, shape (n,)
        Cone of influence: at time ``times[i]``, coefficients below
        ``coi_hz[i]`` are affected by the series boundaries.
    """

    times: np.ndarray
    freqs: np.ndarray
    coeffs: np.ndarray
    coi_hz: np.ndarray


@dataclass(frozen=True)
class CoefficientSlices:
    """Two normalized coefficient slices sharing one frequency grid.

    Both slices are divided by the maximum of the start slice over frequency,
    so ``at_start`` peaks at exactly 1.
    """

    freqs: np.ndarray
    at_start: np.ndarray
    at_end: np.ndarray
    t_start: float
    t_end: float


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of the adaptive cutoff selection.

    ``f_n`` is None when no transient was found (the noise-onset condition
    never fires); the cutoff then falls back to the cap.  ``f_ss`` is None
    when no steady-state content clears the threshold.
    """

    f0: float
    f_ss: float | None
    f_n: float | None
    slices: CoefficientSlices


def frequency_grid(sample_rate: float) -> np.ndarray:
    """Log-spaced grid from ``GRID_FMIN_HZ`` to Nyquist/2.001 at
    ``VOICES_PER_OCTAVE`` voices per octave."""
    fmin, voices = GRID_FMIN_HZ, VOICES_PER_OCTAVE
    fmax = sample_rate / 2.0 / 2.001
    if fmax <= fmin:
        raise DataError(
            f"sample rate {sample_rate} Hz too low for the {fmin} Hz grid floor"
        )
    n_steps = int(np.floor(voices * np.log2(fmax / fmin)))
    return fmin * 2.0 ** (np.arange(n_steps + 1) / voices)


def cwt(x: TimeSeries1) -> Scalogram:
    """Continuous wavelet transform magnitude of a scalar series.

    Uses an analytic Morlet wavelet evaluated in the frequency domain, with
    the series symmetrically padded by its own length on both sides to tame
    boundary effects.  Magnitudes are normalized so a unit-amplitude sinusoid
    at an on-grid frequency produces a coefficient magnitude of ~0.5
    regardless of frequency, which keeps the threshold logic amplitude-fair
    across the band.

    Parameters
    ----------
    x : TimeSeries1
        Input signal; at least 64 samples.  The frequency grid is
        :func:`frequency_grid` of the series rate.

    Raises
    ------
    DataError
        If the series is shorter than 64 samples.
    """
    from scipy.fft import fft, ifft, next_fast_len

    n = len(x)
    if n < MIN_CWT_SAMPLES:
        raise DataError(f"cwt needs at least {MIN_CWT_SAMPLES} samples, got {n}")
    freqs = frequency_grid(x.sample_rate)

    padded = np.pad(x.values, n, mode="symmetric")
    nfft = next_fast_len(3 * n)
    spectrum = fft(padded, nfft)
    ang = 2.0 * np.pi * np.fft.fftfreq(nfft, d=x.dt)

    # One wavelet filter per grid frequency: psi_hat(a*xi) with peak 1 at the
    # matched scale, zero on non-positive frequencies (analytic wavelet).
    scales = MORLET_OMEGA0 / (2.0 * np.pi * freqs)
    arg = scales[:, None] * ang[None, :]
    filters = np.where(arg > 0.0, np.exp(-0.5 * (arg - MORLET_OMEGA0) ** 2), 0.0)

    transformed = ifft(spectrum[None, :] * filters, axis=1)
    coeffs = np.abs(transformed[:, n:2 * n])

    # Cone of influence: sqrt(2)*scale e-folding; below coi_hz(t) the wavelet
    # support extends past the nearer series edge.
    t_rel = np.arange(n) / x.sample_rate
    dist = np.minimum(t_rel, t_rel[-1] - t_rel)
    with np.errstate(divide="ignore"):
        coi = np.sqrt(2.0) * MORLET_OMEGA0 / (2.0 * np.pi * dist)
    return Scalogram(times=x.times, freqs=freqs, coeffs=coeffs, coi_hz=coi)


def normalized_slices(sc: Scalogram, t_start: float, t_end: float) -> CoefficientSlices:
    """Extract coefficient slices at two times, normalized by the start slice.

    Both slices are divided by ``max_eta w(t_start, eta)`` so the start slice
    peaks at exactly 1.  Slice times snap to the nearest sample.

    Raises
    ------
    DataError
        If either time lies outside the scalogram span.
    DegenerateSignalError
        If the slice at ``t_start`` is identically zero.
    """
    tmin, tmax = sc.times[0], sc.times[-1]
    for name, t in (("t_start", t_start), ("t_end", t_end)):
        if t < tmin - 1e-12 or t > tmax + 1e-12:
            raise DataError(
                f"{name}={t:.6f} s outside scalogram span [{tmin:.6f}, {tmax:.6f}] s"
            )
    i0 = int(np.argmin(np.abs(sc.times - t_start)))
    i1 = int(np.argmin(np.abs(sc.times - t_end)))
    w0 = sc.coeffs[:, i0]
    peak = w0.max()
    if peak <= 0.0:
        raise DegenerateSignalError(
            f"all-zero coefficient slice at t={t_start:.6f} s"
        )
    if sc.coi_hz[i0] > sc.freqs[0] or sc.coi_hz[i1] > sc.freqs[0]:
        log.debug(
            "slice times partially inside the cone of influence "
            "(coi %.1f / %.1f Hz at start/end)", sc.coi_hz[i0], sc.coi_hz[i1],
        )
    return CoefficientSlices(
        freqs=sc.freqs,
        at_start=w0 / peak,
        at_end=sc.coeffs[:, i1] / peak,
        t_start=float(sc.times[i0]),
        t_end=float(sc.times[i1]),
    )


def resolve_cutoff(f_ss: float | None, f_n: float | None,
                   cap: float = CUTOFF_CAP_HZ) -> float:
    """Combine the steady-state and noise-onset frequencies into the cutoff.

    ``max(f_ss, f_n)`` capped at ``cap``.  A missing ``f_n`` (no detectable
    transient) acts as +infinity, so the cutoff is the cap; a missing ``f_ss``
    simply drops out of the max.
    """
    if f_n is None:
        return cap
    candidates = [f_n] if f_ss is None else [f_ss, f_n]
    return min(max(candidates), cap)


def select_cutoff(slices: CoefficientSlices, threshold: float = 0.1,
                  cap: float = CUTOFF_CAP_HZ) -> CutoffResult:
    """Pick the adaptive low-pass cutoff from two normalized slices.

    ``f_n`` is the lowest grid frequency where the start-minus-end difference
    exceeds ``threshold`` (transient noise onset); ``f_ss`` is the highest
    grid frequency where the end slice still exceeds ``threshold``
    (steady-state content).  See :func:`resolve_cutoff` for the combination
    rule; the result never exceeds ``cap``.
    """
    freqs = slices.freqs
    delta = slices.at_start - slices.at_end
    noise_idx = np.nonzero(delta > threshold)[0]
    f_n = float(freqs[noise_idx[0]]) if noise_idx.size else None
    ss_idx = np.nonzero(slices.at_end > threshold)[0]
    f_ss = float(freqs[ss_idx[-1]]) if ss_idx.size else None
    f0 = resolve_cutoff(f_ss, f_n, cap)
    return CutoffResult(f0=f0, f_ss=f_ss, f_n=f_n, slices=slices)


#: Samples of odd extension at each end of a zero-phase filter: three times
#: the 3 taps of one 2-pole section, as scipy's ``sosfiltfilt`` pads.
_PAD = 9


def _butter_section(cutoff: float, rate: float):
    """``(b0, b1, b2, a1, a2)`` and initial state ``(z0, z1)`` of the
    2-pole Butterworth low-pass with its -3 dB point at ``cutoff`` Hz.

    The steps follow scipy's ``butter(2, cutoff, fs=rate, output="sos")``
    and ``sosfilt_zi`` one by one (``buttap``, ``lp2lp_zpk``,
    ``bilinear_zpk``, ``zpk2sos``, ``lfilter_zi``), in the same order and
    with the same numpy operations, so every coefficient is the same float
    as scipy's.
    """
    wn = np.asarray(cutoff, dtype=np.float64) / (rate / 2)
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))
    p = wo * -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    # The gain is taken before the bilinear map, as bilinear_zpk does.
    k = wo**2 * np.real(1.0 / np.prod(4.0 - p))
    pz = (4.0 + p) / (4.0 - p)
    # zpk2sos keeps the average of the conjugate pair.
    p1 = ((pz[pz.imag > 0] + pz[pz.imag < 0].conj()) / 2)[0]
    a = np.real(np.convolve(np.convolve([1.0 + 0j], [1.0, -p1]),
                            [1.0, -np.conj(p1)]))
    b = k * np.array([1.0, 2.0, 1.0])
    # lfilter_zi: the steady state of a unit step, I - companion(a).T.
    zi = np.linalg.solve(np.array([[1.0 + a[1], -1.0], [a[2], 1.0]]),
                         b[1:] - a[1:] * b[0])
    return (*b.tolist(), *a[1:].tolist()), tuple(zi.tolist())


def _biquad(coef, xs: list, z0: float, z1: float) -> list:
    """One pass of the section over ``xs`` in transposed direct form II,
    with ``sosfilt``'s statement order, from state ``(z0, z1)``."""
    b0, b1, b2, a1, a2 = coef
    out = []
    append = out.append
    for x in xs:
        y = b0 * x + z0
        z0 = b1 * x - a1 * y + z1
        z1 = b2 * x - a2 * y
        append(y)
    return out


def _filtfilt(coef, zi, x: np.ndarray) -> list:
    """``sosfiltfilt`` of one column: odd extension by ``_PAD`` samples,
    a forward and a backward pass each started at the steady state of its
    first sample, then the extension trimmed."""
    ext = np.concatenate((2 * x[0] - x[_PAD:0:-1], x,
                          2 * x[-1] - x[-2:-_PAD - 2:-1])).tolist()
    y = _biquad(coef, ext, zi[0] * ext[0], zi[1] * ext[0])
    y.reverse()
    y = _biquad(coef, y, zi[0] * y[0], zi[1] * y[0])
    y.reverse()
    return y[_PAD:-_PAD]


def _butter_zero_phase(ts, cutoff: float):
    """``ts`` run forward and backward through a 2-pole Butterworth low-pass
    with its -3 dB point at ``cutoff`` Hz.

    Raises
    ------
    DataError
        If ``cutoff`` is not strictly between 0 and the Nyquist frequency,
        is too small a fraction of it to design the section, or the series
        has fewer than ``_PAD + 1`` samples.
    """
    nyquist = ts.sample_rate / 2.0
    if not 0.0 < cutoff < nyquist:
        raise DataError(
            f"cutoff {cutoff} Hz must lie strictly between 0 and Nyquist ({nyquist} Hz)"
        )
    if len(ts) <= _PAD:
        raise DataError(
            f"zero-phase filter needs at least {_PAD + 1} samples, got {len(ts)}"
        )
    try:
        coef, zi = _butter_section(cutoff, ts.sample_rate)
    except (np.linalg.LinAlgError, IndexError):
        # A singular initial-state solve, or poles so close to 1 that their
        # imaginary parts round to 0.
        raise DataError(f"cutoff {cutoff:.6g} Hz is too low to design a filter at "
                        f"{ts.sample_rate:g} Hz") from None
    data = ts._data
    out = np.array([_filtfilt(coef, zi, col)
                    for col in data.reshape(len(ts), -1).T]).T
    return type(ts)(ts.start_time, ts.sample_rate, out.reshape(data.shape))


def butterworth_lowpass(x: TimeSeries1 | TimeSeries3, f0: float):
    """Zero-phase 4-pole Butterworth low-pass at cutoff ``f0``.

    A 2-pole Butterworth section with its -3 dB point at ``f0`` is applied
    forward and backward, cancelling phase and doubling the magnitude
    attenuation: the effective response has 4 poles and is -6 dB at ``f0``.
    DC gain is 1.

    Raises
    ------
    DataError
        If ``f0`` is not strictly between 0 and the Nyquist frequency, or the
        series has fewer than 10 samples.
    """
    return _butter_zero_phase(x, f0)


#: SAE J211 per-pass design factor: the 2-pole section is tuned at
#: 2.0775 x CFC so the forward-backward pair lands its -3 dB point at
#: ~1.65 x CFC (1650 Hz for CFC 1000, ~256 Hz for CFC 155).
_CFC_DESIGN_FACTOR = 2.0775
_CFC_RATE_FACTOR = 10.0 * 1.65


def cfc_filter(x: TimeSeries1 | TimeSeries3, cfc_class: float):
    """Channel Frequency Class filter: phaseless 4-pole Butterworth.

    A 2-pole Butterworth designed at ``2.0775 x class`` Hz is run forward and
    backward, giving the standard channel-class response with the overall
    -3 dB frequency at ``1.65 x class`` Hz and no phase distortion.

    Emits a warning (never an error) when the sample rate is below the
    recommended 10x the class -3 dB frequency; if the design frequency would
    reach Nyquist, it is clamped just below it.

    Raises
    ------
    DataError
        If ``cfc_class`` is not a positive number, or the series has fewer
        than 10 samples.
    """
    if cfc_class <= 0:
        raise DataError(f"CFC class must be positive, got {cfc_class}")
    rate = x.sample_rate
    if rate < _CFC_RATE_FACTOR * cfc_class:
        warnings.warn(
            f"sample rate {rate:g} Hz is below the recommended "
            f"{_CFC_RATE_FACTOR * cfc_class:g} Hz for CFC {cfc_class:g}; "
            "response accuracy degrades near Nyquist",
            stacklevel=2,
        )
    design = _CFC_DESIGN_FACTOR * cfc_class
    nyquist = rate / 2.0
    if design >= nyquist:
        design = 0.995 * nyquist
    return _butter_zero_phase(x, design)
