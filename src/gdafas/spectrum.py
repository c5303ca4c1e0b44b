"""2-d Fourier analysis, spectrum mixup, and the phase-alignment loss.

Every transform runs through ``np.fft``. The phase-alignment loss is one
taped node: its forward reads the half spectrum of a real image
(``rfft2``) and its backward is the closed-form adjoint (``irfft2``).

Conventions: unnormalized forward transform ``F[k,l] = sum x[m,n]
exp(-2 pi i (km/H + ln/W))``, inverse scaled by ``1/(HW)``. Phase lies in
``(-pi, pi]``; amplitude is nonnegative. Images reconstruct from an
amplitude/phase pair as the real part of the inverse transform of
``A * exp(+i P)``.
"""

import numpy as np

from . import tensor as T
from .rng import Rng

_NORM_FLOOR = 1e-8


def _amplitude(spec: np.ndarray) -> np.ndarray:
    """Nonnegative amplitude of a complex spectrum."""
    return np.hypot(spec.real, spec.imag)


def amp_phase(spec: np.ndarray):
    """(amplitude, phase) of a complex spectrum; phase in (-pi, pi]."""
    phase = np.arctan2(spec.imag, spec.real)
    # arctan2 can return -pi (e.g. imag = -0.0, real < 0); fold onto +pi
    phase = np.where(phase == -np.pi, np.pi, phase)
    return _amplitude(spec), phase


def reconstruct(amp: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Image whose spectrum has the given polar form."""
    return np.fft.ifft2(amp * np.cos(phase) + 1j * (amp * np.sin(phase))).real


def sample_lambda(rng: Rng, n: int, eta: float) -> np.ndarray:
    """Per-image mixing weights, uniform on [0, eta)."""
    return rng.uniform(n, 0.0, eta)


def specmix(x: np.ndarray, x_ref: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Blend each image's spectrum amplitude toward a reference image's.

    Keeps the original phase, mixes amplitudes with per-image weight lam,
    reconstructs, and clips to the valid [0, 1] pixel range.
    """
    own_amp, own_phase = amp_phase(np.fft.fft2(x))
    return _mix_amplitudes(x, own_amp, own_phase,
                           _amplitude(np.fft.fft2(x_ref)), lam)


def specmix_batch(x: np.ndarray, rng: Rng, eta: float):
    """SpecMix against derangement partners drawn from the same batch: the
    values of ``specmix(x, x[partners], lam)`` from one transform of x.

    Returns (mixed images, partner indices, lambda weights).
    """
    partners = rng.derangement(x.shape[0])
    lam = sample_lambda(rng, x.shape[0], eta)
    own_amp, own_phase = amp_phase(np.fft.fft2(x))
    mixed = _mix_amplitudes(x, own_amp, own_phase, own_amp[partners], lam)
    return mixed, partners, lam


def _mix_amplitudes(x, own_amp, own_phase, ref_amp, lam):
    w = lam.reshape(-1, *([1] * (x.ndim - 1)))
    mixed_amp = (1.0 - w) * own_amp + w * ref_amp
    out = reconstruct(mixed_amp, own_phase)
    return np.clip(out, 0.0, 1.0).astype(x.dtype, copy=False)


def phase_alignment_loss(x_ref: np.ndarray, x: T.Tensor) -> T.Tensor:
    """Negative mean cosine alignment between the two images' spectra.

    Each spectrum bin is treated as the 2-vector (real, imag). Bins where
    either side's magnitude falls below 1e-8 are excluded through a mask that
    is held constant, as is the whole reference branch. The result is the
    per-image sum over bins, averaged over the batch, negated, so perfect
    phase agreement on all kept bins of [B, C, H, W] input reaches -C*H*W.
    The reference spectrum is taken in float64 and its unit vectors are cast
    to the precision of x's spectrum. The sum accumulates and returns
    float64.

    One taped node. A real image's spectrum is conjugate-symmetric, and a
    bin and its mirror have the same cosine, so the forward sums the
    ``rfft2`` half spectrum with column weights: 1 on column 0 and on the
    Nyquist column (even W), 2 on every other column, whose bins each stand
    for their mirror too. On kept bins the cosine c = Re(X conj(U)) / |X|
    has the complex gradient (U - c X/|X|) / |X|; its inverse real
    transform, scaled by H*W, is the gradient with respect to the image.
    """
    h, w = x.shape[-2:]
    xd = x.data
    spec = np.fft.rfft2(xd)
    unit = _unit_reference(x_ref, spec)
    _, cos = _cosines(spec, unit)
    weights = np.full(cos.shape[-1], 2.0, cos.dtype)
    weights[0] = 1.0
    if w % 2 == 0:
        weights[-1] = 1.0
    batch = x.shape[0]
    out = T.Tensor(-np.sum(cos * weights, dtype=np.float64) / batch)

    def fn(g):
        # x's terms are recomputed, so the node keeps only x and unit
        spec = np.fft.rfft2(xd)
        safe, cos = _cosines(spec, unit)
        g_half = (unit - cos * spec / safe) / safe
        scale = -np.float64(g) * (h * w) / batch
        return ((np.fft.irfft2(g_half, s=(h, w)) * scale).astype(
            xd.dtype, copy=False),)

    return T._record(out, (x,), fn)


def _unit_reference(x_ref: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """The reference's unit half-spectrum vectors in the precision of x's
    half spectrum ``spec``, zero on masked bins (either side's norm below
    the floor), so their cosine is zero. A kept bin's unit vector is never
    zero, so ``unit != 0`` is the mask."""
    ref = np.fft.rfft2(np.asarray(x_ref, dtype=np.float64))
    ref_norm = np.hypot(ref.real, ref.imag)
    mask = ((ref_norm >= _NORM_FLOOR)
            & (np.hypot(spec.real, spec.imag) >= _NORM_FLOOR))
    unit = np.where(mask, ref / np.where(mask, ref_norm, 1.0), 0.0)
    return unit.astype(spec.dtype)


def _cosines(spec: np.ndarray, unit: np.ndarray):
    """x's bin norms with masked bins set to 1, and the per-bin cosines."""
    safe = np.where(unit != 0, np.hypot(spec.real, spec.imag), 1.0)
    return safe, (spec.real * unit.real + spec.imag * unit.imag) / safe
