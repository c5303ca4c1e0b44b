"""2-d Fourier analysis, spectrum mixup, and the phase-alignment loss.

Two routes compute the same transform. The fast route wraps ``np.fft``,
returns complex arrays and is used everywhere data flows. The second,
differentiable route expresses the DFT as matrix products so the tape can
carry gradients through spectral quantities.

Conventions: unnormalized forward transform ``F[k,l] = sum x[m,n]
exp(-2 pi i (km/H + ln/W))``, inverse scaled by ``1/(HW)``. Phase lies in
``(-pi, pi]``; amplitude is nonnegative. Images reconstruct from an
amplitude/phase pair as the real part of the inverse transform of
``A * exp(+i P)``.
"""

import functools

import numpy as np

from . import tensor as T
from .rng import Rng

_NORM_FLOOR = 1e-8


def dft2d(x: np.ndarray) -> np.ndarray:
    """Complex forward DFT of a real [..., H, W] array over its last axes."""
    return np.fft.fft2(x, axes=(-2, -1))


def idft2d(spec: np.ndarray) -> np.ndarray:
    """Inverse DFT; returns the complex result, callers take .real as needed."""
    return np.fft.ifft2(spec, axes=(-2, -1))


def amp_phase(spec: np.ndarray):
    """(amplitude, phase) of a complex spectrum; phase in (-pi, pi]."""
    amp = np.hypot(spec.real, spec.imag)
    phase = np.arctan2(spec.imag, spec.real)
    # arctan2 can return -pi (e.g. imag = -0.0, real < 0); fold onto +pi
    phase = np.where(phase == -np.pi, np.pi, phase)
    return amp, phase


def reconstruct(amp: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Image whose spectrum has the given polar form."""
    return idft2d(amp * np.cos(phase) + 1j * (amp * np.sin(phase))).real


@functools.lru_cache(maxsize=8)
def dft_matrices(h: int, w: int, dtype):
    """Cosine/sine factor matrices for the matrix-product DFT, computed in
    float64 and cast to ``dtype`` (one cached set per dtype)."""
    km = np.outer(np.arange(h), np.arange(h)) * (2.0 * np.pi / h)
    ln = np.outer(np.arange(w), np.arange(w)) * (2.0 * np.pi / w)
    return tuple(m.astype(dtype) for m in
                 (np.cos(km), np.sin(km), np.cos(ln), np.sin(ln)))


def dft2d_taped(x: T.Tensor):
    """Differentiable DFT of a [..., H, W] tensor as (real, imag) tensors.

    With row factor A = cos - i sin and column factor B likewise,
    A x B = (Ca x Cb - Sa x Sb) - i (Ca x Sb + Sa x Cb). The factor
    matrices take x's dtype.
    """
    h, w = x.shape[-2], x.shape[-1]
    ca, sa, cb, sb = dft_matrices(h, w, x.data.dtype.type)
    ca, sa, cb, sb = T.Tensor(ca), T.Tensor(sa), T.Tensor(cb), T.Tensor(sb)
    cax = T.matmul(ca, x)
    sax = T.matmul(sa, x)
    real = T.sub(T.matmul(cax, cb), T.matmul(sax, sb))
    imag = T.neg(T.add(T.matmul(cax, sb), T.matmul(sax, cb)))
    return real, imag


def check_eta(eta: float):
    """Raise ``ValueError`` unless the mixing cap eta lies in [0, 1], so that
    every lambda ~ U(0, eta) keeps the mixed amplitude a convex combination
    (NaN fails the comparison too)."""
    if not 0 <= eta <= 1:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


def sample_lambda(rng: Rng, n: int, eta: float) -> np.ndarray:
    """Per-image mixing weights, uniform on [0, eta)."""
    return rng.uniform(n, 0.0, eta)


def specmix(x: np.ndarray, x_ref: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Blend each image's spectrum amplitude toward a reference image's.

    Keeps the original phase, mixes amplitudes with per-image weight lam,
    reconstructs, and clips to the valid [0, 1] pixel range.
    """
    own_amp, own_phase = amp_phase(dft2d(x))
    ref_amp, _ = amp_phase(dft2d(x_ref))
    w = lam.reshape(-1, *([1] * (x.ndim - 1)))
    mixed_amp = (1.0 - w) * own_amp + w * ref_amp
    out = reconstruct(mixed_amp, own_phase)
    return np.clip(out, 0.0, 1.0).astype(x.dtype, copy=False)


def specmix_batch(x: np.ndarray, rng: Rng, eta: float):
    """SpecMix against derangement partners drawn from the same batch.

    Returns (mixed images, partner indices, lambda weights).
    """
    partners = rng.derangement(x.shape[0])
    lam = sample_lambda(rng, x.shape[0], eta)
    return specmix(x, x[partners], lam), partners, lam


def phase_alignment_loss(x_ref: np.ndarray, x: T.Tensor) -> T.Tensor:
    """Negative mean cosine alignment between the two images' spectra.

    Each spectrum bin is treated as the 2-vector (real, imag). Bins where
    either side's magnitude falls below 1e-8 are excluded through a mask that
    is held constant, as is the whole reference branch. The result is the
    per-image sum over bins, averaged over the batch, negated, so perfect
    phase agreement on all kept bins of [B, C, H, W] input reaches -C*H*W.
    The reference spectrum is taken in float64; its unit vectors and the
    mask are cast to x's dtype.
    """
    ref = dft2d(np.asarray(x_ref, dtype=np.float64))
    ref_norm = np.hypot(ref.real, ref.imag)
    real, imag = dft2d_taped(x)
    norm = T.sqrt(T.add(T.square(real), T.square(imag)))
    mask = (ref_norm >= _NORM_FLOOR) & (norm.data >= _NORM_FLOOR)
    # unit reference vectors; masked bins get zeroed afterwards anyway
    safe = np.where(ref_norm < _NORM_FLOOR, 1.0, ref_norm)
    dtype = x.data.dtype
    u_real = np.where(mask, ref.real / safe, 0.0).astype(dtype)
    u_imag = np.where(mask, ref.imag / safe, 0.0).astype(dtype)
    dot = T.add(T.mul(real, T.Tensor(u_real)), T.mul(imag, T.Tensor(u_imag)))
    cos = T.mul(T.div(dot, norm), T.Tensor(mask.astype(dtype)))
    per_image = T.tsum(cos, axes=tuple(range(1, x.ndim)))
    return T.neg(T.tmean(per_image))
