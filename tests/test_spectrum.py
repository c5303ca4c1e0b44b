"""The FFT matches the literal DFT; mixup and the phase loss behave."""

import numpy as np
import pytest

import gdafas.spectrum as S
import gdafas.tensor as T
from gdafas.gradcheck import max_rel_error
from gdafas.rng import Rng, derive_seed
from oracles import graph_bytes, naive_dft2d, phase_loss_and_grad


def test_roundtrip_inverse_of_forward():
    for trial in range(5):
        r = Rng(derive_seed(811, trial))
        x = r.uniform(2 * 3 * 8 * 8).reshape(2, 3, 8, 8)
        back = np.fft.ifft2(np.fft.fft2(x)).real
        assert np.abs(back - x).max() < 1e-9


def test_fft_route_matches_naive_double_sum():
    for trial in range(5):
        r = Rng(derive_seed(822, trial))
        x = r.uniform(64).reshape(8, 8)
        fast = np.fft.fft2(x)
        slow = naive_dft2d(x)
        assert np.abs(fast.real - slow.real).max() < 1e-9
        assert np.abs(fast.imag - slow.imag).max() < 1e-9


def test_parseval_energy_identity():
    for trial in range(5):
        r = Rng(derive_seed(833, trial))
        x = r.gaussian(16 * 16).reshape(16, 16)
        f = np.fft.fft2(x)
        spatial = np.sum(x * x)
        spectral = np.sum(f.real**2 + f.imag**2) / x.size
        assert abs(spatial - spectral) < 1e-6


def test_amp_phase_polar_roundtrip_and_range():
    r = Rng(86)
    x = r.uniform(2 * 8 * 8).reshape(2, 8, 8)
    amp, phase = S.amp_phase(np.fft.fft2(x))
    assert np.all(amp >= 0.0)
    assert np.all(phase > -np.pi) and np.all(phase <= np.pi)
    rec = S.reconstruct(amp, phase)
    assert np.abs(rec - x).max() < 1e-9


def test_phase_negative_pi_folds_to_positive():
    spec = np.array([[complex(-2.0, -0.0)]])
    assert np.arctan2(spec.imag, spec.real)[0, 0] == -np.pi
    assert S.amp_phase(spec)[1][0, 0] == np.pi


def test_specmix_zero_lambda_is_identity():
    r = Rng(87)
    x = r.uniform(3 * 2 * 8 * 8).reshape(3, 2, 8, 8)
    ref = x[[1, 2, 0]]
    mixed = S.specmix(x, ref, np.zeros(3))
    assert np.abs(mixed - x).max() < 1e-6


def test_specmix_with_self_reference_is_identity():
    r = Rng(88)
    x = r.uniform(3 * 2 * 8 * 8).reshape(3, 2, 8, 8)
    lam = S.sample_lambda(r, 3, 0.9)
    mixed = S.specmix(x, x, lam)
    assert np.abs(mixed - x).max() < 1e-6


def test_specmix_preserves_phase():
    # mid-range pixels keep the reconstruction inside [0, 1], so the final
    # clip is a no-op and phase must carry over exactly
    r = Rng(89)
    x = 0.25 + 0.5 * r.uniform(4 * 3 * 8 * 8).reshape(4, 3, 8, 8)
    mixed, partners, lam = S.specmix_batch(x, Rng(90), 0.1)
    assert not np.any(partners == np.arange(4))
    assert np.all(lam >= 0.0) and np.all(lam < 0.1)
    amp_before, phase_before = S.amp_phase(np.fft.fft2(x))
    amp_after, phase_after = S.amp_phase(np.fft.fft2(mixed))
    keep = (amp_before > 1e-8) & (amp_after > 1e-8)
    diff = np.abs(phase_after - phase_before)
    diff = np.minimum(diff, 2.0 * np.pi - diff)
    assert diff[keep].max() < 1e-6


def test_specmix_amplitude_is_convex_blend():
    r = Rng(91)
    x = 0.3 + 0.4 * r.uniform(2 * 1 * 8 * 8).reshape(2, 1, 8, 8)
    ref = x[[1, 0]]
    lam = np.array([0.05, 0.08])
    mixed = S.specmix(x, ref, lam)
    a_x, _ = S.amp_phase(np.fft.fft2(x))
    a_ref, _ = S.amp_phase(np.fft.fft2(ref))
    a_mix, _ = S.amp_phase(np.fft.fft2(mixed))
    expect = (1.0 - lam[:, None, None, None]) * a_x \
        + lam[:, None, None, None] * a_ref
    assert np.abs(a_mix - expect).max() < 1e-6


def test_specmix_output_stays_in_unit_range():
    r = Rng(92)
    x = r.uniform(4 * 3 * 8 * 8).reshape(4, 3, 8, 8)
    mixed, _, _ = S.specmix_batch(x, r, 0.9)
    assert mixed.min() >= 0.0 and mixed.max() <= 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [2, 3, 5, 8, 16])
def test_specmix_batch_is_specmix_against_its_partners(batch, dtype):
    # one transform of the batch serves both sides: the partners'
    # amplitudes are rows of the batch's own
    x = Rng(95 + batch).uniform(batch * 3 * 32 * 32).reshape(
        batch, 3, 32, 32).astype(dtype)
    mixed, partners, lam = S.specmix_batch(x, Rng(96), 0.5)
    want = S.specmix(x, x[partners], lam)
    assert mixed.dtype == want.dtype == dtype
    assert mixed.tobytes() == want.tobytes()


def test_phase_loss_is_minimal_for_identical_images():
    r = Rng(93)
    x = r.uniform(2 * 3 * 8 * 8).reshape(2, 3, 8, 8)
    loss = S.phase_alignment_loss(x, T.Tensor(x, requires_grad=True))
    f = np.fft.fft2(x)
    kept = np.hypot(f.real, f.imag) >= 1e-8
    n_kept = kept.reshape(2, -1).sum(axis=1).mean()
    assert abs(loss.item() + n_kept) < 1e-9


def test_phase_loss_bounds_and_gradient_flow():
    r = Rng(94)
    x_ref = r.uniform(2 * 1 * 8 * 8).reshape(2, 1, 8, 8)
    x = T.Tensor(r.uniform(2 * 1 * 8 * 8).reshape(2, 1, 8, 8),
                 requires_grad=True)
    with T.graph():
        loss = S.phase_alignment_loss(x_ref, x)
        T.backward(loss)
    n_bins = 1 * 8 * 8
    assert -n_bins <= loss.item() <= n_bins
    assert x.grad is not None
    assert np.all(np.isfinite(x.grad))
    assert np.abs(x.grad).max() > 0.0


def test_phase_loss_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(866, trial))
        x_ref = r.uniform(2 * 1 * 4 * 4).reshape(2, 1, 4, 4)
        x = 0.2 + 0.6 * r.uniform(2 * 1 * 4 * 4).reshape(2, 1, 4, 4)
        assert max_rel_error(
            lambda ts: S.phase_alignment_loss(x_ref, ts[0]), [x]) < 1e-4


def test_phase_loss_decreases_toward_reference():
    # moving x toward the reference along the gradient lowers the loss
    r = Rng(95)
    x_ref = r.uniform(1 * 1 * 8 * 8).reshape(1, 1, 8, 8)
    x = r.uniform(1 * 1 * 8 * 8).reshape(1, 1, 8, 8)
    t = T.Tensor(x, requires_grad=True)
    with T.graph():
        before = S.phase_alignment_loss(x_ref, t)
        T.backward(before)
    stepped = x - 0.01 * t.grad
    after = S.phase_alignment_loss(x_ref, T.Tensor(stepped))
    assert after.item() < before.item()


def _full_spectrum_phase_loss(x_ref, x):
    """The phase loss summed over every bin of the literal double-sum DFT."""
    total = 0.0
    for b in range(x.shape[0]):
        for c in range(x.shape[1]):
            ref, spec = naive_dft2d(x_ref[b, c]), naive_dft2d(x[b, c])
            ref_norm, norm = np.abs(ref), np.abs(spec)
            kept = (ref_norm >= 1e-8) & (norm >= 1e-8)
            dot = spec.real * ref.real + spec.imag * ref.imag
            total += np.sum(dot[kept] / (norm[kept] * ref_norm[kept]))
    return -total / x.shape[0]


def test_phase_loss_is_one_node_matching_the_full_spectrum():
    # odd widths have no Nyquist column, even ones do: both column weightings
    for trial, (h, w) in enumerate([(4, 4), (5, 7), (6, 5)]):
        r = Rng(derive_seed(867, trial))
        x_ref = r.uniform(2 * 2 * h * w).reshape(2, 2, h, w)
        x = r.uniform(2 * 2 * h * w).reshape(2, 2, h, w)
        t = T.Tensor(x, requires_grad=True)
        with T.graph():
            loss = S.phase_alignment_loss(x_ref, t)
            assert T.tape_size() == 1
        assert loss.data.dtype == np.float64
        expect = _full_spectrum_phase_loss(x_ref, x)
        assert abs(loss.item() - expect) < 1e-12 * max(abs(expect), 1.0)
        assert max_rel_error(
            lambda ts: S.phase_alignment_loss(x_ref, ts[0]), [x]) < 1e-6


def test_phase_loss_float32_gradient_tracks_float64():
    r = Rng(868)
    shape = (16, 3, 32, 32)
    x_ref = r.uniform(int(np.prod(shape))).reshape(shape)
    x32 = r.uniform(int(np.prod(shape))).reshape(shape).astype(np.float32)
    grads = []
    for x in (x32, x32.astype(np.float64)):
        t = T.Tensor(x, requires_grad=True)
        with T.graph():
            T.backward(S.phase_alignment_loss(x_ref, t))
        assert t.grad.dtype == x.dtype
        grads.append(t.grad)
    g32, g64 = grads
    assert np.abs(g32 - g64).max() / np.abs(g64).max() < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_phase_loss_matches_the_kept_terms_oracle_bitwise(dtype):
    # the node keeps x and the unit reference vectors and recomputes x's
    # per-bin terms in backward; no bit may move
    r = Rng(869)
    for h, w in ((32, 32), (5, 7)):
        x_ref = r.uniform(4 * 3 * h * w).reshape(4, 3, h, w).astype(dtype)
        x = r.uniform(4 * 3 * h * w).reshape(4, 3, h, w).astype(dtype)
        x[0, 0] = 0.5  # a constant plane: masked bins
        t = T.Tensor(x, requires_grad=True)
        with T.graph():
            loss = S.phase_alignment_loss(x_ref, t)
            unit_bytes = x.size // w * (w // 2 + 1) * 2 * x.itemsize
            assert graph_bytes() == x.nbytes + unit_bytes
            T.backward(loss)
        want_loss, want_grad = phase_loss_and_grad(x_ref, x)
        assert loss.data.tobytes() == np.float64(want_loss).tobytes()
        assert t.grad.dtype == dtype
        assert t.grad.tobytes() == want_grad.tobytes()
