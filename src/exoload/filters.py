"""Butterworth design and second-order-section IIR filtering in numpy.

``butter_sos`` follows the analog prototype, cutoff prewarping and bilinear
transform of ``scipy.signal.butter(..., output="sos")`` step for step, so the
coefficients are the same. ``sosfilt`` runs each biquad block-recursively
(Burrus, "Block realization of digital filters", 1972; Nehab et al.,
"GPU-efficient recursive filtering", 2011): inside a block of ``BLOCK``
samples the output is the zero-state response, one Toeplitz product with the
impulse response, plus the response to the block-entry state; the entry
states are a first-order matrix recurrence across blocks, solved by a
doubling scan. Second-order sections keep the matrix powers well conditioned,
which the companion matrix of a direct-form transfer function does not.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 128  # samples per block: Toeplitz cost grows with it, scan depth shrinks


def butter_sos(order: int, cutoff_hz, fs: float, btype: str = "lowpass") -> np.ndarray:
    """Digital Butterworth filter as rows ``(b0, b1, b2, 1, a1, a2)``, ordered
    by increasing pole magnitude, with the overall gain in the first row.
    The order is even, so every pole has a conjugate partner; a lowpass takes
    one cutoff and a bandpass two."""
    if btype not in ("lowpass", "bandpass"):
        raise ValueError(f"unknown filter type {btype!r}")
    if order < 2 or order % 2:
        raise ValueError(f"filter order must be even and positive, got {order}")
    wn = np.atleast_1d(np.asarray(cutoff_hz, dtype=float)) / (fs / 2)
    n_edges = 1 if btype == "lowpass" else 2
    if wn.shape != (n_edges,) or np.any(np.diff(wn) <= 0.0) or not np.all((wn > 0.0) & (wn < 1.0)):
        raise ValueError(f"{btype} needs {n_edges} increasing cutoffs in (0, fs/2), got {cutoff_hz}")

    warped = 4.0 * np.tan(np.pi * wn / 2.0)  # prewarped for the transform at fs = 2
    p = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=float) / (2 * order))
    if btype == "lowpass":
        p = float(warped[0]) * p
        k = float(warped[0]) ** order
        at_origin = 0  # analog zeros at s = 0
    else:
        bw = float(warped[1] - warped[0])
        wo = float(np.sqrt(warped[0] * warped[1]))
        p = p * bw / 2
        root = np.sqrt(p**2 - wo**2)
        p = np.concatenate((p + root, p - root))
        k = bw**order
        at_origin = order
    # bilinear transform s -> (4 + s) / (4 - s): zeros at s = 0 go to z = 1,
    # the zeros at infinity to z = -1
    k = k * np.real(4.0**at_origin / np.prod(4.0 - p))
    zeros = [-1.0] * (len(p) - at_origin) + [1.0] * at_origin
    poles = (4.0 + p) / (4.0 - p)
    poles = poles[poles.imag > 0]
    poles = poles[np.argsort(np.abs(poles))]

    sos = np.zeros((len(poles), 6))
    # like scipy, pair zeros from the pole nearest the unit circle down
    for row, pole in zip(sos[::-1], poles[::-1]):
        z1, z2 = (zeros.pop(int(np.argmin(np.abs(np.subtract(zeros, pole))))) for _ in range(2))
        row[:] = (1.0, -z1 - z2, z1 * z2, 1.0, -2.0 * pole.real, pole.real**2 + pole.imag**2)
    sos[0, :3] *= k
    return sos


def sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray | None = None) -> np.ndarray:
    """Filter ``x`` along axis 0 through the cascade of sections ``sos``.
    ``zi`` holds the initial transposed-direct-form-II states with shape
    ``(n_sections, 2, *x.shape[1:])``; zero when omitted. Returns the output
    only, not the final states."""
    x = np.asarray(x, dtype=float)
    y = x.reshape(len(x), -1).T  # (channels, samples)
    for i, section in enumerate(np.asarray(sos, dtype=float)):
        s0 = None if zi is None else np.asarray(zi[i], dtype=float).reshape(2, -1).T
        y = _biquad(section, y, s0)
    return y.T.reshape(x.shape)


def sosfiltfilt(sos: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """Zero-phase forward-backward filtering along axis 0, as
    ``scipy.signal.filtfilt`` pads: an odd extension of ``padlen`` samples at
    each end and steady-state initial conditions scaled by the first sample of
    each pass."""
    sos, x = np.asarray(sos, dtype=float), np.asarray(x, dtype=float)
    ext = np.concatenate(
        (2 * x[:1] - x[padlen:0:-1], x, 2 * x[-1:] - x[-2 : -padlen - 2 : -1])
    )
    zi = _steady_state(sos).reshape(len(sos), 2, *[1] * (x.ndim - 1))
    y = sosfilt(sos, ext, zi * ext[0])
    y = sosfilt(sos, y[::-1], zi * y[-1])[::-1]
    return y[padlen : len(y) - padlen]


def _steady_state(sos: np.ndarray) -> np.ndarray:
    """Section states of the cascade at rest under a unit step input."""
    b, a = sos[:, :3], sos[:, 3:]
    gain = b.sum(axis=1) / a.sum(axis=1)
    scale = np.concatenate(([1.0], np.cumprod(gain)[:-1]))
    return scale[:, None] * np.stack((gain - b[:, 0], b[:, 2] - a[:, 2] * gain), axis=1)


@functools.lru_cache(maxsize=16)
def _block_operators(section: tuple[float, ...], L: int) -> tuple[np.ndarray, ...]:
    """Block matrices of one section, read-only because the cache shares
    them: the Toeplitz impulse-response matrix ``T`` (L, L), the entry-state
    response ``C A^k`` (L, 2), the input-to-exit-state map ``K`` (L, 2) and
    ``A^L``."""
    b0, b1, b2, _, a1, a2 = section
    # state space s' = A s + B x, y = C s + D x with C = (1, 0), D = b0
    A = np.array([[-a1, 1.0], [-a2, 0.0]])
    B = np.array([b1 - a1 * b0, b2 - a2 * b0])
    powers = [np.eye(2)]
    for _ in range(L):  # sequential products; squaring loses about 20x accuracy
        powers.append(A @ powers[-1])
    powers = np.array(powers)  # A^0 .. A^L
    CA = powers[:L, 0]  # row k: C A^k
    h = np.concatenate(([b0], CA[:-1] @ B))  # impulse response
    k = np.arange(L)
    T = np.where(k[:, None] >= k, h[k[:, None] - k], 0.0)  # T[i, j] = h[i - j]
    K = powers[L - 1 :: -1] @ B  # row j: A^(L-1-j) B
    operators = (T, CA, K, powers[L])
    for a in operators:
        a.setflags(write=False)
    return operators


def _biquad(section: np.ndarray, x: np.ndarray, s0: np.ndarray | None) -> np.ndarray:
    """One section over the rows of ``x`` (channels, samples), from entry
    states ``s0`` (channels, 2), block by block."""
    m, n = x.shape
    L = min(BLOCK, n)
    nb = -(-n // L)
    T, CA, K, M = _block_operators(tuple(section.tolist()), L)
    xb = np.zeros((m, nb * L))
    xb[:, :n] = x
    xb = xb.reshape(m * nb, L)
    y = (xb @ T.T).reshape(m, nb, L)  # zero-state response of every block
    u = (xb @ K).reshape(m, nb, 2)  # state each block adds at its end
    if s0 is not None:
        u[:, 0] += s0 @ M.T
    # inclusive scan of s[b + 1] = M s[b] + u[b] by doubling
    d, Md = 1, M
    while d < nb:
        u[:, d:] += u[:, :-d] @ Md.T
        d, Md = 2 * d, Md @ Md
    entry = np.concatenate((np.zeros((m, 1, 2)) if s0 is None else s0[:, None], u[:, :-1]), axis=1)
    y += entry @ CA.T
    return y.reshape(m, nb * L)[:, :n]
