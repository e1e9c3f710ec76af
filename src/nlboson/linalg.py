"""Complex dense linear algebra for mode unitaries.

Conventions used throughout the package:

* A physical circuit that applies network ``A`` and then network ``B`` is
  represented by the matrix product ``A @ B``.
* Transition amplitudes select rows of the unitary by the *input* state and
  columns by the *output* state (see :func:`matrix_from_states`).

These two choices are mutually consistent: the permanent composition identity
(`linear.verify_composition`) vanishes under them.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import permutations
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionError, NotUnitaryError, StateSpaceTooLargeError
from .fock import _checked_dimension, _checked_state, _is_integer, occupation_indices

__all__ = [
    "permanent",
    "permanent_naive",
    "permanents",
    "gathered_permanents",
    "matrix_from_states",
    "haar_unitary",
    "direct_sum",
    "phase_shifter",
    "unitarity_deviation",
    "require_unitary",
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
    "load_matrix",
]

_NAIVE_MAX_SIZE = 9

_UNITARITY_TOL = 1e-8  # the library's one unitarity gate (see require_unitary)

# Working memory the batched Ryser kernel may allocate: its (2^s - 1, s)
# subset masks plus one chunk of (2^s - 1, s) complex row sums.
MAX_PERMANENTS_BYTES = 1 << 30
_ROW_SUM_CHUNK = 4_000_000  # complex entries per chunk of row sums


def _checked_matrix(value, name: str, *, square: bool = True, min_size: int = 0) -> np.ndarray:
    """`value` as complex128 (no copy if it is), by the one matrix rule: numbers of an
    int, float or complex dtype, never a bool, and finite (else ValueError); 2-D and,
    given `square`, square of side >= `min_size` (else DimensionError)."""
    try:
        a = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nesting
        raise ValueError(f"{name} must be a matrix of numbers, got a ragged sequence") from None
    if a is not value and a.dtype.kind in "iufc" and any(  # a list: numpy makes a bool an int
            isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat):
        raise ValueError(f"{name} must be a matrix of numbers, got a bool entry")
    if a.dtype.kind not in "iufc":
        raise ValueError(f"{name} must be a matrix of numbers, got dtype {a.dtype}")
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < min_size:
        raise DimensionError(f"{name} must be at least {min_size}x{min_size}, got shape {a.shape}")
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _checked_pair(W, V) -> tuple[np.ndarray, np.ndarray]:
    """W and V by :func:`_checked_matrix`, and of one shape (DimensionError)."""
    w, v = _checked_matrix(W, "W"), _checked_matrix(V, "V")
    if w.shape != v.shape:
        raise DimensionError(f"W and V must have equal shapes, got {w.shape} and {v.shape}")
    return w, v


def _read_only_copy(a: np.ndarray) -> np.ndarray:
    """A copy of checked `a` that nobody can write, so it stays as checked."""
    a = a.copy()
    a.setflags(write=False)
    return a


def permanent_naive(mat) -> complex:
    """Permanent by the defining permutation sum.

    Deliberately unoptimized; serves as the independent oracle for the Ryser
    kernel and is refused above 9x9.
    """
    a = _checked_matrix(mat, "matrix")
    n = a.shape[0]
    if n > _NAIVE_MAX_SIZE:
        raise DimensionError(
            f"permanent_naive is an oracle for sizes <= {_NAIVE_MAX_SIZE}, got {n}"
        )
    if n == 0:
        return 1 + 0j
    rows = [tuple(map(complex, r)) for r in a]
    total = 0j
    for sigma in permutations(range(n)):
        prod = 1 + 0j
        for i, j in enumerate(sigma):
            prod *= rows[i][j]
        total += prod
    return total


def permanent(mat) -> complex:
    """Permanent via Ryser's formula with Gray-code subset updates.

    O(2^s * s) for an s x s matrix; the empty 0x0 matrix has permanent 1
    (required so vacuum amplitudes come out right).
    """
    return _ryser_gray(_checked_matrix(mat, "matrix").T.tolist())


def _ryser_gray(cols: list[list[complex]]) -> complex:
    """Scalar Gray-code Ryser on a square matrix given as its list of columns.

    Pure Python and unchecked: the kernel behind :func:`permanent`, also used
    directly where the caller already holds a validated matrix.
    """
    n = len(cols)
    if n == 0:
        return 1 + 0j
    if n == 1:
        return complex(cols[0][0])
    row_sums = [0j] * n
    total = 0j
    sign = 1.0  # (-1)^|S|, starts at |S|=0
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        j = (gray ^ new_gray).bit_length() - 1
        col = cols[j]
        if new_gray & (1 << j):
            for i in range(n):
                row_sums[i] += col[i]
            sign = -sign
        else:
            for i in range(n):
                row_sums[i] -= col[i]
            sign = -sign
        gray = new_gray
        prod = 1 + 0j
        for v in row_sums:
            prod *= v
        total += sign * prod
    if n % 2:
        total = -total
    return total


def permanents(mats) -> np.ndarray:
    """Permanents of a stack of equally-sized square matrices, shape (B, s, s).

    Vectorized Ryser evaluation over all non-empty column subsets; used by the
    distribution hot paths and cross-checked against :func:`permanent`.
    """
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionError(f"expected a (B, s, s) stack, got shape {a.shape}")
    batch, n = a.shape[0], a.shape[1]
    if batch == 0:
        return np.zeros(0, dtype=complex)
    if n == 0:
        return np.ones(batch, dtype=complex)
    n_subsets = (1 << n) - 1
    # chunk so the (chunk, S, n) row-sum tensor stays small
    chunk = max(1, _ROW_SUM_CHUNK // (n_subsets * n))
    needed = _permanents_bytes(min(chunk, batch), n)
    if needed > MAX_PERMANENTS_BYTES:
        raise StateSpaceTooLargeError(
            f"batched Ryser permanents of {n}x{n} matrices need about "
            f"{needed / 2**20:.0f} MiB of working memory "
            f"(cap {MAX_PERMANENTS_BYTES / 2**20:.0f} MiB); reduce the photon number"
        )
    subsets = np.arange(1, 1 << n, dtype=np.int64)
    masks = ((subsets[:, None] >> np.arange(n)) & 1).astype(float)  # (S, n)
    signs = np.where(masks.sum(axis=1).astype(int) % 2 == 0, 1.0, -1.0)
    if n % 2:
        signs = -signs
    out = np.empty(batch, dtype=complex)
    for lo in range(0, batch, chunk):
        block = a[lo : lo + chunk]
        row_sums = np.einsum("sj,bij->bsi", masks, block)
        out[lo : lo + chunk] = row_sums.prod(axis=2) @ signs
    return out


def _permanents_bytes(chunk: int, n: int) -> int:
    """Peak working memory of :func:`permanents` for one chunk of s = n.

    Float masks (S, n), int subset labels and signs (S), complex row sums
    (chunk, S, n) and their products (chunk, S), with S = 2^n - 1.
    """
    n_subsets = (1 << n) - 1
    return n_subsets * (8 * n + 16) + chunk * n_subsets * (16 * n + 16)


def gathered_permanents(U, row_indices, col_indices) -> np.ndarray:
    """per(U[rows_i, cols_i]) for paired lists of (repeated) index rows.

    `row_indices` and `col_indices` are integer arrays of shape (B, s); either
    may be a single (s,) vector shared across the batch.  Processed in blocks
    so the gathered submatrix stack stays small.
    """
    u = np.asarray(U, dtype=complex)
    rows = np.asarray(row_indices, dtype=np.intp)
    cols = np.asarray(col_indices, dtype=np.intp)
    if rows.ndim == 1 and cols.ndim == 2:
        rows = np.broadcast_to(rows, (cols.shape[0], rows.shape[0]))
    elif cols.ndim == 1 and rows.ndim == 2:
        cols = np.broadcast_to(cols, (rows.shape[0], cols.shape[0]))
    if rows.shape != cols.shape:
        raise DimensionError(
            f"row and column index shapes differ: {rows.shape} vs {cols.shape}"
        )
    batch, _ = rows.shape
    out = np.empty(batch, dtype=complex)
    block = 65536
    for lo in range(0, batch, block):
        hi = min(lo + block, batch)
        subs = u[rows[lo:hi, :, None], cols[lo:hi, None, :]]
        out[lo:hi] = permanents(subs)
    return out


def matrix_from_states(U, input_state: Sequence[int], output_state: Sequence[int]) -> np.ndarray:
    """n x n matrix with row i of U repeated s_i times, column j repeated t_j times.

    Rows come from the input occupations, columns from the output occupations;
    for single-occupancy states this is plain row/column selection.  Both
    states must have U's m modes, and the output the input's photon number.
    """
    u = _checked_matrix(U, "U")
    s = _checked_state(input_state, len(u), None, "input state")
    t = _checked_state(output_state, len(u), sum(s), "output state")
    return u[np.ix_(occupation_indices(s), occupation_indices(t))]


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitary.

    QR of an i.i.d. complex-Gaussian matrix, with the R-diagonal phase
    correction that makes the distribution exactly Haar.  Deterministic for a
    given generator state.
    """
    m = _checked_dimension(m, "m", 1)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unitarity_deviation(U) -> float:
    """Max-norm deviation of U†U from the identity."""
    return _deviation(_checked_matrix(U, "U"))


def _deviation(u: np.ndarray) -> float:  # u as _checked_matrix returns it
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()) if u.size else 0.0


def require_unitary(U, tol: float = _UNITARITY_TOL, context: str = "") -> np.ndarray:
    """U as a complex array, or NotUnitaryError if max |U†U - I| exceeds `tol`.

    The default 1e-8 is the library's one unitarity gate: every linear network
    and every W -> gate -> V sandwich is checked at that value, here or by
    :func:`_unitarity_gate`.  `tol` must be positive and finite.
    """
    tol = _checked_tolerance(tol)
    u = _checked_matrix(U, "U")
    _unitarity_gate(u, tol, context)
    return u


def _unitarity_gate(u: np.ndarray, tol: float, context: str = "") -> float:
    """The deviation of a checked matrix `u`, or NotUnitaryError past `tol`:
    :func:`require_unitary` once the caller has checked `u` itself, so it can
    keep the deviation for the tolerances that scale with it."""
    dev = _deviation(u)
    if dev > tol:
        raise NotUnitaryError(dev, tol, context)
    return dev


@functools.lru_cache(maxsize=None)
def _mesh_channels(m: int) -> tuple[int, ...]:
    # Adjacent-pair channel sequence of the triangular mesh, in synthesis
    # order (reverse of the row-by-row elimination order).
    elimination = [j for i in range(m - 1) for j in range(m - 2, i - 1, -1)]
    return tuple(reversed(elimination))


def _mesh_unitary(m: int, thetas, phis, output_phases) -> np.ndarray:
    # diag(e^{i output_phases}) times one two-mode rotation per mesh element;
    # each rotation mixes only columns ch and ch+1, so it is applied to those
    # two columns instead of as a full m x m product.
    cols = [[0j] * m for _ in range(m)]
    for j, a in enumerate(np.asarray(output_phases, dtype=float).tolist()):
        cols[j][j] = complex(math.cos(a), math.sin(a))
    angles = zip(
        _mesh_channels(m),
        np.asarray(thetas, dtype=float).tolist(),
        np.asarray(phis, dtype=float).tolist(),
    )
    for ch, theta, phi in angles:
        c, s = math.cos(theta), math.sin(theta)
        eip = complex(math.cos(phi), math.sin(phi))
        ec, es = eip * c, eip * s
        left, right = cols[ch], cols[ch + 1]
        cols[ch] = [x * ec + y * es for x, y in zip(left, right)]
        cols[ch + 1] = [y * c - x * s for x, y in zip(left, right)]
    return np.array(cols, dtype=complex).T


def _mesh_unitary_derivatives(m: int, thetas, phis, output_phases):
    """`_mesh_unitary` and its derivative in every angle, by forward mode.

    Returns (u, du), du[p] = du/dx_p with the angles x = (thetas, phis,
    output_phases) in that order.  Each column carries its m entries of u
    followed by m entries of derivative per rotation angle so far (theta_0,
    phi_0, theta_1, ...): every rotation mixes these extended columns as
    `_mesh_unitary` mixes the plain ones, then appends its own angles'
    derivatives, its 2 x 2 block differentiated.  The output phases multiply
    the rows of u, so du/d(output phase j) is i u with only row j kept.
    """
    channels = _mesh_channels(m)
    n_rot = len(channels)
    cols = [[0j] * m for _ in range(m)]
    for j, a in enumerate(np.asarray(output_phases, dtype=float).tolist()):
        cols[j][j] = complex(math.cos(a), math.sin(a))
    angles = zip(
        channels,
        np.asarray(thetas, dtype=float).tolist(),
        np.asarray(phis, dtype=float).tolist(),
    )
    for r, (ch, theta, phi) in enumerate(angles):
        c, s = math.cos(theta), math.sin(theta)
        eip = complex(math.cos(phi), math.sin(phi))
        ec, es = eip * c, eip * s
        # A column no earlier rotation touched has no derivative entries yet:
        # they are zero, and so are both columns' entries for rotation r.
        width = m * (1 + 2 * r)
        left, right = cols[ch], cols[ch + 1]
        left = left + [0j] * (width - len(left))
        right = right + [0j] * (width - len(right))
        new_left = [x * ec + y * es for x, y in zip(left, right)]
        new_right = [y * c - x * s for x, y in zip(left, right)]
        pairs = list(zip(left[:m], right[:m]))
        new_left += [eip * (y * c - x * s) for x, y in pairs]
        new_left += [1j * v for v in new_left[:m]]
        new_right += [-(x * c + y * s) for x, y in pairs]
        new_right += [0j] * m
        cols[ch], cols[ch + 1] = new_left, new_right
    width = m * (1 + 2 * n_rot)
    blocks = np.array([col + [0j] * (width - len(col)) for col in cols], dtype=complex)
    blocks = blocks.reshape(m, 1 + 2 * n_rot, m).transpose(1, 2, 0)
    u = blocks[0]
    du = np.zeros((2 * n_rot + m, m, m), dtype=complex)
    du[:n_rot] = blocks[1::2]
    du[n_rot : 2 * n_rot] = blocks[2::2]
    rows = np.arange(m)
    du[2 * n_rot + rows, rows] = 1j * u
    return u, du


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal composition of two matrices."""
    a = _checked_matrix(a, "a", square=False)
    b = _checked_matrix(b, "b", square=False)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _checked_mode(mode, m: int | None, label: str) -> int:
    """A 1-based mode as an int, or DimensionError naming it `label`: an integer
    by `fock._is_integer`; given `m`, it must lie in 1..m."""
    if not _is_integer(mode):
        raise DimensionError(f"{label} must be an integer")
    if m is not None and not 1 <= mode <= m:
        raise DimensionError(f"{label} out of range [1, {m}]")
    return int(mode)


def _checked_count(value, name: str, minimum: int) -> int:
    """A count argument as an int, or ValueError naming it `name`: an integer
    by `fock._is_integer`, at least `minimum`.  The one check of every count."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {name}={value}")
    return int(value)


def _checked_real(value, name: str) -> float:
    """A real argument as a Python float, or ValueError naming it `name`: any
    int or float type passes (numpy's too); a bool, a string, a complex, None
    or an array does not, nor does a non-finite value.  The one check of
    every phase, probability threshold and tolerance."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {name}={value}")
    return real


def _phase_residue(phi: float) -> float:
    """`phi` itself below 2 pi in modulus; past it, its residue mod 2 pi in
    [-pi, pi], from libm's exactly reduced sine and cosine.  A multiple of a
    huge finite phase would overflow, and the float 2*pi is no period of the
    gate (``math.fmod(1e308, 2*pi)`` is off by about 4e291 rad)."""
    if abs(phi) < 2 * math.pi:
        return phi
    return math.atan2(math.sin(phi), math.cos(phi))


def _phase_factors(phi: float, multipliers) -> np.ndarray:
    """exp(-i c phi) for each integer c of `multipliers`, formed from
    `_phase_residue(phi)`: every gate factor and synthesis target is built here."""
    phi = _phase_residue(phi)
    return np.array([complex(math.cos(c * phi), -math.sin(c * phi)) for c in multipliers],
                    dtype=complex)


def _require_type(value, cls: type, name: str) -> None:
    """TypeError naming `name` unless `value` is a `cls`."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _checked_tolerance(tol) -> float:
    """A gate's tolerance as a float: real by `_checked_real`, and positive."""
    tol = _checked_real(tol, "tol")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive and finite, got tol={tol}")
    return tol


def phase_shifter(m: int, mode: int, phi: float) -> np.ndarray:
    """Identity except entry (mode, mode) = exp(-i*phi); mode is 1-based."""
    m = _checked_dimension(m, "m", 1)
    mode = _checked_mode(mode, m, f"mode {mode}")
    phi = _checked_real(phi, "phi")
    f = np.eye(m, dtype=complex)
    f[mode - 1, mode - 1] = complex(math.cos(phi), -math.sin(phi))
    return f


# ---------------------------------------------------------------------------
# JSON wire format: {"rows": r, "cols": c, "data": [[re, im], ...]} row-major
# ---------------------------------------------------------------------------

def matrix_to_json(mat) -> dict:
    a = _checked_matrix(mat, "matrix", square=False)
    data = [[float(v.real), float(v.imag)] for v in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"malformed matrix JSON: expected an object, got {type(obj).__name__}")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix JSON: missing {exc}") from None
    for key, value in (("rows", rows), ("cols", cols)):
        if type(value) is not int or value < 0:  # a JSON integer, never cast
            raise ValueError(f"malformed matrix JSON: {key} must be an integer >= 0, got {value!r}")
    if not isinstance(data, list) or not all(
            isinstance(e, list) and len(e) == 2 and {type(x) for x in e} <= {int, float}
            for e in data):
        raise ValueError("malformed matrix JSON: data must be a list of [re, im] number pairs")
    if len(data) != rows * cols:
        raise ValueError(
            f"matrix JSON declares {rows}x{cols} but carries {len(data)} entries"
        )
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return _checked_matrix(flat.reshape(rows, cols), "matrix", square=False)


def save_matrix(path, mat) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(mat)) + "\n")


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(json.loads(Path(path).read_text()))
