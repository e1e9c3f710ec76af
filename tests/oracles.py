"""Independent reference implementations used to check the library.

Nothing here touches the permanent machinery: amplitudes come from a literal
multinomial expansion of creation operators, state counting is done by
brute-force enumeration, exact permanents use rational arithmetic and mesh
unitaries are literal products of full-size elements.  A recursive
generator checks the state space, the expanded gadget matrix feeds the
permanent routes of the gadget kernel, a per-draw loop checks the chunked
rejection sampler and central differences check the analytic derivatives.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from nlboson import DimensionError


def operator_expansion_amplitude(u, input_state, output_state) -> complex:
    """Transition amplitude by expanding each photon's creation operator.

    Every photon entering mode i turns into sum_j u[i, j] b_j; expanding the
    product over all photons and collecting the target occupation pattern
    gives the amplitude without ever forming a submatrix or permanent.
    """
    u = np.asarray(u, dtype=complex)
    m = len(input_state)
    slots = [i for i, c in enumerate(input_state) for _ in range(c)]
    target = tuple(int(c) for c in output_state)
    raw = 0j
    for assignment in product(range(m), repeat=len(slots)):
        counts = [0] * m
        coef = 1 + 0j
        for slot, j in zip(slots, assignment):
            coef *= u[slot, j]
            counts[j] += 1
        if tuple(counts) == target:
            raw += coef
    norm_in = math.prod(math.factorial(c) for c in input_state)
    norm_out = math.prod(math.factorial(c) for c in output_state)
    return raw * math.sqrt(norm_out) / math.sqrt(norm_in)


def count_occupations(m: int, n: int) -> int:
    """Number of n-photon m-mode occupation patterns, by exhaustive counting."""
    return sum(1 for combo in product(range(n + 1), repeat=m) if sum(combo) == n)


def compositions_desc(m: int, n: int):
    """Weak compositions of n into m parts, descending lexicographic.

    Recurses on the first non-zero part, so the depth is at most n + 1 for
    any m.
    """
    if n == 0:
        yield (0,) * m
        return
    # the first non-zero part sits in mode i and holds f photons: states with
    # an earlier non-zero part come first, and a larger f before a smaller one
    for i in range(m):
        for f in range(n, 0, -1):
            for rest in compositions_desc(m - i - 1, n - f):
                yield (0,) * i + (f,) + rest


def expanded_gadget_matrix(u_eff, l: int) -> np.ndarray:
    """Gadget matrix with its first row and column repeated l times.

    Removed entirely for l = 0.  per(u^{l,1,...,1}) / l! is the heralded
    factor of the signal's l-photon component; any l >= 0 is allowed, since
    l > k photons still herald (with an unintended factor).  Refuses a
    matrix that is not a finite square of size >= 2.
    """
    u = np.asarray(u_eff, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
        raise DimensionError(f"expected a square matrix of size >= 2, got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix contains non-finite entries")
    if l < 0:
        raise DimensionError(f"repetition count must be >= 0, got {l}")
    idx = [0] * l + list(range(1, u.shape[0]))
    return u[np.ix_(idx, idx)]


def rejection_loop(draw_chunk, accept_mask, n_samples: int, trial_budget: int):
    """Rejection sampling one raw draw at a time.

    `draw_chunk()` returns the next chunk of raw draws (state ranks).  Returns
    (accepted ranks, raw draws consumed per accepted sample, total draws).
    """
    accepted, counts = [], []
    trials = since_last = 0
    while len(accepted) < n_samples and trials < trial_budget:
        for i in draw_chunk():
            trials += 1
            since_last += 1
            if accept_mask[i]:
                accepted.append(int(i))
                counts.append(since_last)
                since_last = 0
                if len(accepted) == n_samples:
                    break
            if trials >= trial_budget:
                break
    return accepted, counts, trials


def three_step_amplitude(w, gate_factor, v, input_state, output_state) -> complex:
    """Path sum through an intermediate diagonal layer, via the operator oracle.

    `gate_factor(state) -> complex` multiplies each intermediate pattern.
    """
    m, n = len(input_state), sum(input_state)
    total = 0j
    for r in product(range(n + 1), repeat=m):
        if sum(r) != n:
            continue
        total += (
            operator_expansion_amplitude(w, input_state, r)
            * gate_factor(r)
            * operator_expansion_amplitude(v, r, output_state)
        )
    return total


def permanent_exact(mat) -> complex:
    """Permanent by Ryser's subset sum in exact rational arithmetic.

    Every float entry is converted exactly to a Fraction and the sum is
    rounded once at the end, so the result is the correctly rounded permanent
    of the given floats.  For checking accuracy beyond the reach of the
    floating-point oracles (about a second at 10 x 10).
    """
    a = np.asarray(mat, dtype=complex)
    n = a.shape[0]
    re = [[Fraction(float(v.real)) for v in row] for row in a]
    im = [[Fraction(float(v.imag)) for v in row] for row in a]
    total_re, total_im = Fraction(0), Fraction(0)
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        prod_re, prod_im = Fraction(1), Fraction(0)
        for i in range(n):
            s_re = sum(re[i][j] for j in cols)
            s_im = sum(im[i][j] for j in cols)
            prod_re, prod_im = prod_re * s_re - prod_im * s_im, prod_re * s_im + prod_im * s_re
        sign = -1 if (n - len(cols)) % 2 else 1
        total_re += sign * prod_re
        total_im += sign * prod_im
    return complex(float(total_re), float(total_im))


def mesh_unitary_product(m: int, thetas, phis, output_phases) -> np.ndarray:
    """Triangular-mesh unitary as the literal product of m x m elements.

    diag(e^{i output_phases}) times one identity-embedded two-mode rotation
    per mesh element, in synthesis order (the reverse of the row-by-row
    elimination order over adjacent channels).
    """
    elimination = [j for i in range(m - 1) for j in range(m - 2, i - 1, -1)]
    u = np.diag(np.exp(1j * np.asarray(output_phases, dtype=float)))
    for k, ch in enumerate(reversed(elimination)):
        c, s = math.cos(thetas[k]), math.sin(thetas[k])
        eip = complex(math.cos(phis[k]), math.sin(phis[k]))
        t = np.eye(m, dtype=complex)
        t[ch, ch] = eip * c
        t[ch, ch + 1] = -s
        t[ch + 1, ch] = eip * s
        t[ch + 1, ch + 1] = c
        u = u @ t
    return u


def central_difference_jacobian(f, x, h: float = 1e-6) -> np.ndarray:
    """Derivative of f at x by central differences, shape f(x).shape + (len(x),).

    Entry [..., p] is (f(x + h e_p) - f(x - h e_p)) / 2h; f may return any
    real or complex array.
    """
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(len(x))
    return np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h) for e in steps],
                    axis=-1)
