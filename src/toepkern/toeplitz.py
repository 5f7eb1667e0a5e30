"""Finite sections of block Toeplitz operators, numerical kernels, residuals.

orthonormal_basis (the span of a basis) and kernel_basis (the null space of
a section), which every span and complement goes through, return a
symbols.SubspaceBasis with orthonormal columns in one phase gauge
(basis_from_matrix) under one rank cut (numerical_rank).

A finite section is the SubspaceBasis of its column images: build_toeplitz
returns SubspaceBasis(p, N, M) whose column k*q + b is p_{<=N}(phi z^k e_b),
filled from one strided view of the symbol (_section), and `kernel_basis`
takes one dense SVD of M.  `singular_values(phi, N)` and
`kernel_angles(phi, bases)`, which need no vectors, build no section: the
symbol's live degrees give the section's direct sum in closed form (_pieces:
by channel for a diagonal symbol, by residue class of the block index modulo
the gcd of the degree gaps for a lacunary one), and each piece, or the whole
section, is gathered from the view and asked for its singular values only.
When those pieces are large against the symbol's band, kernel_angles
certifies its bound by inertia counts instead: the Gram T^H T, cut into
band-wide blocks read from the view, is block tridiagonal, and Sylvester's
law of inertia counts the singular values below a threshold from its
Schur-complement pivots (spectrum slicing).  The equal blocks of the
interior cuts are built once, a pivot that repeats its predecessor bitwise
is not factored again, and a count stops once it exceeds the kernel
dimension; a count that certifies nothing falls back to the singular values.
The sections of one symbol at several degrees (a pipeline's N and 2N) share
their leading blocks, so one kernel_angles call builds each distinct block
once and factors each shared pivot prefix once per threshold;
kernel_angle(phi, Q) is the call on one basis.
"""
from __future__ import annotations

import numpy as np

from .symbols import (DEFAULT_CONFIG, MatrixSymbol, SubspaceBasis, ToleranceConfig,
                      _norm2, apply_symbol, sample_symbol)


def _section(phi: MatrixSymbol, N: int) -> np.ndarray:
    """Read-only view of the section on degrees 0..N, shape (N+1, p, N+1, q).

    Entry [j, a, k, b] is phi's coefficient at degree j - k, entry (a, b):
    phi.window(-N, N) walked from degree 0, one degree up per block row and
    one down per block column, with nothing copied.
    """
    band = phi.window(-N, N)
    s0, s1, s2 = band.strides
    return np.lib.stride_tricks.as_strided(
        band[N:], (N + 1, phi.rows, N + 1, phi.cols), (s0, s1, -s0, s2),
        writeable=False)


def build_toeplitz(phi: MatrixSymbol, N: int) -> SubspaceBasis:
    """Finite section of T_phi = p_+(phi .) on degrees 0..N, as its column
    images: column k*q + b is p_{<=N}(phi z^k e_b), so the read-only matrix
    has shape (p(N+1), q(N+1)) with block (j, k) the coefficient at j - k."""
    mat = np.ascontiguousarray(_section(phi, N)).reshape(
        (N + 1) * phi.rows, (N + 1) * phi.cols)
    mat.setflags(write=False)
    return SubspaceBasis(phi.rows, N, mat)


def phase_gauge(cols: np.ndarray) -> np.ndarray:
    """Deterministic column phases: each column's largest-modulus entry
    becomes real positive; a zero column is left alone."""
    out = np.array(cols, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        peak = col[np.argmax(np.abs(col))]
        if abs(peak) > 0:
            out[:, j] = col * (np.conj(peak) / abs(peak))
    return out


def numerical_rank(s: np.ndarray, rank_tol: float) -> int:
    """Count of singular values above rank_tol * s[0]; 0 for empty or zero s."""
    return int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0


def basis_from_matrix(cols: np.ndarray, dim: int, degree: int) -> SubspaceBasis:
    """The columns as a basis, each in the shared phase gauge."""
    return SubspaceBasis(dim, degree, phase_gauge(cols))


def orthonormal_basis(Q: SubspaceBasis,
                      config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of the span of Q's columns, on Q's ambient space:
    the left singular vectors above the rank cut, in the phase gauge."""
    u, s, _ = np.linalg.svd(Q.matrix, full_matrices=False)
    return basis_from_matrix(u[:, :numerical_rank(s, config.rank_tol)],
                             Q.dim, Q.degree)


def _pieces(phi: MatrixSymbol, N: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The section split into a direct sum, pieces of one shape stacked.

    Returns one (rows, cols) per shape: rows (n, a) and cols (n, b) hold the
    ascending row and column indices of each of its n pieces.  A square
    symbol with no live off-diagonal entry is split by channel; any other
    is one group of all channels.  Let a group's live degrees within
    |d| <= N be d0 < d1 < ... and g the gcd of the d - d0 (2N + 2, past
    every section degree, for one degree or none).  Block column k meets
    only the block rows k + d, all congruent to k + d0 (mod g), so for each
    r < min(g, N + 1) the block columns k = r (mod g) and the block rows
    j = r + d0 (mod g) are one piece, with no rows when r + d0 (mod g) > N.
    Near the section's edges a piece may itself be a direct sum of smaller
    ones, with the same singular values; a row in no piece is zero.
    """
    p, q = phi.rows, phi.cols
    live = phi.coeffs != 0
    degrees = phi.min_deg + np.arange(live.shape[0])
    if p == q and not (live & ~np.eye(p, dtype=bool)).any():
        groups = [(np.array([a]), np.array([a])) for a in range(p)]
    else:
        groups = [(np.arange(p), np.arange(q))]
    stacks: dict = {}
    for row_chans, col_chans in groups:
        on = live[:, row_chans[:, None], col_chans].any(axis=(1, 2))
        d = degrees[on & (abs(degrees) <= N)]
        d0 = d[0] if d.size else N + 1
        g = int(np.gcd.reduce(d - d0)) or 2 * N + 2
        r = np.arange(min(g, N + 1))
        s = (r + d0) % g
        n_rows = np.where(s > N, 0, (N - s) // g + 1)
        n_cols = (N - r) // g + 1
        for a, b in set(zip(n_rows.tolist(), n_cols.tolist())):
            sel = (n_rows == a) & (n_cols == b)
            j = s[sel, None, None] + g * np.arange(a)[:, None]
            k = r[sel, None, None] + g * np.arange(b)[:, None]
            rows = (j * p + row_chans).reshape(j.shape[0], -1)
            cols = (k * q + col_chans).reshape(k.shape[0], -1)
            stacks.setdefault((rows.shape[1], cols.shape[1]), []).append((rows, cols))
    return [tuple(np.concatenate(parts) for parts in zip(*stacks[shape]))
            for shape in sorted(stacks)]


def singular_values(phi: MatrixSymbol, N: int) -> np.ndarray:
    """Singular values of the degree-N section, one per column, descending.

    The section is split into the pieces of its direct sum (_pieces); a
    direct sum's singular values are the union of its pieces', so each
    piece gets its own values-only SVD, pieces of one shape in one stacked
    call.  Every piece, an unsplit section included, is gathered from the
    strided view (_section).  Each piece's values are zero-padded to its
    column count (a piece with no rows is zero columns), so a section with
    more columns than rows gets zeros for the columns beyond its rank, as
    kernel_basis counts them.  A stack with no imaginary part gets a real
    SVD.
    """
    return _piece_values(phi, N, _pieces(phi, N))


def _piece_values(phi: MatrixSymbol, N: int, pieces: list) -> np.ndarray:
    """singular_values on the section's pieces, already read by _pieces."""
    p, q = phi.rows, phi.cols
    section = _section(phi, N)
    values = []
    for rows, cols in pieces:
        i, k = rows[:, :, None], cols[:, None, :]
        stack = section[i // p, i % p, k // q, k % q]
        if not stack.imag.any():
            stack = stack.real
        if min(stack.shape[1:]) <= 1:  # a row or a column: its norm is its one value
            s = _norm2(stack)[:, None]
        else:
            s = np.linalg.svd(stack, compute_uv=False)
        padded = np.zeros(cols.shape)
        padded[:, :s.shape[1]] = s
        values.append(padded.ravel())
    return np.sort(np.concatenate(values))[::-1]


def _gram_blocks(phi: MatrixSymbol, N: int, width: int,
                 memo: dict | None = None) -> list:
    """The Gram T^H T of the degree-N section, cut every `width` block
    columns, one entry per run of equal consecutive cuts.

    Returns one (D, C, run) per run: D the diagonal block of each cut in
    it, C the coupling (T^H T)[i-1, i] of each (None for the first cut),
    run how many consecutive cuts share them.  Block column k meets only
    block rows k + min_deg .. k + max_deg, so each cut's columns are
    gathered from the strided view (_section) on those rows alone; with
    width at least the band length minus one, cuts two apart share no row
    and the Gram is block tridiagonal.  By shift invariance a cut's slab
    depends only on its offsets (j0 - k0, j1 - j0, k1 - k0), and its
    coupling only on those and the previous cut's, so a cut whose offsets,
    and the previous cut's, equal those of the cut before repeats the
    previous cut exactly: it lengthens the run and nothing is rebuilt.
    Only the cuts where the section's edges clip the rows, and a partial
    last cut, start a new run.  A real symbol gets real blocks.

    The same offsets give the same blocks at any degree N, so the sections
    of one phi and width share them through memo, keyed by the offsets of
    a cut and the previous cut's: each distinct block is built once, and
    sections sharing it hold the same arrays.
    """
    memo = {} if memo is None else memo
    section = _section(phi, N)
    p, q = phi.rows, phi.cols
    real = not phi.coeffs.imag.any()
    blocks, prev, offsets = [], None, []
    for k0 in range(0, N + 1, width):
        k1 = min(k0 + width, N + 1)
        j0 = min(max(k0 + phi.min_deg, 0), N + 1)
        j1 = max(min(k1 - 1 + phi.max_deg, N) + 1, j0)
        offsets.append((j0 - k0, j1 - j0, k1 - k0))
        if offsets[-3:] == [offsets[-1]] * 3:
            diag, coupling, run = blocks[-1]
            blocks[-1] = diag, coupling, run + 1
            prev = j0, j1, prev[2]
            continue
        slab = section[j0:j1, :, k0:k1].reshape((j1 - j0) * p, (k1 - k0) * q)
        if real:
            slab = slab.real
        key = tuple(offsets[-2:])
        if key not in memo:
            coupling = None
            if prev is not None:
                pj0, pj1, pslab = prev
                a = max(j0, pj0)
                b = max(min(j1, pj1), a)
                coupling = (pslab[(a - pj0) * p:(b - pj0) * p].conj().T
                            @ slab[(a - j0) * p:(b - j0) * p])
            memo[key] = slab.conj().T @ slab, coupling
        blocks.append((*memo[key], 1))
        prev = j0, j1, slab
    return blocks


def _negatives(pivot: np.ndarray, tiny: float) -> int | None:
    """Number of negative eigenvalues of a Hermitian pivot, or None when
    one has modulus below tiny.  A Cholesky factorization of pivot - tiny I
    screens first: when it succeeds every eigenvalue lies above tiny and
    eigvalsh is not called."""
    try:
        np.linalg.cholesky(pivot - tiny * np.eye(pivot.shape[0]))
        return 0
    except np.linalg.LinAlgError:
        lam = np.linalg.eigvalsh(pivot)
    return None if np.abs(lam).min() < tiny else int(np.sum(lam < 0))


def _count_below(blocks: list, tau: float, tiny: float, stop: float,
                 memo: dict | None = None) -> int | None:
    """Number of singular values below tau of the section whose Gram
    blocks are given (_gram_blocks), or None when it cannot be read; any
    count above stop may be returned as soon as it is reached.

    Sylvester's law of inertia with the Haynsworth recursion: the count is
    the number of negative eigenvalues of T^H T - tau^2 I, summed over the
    pivots S_i = D_i - tau^2 I - C_i^H S_{i-1}^{-1} C_i (_negatives).  None
    when a pivot has an eigenvalue of modulus below tiny, so no
    near-singular pivot is ever solved with.

    Within a run of equal blocks every pivot is the same map applied to the
    one before, so once a pivot equals its predecessor bitwise all the rest
    of the run do too, and its count is added for each without factoring.
    The pivots so far give the inertia of a leading principal block of
    T^H T - tau^2 I, which by Cauchy interlacing has no more negative
    eigenvalues than the whole: once the running count exceeds stop it is
    returned, and the whole count exceeds stop too.

    A run's pivots depend only on tau, the pivot it starts from and its
    blocks, so memo keeps, per (tau, starting pivot, D, C), the furthest
    state reached along the run: cuts walked, negatives added, the last
    pivot with its count, and whether it is the fixed point.  A count over
    blocks shared with an earlier count of the same memo (the sections of
    one symbol at several degrees, _gram_blocks) resumes from there and
    factors only the cuts beyond it, with the same arithmetic on the same
    arrays; a run shorter than the walk stored restarts.  Keys name arrays
    by identity, so memo is the dict that _gram_blocks filled with these
    blocks: with the starting pivot stored in each entry, it holds every
    array a key names, and no identity is reused while it lives.  A count
    without one keeps only the last pivot of each run.
    """
    memo = {} if memo is None else memo
    count, prev = 0, None
    for diag, coupling, run in blocks:
        key = tau, id(prev), id(diag), id(coupling)
        start = prev, 0, 0, prev, 0, False
        _, walked, added, pivot, negative, fixed = memo.get(key, start)
        if walked > run:
            _, walked, added, pivot, negative, fixed = start
        shifted = diag - tau ** 2 * np.eye(diag.shape[0])
        while True:
            total = count + added + (negative * (run - walked) if fixed else 0)
            if total > stop:
                return total
            if negative is None:
                return None
            if fixed or walked == run:
                break
            nxt = shifted
            if pivot is not None:
                nxt = shifted - coupling.conj().T @ np.linalg.solve(pivot, coupling)
            negative = _negatives(nxt, tiny)
            fixed = negative is not None and pivot is not None \
                and np.array_equal(nxt, pivot)
            walked, added, pivot = walked + 1, added + (negative or 0), nxt
            if walked > memo.get(key, start)[1]:
                memo[key] = prev, walked, added, pivot, negative, fixed
        count, prev = total, pivot
    return count


def _image_norm(phi: MatrixSymbol, Q: SubspaceBasis) -> float:
    """||T_phi Q||_2 at Q's degree, from one exact symbol product."""
    return float(np.linalg.norm(apply_symbol(phi, Q, Q.degree).matrix, 2))


def _certified_angle(phi: MatrixSymbol, Q: SubspaceBasis, r: float, width: int,
                     config: ToleranceConfig, memo: dict) -> float | None:
    """kernel_angles' bound on Q from inertia counts, or None when not
    certified.

    r = ||T_phi Q||_2 bounds the k-th smallest singular value (minimax), so
    r <= rank_tol * c_max, with c_max the largest section column norm (at
    most sigma_max), puts k values under the rank cut.  A count of exactly
    k below tau >= 1e-6 beta, beta = sum_d ||phi_d||_2 >= ||T_phi||, puts no
    other there and bounds the next value below by tau, so
    arcsin(min(1, r / tau)) bounds Wedin's sin-theta.  tau starts at 0.45
    times the largest singular value of phi's grid samples and halves at
    most three times while the count exceeds k.  memo is shared with the
    other degrees of one kernel_angles call (_gram_blocks, _count_below).
    """
    M, k = Q.degree, Q.size
    blocks = _gram_blocks(phi, M, width, memo)
    c_max = np.sqrt(max(diag.diagonal().real.max() for diag, _, _ in blocks))
    if r > config.rank_tol * c_max:
        return None
    beta = float(_norm2(phi.coeffs).sum())
    tau = 0.45 * float(_norm2(sample_symbol(phi, 4 * phi.coeffs.shape[0])).max())
    for _ in range(4):
        if tau < 1e-6 * beta or tau <= config.rank_tol * beta:
            return None
        count = _count_below(blocks, tau, 1e-10 * beta ** 2, k, memo)
        if count is None or count < k:
            return None
        if count == k:
            return float(np.arcsin(min(1.0, r / tau)))
        tau /= 2
    return None


def kernel_basis(T: SubspaceBasis,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of the numerical null space of the section T
    (build_toeplitz), on the domain's T.size // (T.degree + 1) channels.

    One dense SVD with the full right factor; the basis is the right
    singular vectors past the rank cut (the values above rank_tol times the
    largest), so a section with more columns than rows keeps the null
    vectors beyond its rank.  A T whose size is not a whole number of
    blocks raises ValueError.
    """
    _, s, vh = np.linalg.svd(T.matrix)
    cut = numerical_rank(s, config.rank_tol)
    return basis_from_matrix(vh[cut:].conj().T, T.size // (T.degree + 1), T.degree)


def subspace_angle(A: SubspaceBasis, B: SubspaceBasis) -> float:
    """Largest principal angle between the spans; pi/2 on dimension mismatch.

    Both bases must have orthonormal columns (||Q^H Q - I||_2 <= 1e-8),
    else ValueError.  Angles below pi/4 are read from the sine,
    ||Q_B - Q_A Q_A^H Q_B||, since the arccos of a cosine near 1 cannot
    resolve angles below ~1e-8.
    """
    if A.dim != B.dim or A.degree != B.degree:
        raise ValueError("bases live on different ambient spaces")
    for Q in (A, B):
        gram = np.conj(Q.matrix.T) @ Q.matrix
        if Q.size and np.linalg.norm(gram - np.eye(Q.size), 2) > 1e-8:
            raise ValueError("subspace_angle needs orthonormal columns")
    if A.size != B.size:
        return float(np.pi / 2)
    if A.size == 0:
        return 0.0
    qa, qb = A.matrix, B.matrix
    cross = np.conj(qa.T) @ qb
    smin = float(np.min(np.linalg.svd(cross, compute_uv=False)))
    if smin >= np.sqrt(0.5):
        sine = float(np.linalg.norm(qb - qa @ cross, 2))
        return float(np.arcsin(min(sine, 1.0)))
    return float(np.arccos(smin))


def kernel_angle(phi: MatrixSymbol, Q: SubspaceBasis,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Upper bound on the largest principal angle between ker T_phi and span
    Q: kernel_angles for the one basis."""
    return kernel_angles(phi, (Q,), config)[0]


def kernel_angles(phi: MatrixSymbol, bases,
                  config: ToleranceConfig = DEFAULT_CONFIG) -> tuple[float, ...]:
    """Upper bound on the largest principal angle between ker T_phi and the
    span of each basis in bases, one angle per basis, in order.

    Each Q has orthonormal columns, k of them, at degree M = Q.degree.  Both
    routes read Wedin's sin-theta bound arcsin(min(1, ||T_phi Q||_2 / s)),
    s a lower bound on the smallest singular value above the rank cut: for a
    unit x in span Q, ||T x|| >= s times the part of x outside the numerical
    kernel, so the value is never below the principal angle, up to
    roundoff.  T_phi Q is formed from the symbol, O(M * band * k), at most
    once and only where read: the dense route reuses the count route's
    after a count that certifies nothing, and a pi/2 reading forms none.

    A section whose pieces (_pieces) hold more than 4 n w^2 of cubic work,
    n its column count and w = q * max(L - 1, ceil(64 / q)) for a band of L
    degrees, is certified by inertia counts on its block tridiagonal Gram
    (_certified_angle: O(w^3) per distinct pivot, O(band) of them when the
    pivots reach a bitwise fixed point): s is the count's tau, about 2.25x
    below the singular value it stands for at worst.  Otherwise, or when the
    count certifies nothing, the singular values of the section are taken
    (values only, no vectors, split into pieces): pi/2 when the numerical
    kernel (the values below the rank cut) does not have dimension k, 0 when
    k = 0, and otherwise s is the last value above the cut.

    Each basis takes its own route, rank check and tau ladder, so its angle
    is the one a call on it alone returns, bitwise.  The counts share one
    walk: the sections of one symbol are cut at the same block columns from
    degree 0, so every Gram block of a shallower section but its clipped
    bottom edge is one of a deeper section's, and at each tau the pivots
    over those shared leading blocks are equal.  A memo local to the call
    builds each distinct block once and factors each shared pivot prefix
    once per tau; each degree continues from where its blocks part.
    """
    width = max(phi.coeffs.shape[0] - 1, -(-64 // phi.cols))
    memo: dict = {}
    return tuple(_angle(phi, Q, width, config, memo) for Q in bases)


def _angle(phi: MatrixSymbol, Q: SubspaceBasis, width: int,
           config: ToleranceConfig, memo: dict) -> float:
    """One basis's angle of kernel_angles."""
    M = Q.degree
    n, w = phi.cols * (M + 1), phi.cols * width
    pieces = _pieces(phi, M)
    cubes = sum(cols.shape[0] * cols.shape[1] ** 3 for _, cols in pieces)
    r = None
    if Q.size and cubes > 4 * n * w * w:
        r = _image_norm(phi, Q)
        angle = _certified_angle(phi, Q, r, width, config, memo)
        if angle is not None:
            return angle
    s = _piece_values(phi, M, pieces)
    cut = numerical_rank(s, config.rank_tol)
    if s.size - cut != Q.size:
        return float(np.pi / 2)
    if Q.size == 0:
        return 0.0
    r = _image_norm(phi, Q) if r is None else r
    return float(np.arcsin(min(1.0, r / s[cut - 1])))
