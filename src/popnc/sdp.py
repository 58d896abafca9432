"""Block-diagonal semidefinite programming on sparse data, with status classification.

Problems are given in primal standard form with optional free variables:

    minimize    <C, X> + c' u
    subject to  <A_i, X> + B_i u = b_i,   i = 1..p
                X  block-diagonal PSD,  u free

(`sense="max"` negates the objective internally).  An `SdpProblem` stores
each PSD block's constraints as the (row, r, c, value) arrays of their
upper-triangle entries, and B and b dense; no dense matrix is formed per
row.  The solver checks the entries once as it mirrors them into its
internal form: row, flat position and value arrays per block.

One presolve step makes the problem pure-PSD.  It eliminates the free
variables by an SVD of B restricted to the rows where B is nonzero.  Rows
outside that support pass through unchanged; the rows on it are replaced by
a basis U2 of the orthogonal complement of range(B) there, which is never
multiplied into A: the IPM applies U2 to vectors and forms its Schur matrix
as U2' M U2 on those rows.  A program whose only free variable sits in one
row just loses that row.  The presolve then scales each constraint to unit
norm, drops the constraints left without coefficients when their right-hand
side is zero and answers with a Farkas ray when it is not, and maps the
IPM's duals back to the caller's rows once.

The reduced pure-PSD problem is then solved by a primal-dual path-following
interior-point method on the homogeneous self-dual embedding

    A(X) - b tau            = 0
    -A'(y) + C tau - S      = 0
    <C, X> - b'y + kappa    = 0
    X, S PSD,  tau, kappa >= 0

with Nesterov-Todd scaling (the scaling point W with W S W = X) and a
Mehrotra-style adaptive centering parameter.  The Schur complement
M_ij = <A_i, W A_j W> is formed block by block with the cheapest of three
formulas, chosen by one cost rule from the block's row count, dimension,
nonzero count and monomial classes: the dense product over all rows; the
low-rank per-row products of Fujisawa, Kojima and Nakata, "Exploiting
sparsity in primal-dual interior-point methods for semidefinite
programming", Math. Prog. 79 (1997); or the factored form.  Positions of a
block whose columns of (row, value) pairs are equal form a class; with q
classes the block's rows are A = G H, H the 0/1 class partition, and its
Schur matrix is G M^H G' with M^H formed over q rows by one of the other
two formulas.  A localizing block g_j sigma_j has one class per monomial of
sigma_j's Gram matrix, far fewer than its rows (210 against 924 for the ball
block at n = 6, k = 3).  The classes are found from the data, so every
caller of `solve` gets the factored form.  The system is symmetric positive
definite and solved by Cholesky factorization and blocked triangular
substitution.

Memory: the IPM holds one Schur matrix and its factor.  Every iteration
forms the matrix in the same buffer, the last factor is freed before it is
formed, and a jitter rewrites the matrix's diagonal in place, so with p
constraints a step's peak is the presolve's data plus 3 p^2 doubles at the
factorization: the matrix, LAPACK's working copy and the factor.  The
low-rank formula keeps views, not arrays, of the rows after each row.

Classification follows the embedding: tau bounded away from kappa yields an
optimal solution; tau -> 0 with kappa > 0 (ratio threshold
``_INFEAS_RATIO``) yields an infeasibility certificate, which is checked
explicitly before either PrimalInfeasible (Farkas ray y with A'(y) <= 0,
b'y > 0) or DualInfeasible (improving ray X with A(X) = 0, <C,X> < 0) is
declared.  Anything else, including hitting the iteration limit, is reported
as Unknown, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np


class Status(str, Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    UNKNOWN = "unknown"


class SdpStructureError(ValueError):
    """Malformed problem data (dimensions, indices, symmetry, values)."""


@dataclass
class LinearConstraint:
    """One equality row as dense matrices: sum_b <blocks[b], X_b> + free . u = rhs."""

    blocks: dict[int, np.ndarray]
    free: np.ndarray
    rhs: float


@dataclass
class SdpProblem:
    """The program above.  Row i's coefficient matrix of block b holds
    value[k] at (r[k], c[k]) and its mirror for each k with row[k] == i,
    where ``entries[b] = (row, r, c, value)`` and r <= c.  ``B`` (p, q) holds
    the free-variable coefficients and ``b`` (p,) the right-hand side."""

    block_dims: list[int]
    entries: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    B: np.ndarray
    b: np.ndarray
    obj_blocks: dict[int, np.ndarray] = field(default_factory=dict)
    obj_free: np.ndarray | None = None
    sense: str = "min"
    obj_offset: float = 0.0
    meta: Any = None

    @property
    def num_free(self) -> int:
        return self.B.shape[1]

    @property
    def constraints(self) -> list[LinearConstraint]:
        """The rows with a dense matrix per block, built on each call."""
        rows = [LinearConstraint({}, self.B[i], float(self.b[i])) for i in range(len(self.b))]
        for bi, (row, r, c, val) in enumerate(self.entries):
            for i, rr, cc, v in zip(row.tolist(), r.tolist(), c.tolist(), val.tolist()):
                mat = rows[i].blocks.setdefault(bi, np.zeros((self.block_dims[bi],) * 2))
                mat[rr, cc] = mat[cc, rr] = v
        return rows


# The interior-point method's bounds on the relative gap and residuals, and its iteration limit
GAP_TOL = 1e-8
FEAS_TOL = 1e-8
MAX_ITER = 200


@dataclass
class SdpSolution:
    status: Status
    X: list[np.ndarray]
    free: np.ndarray
    y: np.ndarray
    obj_primal: float
    obj_dual: float
    residuals: dict[str, float]
    iterations: int
    trace: list[dict] = field(default_factory=list)
    message: str = ""


# ---------------------------------------------------------------------------
# internal sparse form
# ---------------------------------------------------------------------------

# Costs of the Schur formulas, counted in multiply-adds of the dense formula's
# matrix products (13-18 G/s with one OpenBLAS thread, Haswell kernels, 2-CPU
# VM, on blocks with d >= 20 and p >= 165).  Fitted over 67 blocks of
# hierarchy programs with n = 2..6, one row of the low-rank formula costs
# 8 us plus 60 ns for each later row with entries (its reduceat segment and
# its entry of M): _SPARSE_ROW_COST for a row and 1/120 of it for each later
# row.  The factored formula's two products run at about the dense rate, and
# its fixed cost is about one row's.  The rule then picks the measured
# fastest formula on those blocks, within noise.  At n = 6, k = 3 (924 rows),
# each block alone: d = 84 low-rank 41 ms, dense 432 ms; the ball block
# (d = 28, 210 classes) factored 22 ms, low-rank 40 ms, dense 48 ms; the
# c - f block (d = 7, 28 classes) factored 6.2 ms, dense 7.3 ms.  Without the
# later-row term the rule chose low-rank for the ball block.
_SPARSE_ROW_COST = 1.2e5

# An infeasibility certificate is tried once kappa / tau reaches _INFEAS_RATIO;
# each step goes _STEP_FRAC of the way to the boundary of the cones.
_INFEAS_RATIO = 1e6
_STEP_FRAC = 0.98

# Block size of the triangular solves and of the panels in which the Schur
# matrix is averaged with its transpose.  Up to 64 unknowns a single LAPACK
# solve is as fast; at 924 unknowns a forward and back substitution take
# 1.4 ms against 35 ms for np.linalg.solve on the factor (one OpenBLAS thread).
_TRI_BLOCK = 64


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _accumulate(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Float np.bincount, also for an empty index."""
    return np.bincount(index, weights, n) if index.size else np.zeros(n)


class _Block:
    """The constraint coefficients of one PSD block of dimension d, over p rows.

    Row i's symmetric coefficient matrix holds val[k] at the flat position
    pos[k] = r*d + c for every k with rows[k] == i.  Both triangles are
    stored, and entries are sorted by (row, pos).
    """

    def __init__(self, d: int, p: int, rows: np.ndarray, pos: np.ndarray, val: np.ndarray):
        self.d, self.p = d, p
        self.rows, self.pos, self.val = rows, pos, val
        self.dense: np.ndarray | None = None  # (p, d*d): dense Schur formula
        self.plan: list[tuple] | None = None  # per row: index arrays of the low-rank formula
        self.terms: np.ndarray | None = None  # the low-rank formula's buffer of row terms
        self.factor: tuple[np.ndarray, _Block] | None = None  # (G, H) of the factored formula

    def select(self, index: np.ndarray) -> _Block:
        """Rows index[0], index[1], ... as the new rows 0, 1, ...; the others dropped."""
        new = np.full(self.p, -1)
        new[index] = np.arange(len(index))
        rows = new[self.rows]
        keep = rows >= 0
        rows, pos, val = rows[keep], self.pos[keep], self.val[keep]
        order = np.lexsort((pos, rows))
        return _Block(self.d, len(index), rows[order], pos[order], val[order])

    def scaled(self, divisor: np.ndarray) -> _Block:
        """Row i divided by divisor[i]."""
        return _Block(self.d, self.p, self.rows, self.pos, self.val / divisor[self.rows])

    def row_sqnorm(self) -> np.ndarray:
        return _accumulate(self.rows, self.val * self.val, self.p)

    def row_absmax(self) -> np.ndarray:
        out = np.zeros(self.p)
        np.maximum.at(out, self.rows, np.abs(self.val))
        return out

    def _direct_costs(self) -> tuple[float, float]:
        """The (dense, low-rank) cost of forming this block's Schur matrix directly."""
        d, p = self.d, self.p
        active = np.count_nonzero(np.diff(self.rows, prepend=-1))
        # a row has active / 2 later rows on average
        low = active * _SPARSE_ROW_COST * (1.0 + active / 240) + d * d * self.val.size
        return p * d * d * (d + p), low

    def _classes(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Group the positions whose columns, the (row, value) pairs of every
        row at that position, are equal.  Returns the number of classes, the
        positions with entries and the class of each."""
        o = np.lexsort((self.rows, self.pos))
        pos, rows, bits = self.pos[o], self.rows[o], self.val[o].view(np.int64)
        first = np.flatnonzero(np.diff(pos, prepend=-1))
        count = np.diff(np.append(first, pos.size))
        cls = np.empty(first.size, dtype=np.intp)
        q = 0
        # equal columns have equal lengths (bincount: np.unique imports numpy.ma)
        for n in np.flatnonzero(np.bincount(count)).tolist():
            same = np.flatnonzero(count == n)
            at = first[same, None] + np.arange(n)
            key = np.concatenate((rows[at], bits[at]), axis=1)
            srt = np.lexsort(key.T)
            new = np.ones(same.size, dtype=bool)
            new[1:] = (key[srt[1:]] != key[srt[:-1]]).any(axis=1)
            cls[same[srt]] = q + np.cumsum(new) - 1
            q += int(np.count_nonzero(new))
        return q, pos[first], cls

    def prepare(self) -> None:
        """Choose the cheapest of three Schur formulas and build what it needs.

        Dense: p d^2 (d + p) multiply-adds for <A_i, W A_j W> over all rows.
        Low-rank (Fujisawa, Kojima and Nakata 1997): W A_i W is the product of
        the columns W[:, r] * v and the rows W[c, :] over row i's entries, so
        the products cost d^2 nnz, plus a cost per row with entries that
        grows with the rows after it.
        Factored: the positions whose columns are equal form a class.  With q
        classes, A = G H for the 0/1 class partition H (q, d^2) and G (p, q)
        holding each class's column, so M = G M^H G' with M^H formed over q
        rows by the cheaper direct formula; the two products add p q (p + q).
        A localizing block g sigma has one class per monomial of sigma's Gram
        matrix, far fewer than its rows; in a block of sigma_0 each class is
        one row, and the factored formula never pays.
        """
        d, p = self.d, self.p
        dense, low = self._direct_costs()
        if _SPARSE_ROW_COST + p * (p + 1) < min(dense, low):  # else not even one class pays
            q, pos, cls = self._classes()
            order = np.lexsort((pos, cls))
            H = _Block(d, q, cls[order], pos[order], np.ones(pos.size))
            if _SPARSE_ROW_COST + min(H._direct_costs()) + p * q * (p + q) < min(dense, low):
                H._prepare_direct(*H._direct_costs())
                class_of = np.zeros(d * d, dtype=np.intp)
                class_of[pos] = cls
                G = np.zeros((p, q))
                G[self.rows, class_of[self.pos]] = self.val
                self.factor = (G, H)
                return
        self._prepare_direct(dense, low)

    def _prepare_direct(self, dense: float, low: float) -> None:
        d, p, nnz = self.d, self.p, self.val.size
        if low >= dense:
            self.dense = np.zeros((p, d * d))
            self.dense[self.rows, self.pos] = self.val
            return
        starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        active = self.rows[starts]
        r, c = np.divmod(self.pos, d)
        upper = r <= c
        # <A_j, T> over the upper triangle of a symmetric T: off-diagonal
        # entries count twice, and twice again for M[i, j > i] (see _schur)
        upos = self.pos[upper]
        uval = np.where(r == c, 2.0, 4.0)[upper] * self.val[upper]
        ustarts = np.flatnonzero(np.diff(self.rows[upper], prepend=-1))
        ends = np.append(starts[1:], nnz)
        # W is symmetric, so one gather W[r ++ c] gives both W[:, r] and W[c]; when
        # every row has entries, the rows j >= i are the slice i: of a row of M.
        # Row i's terms fill terms[u:] and one reduceat from the absolute
        # starts ustarts[k:] sums them per row j >= i, so no row stores an
        # array as long as the rows after it.
        self.terms = np.empty(upos.size)
        every = active.size == p
        self.plan = [
            (i, np.concatenate((r[s:e], c[s:e])), self.val[s:e], upos[u:], uval[u:],
             self.terms[u:], ustarts[k:], slice(i, None) if every else active[k:])
            for k, (i, s, e, u) in enumerate(zip(active.tolist(), starts.tolist(),
                                                 ends.tolist(), ustarts.tolist()))
        ]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """The vector (<A_i, X>)_i."""
        if self.dense is not None:
            return self.dense @ X.ravel()
        return _accumulate(self.rows, self.val * X.ravel()[self.pos], self.p)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The matrix sum_i y_i A_i."""
        d = self.d
        if self.dense is not None:
            return (y @ self.dense).reshape(d, d)
        return _accumulate(self.pos, self.val * y[self.rows], d * d).reshape(d, d)

    def schur_pair(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Y, G) with Y G' this block's Schur matrix, for the dense and the
        factored formula: Y = (W A_i W)_i and G = A, or Y = G M^H."""
        if self.factor is not None:
            G, H = self.factor
            return G @ _schur([H], [W], H.p), G
        T = np.matmul(np.matmul(W, self.dense.reshape(self.p, self.d, self.d)), W)
        return T.reshape(self.p, -1), self.dense

    def add_schur(self, W: np.ndarray, M: np.ndarray) -> None:
        """Add <A_i, W A_j W> to M[i, j], twice for j > i, by the low-rank formula."""
        for i, rc, v, upos, uval, terms, seg, cols in self.plan:
            Wrc = W[rc]
            T = (Wrc[:v.size].T * v) @ Wrc[v.size:]
            np.multiply(T.ravel()[upos], uval, out=terms)
            row = np.add.reduceat(self.terms, seg)
            row[0] *= 0.5  # j = i
            M[i, cols] += row


def _apply(blocks: list[_Block], X: list[np.ndarray], p: int) -> np.ndarray:
    out = np.zeros(p)
    for blk, Xb in zip(blocks, X):
        out += blk.apply(Xb)
    return out


def _schur(blocks: list[_Block], W: list[np.ndarray], p: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """The Schur matrix M_ij = <A_i, W A_j W>, written into out when given.
    The dense and the factored formula add their products Y G'; the low-rank
    formula adds its rows j >= i, off the diagonal twice, and M is then
    averaged with its transpose.  At most one product is held beside M."""
    M = None
    for blk, Wb in zip(blocks, W):
        if blk.plan is None:
            Y, G = blk.schur_pair(Wb)
            if M is None:
                M = np.matmul(Y, G.T, out=out)
            else:
                M += Y @ G.T
    if M is None:
        M = np.empty((p, p)) if out is None else out
        M.fill(0.0)
    for blk, Wb in zip(blocks, W):
        if blk.plan is not None:
            blk.add_schur(Wb, M)
    _symmetrize(M)
    return M


def _symmetrize(M: np.ndarray) -> None:
    """M = (M + M') / 2 in place, by panels, which took 4 ms at p = 923
    against 6 ms at once; each entry is 0.5 (M_ij + M_ji), as _sym's."""
    p = M.shape[0]
    for s in range(0, p, _TRI_BLOCK):
        e = min(p, s + _TRI_BLOCK)
        D = M[s:e, s:e]
        D[...] = 0.5 * (D + D.T)
        if e < p:
            U = 0.5 * (M[s:e, e:] + M[e:, s:e].T)
            M[s:e, e:] = U
            M[e:, s:e] = U.T


def _inner_blocks(P: list[np.ndarray], Q: list[np.ndarray]) -> float:
    return float(sum(np.vdot(Pb, Qb) for Pb, Qb in zip(P, Q)))


def _fro_blocks(P: list[np.ndarray]) -> float:
    return math.sqrt(sum(float(np.vdot(Pb, Pb)) for Pb in P))


def _tri_solve(L: np.ndarray, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve L x = rhs, or L' x = rhs with trans, for lower-triangular L.

    Blocked substitution: np.linalg.solve on each diagonal block and one
    matrix product per block for the part already solved.
    """
    n = L.shape[0]
    x = np.array(rhs, dtype=float)
    starts = range(0, n, _TRI_BLOCK)
    for s in (reversed(starts) if trans else starts):
        e = min(n, s + _TRI_BLOCK)
        if trans:
            if e < n:
                x[s:e] -= L[e:, s:e].T @ x[e:]
            x[s:e] = np.linalg.solve(L[s:e, s:e].T, x[s:e])
        else:
            if s:
                x[s:e] -= L[s:e, :s] @ x[:s]
            x[s:e] = np.linalg.solve(L[s:e, s:e], x[s:e])
    return x


@dataclass
class _Data:
    """Internal form (minimization sense)."""

    dims: list[int]
    A: list[_Block]
    B: np.ndarray  # (p, q)
    b: np.ndarray  # (p,)
    C: list[np.ndarray]
    c: np.ndarray  # (q,)
    offset: float


@dataclass
class _Reduced:
    """A pure-PSD problem in minimization sense, as the IPM sees it.

    Its constraints are the data rows [0, nk) of the blocks as they stand
    and then, when U is given, the combinations U[:, j] of the data rows
    [nk, nk + U.shape[0]): free-variable elimination keeps the rows outside
    the support of B and replaces the rows on it by a basis of the
    orthogonal complement of range(B).
    """

    dims: list[int]
    A: list[_Block]
    nk: int
    U: np.ndarray | None
    b: np.ndarray
    C: list[np.ndarray]
    offset: float

    @property
    def data_rows(self) -> int:
        return self.nk + (0 if self.U is None else self.U.shape[0])

    def apply(self, X: list[np.ndarray]) -> np.ndarray:
        r = _apply(self.A, X, self.data_rows)
        return r if self.U is None else np.concatenate((r[:self.nk], self.U.T @ r[self.nk:]))

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Constraint weights y as weights of the data rows."""
        return y if self.U is None else np.concatenate((y[:self.nk], self.U @ y[self.nk:]))

    def adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        z = self.lift(y)
        return [blk.adjoint(z) for blk in self.A]

    def schur(self, W: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        """The Schur matrix, in out (data rows square).  With U it is
        [[M_kk, M_k. U], [U' M_.k, U' M U]], a view of out's leading part."""
        M = _schur(self.A, W, self.data_rows, out)
        if self.U is None:
            return M
        k, U = self.nk, self.U
        m = k + U.shape[1]
        MU = M[:, k:] @ U
        M[k:m, k:m] = U.T @ MU[k:]
        M[:k, k:m] = MU[:k]
        M[k:m, :k] = MU[:k].T
        M = M[:m, :m]
        _symmetrize(M)
        return M


def _block_matrix(dims: list[int], b: int, mat) -> np.ndarray:
    """mat as a float array, checked as the objective of block b.  Symmetric
    means finite and |M - M'| <= 1e-12 (1 + max|M|) + 1e-5 |M'| entrywise; a
    NaN or infinite entry makes M - M' nonzero, so the exact test finds it."""
    if not 0 <= b < len(dims):
        raise SdpStructureError(f"objective: block index {b} out of range")
    M = np.asarray(mat, dtype=float)
    d = dims[b]
    if M.shape != (d, d):
        raise SdpStructureError(f"objective: block {b} has shape {M.shape}, expected {(d, d)}")
    diff = M - M.T
    if diff.any():
        amax = np.abs(M).max()
        if not (np.isfinite(amax) and np.all(np.abs(diff) <= 1e-12 * (1.0 + amax) + 1e-5 * np.abs(M.T))):
            raise SdpStructureError(f"objective: block {b} coefficient matrix is not symmetric")
    return M


def _entry_block(d: int, p: int, bi: int, entries) -> _Block:
    """Block bi's (row, r, c, value) entries, checked, as a _Block: the
    off-diagonal entries mirrored, exact zeros dropped, sorted by (row, pos)."""
    row, r, c, val = entries
    row, r, c = (np.asarray(a, dtype=np.intp) for a in (row, r, c))
    val = np.asarray(val, dtype=float)
    if not row.shape == r.shape == c.shape == val.shape == (row.size,):
        raise SdpStructureError(f"block {bi}: its row, r, c and value arrays differ in length")
    if row.size and (row.min() < 0 or row.max() >= p):
        raise SdpStructureError(f"block {bi}: a row index lies outside [0, {p})")
    if np.any(r < 0) or np.any(r > c) or np.any(c >= d):
        raise SdpStructureError(f"block {bi}: an entry (r, c) has not 0 <= r <= c < {d}")
    if not np.isfinite(val).all():
        raise SdpStructureError(f"block {bi}: a value is not finite")
    off = r != c
    rows, pos, val = (np.concatenate(pair) for pair in
                      ((row, row[off]), (r * d + c, (c * d + r)[off]), (val, val[off])))
    key = rows * (d * d) + pos
    order = np.argsort(key, kind="stable")
    if np.any(key[order[1:]] == key[order[:-1]]):
        raise SdpStructureError(f"block {bi}: an entry (row, r, c) is listed twice")
    order = order[val[order] != 0]
    return _Block(d, p, rows[order], pos[order], val[order])


@np.errstate(invalid="ignore")  # inf - inf in a symmetry test is a refusal, not a warning
def _to_internal(problem: SdpProblem) -> _Data:
    if problem.sense not in ("min", "max"):
        raise SdpStructureError(f"sense must be 'min' or 'max', got {problem.sense!r}")
    dims = list(problem.block_dims)
    if any(d < 1 for d in dims):
        raise SdpStructureError("block dimensions must be >= 1")
    b = np.asarray(problem.b, dtype=float)
    B = np.asarray(problem.B, dtype=float)
    p = b.size
    if b.ndim != 1 or B.ndim != 2 or B.shape[0] != p:
        raise SdpStructureError(f"B has shape {B.shape}, expected ({p}, q) for {p} right-hand sides")
    q = B.shape[1]
    if problem.obj_free is not None and len(problem.obj_free) != q:
        raise SdpStructureError("objective free-vector length mismatch")
    flip = -1.0 if problem.sense == "max" else 1.0
    C = [np.zeros((d, d)) for d in dims]
    for bi, mat in problem.obj_blocks.items():
        C[bi] = flip * _sym(_block_matrix(dims, bi, mat))
    if len(problem.entries) != len(dims):
        raise SdpStructureError(f"{len(problem.entries)} entry lists for {len(dims)} blocks")
    A = [_entry_block(d, p, bi, ent) for bi, (d, ent) in enumerate(zip(dims, problem.entries))]
    c = np.zeros(q)
    if q and problem.obj_free is not None:
        c = flip * np.asarray(problem.obj_free, dtype=float)
    return _Data(dims, A, B, b, C, c, flip * problem.obj_offset)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve an SdpProblem; deterministic for identical inputs.

    Never raises on numerical failure; iteration-limit and ill-posed cases
    come back with status Unknown.  Structural errors do raise.
    """
    data = _to_internal(problem)
    flip = -1.0 if problem.sense == "max" else 1.0
    sol = _solve_eliminated(data)
    sol.obj_primal = flip * sol.obj_primal
    sol.obj_dual = flip * sol.obj_dual
    return sol


def _solve_eliminated(data: _Data) -> SdpSolution:
    """Presolve, then the interior-point loop; duals are mapped back once."""
    p, q = data.B.shape
    dims = data.dims

    # -- eliminate free variables -----------------------------------------
    # Only the rows where B is nonzero take part: the others pass through.
    on_support = np.any(data.B != 0, axis=1)
    supp, rest = np.flatnonzero(on_support), np.flatnonzero(~on_support)
    Q, sig, Vt = np.linalg.svd(data.B[supp], full_matrices=True)
    tol = max(data.B.shape) * np.finfo(float).eps * (sig[0] if sig.size else 0.0)
    r = int(np.sum(sig > max(tol, 1e-13)))
    U1, U2 = Q[:, :r], Q[:, r:]
    V1 = Vt[:r].T
    V2 = Vt[r:].T
    c_null = V2.T @ data.c if V2.size else np.zeros(0)
    if c_null.size and np.abs(c_null).max() > 1e-11 * (1.0 + np.abs(data.c).max()):
        # objective unbounded along a free direction, provided the rest
        # of the problem is feasible at all
        feas = _Data(dims, data.A, data.B, data.b, [np.zeros_like(Cb) for Cb in data.C],
                     np.zeros(q), 0.0)
        probe = _solve_eliminated(feas)
        if probe.status is Status.OPTIMAL:
            ray_dir = V2 @ c_null
            ray = -ray_dir / np.linalg.norm(ray_dir)
            return SdpSolution(
                status=Status.DUAL_INFEASIBLE,
                X=[np.zeros((d, d)) for d in dims],
                free=ray,
                y=np.zeros(p),
                obj_primal=float("nan"),
                obj_dual=float("nan"),
                residuals={"ray_eq": 0.0, "ray_obj": float(data.c @ ray)},
                iterations=probe.iterations,
                message="objective is unbounded along a free-variable direction",
            )
        if probe.status is Status.PRIMAL_INFEASIBLE:
            return probe
        probe.message = "unbounded free direction but feasibility probe inconclusive"
        probe.status = Status.UNKNOWN
        return probe
    w = np.zeros(p)
    if r:
        w[supp] = U1 @ ((V1.T @ data.c) / sig[:r])

    k = rest.size
    U = U2 if U2.shape[1] else None
    order = rest if U is None else np.concatenate((rest, supp))
    n = order.size
    A = [blk.select(order) for blk in data.A] if q else data.A
    b = np.concatenate((data.b[rest], U2.T @ data.b[supp]))
    C = [Cb - Wb for Cb, Wb in zip(data.C, (blk.adjoint(w) for blk in data.A))] if r else data.C

    # -- scale each constraint to unit norm, for conditioning -------------
    # The data rows on the support of B keep their scale: U carries it.
    sq, absmax = np.zeros(n), np.zeros(n)
    for blk in A:
        sq += blk.row_sqnorm()
        absmax = np.maximum(absmax, blk.row_absmax())
    fro2, amax = sq[:k], absmax[:k]
    rn = _row_norms(fro2, b[:k])
    A = [blk.scaled(np.concatenate((rn, np.ones(n - k)))) for blk in A]
    for blk in A:
        blk.prepare()
    if U is not None:
        fro2_u, amax_u = _combination_norms(A, dims, k, U, b[k:], sq[k:])
        rn = np.concatenate((rn, _row_norms(fro2_u, b[k:])))
        fro2, amax = np.concatenate((fro2, fro2_u)), np.concatenate((amax, amax_u))

    def to_rows(z: np.ndarray) -> np.ndarray:
        """Weights z of the constraints before the screen as weights of the caller's rows."""
        z = z / rn
        y = np.zeros(p)
        y[rest] = z[:k]
        y[supp] = U2 @ z[k:]
        return y

    # -- screen out constraints without coefficients ----------------------
    keep = amax / rn > 1e-14
    if not keep.all():
        # a row without coefficients reads 0 = rhs: its rhs is weighed
        # against the others before normalization, which would make it +-1
        # whatever its size
        inconsistent = np.flatnonzero(~keep & (np.abs(b) > 1e-10 * (1.0 + float(np.abs(b).max()))))
        if inconsistent.size:
            z = np.zeros(b.size)
            z[inconsistent[0]] = np.sign(b[inconsistent[0]])
            return SdpSolution(
                status=Status.PRIMAL_INFEASIBLE,
                X=[np.zeros((d, d)) for d in dims], free=np.zeros(q), y=to_rows(z),
                obj_primal=float("nan"), obj_dual=float("nan"),
                residuals={"farkas": 0.0}, iterations=0,
                message="reduced constraints are inconsistent",
            )
        A = [blk.select(np.concatenate((np.flatnonzero(keep[:k]), np.arange(k, n)))) for blk in A]
        for blk in A:
            blk.prepare()
        if U is not None:
            U = U[:, keep[k:]]
    nk = int(keep[:k].sum())
    red = _Reduced(dims, A, nk, None if U is None else U / rn[keep][nk:], (b / rn)[keep], C,
                   data.offset + float(w @ data.b))
    Anorm = max(1.0, float((np.sqrt(fro2[keep]) / rn[keep]).max(initial=0.0)))

    sol = _solve_reduced(red, Anorm) if red.b.size else _solve_degenerate(red)
    z = np.zeros(b.size)
    z[keep] = sol.y
    sol.free, sol.y = np.zeros(q), to_rows(z)
    if r and sol.status in (Status.OPTIMAL, Status.DUAL_INFEASIBLE):
        # the free variables u with B u = b - A(X), or -A(X) along a ray, on range(B)
        AX = _apply(data.A, sol.X, p)
        res = data.b - AX if sol.status is Status.OPTIMAL else -AX
        sol.free = V1 @ ((U1.T @ res[supp]) / sig[:r])
    if sol.status is Status.OPTIMAL:
        sol.y += w
        sol.obj_primal = _inner_blocks(data.C, sol.X) + float(data.c @ sol.free) + data.offset
        sol.obj_dual = float(data.b @ sol.y) + data.offset
    elif sol.status is Status.DUAL_INFEASIBLE:
        sol.y = np.zeros(p)
    return sol


def _max_step(D: list[np.ndarray], inv_chol: list[np.ndarray]) -> float:
    """sup {alpha : P + alpha D  PSD} for strictly PSD P = L L' with inv_chol = L^-1."""
    alpha = math.inf
    for Db, Li in zip(D, inv_chol):
        lam = float(np.linalg.eigvalsh(_sym(Li @ Db @ Li.T)).min())
        if lam < -1e-16:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def _nt_scaling(X: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (W, LX) with W symmetric PD satisfying W S W = X."""
    LX = np.linalg.cholesky(X)
    inner = _sym(LX.T @ S @ LX)
    d, Q = np.linalg.eigh(inner)
    d = np.maximum(d, 1e-300)
    G = (Q * (d ** -0.5)) @ Q.T
    W = _sym(LX @ G @ LX.T)
    return W, LX


def _row_norms(fro2: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The norm of each constraint (A_i, b_i), or 1 where it vanishes."""
    s = np.sqrt(fro2 + rhs ** 2)
    return np.where(s > 1e-300, s, 1.0)


def _combination_norms(A: list[_Block], dims: list[int], k: int, U: np.ndarray,
                       rhs: np.ndarray, sqnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared Frobenius norm and largest absolute entry of each combination
    sum_i U[i, j] A_{k+i} of the data rows from k on.

    The norms come from the Gram matrix of those rows.  Where cancellation
    makes that inaccurate (a norm below 1e-7 of the combination's scale or
    of its right-hand side) the combination is formed entry by entry, and
    entries all within 1e-12 of its scale count as zero: the combination is
    a dependency among the rows, and what is left of it is the rounding of
    the data and of U (a caller's rows that are dependent only up to their
    own rounding left 3e-14 of the scale).  The other largest entries are
    left at inf: such a norm already puts them above the zero-row threshold.
    """
    n = k + U.shape[0]
    G = _schur(A, [np.eye(d) for d in dims], n)[k:, k:]
    fro2 = np.einsum("ij,ij->j", U, G @ U)
    scale = np.abs(U).T @ np.sqrt(sqnorm)
    amax = np.full(U.shape[1], math.inf)
    for j in np.flatnonzero(fro2 <= 1e-14 * np.maximum(scale, np.abs(rhs)) ** 2):
        z = np.zeros(n)
        z[k:] = U[:, j]
        mats = [blk.adjoint(z) for blk in A]
        fro2[j] = sum(float(np.vdot(m, m)) for m in mats)
        amax[j] = max((float(np.abs(m).max()) for m in mats), default=0.0)
        if amax[j] <= 1e-12 * scale[j]:
            fro2[j] = amax[j] = 0.0
    return fro2, amax


def _solve_reduced(red: _Reduced, Anorm: float) -> SdpSolution:
    """The interior-point loop on a presolved problem; Anorm >= 1 bounds the
    Frobenius norms of its constraints, and y weighs those constraints."""
    dims, b, C = red.dims, red.b, red.C
    nu = sum(dims)
    p = len(b)
    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + _fro_blocks(C)

    X = [np.eye(d) for d in dims]
    S = [np.eye(d) for d in dims]
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0
    mu0 = (_inner_blocks(X, S) + tau * kappa) / (nu + 1)

    trace: list[dict] = []
    # the Schur matrix's storage, reused by every iteration: a matrix freed
    # each iteration goes back to the OS and is faulted in again (57,000 page
    # faults in a dense-n6 minimize solve, 2,000-4,000 in most with the buffer)
    schur_buf = np.empty((red.data_rows, red.data_rows))
    stalls = 0
    message = ""

    for it in range(MAX_ITER):
        mu = (_inner_blocks(X, S) + tau * kappa) / (nu + 1)

        AX = red.apply(X)
        rp = tau * b - AX
        AtY = red.adjoint(y)
        Rd = [tau * Cb - Sb - Ab for Cb, Sb, Ab in zip(C, S, AtY)]
        cx, by = _inner_blocks(C, X), float(b @ y)
        rg = kappa + cx - by
        xnorm, ynorm = _fro_blocks(X), float(np.linalg.norm(y))

        # user-facing tests of the scaled candidate (X/tau, y/tau)
        pres = float(np.linalg.norm(rp)) / (tau * bnorm)
        dcone = max(max(0.0, -float(np.linalg.eigvalsh(_sym(Cb - Ab / tau)).min()))
                    for Cb, Ab in zip(C, AtY))
        dres = dcone / cnorm
        pobj = cx / tau + red.offset
        dobj = by / tau + red.offset
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        trace.append({
            "iter": it, "mu": mu, "tau": tau, "kappa": kappa,
            "pobj": pobj, "dobj": dobj, "pres": pres, "dres": dres, "gap": gap,
            "xnorm": xnorm / tau, "ynorm": ynorm / tau,
            "bnorm": bnorm, "cnorm": cnorm,
        })

        if pres <= FEAS_TOL and dres <= FEAS_TOL and gap <= GAP_TOL:
            return SdpSolution(
                status=Status.OPTIMAL,
                X=[Xb / tau for Xb in X], free=np.zeros(0), y=y / tau,
                obj_primal=pobj, obj_dual=dobj,
                residuals={"primal": pres, "dual": dres, "gap": gap},
                iterations=it, trace=trace,
            )

        if kappa / max(tau, 1e-300) >= _INFEAS_RATIO:
            # the rays y/by and X/(-cx), tested through the products above
            if by > 1e-300:
                resid = _fro_blocks([Ab + Sb for Ab, Sb in zip(AtY, S)]) / by
                quality = resid / (1.0 + ynorm / by * Anorm)
                if quality <= FEAS_TOL:
                    return SdpSolution(
                        status=Status.PRIMAL_INFEASIBLE,
                        X=[np.zeros((d, d)) for d in dims], free=np.zeros(0),
                        y=y / by,
                        obj_primal=float("nan"), obj_dual=float("nan"),
                        residuals={"farkas": quality}, iterations=it, trace=trace,
                        message="Farkas certificate of primal infeasibility",
                    )
            if cx < -1e-300:
                quality = float(np.linalg.norm(AX)) / -cx / (1.0 + xnorm / -cx * Anorm)
                if quality <= FEAS_TOL:
                    return SdpSolution(
                        status=Status.DUAL_INFEASIBLE,
                        X=[Xb / (-cx) for Xb in X], free=np.zeros(0), y=np.zeros(p),
                        obj_primal=float("nan"), obj_dual=float("nan"),
                        residuals={"ray": quality}, iterations=it, trace=trace,
                        message="improving ray certificate of dual infeasibility",
                    )

        if tau < 1e-12 and kappa < 1e-12:
            message = "tau and kappa both vanished (problem is ill-posed or weakly infeasible)"
            break
        if mu < 1e-16 * (1.0 + mu0):
            message = "complementarity vanished without meeting a convergence test"
            break

        # Newton systems: NT scaling, Schur complement, predictor + corrector
        try:
            scal = [_nt_scaling(Xb, Sb) for Xb, Sb in zip(X, S)]
        except np.linalg.LinAlgError:
            message = "NT scaling failed (iterate left the cone numerically)"
            break
        W = [w for w, _ in scal]
        try:
            LSinv = [_tri_solve(np.linalg.cholesky(Sb), np.eye(Sb.shape[0])) for Sb in S]
            LXinv = [_tri_solve(lx, np.eye(lx.shape[0])) for _, lx in scal]
        except np.linalg.LinAlgError:
            message = "dual block factorization failed"
            break
        Sinv = [Li.T @ Li for Li in LSinv]

        # the last factor is freed before M is formed; a jitter rewrites M's
        # diagonal from its saved copy, with the bits of adding to a copy of M
        L = None
        M = red.schur(W, schur_buf)
        diag0 = M.diagonal().copy()
        base = float(np.mean(diag0)) + 1e-300
        for jit in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            if jit:
                M.flat[::p + 1] = diag0 + jit * base
            try:
                L = np.linalg.cholesky(M)
                break
            except np.linalg.LinAlgError:
                continue
        if L is None:
            message = "Schur complement factorization failed"
            break
        diag = L.diagonal().copy()
        trace[-1]["schur_jitter"] = jit
        trace[-1]["schur_cond_lb"] = float((diag.max() / diag.min()) ** 2)  # <= cond of the matrix factored

        def msolve(rhs: np.ndarray) -> np.ndarray:
            return _tri_solve(L, _tri_solve(L, rhs), trans=True)

        WCW = [Wb @ Cb @ Wb for Wb, Cb in zip(W, C)]
        WRW = [Wb @ Rb @ Wb for Wb, Rb in zip(W, Rd)]
        hc = red.apply(WCW)
        hb = hc - b
        v0 = msolve(hc + b)
        denom = float(hb @ v0) - _inner_blocks(C, WCW) - kappa / tau
        if abs(denom) < 1e-300:
            message = "singular Newton system"
            break

        def direction(sigma: float, eta: float):
            E = [sigma * mu * Si - Xb - eta * WRWb for Si, Xb, WRWb in zip(Sinv, X, WRW)]
            rhs1 = eta * rp - red.apply(E)
            u0 = msolve(rhs1)
            rhs2 = -eta * rg - _inner_blocks(C, E) - (sigma * mu - tau * kappa) / tau
            dtau = (rhs2 - float(hb @ u0)) / denom
            dy = u0 + v0 * dtau
            AtDy = red.adjoint(dy)
            dS = [_sym(Cb * dtau - Ab + eta * Rb) for Cb, Ab, Rb in zip(C, AtDy, Rd)]
            dX = [_sym(Eb + (Wb @ Ab @ Wb) - WCWb * dtau)
                  for Eb, Wb, Ab, WCWb in zip(E, W, AtDy, WCW)]
            dkappa = (sigma * mu - tau * kappa - kappa * dtau) / tau
            return dX, dy, dS, dtau, dkappa

        def step(dX, dS, dtau: float, dkappa: float) -> float:
            """_STEP_FRAC of the longest step that stays in the cones, at most 1."""
            longest = min(_max_step(dX, LXinv), _max_step(dS, LSinv),
                          (-tau / dtau) if dtau < 0 else math.inf,
                          (-kappa / dkappa) if dkappa < 0 else math.inf)
            return min(1.0, _STEP_FRAC * longest)

        dXa, _, dSa, dtaua, dkappaa = direction(0.0, 1.0)
        alpha_a = step(dXa, dSa, dtaua, dkappaa)
        mu_aff = (
            _inner_blocks([Xb + alpha_a * D for Xb, D in zip(X, dXa)],
                          [Sb + alpha_a * D for Sb, D in zip(S, dSa)])
            + (tau + alpha_a * dtaua) * (kappa + alpha_a * dkappaa)
        ) / (nu + 1)
        sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        dX, dy, dS, dtau, dkappa = direction(sigma, 1.0 - sigma)
        alpha = step(dX, dS, dtau, dkappa)
        if not math.isfinite(alpha) or alpha <= 1e-10:
            stalls += 1
            if stalls >= 3:
                message = "step length collapsed"
                break
            alpha = max(alpha, 1e-10)
        else:
            stalls = 0

        X = [_sym(Xb + alpha * D) for Xb, D in zip(X, dX)]
        S = [_sym(Sb + alpha * D) for Sb, D in zip(S, dS)]
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

        if not all(map(math.isfinite, [tau, kappa])) or any(
            not np.all(np.isfinite(Xb)) for Xb in X
        ):
            message = "numerical breakdown (non-finite iterate)"
            break
    else:
        message = "iteration limit reached"

    Xs = [Xb / tau for Xb in X] if tau > 1e-300 else [np.zeros((d, d)) for d in dims]
    ys = y / tau if tau > 1e-300 else np.zeros(p)
    return SdpSolution(
        status=Status.UNKNOWN,
        X=Xs, free=np.zeros(0), y=ys,
        obj_primal=_inner_blocks(C, Xs) + red.offset,
        obj_dual=float(b @ ys) + red.offset,
        residuals={"tau": tau, "kappa": kappa},
        iterations=len(trace), trace=trace, message=message or "no convergence",
    )


def _solve_degenerate(red: _Reduced) -> SdpSolution:
    """No constraints left: solved in closed form.  Without PSD blocks no row
    has coefficients, so the zero-row screen leaves none and this case covers
    them too."""
    dims, C = red.dims, red.C
    eigmins = [float(np.linalg.eigvalsh(_sym(Cb)).min()) if Cb.size else 0.0 for Cb in C]
    if all(m >= -1e-12 * (1.0 + _fro_blocks(C)) for m in eigmins):
        return SdpSolution(
            status=Status.OPTIMAL,
            X=[np.zeros((d, d)) for d in dims], free=np.zeros(0),
            y=np.zeros(0),
            obj_primal=red.offset, obj_dual=red.offset,
            residuals={"primal": 0.0, "dual": 0.0, "gap": 0.0},
            iterations=0, message="no active constraints",
        )
    bi = int(np.argmin(eigmins))
    vals, vecs = np.linalg.eigh(_sym(C[bi]))
    v = vecs[:, 0]
    X = [np.zeros((d, d)) for d in dims]
    X[bi] = np.outer(v, v)
    return SdpSolution(
        status=Status.DUAL_INFEASIBLE,
        X=X, free=np.zeros(0), y=np.zeros(0),
        obj_primal=float("nan"), obj_dual=float("nan"),
        residuals={"ray": 0.0}, iterations=0,
        message="objective block is indefinite with no constraints",
    )


def dump_sdp(problem: SdpProblem, stream) -> None:
    """Write the problem in the plain-text exchange format (docs/sdp_dump_format.md)."""
    if isinstance(stream, (str, bytes)):
        with open(stream, "w", encoding="utf-8") as fh:
            return dump_sdp(problem, fh)
    w = stream.write
    w("popnc-sdp 1\n")
    w(f"sense {problem.sense}\n")
    w(f"blocks {len(problem.block_dims)}\n")
    for i, d in enumerate(problem.block_dims):
        w(f"block {i} psd {d}\n")
    w(f"free {problem.num_free}\n")
    w(f"offset {float(problem.obj_offset)!r}\n")
    w("objective\n")
    for bi, mat in sorted(problem.obj_blocks.items()):
        for (r, c) in zip(*np.nonzero(np.triu(mat))):
            w(f"  obj {bi} {r} {c} {float(mat[r, c])!r}\n")
    if problem.obj_free is not None:
        for j in np.nonzero(problem.obj_free)[0]:
            w(f"  objfree {j} {float(problem.obj_free[j])!r}\n")
    # the stored entries, by row, block, r and c
    parts = [(np.full(len(ent[0]), bi), *ent) for bi, ent in enumerate(problem.entries)]
    bi, row, r, c, val = ([np.concatenate(a) for a in zip(*parts)] if parts
                          else [np.zeros(0)] * 5)
    order = np.lexsort((c, r, bi, row))
    order = order[val[order] != 0]
    bounds = np.searchsorted(row[order], np.arange(len(problem.b) + 1)).tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        w(f"constraint {i} rhs {float(problem.b[i])!r}\n")
        for k in order[lo:hi]:
            w(f"  entry {bi[k]} {r[k]} {c[k]} {float(val[k])!r}\n")
        for j in np.nonzero(problem.B[i])[0]:
            w(f"  freecoef {j} {float(problem.B[i, j])!r}\n")
    w("end\n")
