"""Nilpotent Lie group arithmetic in exponential coordinates of the first kind.

A group element is identified with the coordinate vector of its logarithm,
ordered layer by layer, so ``exp`` and ``log`` are identities on coordinates
and the group law is the Baker-Campbell-Hausdorff series, which terminates
for nilpotent algebras.  Orders up to 4 of the series are implemented, which
is exact for algebras of step <= 4.

The same coordinate space carries the limit (graded) group: the limit
bracket keeps only the layer-(a+b) component of a layer-a x layer-b bracket,
and the limit product is the BCH series evaluated with that graded table.
The canonical chart identifying the group with its limit is the identity on
coordinates, so a group element is read as a limit-group element as it
stands.  Dilations (``dilate_vector``) scale layer k by eps**k and are
automorphisms of the limit group.

Brackets, products and folds work over any leading axes: they sum over the
table's nonzero structure constants, so a batch of N products costs a few
array operations per nonzero constant.  ``fold`` is the batched ordered
product (of ``exp`` of each row) of the reference walk and the development
map.  On steps 3-4 it and both walk engines take their products from one
primitive, ``_products``: a recursion over the layers that gives the ordered
product after every step, one carried cumsum per layer.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlgebra,
    NegativeEps,
    UnsupportedStep,
)

Vector = np.ndarray

_TABLE_TOL = 1e-12


class StratifiedAlgebra:
    """Nilpotent Lie algebra with a basis adapted to the lower central series.

    Parameters
    ----------
    layer_dims:
        Layer dimensions ``(d_1, ..., d_r)``; ``r`` is the step number.
    brackets:
        Structure constants as ``(i, j, k, value)`` entries over the full
        basis, 0-indexed: ``[X_i, X_j] = sum_k c[i][j][k] X_k``.  Both
        orientations of each bracket must be listed (antisymmetry is
        validated, not completed).  Entries must satisfy the Jacobi identity
        and the filtration: a layer-a x layer-b bracket may only have support
        in layers >= a + b.
    """

    def __init__(self, layer_dims, brackets=()):
        self.layer_dims = tuple(int(d) for d in layer_dims)
        if not self.layer_dims or min(self.layer_dims) <= 0:
            raise InvalidAlgebra("layer dimensions must be positive integers")
        self.step = len(self.layer_dims)
        self.dim = int(sum(self.layer_dims))
        self.layer_of = np.repeat(np.arange(1, self.step + 1), self.layer_dims)

        table = np.zeros((self.dim, self.dim, self.dim))
        for entry in brackets:
            if len(entry) != 4:
                raise InvalidAlgebra(f"bracket entry {entry!r} is not an (i, j, k, value) quadruple")
            i, j, k, value = entry
            i, j, k = int(i), int(j), int(k)
            if not (0 <= i < self.dim and 0 <= j < self.dim and 0 <= k < self.dim):
                raise InvalidAlgebra(f"bracket entry ({i}, {j}, {k}) is out of range for dimension {self.dim}")
            table[i, j, k] += float(value)
        self._check_table(table)
        self.brackets = table

        graded = table.copy()
        weight = self.layer_of[:, None, None] + self.layer_of[None, :, None]
        graded[weight != self.layer_of[None, None, :]] = 0.0
        self.graded_brackets = graded
        self._check_jacobi(graded, "graded bracket table")
        for arr in (self.brackets, self.graded_brackets, self.layer_of):
            arr.setflags(write=False)
        self.bracket_entries = _nonzero_entries(self.brackets)
        self.graded_bracket_entries = _nonzero_entries(self.graded_brackets)

    # -- validation ----------------------------------------------------------

    def _check_table(self, table: np.ndarray) -> None:
        asym = table + table.transpose(1, 0, 2)
        if np.abs(asym).max() > _TABLE_TOL:
            i, j, k = np.unravel_index(np.abs(asym).argmax(), asym.shape)
            raise InvalidAlgebra(f"antisymmetry violated at c[{i}][{j}][{k}]")
        nz = np.argwhere(np.abs(table) > _TABLE_TOL)
        for i, j, k in nz:
            if self.layer_of[k] < self.layer_of[i] + self.layer_of[j]:
                raise InvalidAlgebra(
                    f"filtration violated: [layer {self.layer_of[i]}, layer {self.layer_of[j]}] "
                    f"hits layer {self.layer_of[k]} at c[{i}][{j}][{k}]"
                )
        # Nilpotency follows: any (r+1)-fold nested bracket has weight > r.
        self._check_jacobi(table, "bracket table")

    @staticmethod
    def _check_jacobi(table: np.ndarray, label: str) -> None:
        jac = (
            np.einsum("jkm,iml->ijkl", table, table)
            + np.einsum("kim,jml->ijkl", table, table)
            + np.einsum("ijm,kml->ijkl", table, table)
        )
        scale = max(1.0, float(np.abs(table).max()) ** 2)
        if np.abs(jac).max() > _TABLE_TOL * scale:
            i, j, k, _ = np.unravel_index(np.abs(jac).argmax(), jac.shape)
            raise InvalidAlgebra(f"{label} fails the Jacobi identity on basis triple ({i}, {j}, {k})")

    # -- helpers ---------------------------------------------------------------

    def zero(self) -> Vector:
        return np.zeros(self.dim)

    def check_vector(self, z) -> Vector:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got shape {z.shape}")
        return z

    def check_points(self, z) -> np.ndarray:
        """Coordinate vectors over any leading axes: shape ``(..., dim)``."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 0 or z.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim} on the last axis, got shape {z.shape}"
            )
        return z

    def embed_first_layer(self, v) -> np.ndarray:
        """First-layer vectors (any leading axes) as coordinates with zero higher layers."""
        v = np.asarray(v, dtype=float)
        d1 = self.layer_dims[0]
        if v.ndim == 0 or v.shape[-1] != d1:
            raise DimensionMismatch(f"expected first-layer vectors of length {d1}, got shape {v.shape}")
        out = np.zeros(v.shape[:-1] + (self.dim,))
        out[..., :d1] = v
        return out

    def __repr__(self) -> str:
        return f"StratifiedAlgebra(layer_dims={self.layer_dims})"


def abelian_algebra(d: int) -> StratifiedAlgebra:
    """R^d with zero bracket (step 1)."""
    return StratifiedAlgebra((d,))


def heisenberg_algebra() -> StratifiedAlgebra:
    """The 3-dimensional algebra with layers (2, 1) and [X, Y] = Z."""
    return StratifiedAlgebra((2, 1), [(0, 1, 2, 1.0), (1, 0, 2, -1.0)])


# -- group operations ----------------------------------------------------------


def _nonzero_entries(table: np.ndarray) -> tuple:
    """The table's ``(i, j, k, c)`` with ``i < j`` and ``|c|`` above the validation
    tolerance (below it, validation treats a constant as zero); antisymmetry
    gives the other orientation."""
    return tuple(
        (int(i), int(j), int(k), float(table[i, j, k]))
        for i, j, k in np.argwhere(np.abs(table) > _TABLE_TOL)
        if i < j
    )


def _br(entries, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket over leading axes: one pass per nonzero structure constant.

    Each term is a column product, so no contraction against the dense table
    (and no BLAS call on a tiny operand) is made.
    """
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for i, j, k, c in entries:
        out[..., k] += c * (x[..., i] * y[..., j] - x[..., j] * y[..., i])
    return out


def _bch(entries, step: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BCH series through order 4 over leading axes, exact for step <= 4 (caller checks step)."""
    c = a + b
    if step == 1:
        return c
    ab = _br(entries, a, b)
    c = c + 0.5 * ab
    if step >= 3:
        aab = _br(entries, a, ab)
        bab = _br(entries, b, ab)
        c = c + (aab - bab) / 12.0
        if step >= 4:
            c = c - _br(entries, b, aab) / 24.0
    return c


def _fold(alg: StratifiedAlgebra, entries, gammas: np.ndarray) -> np.ndarray:
    """``fold`` without argument checks; ``entries`` picks the group or the limit law."""
    out = np.einsum("...kd->...d", gammas)  # several times faster than sum(axis=-2) on narrow rows
    n = gammas.shape[-2]
    if alg.step == 1 or n < 2:
        return out
    if alg.step == 2:
        # half the bracket of each first-layer prefix with the next increment,
        # contracted over the step axis one structure constant at a time
        d1 = alg.layer_dims[0]
        prefix = np.cumsum(gammas[..., :-1, :d1], axis=-2)
        nxt = gammas[..., 1:, :d1]
        _add_half_brackets(entries, np.moveaxis(prefix, -1, 0), np.moveaxis(nxt, -1, 0), out)
        return out
    # coordinate-major, so that each coordinate's recursion runs along contiguous memory
    products = _products(alg, entries, np.ascontiguousarray(np.moveaxis(gammas, -1, 0)))
    return np.moveaxis(products[..., -1], 0, -1)


def _products(alg: StratifiedAlgebra, entries, e: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
    """The ordered products after 0, 1, ..., m steps, built layer by layer: (dim, ..., m + 1), coordinate-major.

    ``e`` (dim, ..., m) holds the logs of m steps, and ``carry`` (dim, ...),
    the product before them (the identity if None), leads the result.  With
    P the product before a step, BCH(P, e) - P in layer j is the layer-j
    part of e + 1/2 [P, e] + 1/12 ([P, [P, e]] - [e, [P, e]]) - 1/24 [e, [P, [P, e]]],
    and every bracket raises the degree, so it reads only the layers of P
    below j.  Layer j of the products is therefore one cumsum of these terms,
    once the layers below it are final (Strichartz, J. Funct. Anal. 72, 1987;
    Chen, Ann. Math. 65, 1957): each layer loops over the structure constants
    whose output lies in it, and [P, e] and [P, [P, e]] are kept per step
    only below the top layer, where a higher layer reads them.  Each cumsum
    starts from the carry, so steps summed in parts, each carrying the last
    one's end, give the same floats as one call over all of them, and each
    row's floats do not depend on the other rows.
    """
    out = np.empty(e.shape[:-1] + (e.shape[-1] + 1,))
    out[..., 0] = 0.0 if carry is None else carry
    before = out[..., :-1]
    below_top = alg.dim - alg.layer_dims[-1]
    pe = np.zeros((below_top,) + e.shape[1:])    # [P, e]
    ppe = np.zeros((below_top,) + e.shape[1:])   # [P, [P, e]]
    lo = 0
    for j, d in enumerate(alg.layer_dims, 1):
        hi = lo + d
        terms = out[lo:hi, ..., 1:]
        terms[...] = e[lo:hi]
        if j >= 2:
            shape = (d,) + e.shape[1:]
            pe_j = np.zeros(shape)
            # a depth-3 bracket lies in layer 3 or above, a depth-4 one in layer 4
            ppe_j, epe_j = (np.zeros(shape), np.zeros(shape)) if j >= 3 else (0.0, 0.0)
            eppe_j = np.zeros(shape) if j >= 4 else 0.0
            for i, l, k, c in entries:
                if not lo <= k < hi:
                    continue
                k -= lo
                pe_j[k] += c * (before[i] * e[l] - before[l] * e[i])
                if j >= 3:
                    ppe_j[k] += c * (before[i] * pe[l] - before[l] * pe[i])
                    epe_j[k] += c * (e[i] * pe[l] - e[l] * pe[i])
                if j >= 4:
                    eppe_j[k] += c * (e[i] * ppe[l] - e[l] * ppe[i])
            terms += 0.5 * pe_j + (ppe_j - epe_j) / 12.0 - eppe_j / 24.0
            if hi <= below_top:
                pe[lo:hi], ppe[lo:hi] = pe_j, ppe_j
        np.cumsum(out[lo:hi], axis=-1, out=out[lo:hi])
        lo = hi
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner product along the last axis, batched over the leading ones.

    einsum rather than ``vecdot`` or ``@``: those go to BLAS, which costs more
    than the product itself on short rows.  Long rows are cut into pieces of
    128 terms, each summed by einsum, and numpy adds each row's piece sums
    pairwise, so no running sum spans a whole row and each row's float is the
    same whatever the leading axes hold; on integers it is exact.  It is as
    fast as one einsum and more accurate: over 2 * 10^4 steps of a non-dyadic
    Heisenberg cover, the scan's points were 2e-13 to 7e-12 off the exact ones
    in 12 seeds this way, and up to 2.4e-10 off with one einsum.
    """
    cut = x.shape[-1] - x.shape[-1] % 128

    def pieces(a):
        return a[..., :cut].reshape(a.shape[:-1] + (cut // 128, 128))

    return (np.einsum("...k,...k->...", pieces(x), pieces(y)).sum(axis=-1)
            + np.einsum("...k,...k->...", x[..., cut:], y[..., cut:]))


def _add_half_brackets(entries, x: np.ndarray, y: np.ndarray, out: np.ndarray, scale: float = 1.0) -> None:
    """Add half the summed brackets of first-layer terms ``x_k`` and ``y_k`` into ``out`` (..., dim).

    ``x`` and ``y`` are coordinate-major: ``x[i]`` is coordinate i of every
    term, with the terms on its last axis.  Each structure constant
    ``[X_i, X_j] = c X_k`` adds ``c/2 (x_i . y_j - x_j . y_i) scale`` to
    coordinate k, by two calls of ``_dot`` along the term axis.  Integer
    terms are summed in int64, exactly while no sum overflows, and their area
    is scaled once.
    """
    for i, j, k, c in entries:
        area = (_dot(x[i], y[j]) - _dot(x[j], y[i])) * scale
        out[..., k] += 0.5 * c * area


def _require_supported_step(alg: StratifiedAlgebra) -> None:
    if alg.step > 4:
        raise UnsupportedStep(f"step {alg.step} exceeds the supported BCH truncation order 4")


def bch_product(alg: StratifiedAlgebra, a, b) -> np.ndarray:
    """Group product in log coordinates: log(exp(a) exp(b)), over any leading axes."""
    _require_supported_step(alg)
    return _bch(alg.bracket_entries, alg.step, alg.check_points(a), alg.check_points(b))


def fold(alg: StratifiedAlgebra, gammas) -> np.ndarray:
    """log of the ordered product of ``exp(gammas[..., k, :])`` along axis -2.

    Batched over any leading axes; an empty product is the identity.  Step 1
    is a sum.  Step 2 is the sum plus half the brackets of each first-layer
    prefix with the next increment.  Steps 3-4 take the last of the products
    after every step that ``_products`` builds layer by layer, exact because
    the BCH series through order 4 is the group law for step <= 4.
    The rate layer folds under the limit (graded) law through ``_fold`` with
    ``alg.graded_bracket_entries``.
    """
    _require_supported_step(alg)
    gammas = alg.check_points(gammas)
    if gammas.ndim < 2:
        raise DimensionMismatch(
            f"expected a sequence of vectors (..., n, {alg.dim}), got shape {gammas.shape}"
        )
    return _fold(alg, alg.bracket_entries, gammas)


def dilate_vector(alg: StratifiedAlgebra, eps: float, z) -> np.ndarray:
    """Scale layer k by eps**k (the algebra dilation), over any leading axes."""
    if eps < 0:
        raise NegativeEps(f"dilation parameter must be nonnegative, got {eps}")
    return alg.check_points(z) * float(eps) ** alg.layer_of


def limit_product(alg: StratifiedAlgebra, g, h) -> np.ndarray:
    """Product of the limit group: BCH evaluated with the graded table."""
    _require_supported_step(alg)
    return _bch(alg.graded_bracket_entries, alg.step, alg.check_points(g), alg.check_points(h))
