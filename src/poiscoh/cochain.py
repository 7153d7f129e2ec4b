"""Indexing of mixed tensor/wedge cochain spaces.

A cochain of bidegree (i, j) with coefficients in an m-dimensional module is
a linear map  A^(tensor i) (x) Lambda^j A -> M.  Its coordinates are indexed
by (tensor word, strictly increasing wedge word, module component).  A theory
in a fixed degree is a direct sum of such blocks; this module pins down the
block layout per theory and the flat index used by every matrix downstream,
so that dumps and representatives are reproducible.  :func:`encode` and
:func:`decode` are the one conversion between nested (i, j) tables and flat
coefficient vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .algebra import StructuralError

THEORIES = ("poisson", "quasi", "omega", "hochschild", "ce")


def wedge_normalize(indices) -> tuple[int, tuple | None]:
    """Sort wedge indices, tracking the permutation sign.

    Returns ``(sign, sorted_tuple)``; a repeated index collapses the wedge,
    giving ``(0, None)``.
    """
    idx = list(indices)
    sign = 1
    # insertion sort; wedge words are short, and we need the swap parity
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(idx)):
        if idx[a - 1] == idx[a]:
            return 0, None
    return sign, tuple(idx)


def tensor_rank(word: tuple[int, ...], dim: int) -> int:
    """Position of a tensor word among all words of its length (base-``dim``,
    leftmost factor most significant)."""
    r = 0
    for t in word:
        r = r * dim + t
    return r


def wedge_rank(word: tuple[int, ...], dim: int) -> int:
    """Position of an increasing word among ``itertools.combinations`` output
    (lexicographic), computed without enumeration."""
    r = 0
    prev = -1
    j = len(word)
    for pos, c in enumerate(word):
        for skipped in range(prev + 1, c):
            r += comb(dim - 1 - skipped, j - pos - 1)
        prev = c
    return r


def space_layout(theory: str, degree: int, dim: int) -> tuple[tuple[int, int], ...]:
    """The ordered (i, j) blocks making up degree ``degree`` of a theory.

    Blocks whose wedge width exceeds ``dim`` are kept with size zero so that
    layouts are uniform across dimensions.
    """
    if theory not in THEORIES:
        raise StructuralError(f"unknown theory {theory!r}; expected one of {THEORIES}")
    if degree < 0:
        raise StructuralError("degree must be nonnegative")
    n = degree
    if theory == "poisson":
        if n == 0:
            return ((0, 0),)
        return ((0, n),) + tuple((i, n - i) for i in range(2, n + 1))
    if theory == "quasi":
        return tuple((i, n - i) for i in range(n + 1))
    if theory == "omega":
        return tuple((i, n + 2 - i) for i in range(2, n + 3))
    if theory == "hochschild":
        return ((n, 0),)
    return ((0, n),)  # ce


def block_size(d: int, m: int, i: int, j: int) -> int:
    """Coordinates of the (i, j) block, Hom(A^(x)i (x) Lambda^j A, M), for an
    algebra of dimension ``d`` and a module of dimension ``m``."""
    return m * d ** i * comb(d, j)


@dataclass(frozen=True)
class CochainSpace:
    """One degree of one theory: an ordered direct sum of (i, j) blocks.

    Flat index of a coordinate:
    ``block_offset + (tensor_rank * comb(d, j) + wedge_rank) * m + component``.
    """

    theory: str
    degree: int
    alg_dim: int
    mod_dim: int

    @staticmethod
    def build(theory: str, degree: int, alg_dim: int, mod_dim: int) -> "CochainSpace":
        space_layout(theory, degree, alg_dim)  # validate eagerly
        return CochainSpace(theory, degree, alg_dim, mod_dim)

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return space_layout(self.theory, self.degree, self.alg_dim)

    def block_size(self, i: int, j: int) -> int:
        return block_size(self.alg_dim, self.mod_dim, i, j)

    @cached_property
    def block_offsets(self) -> dict[tuple[int, int], int]:
        offsets = {}
        pos = 0
        for i, j in self.blocks:
            offsets[i, j] = pos
            pos += self.block_size(i, j)
        return offsets

    @cached_property
    def dim(self) -> int:
        return sum(self.block_size(i, j) for i, j in self.blocks)

    def index(self, i: int, j: int, tens: tuple, wedge: tuple, comp: int) -> int:
        if (i, j) not in self.block_offsets:
            raise StructuralError(
                f"block ({i}, {j}) is not part of {self.theory} degree {self.degree}")
        cell = tensor_rank(tens, self.alg_dim) * comb(self.alg_dim, j) \
            + wedge_rank(wedge, self.alg_dim)
        return self.block_offsets[i, j] + cell * self.mod_dim + comp

    def cells(self, i: int, j: int):
        """All (tensor word, wedge word) cells of a block, in flat-index order."""
        for tens in itertools.product(range(self.alg_dim), repeat=i):
            for wedge in itertools.combinations(range(self.alg_dim), j):
                yield tens, wedge


def _at(table, word: tuple):
    """The entry of a nested table at a word of indices."""
    for a in word:
        table = table[a]
    return table


def require_alternating(table, i: int, j: int, message: str) -> None:
    """Raise ``StructuralError(message)`` unless a nested table of a block
    (i, j) is alternating in its j wedge arguments.  It is checked as a sign
    change under every swap of two adjacent wedge arguments; over the
    rationals that also makes the table zero on repeated arguments and
    multiplies it by the sign of any permutation of them."""
    if j < 2:
        return
    for word in itertools.product(range(len(table)), repeat=i + j):
        vec = tuple(_at(table, word))
        for p in range(i, i + j - 1):
            swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2:]
            if vec != tuple(-v for v in _at(table, swapped)):
                raise StructuralError(message)


def encode(space: CochainSpace, tables: dict) -> tuple:
    """Flat coefficients of the cochain given by ``{(i, j): nested table}``.

    The table of block (i, j) is indexed by its i tensor arguments, then its
    j wedge arguments, and holds module coefficient vectors; it must be
    alternating in the wedge arguments.  Blocks not given are zero.
    """
    coeffs = [0] * space.dim
    m = space.mod_dim
    for (i, j), table in tables.items():
        pos = space.index(i, j, (), (), 0)  # the block's first coordinate
        require_alternating(table, i, j,
                            f"block ({i}, {j}) is not alternating in its wedge arguments")
        for tens, wedge in space.cells(i, j):
            vec = tuple(_at(table, tens + wedge))
            if len(vec) != m:
                raise StructuralError(f"block ({i}, {j}): expected vectors of length {m}")
            for q, v in enumerate(vec):
                if v:
                    coeffs[pos + q] = v
            pos += m
    return tuple(coeffs)


def decode(space: CochainSpace, coeffs) -> dict:
    """Inverse of :func:`encode`: ``{(i, j): nested table}`` for every block
    of the space, each table full (every word of arguments, zero on repeated
    wedge arguments and signed on unsorted ones)."""
    if len(coeffs) != space.dim:
        raise StructuralError(f"expected {space.dim} coefficients, got {len(coeffs)}")
    m = space.mod_dim

    def nested(i, j, word):
        if len(word) < i + j:
            return tuple(nested(i, j, word + (a,)) for a in range(space.alg_dim))
        sign, wedge = wedge_normalize(word[i:])
        if sign == 0:
            return (0,) * m
        pos = space.index(i, j, word[:i], wedge, 0)
        return tuple(sign * v for v in coeffs[pos:pos + m])

    return {(i, j): nested(i, j, ()) for i, j in space.blocks}
