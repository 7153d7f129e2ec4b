"""Indexing of mixed tensor/wedge cochain spaces.

A cochain of bidegree (i, j) with coefficients in an m-dimensional module is
a linear map  A^(tensor i) (x) Lambda^j A -> M.  Its coordinates are indexed
by (tensor word, strictly increasing wedge word, module component).  A theory
in a fixed degree is a direct sum of such blocks; this module pins down the
block layout per theory and the flat index used by every matrix downstream,
so that dumps and representatives are reproducible.
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


def tensor_unrank(r: int, length: int, dim: int) -> tuple[int, ...]:
    word = [0] * length
    for pos in range(length - 1, -1, -1):
        r, word[pos] = divmod(r, dim)
    return tuple(word)


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


def wedge_unrank(r: int, length: int, dim: int) -> tuple[int, ...]:
    word = []
    prev = -1
    for pos in range(length):
        c = prev + 1
        while True:
            block = comb(dim - 1 - c, length - pos - 1)
            if r < block:
                break
            r -= block
            c += 1
        word.append(c)
        prev = c
    return tuple(word)


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
        return self.mod_dim * self.alg_dim ** i * comb(self.alg_dim, j)

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

    def unindex(self, flat: int) -> tuple[int, int, tuple, tuple, int]:
        if not 0 <= flat < self.dim:
            raise IndexError(f"flat index {flat} outside space of dim {self.dim}")
        for i, j in reversed(self.blocks):
            off = self.block_offsets[i, j]
            if flat >= off:
                cell, comp = divmod(flat - off, self.mod_dim)
                trank, wrank = divmod(cell, comb(self.alg_dim, j))
                return (i, j,
                        tensor_unrank(trank, i, self.alg_dim),
                        wedge_unrank(wrank, j, self.alg_dim),
                        comp)
        raise IndexError(f"flat index {flat} not inside any block")

    def cells(self, i: int, j: int):
        """All (tensor word, wedge word) cells of a block, in flat-index order."""
        for tens in itertools.product(range(self.alg_dim), repeat=i):
            for wedge in itertools.combinations(range(self.alg_dim), j):
                yield tens, wedge

    def describe(self, flat: int, basis: tuple[str, ...], module_basis: tuple[str, ...]) -> str:
        i, j, tens, wedge, comp = self.unindex(flat)
        tpart = ",".join(basis[t] for t in tens) if tens else "-"
        wpart = "^".join(basis[w] for w in wedge) if wedge else "-"
        return f"({i},{j})[{tpart}|{wpart}]->{module_basis[comp]}"


def assemble(space: CochainSpace, block_maps: dict) -> tuple:
    """Flatten block evaluators into a coefficient tuple.

    ``block_maps`` sends a block key (i, j) to a callable
    ``(tens, wedge) -> module coefficient vector``; missing blocks are zero.
    """
    coeffs = [0] * space.dim
    m = space.mod_dim
    for (i, j), fn in block_maps.items():
        if (i, j) not in space.block_offsets:
            raise KeyError(f"block {(i, j)} is not part of {space.theory} degree {space.degree}")
        pos = space.block_offsets[i, j]
        for tens, wedge in space.cells(i, j):
            vec = fn(tens, wedge)
            for q, v in enumerate(vec):
                if v:
                    coeffs[pos + q] = v
            pos += m
    return tuple(coeffs)


@dataclass(frozen=True)
class Cochain:
    """A vector in a cochain space, with block-aware access."""

    space: CochainSpace
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.space.dim:
            raise StructuralError(
                f"expected {self.space.dim} coefficients, got {len(self.coeffs)}")

    def value(self, i: int, j: int, tens: tuple, wedge: tuple) -> tuple:
        """Module coefficient vector at one cell, with wedge normalization."""
        sign, sorted_wedge = wedge_normalize(wedge)
        if sign == 0:
            return (0,) * self.space.mod_dim
        base = self.space.index(i, j, tuple(tens), sorted_wedge, 0)
        return tuple(sign * v for v in self.coeffs[base:base + self.space.mod_dim])
