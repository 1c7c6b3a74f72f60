"""Torus automorphisms and their action on placements.

:math:`T_k^d` has a rich automorphism group: coordinate **translations**
(:math:`\\mathbb{Z}_k^d`), coordinate **permutations** (:math:`S_d`), and
per-coordinate **reflections** (:math:`x_i \\mapsto -x_i`).  Every
automorphism preserves Lee distance, hence maps minimal paths to minimal
paths — so the complete-exchange load profile of a placement is invariant
under all of them (the structural fact behind EXP-14's measurements: all
linear-placement offsets are translates of each other, and coefficient
negations are reflections).

This module implements the group action and an exact isomorphism test for
small tori (canonical form under the full group, or the translation
subgroup only).  :class:`AutomorphismGroup` is the vectorized engine
behind both: the whole group acts on a single ``(n, d)`` coordinate
matrix as array ops, so canonicalizing a placement never materializes a
:class:`Placement` per group element, and orbit sizes come exactly from
stabilizer counting (orbit–stabilizer theorem).

The exact search's hot question — is this set its orbit's lex-least
member, and what is its stabilizer? — is answered on image *bitmasks*
rather than sorted images.  Node ``x`` is bit ``N-1-x`` of an
``N = k^d``-bit mask held in ``W = ⌈N/64⌉`` uint64 words, most
significant word first, so a lex-smaller sorted image is exactly a
larger mask: the set is canonical iff its own mask is the largest of
its :math:`|G|` image masks, and :math:`|\\mathrm{Stab}|` is the number
of images equal to it.  The sorted-image path
(:meth:`AutomorphismGroup.sorted_images`) stays as the oracle and still
computes canonical forms.

One caution for consumers: only *translations* leave the restricted-ODR
load profile invariant.  Dimension permutations re-order the correction
sequence and reflections flip the even-``k`` tie-break, so :math:`E_{max}`
can differ between placements of the same full-group orbit (see
:mod:`repro.placements.exact_search` for the exact accounting).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.errors import InvalidParameterError
from repro.placements.base import Placement
from repro.torus.coords import all_coords, coords_to_ids
from repro.torus.topology import Torus

__all__ = [
    "translate_placement",
    "permute_dimensions",
    "reflect_dimensions",
    "canonical_form",
    "are_equivalent_placements",
    "AutomorphismGroup",
    "automorphism_group",
]


#: largest translation bit table the bitmask canonicity test may build.
#: The table holds k^d·k^d·⌈k^d/64⌉ words, about (k^d)³/8 bytes: 10 KB at
#: T_6², 128 MB at T_10³ and 8.6 GB at T_16³, so tori beyond about 1,290
#: nodes are refused rather than allocated.
_MAX_MASK_TABLE_BYTES = 1 << 28


def translate_placement(placement: Placement, offset) -> Placement:
    """The placement shifted by ``offset`` (a length-``d`` vector, mod k)."""
    torus = placement.torus
    offset = np.asarray(offset, dtype=np.int64)
    if offset.shape != (torus.d,):
        raise InvalidParameterError(
            f"offset must have shape ({torus.d},), got {offset.shape}"
        )
    coords = np.mod(placement.coords() + offset, torus.k)
    return Placement(
        torus,
        coords_to_ids(coords, torus.k, torus.d),
        name=f"{placement.name}+{offset.tolist()}",
    )


def permute_dimensions(placement: Placement, perm) -> Placement:
    """The placement with coordinates reordered by permutation ``perm``.

    ``perm[i]`` is the source dimension feeding new dimension ``i``.
    """
    torus = placement.torus
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != list(range(torus.d)):
        raise InvalidParameterError(
            f"perm must be a permutation of range({torus.d}), got {perm}"
        )
    coords = placement.coords()[:, perm]
    return Placement(
        torus,
        coords_to_ids(coords, torus.k, torus.d),
        name=f"{placement.name}|perm{perm}",
    )


def reflect_dimensions(placement: Placement, dims) -> Placement:
    """The placement with coordinates negated (mod k) in the given dims."""
    torus = placement.torus
    coords = placement.coords().copy()
    for dim in dims:
        if not 0 <= dim < torus.d:
            raise InvalidParameterError(f"dim {dim} outside [0, {torus.d})")
        coords[:, dim] = np.mod(-coords[:, dim], torus.k)
    return Placement(
        torus,
        coords_to_ids(coords, torus.k, torus.d),
        name=f"{placement.name}|reflect{sorted(dims)}",
    )


def _id_key(placement: Placement) -> bytes:
    return placement.node_ids.tobytes()


def _lexmin_row(rows: np.ndarray) -> np.ndarray:
    """The lexicographically smallest row of a 2-D int array.

    Works by column-wise filtering (keep only the rows achieving the
    minimum in each successive column), so no packing into scalar keys is
    needed and arbitrarily wide rows cannot overflow.
    """
    alive = rows
    for col in range(rows.shape[1]):
        values = alive[:, col]
        alive = alive[values == values.min()]
        if alive.shape[0] == 1:
            break
    return alive[0]


class AutomorphismGroup:
    """The automorphism group of :math:`T_k^d` acting on node-id sets.

    The group is the semidirect product of the :math:`k^d` translations
    with the *point group* of :math:`d!` dimension permutations and
    :math:`2^d` per-dimension reflections (order
    :math:`k^d \\cdot d! \\cdot 2^d`; for ``k == 2`` some elements coincide
    as node permutations, which the orbit–stabilizer accounting absorbs).

    Every image is computed on coordinate *matrices*: a point-group table
    of shape ``(d!·2^d, k^d, d)`` is built once, and each query broadcasts
    the selected rows against all translation offsets — no per-element
    Python objects.  :meth:`canonicity` and :meth:`orbit_size` instead
    OR together rows of a translation bit table built on first use, one
    image mask per group element, and never sort an image.

    Point-group elements are applied as ``reflect(permute(x))`` and are
    indexed by :attr:`point_descs` ``(perm, reflection_mask)`` pairs;
    translations compose on the outside.
    """

    def __init__(self, torus: Torus):
        self.torus = torus
        k, d = torus.k, torus.d
        base = all_coords(k, d)  # (k^d, d); row i == coordinate of node i
        self._strides = np.array(
            [k ** (d - 1 - i) for i in range(d)], dtype=np.int64
        )
        tables: list[np.ndarray] = []
        descs: list[tuple[tuple[int, ...], int]] = []
        for perm in itertools.permutations(range(d)):
            permuted = base[:, perm]
            for mask in range(1 << d):
                image = permuted.copy()
                for dim in range(d):
                    if mask >> dim & 1:
                        image[:, dim] = np.mod(-image[:, dim], k)
                tables.append(image)
                descs.append((perm, mask))
        #: (point_order, k^d, d) — coordinates of every node's image under
        #: each point-group element.
        self.point_coords: np.ndarray = np.stack(tables)
        #: (point_order, k^d) — same images as dense node ids.
        self.point_ids: np.ndarray = self.point_coords @ self._strides
        #: ``(perm, reflection_mask)`` describing each point-group row.
        self.point_descs: tuple[tuple[tuple[int, ...], int], ...] = tuple(descs)
        self.point_order: int = len(descs)
        self.num_translations: int = k**d
        #: full group order :math:`k^d \\cdot d! \\cdot 2^d`.
        self.order: int = self.point_order * self.num_translations
        self._offsets = base  # the k^d translation vectors

    # ----------------------------------------------------------- images

    def sorted_images(
        self, node_ids, translations_only: bool = False
    ) -> np.ndarray:
        """Sorted image id rows of a node set under every group element.

        Returns an ``(order, m)`` array (``(k^d, m)`` when
        ``translations_only``); each row is one image of the set, sorted
        ascending so rows compare as canonical set keys.
        """
        torus = self.torus
        ids = np.asarray(node_ids, dtype=np.int64)
        if translations_only:
            selected = torus.coords(ids)[None, :, :]  # (1, m, d)
        else:
            selected = self.point_coords[:, ids, :]  # (point_order, m, d)
        shifted = np.mod(
            selected[:, None, :, :] + self._offsets[None, :, None, :],
            torus.k,
        )  # (rows, k^d, m, d)
        images = shifted @ self._strides
        return np.sort(images.reshape(-1, ids.size), axis=1)

    def canonical_ids(
        self, node_ids, translations_only: bool = False
    ) -> np.ndarray:
        """The lexicographically smallest sorted image of the node set."""
        return _lexmin_row(self.sorted_images(node_ids, translations_only))

    # ------------------------------------------------------ image masks

    @functools.cached_property
    def _translation_bits(self) -> np.ndarray:
        """``(k^d, k^d, W)`` uint64 table; row ``x`` column ``t`` holds
        the mask bit of node ``x + t`` (``W = ⌈k^d/64⌉`` words, word 0
        most significant, node ``y`` at bit ``k^d-1-y``).

        Stored node-major so a query gathers whole contiguous rows.
        Built on first use: ``O(k^{2d}·W)`` bytes, 10 KB at
        :math:`T_6^2`; a table beyond ``_MAX_MASK_TABLE_BYTES`` raises
        :class:`~repro.errors.InvalidParameterError`.
        """
        n = self.num_translations
        words = -(-n // 64)
        nbytes = n * n * words * 8
        if nbytes > _MAX_MASK_TABLE_BYTES:
            raise InvalidParameterError(
                f"bitmask canonicity on T_{self.torus.k}^{self.torus.d} "
                f"needs a {nbytes}-byte translation table, beyond the "
                f"{_MAX_MASK_TABLE_BYTES}-byte limit"
            )
        shifted = np.mod(
            self._offsets[:, None, :] + self._offsets[None, :, :],
            self.torus.k,
        ) @ self._strides  # [x, t] -> id of node x + t
        position = n - 1 - shifted
        table = np.zeros((n, n, words), dtype=np.uint64)
        x, t = np.indices((n, n))
        table[x, t, words - 1 - position // 64] = np.left_shift(
            np.uint64(1), (position % 64).astype(np.uint64)
        )
        return table

    def _image_masks(self, node_ids) -> np.ndarray:
        """``(order, W)`` masks of every group image of the node set.

        Row 0 is the identity (identity point row, zero translation), so
        it is the set's own mask.  Order of ``node_ids`` is irrelevant.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        # (point_order, m, k^d, W) -> OR over the set's m nodes
        masks = np.bitwise_or.reduce(
            self._translation_bits[self.point_ids[:, ids]], axis=1
        )
        return masks.reshape(self.order, -1)

    def canonicity(self, node_ids) -> tuple[bool, int]:
        """Whether the node set is its orbit's canonical (lex-min sorted)
        representative, and the order of its stabilizer.

        Tested on image bitmasks (see the module docstring): the set is
        canonical iff its own mask is the largest image mask, compared
        word by word from the most significant.  Returns ``(False, 0)``
        as soon as a larger mask is found; otherwise ``(True, |Stab|)``
        where ``|Stab|`` counts the group elements (with multiplicity in
        the ``k == 2`` degenerate case) that fix the set, so
        ``order // |Stab|`` is the exact orbit size.  ``node_ids`` need
        not be sorted.
        """
        alive = self._image_masks(node_ids)
        own = alive[0]
        for word in range(alive.shape[1]):
            values = alive[:, word]
            if values.max() > own[word]:
                return False, 0
            alive = alive[values == own[word]]
        return True, int(alive.shape[0])

    def orbit_size(self, node_ids) -> int:
        """Exact orbit size of the node set, via orbit–stabilizer."""
        masks = self._image_masks(node_ids)
        stabilizer = int(np.count_nonzero(np.all(masks == masks[0], axis=1)))
        return self.order // stabilizer


@functools.lru_cache(maxsize=16)
def automorphism_group(torus: Torus) -> AutomorphismGroup:
    """The (cached) :class:`AutomorphismGroup` of ``torus``."""
    return AutomorphismGroup(torus)


def canonical_form(
    placement: Placement, translations_only: bool = False
) -> Placement:
    """The lexicographically smallest image under the automorphism group.

    ``translations_only=True`` restricts to the :math:`k^d` translations —
    enough for comparing linear-placement offsets and much cheaper.  The
    full group covers all :math:`k^d \\cdot d! \\cdot 2^d` images; both
    paths act on a single coordinate matrix (no per-element
    :class:`Placement` allocation), so canonicalization is one vectorized
    pass even for the full group.
    """
    group = automorphism_group(placement.torus)
    ids = group.canonical_ids(
        placement.node_ids, translations_only=translations_only
    )
    return Placement(placement.torus, ids, name=f"canon({placement.name})")


def are_equivalent_placements(
    a: Placement, b: Placement, translations_only: bool = False
) -> bool:
    """Whether some torus automorphism maps ``a`` onto ``b``.

    Load profiles (and therefore :math:`E_{max}` under any
    automorphism-covariant routing family) agree for equivalent placements.
    """
    if a.torus != b.torus or len(a) != len(b):
        return False
    return _id_key(canonical_form(a, translations_only)) == _id_key(
        canonical_form(b, translations_only)
    )
