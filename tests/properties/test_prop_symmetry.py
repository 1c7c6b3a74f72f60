"""Property-based tests: torus automorphisms preserve the load profile,
and the bitmask canonicity test agrees with its sorted-image oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load.odr_loads import odr_edge_loads
from repro.load.udr_loads import udr_edge_loads
from repro.placements.base import Placement
from repro.placements.symmetry import (
    automorphism_group,
    permute_dimensions,
    reflect_dimensions,
    translate_placement,
)
from repro.torus.topology import Torus


@st.composite
def placement_and_transform(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    d = draw(st.integers(min_value=1, max_value=3))
    torus = Torus(k, d)
    size = draw(st.integers(min_value=2, max_value=min(6, torus.num_nodes)))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=torus.num_nodes - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    offset = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(d)]
    perm = draw(st.permutations(list(range(d))))
    return Placement(torus, ids), offset, list(perm)


class TestAutomorphismInvariance:
    @settings(max_examples=30, deadline=None)
    @given(placement_and_transform())
    def test_translation_preserves_odr_load_multiset(self, data):
        placement, offset, _perm = data
        moved = translate_placement(placement, offset)
        assert np.allclose(
            np.sort(odr_edge_loads(placement)), np.sort(odr_edge_loads(moved))
        )

    @settings(max_examples=20, deadline=None)
    @given(placement_and_transform())
    def test_permutation_preserves_udr_load_multiset(self, data):
        placement, _offset, perm = data
        moved = permute_dimensions(placement, perm)
        # sorted comparison with tolerance: the fractional |A|!|B|!/s! sums
        # accumulate in different orders under the permutation
        assert np.allclose(
            np.sort(udr_edge_loads(placement)), np.sort(udr_edge_loads(moved))
        )

    @settings(max_examples=20, deadline=None)
    @given(placement_and_transform())
    def test_transforms_preserve_size(self, data):
        placement, offset, perm = data
        assert len(translate_placement(placement, offset)) == len(placement)
        assert len(permute_dimensions(placement, perm)) == len(placement)
        assert len(reflect_dimensions(placement, [0])) == len(placement)


#: one-word masks (T_8^2 and T_4^3 fill all 64 bits), multi-word masks,
#: and the k = 2 tori whose group elements coincide as node permutations.
_MASK_TORI = [(6, 2), (8, 2), (4, 3), (9, 2), (5, 3), (2, 3), (2, 4)]


def _oracle_canonicity(group, node_ids):
    """``(canonical, |Stab|)`` by column-filtering the sorted images."""
    ids = np.sort(np.asarray(node_ids, dtype=np.int64))
    alive = group.sorted_images(ids)
    for col in range(ids.size):
        values = alive[:, col]
        smallest = values.min()
        if smallest < ids[col]:
            return False, 0
        alive = alive[values == smallest]
    return True, int(alive.shape[0])


@st.composite
def group_and_set(draw):
    k, d = draw(st.sampled_from(_MASK_TORI))
    group = automorphism_group(Torus(k, d))
    n = k**d
    size = draw(st.integers(min_value=1, max_value=min(10, n)))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    if draw(st.booleans()):
        # a canonical representative, so the True branch and the
        # stabilizer order are exercised; shuffled to stay unsorted
        canonical = [int(x) for x in group.canonical_ids(ids)]
        ids = draw(st.permutations(canonical))
    return group, list(ids)


class TestBitmaskCanonicity:
    @settings(max_examples=120, deadline=None)
    @given(group_and_set())
    def test_canonicity_matches_sorted_image_oracle(self, data):
        group, ids = data
        assert group.canonicity(ids) == _oracle_canonicity(group, ids)

    @settings(max_examples=60, deadline=None)
    @given(group_and_set())
    def test_orbit_size_matches_sorted_image_oracle(self, data):
        group, ids = data
        images = group.sorted_images(ids)
        stabilizer = int(
            np.count_nonzero(np.all(images == np.sort(ids), axis=1))
        )
        assert group.orbit_size(ids) == group.order // stabilizer
