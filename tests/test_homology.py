from hypothesis import given, settings

from lexcohom.homology import reduced_homology_dims

from conftest import face_families, ref_reduced_homology_dims

P = 32003


def faces_of(*vertex_sets):
    """Close the given top faces under subsets; vertices are bit positions."""
    out = set()
    for vs in vertex_sets:
        mask = sum(1 << v for v in vs)
        sub = mask
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return sorted(out)


def test_conventions():
    assert reduced_homology_dims([], P) == {}            # void
    assert reduced_homology_dims([0], P) == {-1: 1}      # just the empty face


def test_simplexes_are_acyclic():
    for k in range(1, 5):
        assert reduced_homology_dims(faces_of(range(k)), P) == {}


def test_spheres():
    # boundary of the triangle = S^1
    tri = faces_of((0, 1), (1, 2), (0, 2))
    assert reduced_homology_dims(tri, P) == {1: 1}
    # boundary of the tetrahedron = S^2
    tet = faces_of((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert reduced_homology_dims(tet, P) == {2: 1}


def test_disconnected_points():
    assert reduced_homology_dims(faces_of((0,), (1,), (2,)), P) == {0: 2}


def test_wedge_like_complex():
    # two triangles sharing a vertex: two independent 1-cycles
    c = faces_of((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))
    assert reduced_homology_dims(c, P) == {1: 2}


@given(face_families())
@settings(max_examples=300, deadline=None)
def test_dims_match_the_dense_oracle_on_complexes_and_order_filters(case):
    faces, p = case
    assert reduced_homology_dims(faces, p) == ref_reduced_homology_dims(faces, p)
