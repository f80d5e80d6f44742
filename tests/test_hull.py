"""Developments of triangulated point sets, glued by their vertex labels."""

import json

import numpy as np
import pytest

from polyforge import build_metric, hull

# A tetrahedron with an edge of length 1e-10, its faces counterclockwise
# from outside.  Its two near points round to the same coordinates at 9
# decimals, but their labels keep them apart.
NEAR = np.array([(0.0, 0.0, 0.0), (1e-10, 0.0, 0.0), (0.5, 1.0, 0.0), (0.5, 0.3, 1.0)])
NEAR_FACES = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]


def test_near_duplicate_points_stay_apart():
    dev = hull.development_from_triangles(NEAR, NEAR_FACES)
    assert build_metric(dev).n_vertices == 4
    assert dev.sides.min() == pytest.approx(1e-10, rel=1e-6)


def test_gluings_pair_reversed_slots_by_first_slot():
    dev, _, corners = hull.random_sphere_development(12, seed=0)
    tail, head = corners[:, [1, 2, 0]], corners[:, [2, 0, 1]]
    gluings = [tuple(map(tuple, pair)) for pair in json.loads(dev.to_json())["gluings"]]
    assert 2 * len(gluings) == corners.size
    assert gluings == sorted(gluings)
    for (t, s), (t2, s2) in gluings:
        assert (t, s) < (t2, s2)
        assert (tail[t, s], head[t, s]) == (head[t2, s2], tail[t2, s2])


@pytest.mark.parametrize(
    "corners, message",
    [
        (NEAR_FACES + [(0, 2, 1)], "directed edge appears twice; orientation broken"),
        (NEAR_FACES[:3], "surface has a boundary edge"),
        ([(0, 2, 1, 3)], r"expected an \(m, 3\) array of corner labels"),
        ([0, 2, 1], r"expected an \(m, 3\) array of corner labels"),
    ],
    ids=["repeated-edge", "open-surface", "four-corners", "flat-list"],
)
def test_rejects_what_is_not_a_closed_oriented_surface(corners, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        hull.development_from_triangles(NEAR, corners)
