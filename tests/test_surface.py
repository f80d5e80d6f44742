import json
import math

import numpy as np
import pytest
from oracles import glued_corner_labels

from polyforge import catalog, hull, surface
from polyforge.errors import DevelopmentError, MetricError, SchemaError
from polyforge.surface import Development


def test_tetrahedron_metric(tetra_metric):
    m = tetra_metric
    assert m.n_vertices == 4
    assert m.n_faces == 4
    assert m.n_edges == 6
    np.testing.assert_allclose(m.cone_angles, math.pi, atol=1e-12)
    np.testing.assert_allclose(m.deficits, math.pi, atol=1e-12)


def test_cube_metric(cube_metric):
    m = cube_metric
    assert m.n_vertices == 8
    assert m.n_faces == 12
    # three right-angle corners per vertex: cone 3*pi/2, deficit pi/2
    np.testing.assert_allclose(m.deficits, math.pi / 2, atol=1e-12)


def test_doubly_covered_triangle_metric():
    a, b, c = 1.0, 1.1, 1.5
    metric = surface.build_metric(catalog.doubly_covered_triangle(a, b, c))
    assert metric.n_vertices == 3
    # law of cosines: the angle opposite each side, counted twice
    ang = [
        math.acos((y * y + z * z - x * x) / (2 * y * z))
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
    ]
    np.testing.assert_allclose(
        np.sort(metric.deficits),
        np.sort(2 * math.pi - 2 * np.array(ang)),
        atol=1e-12,
    )


def test_corner_gluing_matches_union_find():
    # the array passes label every corner as the per-corner union-find
    # did, classes numbered by their smallest corner
    devs = [catalog.tetrahedron(), catalog.cube(), catalog.doubly_covered_triangle(3.0, 4.0, 5.0)]
    devs += [catalog.twisted_double_polygon(n) for n in (3, 4, 6, 12, 24)]
    devs += [catalog.doubly_covered_polygon(n) for n in (3, 4, 8, 16, 24, 64)]
    sizes = list(range(4, 41)) + [64, 160, 320, 640]
    devs += [hull.random_sphere_development(n, seed=[1, n])[0] for n in sizes]
    for dev in devs:
        metric = surface.build_metric(dev)
        want = glued_corner_labels(dev)
        assert metric.corner_vertex.dtype == want.dtype
        assert np.array_equal(metric.corner_vertex, want)


def test_gauss_bonnet(tetra_metric, cube_metric, square_metric):
    for m in (tetra_metric, cube_metric, square_metric):
        assert abs(m.deficits.sum() - 4 * math.pi) <= 1e-9


def test_json_roundtrip(tetra_metric):
    dev = tetra_metric.development
    again = surface.parse_development(dev.to_json())
    np.testing.assert_allclose(again.sides, dev.sides)
    np.testing.assert_array_equal(again.twin, dev.twin)


@pytest.mark.parametrize("name", list(catalog.NAMED))
def test_catalog_json_lists_each_gluing_once_by_first_slot(name):
    dev = catalog.NAMED[name]()
    text = dev.to_json()
    again = surface.parse_development(text)
    np.testing.assert_allclose(again.sides, dev.sides, rtol=surface.LENGTH_SNAP_REL, atol=0.0)
    np.testing.assert_array_equal(again.twin, dev.twin)
    slots = [(3 * t + s, 3 * t2 + s2) for (t, s), (t2, s2) in json.loads(text)["gluings"]]
    first = [a for a, _ in slots]
    assert all(a < b for a, b in slots)
    assert first == sorted(first)
    assert sorted(first + [b for _, b in slots]) == list(range(3 * dev.n_faces))


def test_malformed_json():
    with pytest.raises(SchemaError):
        surface.parse_development("{not json")


def test_schema_violations():
    with pytest.raises(SchemaError):
        surface.parse_development(json.dumps({"triangles": []}))
    with pytest.raises(SchemaError):
        surface.parse_development(
            json.dumps({"triangles": [{"sides": [1, 1]}], "gluings": []})
        )
    with pytest.raises(SchemaError):
        # triangle index out of range
        surface.parse_development(
            json.dumps(
                {
                    "triangles": [{"sides": [1, 1, 1]}, {"sides": [1, 1, 1]}],
                    "gluings": [[[0, 0], [5, 0]]],
                }
            )
        )


def _doubled_triangle_doc():
    return {
        "triangles": [{"sides": [1.0, 1.0, 1.0]}, {"sides": [1.0, 1.0, 1.0]}],
        "gluings": [[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 2], [1, 1]]],
    }


def test_side_beyond_float_range_is_schema_error():
    doc = json.dumps(_doubled_triangle_doc()).replace("1.0", "1" + "0" * 400, 1)
    with pytest.raises(SchemaError, match="positive and finite"):
        surface.parse_development(doc)


def test_json_beyond_parser_limits_is_schema_error():
    for text in ("1" * 5000, "[" * 100000):  # too many digits, too deep
        with pytest.raises(SchemaError, match="invalid JSON"):
            surface.parse_development(text)


def test_unmatched_side_reported():
    doc = _doubled_triangle_doc()
    doc["gluings"] = doc["gluings"][:2]
    with pytest.raises(DevelopmentError) as err:
        surface.parse_development(json.dumps(doc))
    assert "not glued" in str(err.value)


def test_self_gluing_rejected():
    doc = _doubled_triangle_doc()
    doc["gluings"][0] = [[0, 0], [0, 0]]
    with pytest.raises(DevelopmentError):
        surface.parse_development(json.dumps(doc))


def test_length_mismatch_listed_per_violation():
    doc = _doubled_triangle_doc()
    doc["triangles"][1]["sides"] = [1.0, 1.0, 1.5]
    with pytest.raises(DevelopmentError) as err:
        surface.parse_development(json.dumps(doc))
    assert len(err.value.violations) >= 1


def test_tiny_length_mismatch_snapped():
    doc = _doubled_triangle_doc()
    doc["triangles"][1]["sides"] = [1.0, 1.0, 1.0 + 1e-14]
    dev = surface.parse_development(json.dumps(doc))
    # both copies end up with the snapped common value
    assert dev.sides[0, 0] == dev.sides[1, 0]


def test_triangle_inequality_violation():
    doc = _doubled_triangle_doc()
    for tri in doc["triangles"]:
        tri["sides"] = [1.0, 1.0, 2.5]
    with pytest.raises(DevelopmentError):
        surface.parse_development(json.dumps(doc))


def test_torus_is_not_a_sphere():
    # two triangles glued into a torus: V - E + F = 0
    doc = {
        "triangles": [
            {"sides": [1.0, 1.0, math.sqrt(2.0)]},
            {"sides": [1.0, 1.0, math.sqrt(2.0)]},
        ],
        "gluings": [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]],
    }
    dev = surface.parse_development(json.dumps(doc))
    with pytest.raises(MetricError):
        surface.build_metric(dev)


def _flat_apex_bipyramid():
    """Hexagonal bipyramid of unit equilateral triangles: both apexes
    carry cone angle exactly 2*pi, which is not a convex cone point."""
    sides = [[1.0, 1.0, 1.0]] * 12
    gluings = []
    for t in range(6):
        u = (t + 1) % 6
        gluings.append([[t, 1], [u, 2]])  # top spokes
        gluings.append([[6 + t, 2], [6 + u, 1]])  # bottom spokes
        gluings.append([[t, 0], [6 + t, 0]])  # equator
    return json.dumps({"triangles": [{"sides": s} for s in sides], "gluings": gluings})


def test_degenerate_triangle_fails_deficit_band():
    # a development built without parse_development skips its triangle
    # inequality check; the NaN angles of the flat triangle (1, 1, 2) must
    # still be refused as a metric
    dev = Development(
        sides=np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]]),
        twin=np.array([3, 5, 4, 0, 2, 1]),  # (0, s) glued to (1, 0), (1, 2), (1, 1)
    )
    with pytest.raises(MetricError, match="outside"):
        surface.build_metric(dev)


def test_nonpositive_deficit_rejected():
    dev = surface.parse_development(_flat_apex_bipyramid())
    with pytest.raises(MetricError) as err:
        surface.build_metric(dev)
    assert "deficit" in str(err.value).lower() or "cone" in str(err.value).lower()


# Two flat triangles (1, 1, 2) whose gluing pairs a side of length 1 with
# one of length 2.
_TWO_FLAT_TRIANGLES = {
    "triangles": [{"sides": [1, 1, 2]}, {"sides": [1, 1, 2]}],
    "gluings": [[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 2], [1, 1]]],
}


@pytest.mark.parametrize(
    "make, error, want",
    [
        (
            lambda: surface.parse_development(json.dumps(_TWO_FLAT_TRIANGLES)),
            DevelopmentError,
            "glued sides (0,1) and (1,2) have lengths 1.0 vs 2.0",
        ),
        (
            lambda: surface.parse_development(json.dumps(_TWO_FLAT_TRIANGLES)),
            DevelopmentError,
            "triangle 0: sides (1.0, 1.0, 2.0) degenerate",
        ),
        (
            lambda: surface.build_metric(surface.parse_development(_flat_apex_bipyramid())),
            MetricError,
            "cone angle",
        ),
    ],
    ids=["length-mismatch", "degenerate-triangle", "cone-angle"],
)
def test_messages_print_python_floats(make, error, want):
    # NumPy 2 reprs a float64 as np.float64(...); messages print the number
    with pytest.raises(error) as err:
        make()
    assert want in str(err.value)
    assert "np." not in str(err.value)
