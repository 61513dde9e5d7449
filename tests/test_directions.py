import itertools

import numpy as np
import pytest

from helmfmm import directions
from helmfmm.directions import (
    father_direction,
    generate_direction_tree,
    nearest_direction,
)


def test_direction_counts():
    tree = generate_direction_tree(3)
    assert [tree.count(e) for e in range(4)] == [6, 24, 96, 384]


def test_directions_are_unit_vectors():
    tree = generate_direction_tree(2)
    for dirs in tree.levels:
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_refinement_zero_is_the_axis_set():
    tree = generate_direction_tree(0)
    dirs = {tuple(np.round(d).astype(int)) for d in tree.levels[0]}
    axes = {
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
    }
    assert dirs == axes


def test_directions_distinct_within_refinement():
    tree = generate_direction_tree(2)
    for dirs in tree.levels:
        rounded = {tuple(np.round(d, 12)) for d in dirs}
        assert len(rounded) == dirs.shape[0]


def test_father_links_are_nested():
    """A son direction is closer to its father than to any other coarse one."""
    tree = generate_direction_tree(3)
    for e in range(1, 4):
        coarse = tree.levels[e - 1]
        for i, d in enumerate(tree.levels[e]):
            f = father_direction(tree, e, i)
            dists = np.linalg.norm(coarse - d, axis=1)
            assert dists[f] == pytest.approx(dists.min())


def test_every_father_has_four_sons():
    tree = generate_direction_tree(2)
    for e in (1, 2):
        fathers = [father_direction(tree, e, i) for i in range(tree.count(e))]
        counts = np.bincount(fathers, minlength=tree.count(e - 1))
        assert np.all(counts == 4)
        # an index array takes the fathers of all its directions at once
        assert father_direction(tree, e, np.arange(tree.count(e))).tolist() == fathers


def _sub_face_loop(max_refinement):
    """Direction sets and father links built one sub-face at a time: the
    center (u, v) of sub-face (i, j) on each face, projected."""
    faces = [(0, +1), (0, -1), (1, +1), (1, -1), (2, +1), (2, -1)]
    levels, fathers = [], []
    for e in range(max_refinement + 1):
        m = 1 << e
        dirs, fa = [], []
        for f, (axis, sign) in enumerate(faces):
            others = [a for a in range(3) if a != axis]
            for i in range(m):
                for j in range(m):
                    p = np.empty(3)
                    p[axis] = float(sign)
                    p[others[0]] = -1.0 + (2.0 * i + 1.0) / m
                    p[others[1]] = -1.0 + (2.0 * j + 1.0) / m
                    dirs.append(p / np.linalg.norm(p))
                    fa.append((f * (m // 2) + i // 2) * (m // 2) + j // 2)
        levels.append(np.array(dirs))
        fathers.append(np.array(fa, dtype=np.int64) if e else None)
    return levels, fathers


def test_direction_tree_matches_a_loop_over_sub_faces():
    tree = generate_direction_tree(3)
    levels, fathers = _sub_face_loop(3)
    assert tree.fathers[0] is None
    for e in range(4):
        assert tree.levels[e].dtype == np.float64
        assert tree.levels[e].tobytes() == levels[e].tobytes()
        if e:
            assert tree.fathers[e].dtype == np.int64
            assert tree.fathers[e].tobytes() == fathers[e].tobytes()


def test_nearest_direction_axis_cases():
    tree = generate_direction_tree(1)
    idx = nearest_direction(tree, 0, np.array([[1.0, 0.0, 0.0]]))[0]
    assert np.allclose(tree.levels[0][idx], [1.0, 0.0, 0.0])
    idx = nearest_direction(tree, 0, np.array([[0.0, 0.0, -1.0]]))[0]
    assert np.allclose(tree.levels[0][idx], [0.0, 0.0, -1.0])


def test_nearest_direction_recovers_members():
    tree = generate_direction_tree(2)
    for e in range(3):
        for i in range(0, tree.count(e), 7):
            assert nearest_direction(tree, e, tree.levels[e][i][None])[0] == i


def test_nearest_direction_validates_input():
    tree = generate_direction_tree(1)
    with pytest.raises(ValueError):
        nearest_direction(tree, 0, np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        nearest_direction(tree, 5, np.array([[1.0, 0.0, 0.0]]))


def test_nearest_direction_takes_stacks_only():
    # one vector is a one-row stack: a (3,) array is rejected, not searched
    tree = generate_direction_tree(1)
    with pytest.raises(ValueError, match=r"\(k, 3\)"):
        nearest_direction(tree, 0, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_direction_rejects_non_finite_rows(bad):
    tree = generate_direction_tree(1)
    for units in ([[bad, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, bad, 0.0]], [[bad] * 3]):
        with pytest.raises(ValueError, match="unit vector"):
            nearest_direction(tree, 1, np.array(units))


def _cube_translations(radius: int) -> np.ndarray:
    """Every integer translation in [-radius, radius]^3 but 0, as (k, 3)."""
    t = np.array(list(itertools.product(range(-radius, radius + 1), repeat=3)))
    return t[t.any(axis=1)]


def _scalar_rule(dirs: np.ndarray, v: np.ndarray) -> int:
    """The one-vector rule: argmin of the squared distances, smallest index
    on ties."""
    return int(np.argmin(np.sum((dirs - v) ** 2, axis=1)))


def test_stacked_nearest_direction_matches_scalar_rule_exhaustively():
    """Every translation in [-10, 10]^3 gets the scalar rule's direction at
    refinements 0-4, ties included, from one stacked call per refinement.
    Its unit vector t / sqrt(sum t^2) is bitwise t / |t|: the sum is exact."""
    tree = generate_direction_tree(4)
    t = _cube_translations(10)
    units = t / np.sqrt((t * t).sum(axis=1))[:, None]
    rows = [tvec / np.linalg.norm(tvec) for tvec in t]
    assert units.tobytes() == np.array(rows).tobytes()
    for e in range(5):
        stacked = nearest_direction(tree, e, units)
        assert stacked.shape == (len(t),)
        assert stacked.tolist() == [_scalar_rule(tree.levels[e], v) for v in rows]
        assert nearest_direction(tree, e, units[123:124]).tolist() == [stacked[123]]


def test_nearest_direction_ties_go_to_the_smallest_index():
    # at refinement 0 (+x, -x, +y, -y, +z, -z) these lie between axes
    tree = generate_direction_tree(1)
    ties = np.array([(1, 1, 0), (1, 1, 1), (-1, -1, 0), (0, 1, 1), (0, -1, -1), (-1, 0, -1)])
    units = ties / np.linalg.norm(ties, axis=1)[:, None]
    assert nearest_direction(tree, 0, units).tolist() == [0, 0, 1, 2, 3, 1]
    # a tie between two sub-face centers at refinement 1
    d = tree.levels[1]
    v = (d[0] + d[1]) / np.linalg.norm(d[0] + d[1])
    d2 = np.sum((d - v) ** 2, axis=1)
    assert len(np.flatnonzero(d2 == d2.min())) > 1
    assert nearest_direction(tree, 1, v[None]).tolist() == [np.flatnonzero(d2 == d2.min())[0]]


def test_nearest_direction_slices_keep_the_indices(monkeypatch):
    """A stack goes in slices of (rows, directions, 3) differences within
    MAX_BLOCK_ENTRIES entries, down to one row, with the same indices."""
    tree = generate_direction_tree(3)
    t = _cube_translations(3)
    units = t / np.linalg.norm(t, axis=1)[:, None]
    whole = nearest_direction(tree, 3, units)
    for block in (tree.levels[3].size * 5, 1):
        monkeypatch.setattr(directions, "MAX_BLOCK_ENTRIES", block)
        assert np.array_equal(nearest_direction(tree, 3, units), whole)


def test_stacked_nearest_direction_validates_every_row():
    tree = generate_direction_tree(1)
    units = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="unit vector"):
        nearest_direction(tree, 0, units)
    with pytest.raises(ValueError, match="shape"):
        nearest_direction(tree, 0, np.ones((2, 2)))


def test_father_of_coarsest_refinement_raises():
    tree = generate_direction_tree(1)
    with pytest.raises(ValueError):
        father_direction(tree, 0, 0)
