import numpy as np
import pytest

from khull.matexp import matrix_exponential, skew_dim, skew_matrix


def test_zero_matrix():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_skew_2x2_closed_form():
    c = 0.7
    j = np.array([[0.0, c], [-c, 0.0]])
    e = matrix_exponential(j)
    expected = np.array([[np.cos(c), np.sin(c)], [-np.sin(c), np.cos(c)]])
    assert np.allclose(e, expected, atol=1e-14)


def test_nilpotent():
    c = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exponential(c), [[1.0, 1.0], [0.0, 1.0]],
                       atol=1e-14)


def test_skew_matrix_construction():
    assert skew_dim(2) == 1
    assert skew_dim(3) == 3
    m = skew_matrix(np.array([1.0, 2.0, 3.0]), 3)
    assert np.allclose(m, -m.T)
    assert m[0, 1] == 1.0 and m[0, 2] == 2.0 and m[1, 2] == 3.0


def _reference_skew_matrix(params, d):
    c = np.zeros((d, d))
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            c[i, j] = params[k]
            c[j, i] = -params[k]
            k += 1
    return c


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_skew_matrix_matches_row_by_row_fill(d):
    rng = np.random.default_rng(d)
    params = rng.standard_normal(skew_dim(d))
    params[::2] = [0.0, -0.0, 0.0, -0.0][:len(params[::2])]
    for p in (params, params.tolist()):
        assert skew_matrix(p, d).tobytes() == \
            _reference_skew_matrix(p, d).tobytes()


def test_rotation_is_orthogonal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = skew_matrix(rng.standard_normal(3), 3)
        q = matrix_exponential(m)
        assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
