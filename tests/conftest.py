"""Reference planar frames for the tests: 3x3 homogeneous matrices.

The package maps points through (x, y, theta) poses in float arithmetic;
the tests check it against this independent matrix form.
"""
import math

import numpy as np


def frame(x, y, theta):
    """Homogeneous matrix of the planar pose (x, y, theta)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


def frame_inverse(mat):
    """Inverse of a homogeneous frame, written (R^T, -R^T t)."""
    rot_t = mat[:2, :2].T
    out = np.eye(3)
    out[:2, :2] = rot_t
    out[:2, 2] = -rot_t @ mat[:2, 2]
    return out
