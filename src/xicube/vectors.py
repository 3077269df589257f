"""Exact operations on integer triples.

Points are plain tuples ``(x0, x1, x2)`` of arbitrary-size Python ints, so
every operation here is exact by construction.
"""

from math import gcd

Vec3 = tuple[int, int, int]


def vadd(x: Vec3, y: Vec3) -> Vec3:
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def vsub(x: Vec3, y: Vec3) -> Vec3:
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2])


def vscale(a: int, x: Vec3) -> Vec3:
    return (a * x[0], a * x[1], a * x[2])


def dot(x: Vec3, y: Vec3) -> int:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def cross(x: Vec3, y: Vec3) -> Vec3:
    """Exterior product x ^ y, exact."""
    return (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )


def content(x: Vec3) -> int:
    """gcd of the absolute values of the coordinates; 0 only for the zero vector."""
    return gcd(*x)


def sup_norm(x: Vec3) -> int:
    return max(abs(x[0]), abs(x[1]), abs(x[2]))


def euclid_norm_sq(x: Vec3) -> int:
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2]


def det3(x: Vec3, y: Vec3, z: Vec3) -> int:
    """Determinant of the 3x3 matrix with rows x, y, z."""
    return (
        x[0] * (y[1] * z[2] - y[2] * z[1])
        - x[1] * (y[0] * z[2] - y[2] * z[0])
        + x[2] * (y[0] * z[1] - y[1] * z[0])
    )
