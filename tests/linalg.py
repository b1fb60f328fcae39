"""Shape-checked dense float64 linear algebra for the test oracles.

The library calls numpy directly; these wrappers add the shape checks an
independent oracle wants, and test_linalg.py checks them against loop
references.  Convention: backpropagated deltas are ROW vectors and are
multiplied on the right by matrices (``delta @ w_rec.T``), so a weight matrix
always maps "source units" (rows) to "target units" (columns).  A ``Vec`` is a
1-d array, a ``Mat`` a 2-d array.  Operations that make sense on stacks of row
vectors accept an optional leading batch axis.
"""

import numpy as np

from srngate.errors import DimensionError

Vec = np.ndarray
Mat = np.ndarray


def vec(data) -> Vec:
    """Build a float64 vector from any sequence of numbers."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"vec: expected 1-d data, got shape {v.shape}")
    return v


def mat(data) -> Mat:
    """Build a float64 matrix from a nested sequence of numbers."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"mat: expected 2-d data, got shape {m.shape}")
    return m


def matmul(a: Mat, b: Mat) -> Mat:
    """Matrix product; (r, k) @ (k, c) -> (r, c)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b


def row_vec_mat(v: Vec, m: Mat) -> Vec:
    """Row vector times matrix: v (.., n) @ m (n, c) -> (.., c).

    Accepts a leading batch axis on ``v`` (a stack of row vectors).
    """
    v = np.asarray(v, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or v.ndim < 1 or v.shape[-1] != m.shape[0]:
        raise DimensionError(f"row_vec_mat: incompatible shapes {v.shape} x {m.shape}")
    return v @ m


def scale_cols_by(m: Mat, d: Vec) -> Mat:
    """Right-multiplication by diag(d): result[.., i, j] = m[.., i, j] * d[.., j]."""
    m = np.asarray(m, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if m.ndim < 2 or d.shape[-1] != m.shape[-1]:
        raise DimensionError(f"scale_cols_by: incompatible shapes {m.shape} x {d.shape}")
    return m * d[..., None, :]


def dot(a: Vec, b: Vec) -> float:
    """Scalar product of two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"dot: incompatible shapes {a.shape} x {b.shape}")
    return float(a @ b)


def norm2(v: Vec) -> float:
    """Euclidean norm of a vector.

    Computed as sqrt(sum(v*v)) so that row norms of a stacked 2-d array
    reproduce it bit for bit; inputs are assumed far from overflow.
    """
    v = np.asarray(v, dtype=np.float64)
    return float(np.sqrt(np.sum(v * v)))


def row_norms(a) -> np.ndarray:
    """Euclidean norm along the last axis, elementwise-identical to norm2."""
    a = np.asarray(a, dtype=np.float64)
    return np.sqrt(np.sum(a * a, axis=-1))


def outer(a: Vec, b: Vec) -> Mat:
    """Outer product: (n,) x (m,) -> (n, m)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionError(f"outer: expected vectors, got {a.shape} x {b.shape}")
    return np.outer(a, b)


def add(a, b):
    """Elementwise sum of two same-shape arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return a + b


def sub(a, b):
    """Elementwise difference of two same-shape arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"sub: shape mismatch {a.shape} vs {b.shape}")
    return a - b


def axpy(alpha: float, x, y):
    """alpha * x + y for same-shape arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"axpy: shape mismatch {x.shape} vs {y.shape}")
    return alpha * x + y


def emap(f, a):
    """Apply a shape-preserving elementwise function to an array."""
    a = np.asarray(a, dtype=np.float64)
    out = np.asarray(f(a), dtype=np.float64)
    if out.shape != a.shape:
        raise DimensionError(f"emap: function changed shape {a.shape} -> {out.shape}")
    return out
