"""Property tests for arc unions and their coefficients.

Examples are derandomized and run without a deadline, so the suite draws the
same cases on every run and machine load cannot fail it.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rieszseq import torus

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@st.composite
def raw_arcs(draw, max_arcs=8):
    """(start, end) pairs anywhere on the line, total length at most 1; they may
    wrap, overlap, nest or touch."""
    n = draw(st.integers(1, max_arcs))
    starts = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    lengths = draw(st.lists(st.floats(1e-9, 1.0 / n), min_size=n, max_size=n))
    return [(a, a + length) for a, length in zip(starts, lengths)]


@st.composite
def disjoint_raw_arcs(draw):
    """Disjoint arcs cut from sorted distinct points of [0, 1), each moved by a
    whole number of turns; in half the draws the last arc wraps past 1."""
    points = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=16, unique=True)))
    if len(points) % 2:
        points.pop()
    if draw(st.booleans()):  # pair (p1, p2), ..., (p_last, p0 + 1)
        points = points[1:] + [points[0] + 1.0]
    turns = draw(st.lists(st.integers(-3, 3), min_size=len(points) // 2, max_size=len(points) // 2))
    raw = [(a + k, b + k) for a, b, k in zip(points[0::2], points[1::2], turns)]
    assume(all(b > a for a, b in raw))  # a whole turn can round a tiny arc away
    return raw


@PROPERTY
@given(raw_arcs())
def test_normalize_is_idempotent(raw):
    s = torus.normalize(raw)
    assert torus.normalize(s.arcs.tolist()) == s


@PROPERTY
@given(disjoint_raw_arcs())
def test_normalize_conserves_measure_of_disjoint_arcs(raw):
    s = torus.normalize(raw)
    assert abs(s.measure - math.fsum(b - a for a, b in raw)) <= torus.MEASURE_TOL


@PROPERTY
@given(raw_arcs())
def test_complement_is_an_involution(raw):
    s = torus.normalize(raw)
    c = torus.complement(s)
    assert torus.complement(c) == s
    assert abs(s.measure + c.measure - 1.0) <= torus.MEASURE_TOL


@PROPERTY
@given(raw_arcs(), st.lists(st.integers(-(2 ** 40), 2 ** 40).filter(bool), min_size=1, max_size=40))
def test_fourier_coeff_conjugate_symmetry_is_bitwise(raw, ks):
    s = torus.normalize(raw)
    ks = np.array(ks, dtype=np.int64)
    assert torus.fourier_coeff_many(s, -ks).tobytes() == np.conj(torus.fourier_coeff_many(s, ks)).tobytes()
    assert torus.fourier_coeff_many(s, [0])[0] == s.measure
