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


# abs error of fourier_coeff_real_ap against fourier_coeff_many(...).real on
# these sets of at most 16 arcs (5.1e-16 seen)
REAL_AP_TOL = 1e-15


@st.composite
def mirrored_arcs(draw):
    """An exactly mirrored set U u (1 - U): disjoint arcs U in [1/2, 1], each
    with its mirror [1 - b, 1 - a); an arc starting at 1/2 touches its mirror."""
    points = sorted(draw(st.lists(st.floats(0.5, 1.0), min_size=2, max_size=16, unique=True)))
    if len(points) % 2:
        points.pop()
    a, b = np.array(points[0::2]), np.array(points[1::2])
    return torus.from_arrays(np.concatenate([1.0 - b[::-1], a]), np.concatenate([1.0 - a[::-1], b]))


def _check_real_ap(s, step, count):
    want = torus.fourier_coeff_many(s, step * np.arange(1, count + 1)).real
    assert np.max(np.abs(torus.fourier_coeff_real_ap(s, step, count) - want)) <= REAL_AP_TOL


@PROPERTY
@given(raw_arcs(), st.integers(1, 60), st.integers(1, 5000))
def test_fourier_coeff_real_ap_matches_closed_form_on_random_sets(raw, step, count):
    _check_real_ap(torus.normalize(raw), step, count)


@PROPERTY
@given(mirrored_arcs(), st.integers(1, 60), st.integers(1, 5000))
def test_fourier_coeff_real_ap_matches_closed_form_on_mirrored_sets(s, step, count):
    x = s.arcs.ravel()
    assert x.tobytes() == (1.0 - x[::-1]).tobytes()
    _check_real_ap(s, step, count)
