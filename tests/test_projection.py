"""Truncated-simplex projection against the clamp-pattern enumeration oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix.errors import PreconditionError
from fairmix.lp import project_onto_truncated_simplex as project
from oracles import project_by_pattern_enumeration as oracle

F = Fraction


def test_interior_point_unchanged():
    assert project((F(1, 2), F(1, 2)), F(1, 10)) == (F(1, 2), F(1, 2))


def test_single_clamp():
    # frozen from the clamp-pattern oracle
    assert project((F(3, 2), F(-1, 2)), F(1, 10)) == (F(9, 10), F(1, 10))


def test_three_coordinates_one_clamp():
    # frozen from the clamp-pattern oracle
    assert project((F(1), F(1), F(-1)), F(1, 10)) == (F(9, 20), F(9, 20), F(1, 10))


def test_two_clamps():
    # frozen from the clamp-pattern oracle
    assert project((F(2), F(-1, 2), F(-1, 2)), F(1, 4)) == (F(1, 2), F(1, 4), F(1, 4))


def test_floor_at_exactly_one_over_n():
    assert project((F(3, 4), F(1, 4)), F(1, 2)) == (F(1, 2), F(1, 2))


def test_single_coordinate():
    assert project((F(1),), F(1, 2)) == (F(1),)


def test_empty_domain():
    with pytest.raises(PreconditionError, match="exceeds 1/2; the truncated simplex is empty"):
        project((F(1, 2), F(1, 2)), F(2, 3))


def test_bad_sum():
    with pytest.raises(PreconditionError):
        project((F(1, 2), F(1, 4)), F(1, 10))


def test_nonpositive_floor():
    with pytest.raises(PreconditionError):
        project((F(1, 2), F(1, 2)), F(0))


@pytest.mark.parametrize(
    "y, epsilon",
    [((0.5, 0.5), F(1, 4)), ((None, 1), F(1, 4)), ((F(1, 2), F(1, 2)), 0.25)],
    ids=["float-entry", "none-entry", "float-floor"],
)
def test_non_rational_input(y, epsilon):
    with pytest.raises(PreconditionError, match="non-rational value"):
        project(y, epsilon)


def sum_one_vectors(min_n=1, max_n=5):
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(coord, min_size=n - 1, max_size=n - 1),
            st.integers(1, 4),
        ).map(lambda t: (tuple(t[0]) + (1 - sum(t[0]),), F(1, n * t[1])))
    )


@given(sum_one_vectors())
@settings(max_examples=300, deadline=None)
def test_matches_oracle(case):
    y, eps = case
    assert project(y, eps) == oracle(y, eps)


@given(sum_one_vectors())
@settings(max_examples=150, deadline=None)
def test_idempotent_and_feasible(case):
    y, eps = case
    x = project(y, eps)
    n = len(y)
    assert sum(x) == 1
    assert all(v >= eps for v in x)
    assert all(v <= max(yi, eps) for v, yi in zip(x, y))
    assert project(x, eps) == x


@given(sum_one_vectors(min_n=2), st.lists(st.integers(0, 8), min_size=2, max_size=6))
@settings(max_examples=150, deadline=None)
def test_no_feasible_point_is_closer(case, mix):
    y, eps = case
    n = len(y)
    x = project(y, eps)
    # compare against a random convex combination of the corners of the domain
    weights = mix[:n] if len(mix) >= n else mix + [1] * (n - len(mix))
    if not sum(weights):
        weights = [1] * n
    total = sum(weights)
    z = [F(0)] * n
    for corner in range(n):
        share = F(weights[corner % len(weights)], total)
        for i in range(n):
            z[i] += share * (1 - (n - 1) * eps if i == corner else eps)
    dist_x = sum((a - b) ** 2 for a, b in zip(x, y))
    dist_z = sum((a - b) ** 2 for a, b in zip(z, y))
    assert dist_x <= dist_z


def test_empty_vector_rejected():
    with pytest.raises(PreconditionError, match="empty vector"):
        project((), F(1, 2))
