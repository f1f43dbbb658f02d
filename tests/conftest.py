"""Deterministic instance builders and the pinned-set reader shared across
test modules."""

import importlib.util
import json
import os
import random
import sys
from fractions import Fraction

from fairmix.hard import DisjointnessInput, build_hard_instance
from fairmix.model import Instance, all_partitions_allocation_set, expected_utility
from fairmix.serialize import dump_instance, load_instance

DATA = os.path.join(os.path.dirname(__file__), "data")


def pinned_entries(name):
    """The JSON document ``tests/data/<name>.json``: a pinned set as written,
    or ``golden``, the answers pinned for them."""
    with open(os.path.join(DATA, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def golden_draw():
    """``tests/data/make_goldens.py::draw``, loaded with ``sys.path`` kept as it was."""
    spec = importlib.util.spec_from_file_location("make_goldens", os.path.join(DATA, "make_goldens.py"))
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.draw


def pinned_instances(name):
    """The instances of one pinned set, loaded as the CLI loads them; the
    certify set's are its ``gen-hard`` instances, written out and read back."""
    data = pinned_entries(name)
    if name == "certify":
        data = [
            dump_instance(build_hard_instance(DisjointnessInput(p, tuple(map(int, x1)), tuple(map(int, x2)))))
            for p, x1, x2 in data["hard"]
        ]
    return [load_instance(entry) for entry in data]


def additive_table(item_values):
    """Expand per-item values into a dense bundle table."""
    m = len(item_values)
    table = {}
    for mask in range(1 << m):
        total = Fraction(0)
        for idx in range(m):
            if mask >> idx & 1:
                total += item_values[idx]
        table[mask] = total
    return table


def fraction_points(points, scale):
    """Integer points over one scale, as exact Fraction vectors."""
    return tuple(tuple(Fraction(x, scale) for x in point) for point in points)


def fraction_views(p, inst):
    """A lottery's views as exact Fractions, ``Fraction(views[i][h], den)``."""
    views, den = expected_utility(p, inst)
    return [[Fraction(v, den) for v in row] for row in views]


def random_additive_instance(rng, n=None, m=None, grid=12):
    """Instance with additive utilities from a bounded rational grid."""
    if n is None:
        n = rng.choice([2, 3])
    if m is None:
        m = rng.choice([2, 3, 4])
    raw = []
    for _ in range(n):
        items = [Fraction(rng.randint(0, grid), rng.choice([1, 2, 3])) for _ in range(m)]
        raw.append(additive_table(items))
    return Instance.build(raw, all_partitions_allocation_set(n, m))


def random_table_instance(rng, n=None, m=None, grid=12):
    """Instance with an arbitrary (non-additive) bundle table per player."""
    if n is None:
        n = rng.choice([2, 3])
    if m is None:
        m = rng.choice([2, 3])
    raw = []
    for _ in range(n):
        table = {mask: Fraction(rng.randint(0, grid)) for mask in range(1 << m)}
        raw.append(table)
    return Instance.build(raw, all_partitions_allocation_set(n, m))


def swapped(bundles, g, h):
    """``bundles`` with the entries of players g and h exchanged."""
    out = list(bundles)
    out[g], out[h] = bundles[h], bundles[g]
    return tuple(out)


def random_allocation_list(rng, n, m, count):
    """``count`` bundle tuples over n players, each of the m items given to a
    random player or to nobody; repeats and empty bundles are kept."""
    out = []
    for _ in range(count):
        bundles = [0] * n
        for item in range(m):
            owner = rng.randint(0, n)
            if owner:
                bundles[owner - 1] |= 1 << item
        out.append(tuple(bundles))
    return out


def seeded_rng(seed):
    return random.Random(seed)
