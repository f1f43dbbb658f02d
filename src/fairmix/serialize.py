"""JSON and DOT serialization for instances, lotteries, and certificates.

Conventions, chosen so files survive bit-exact round trips and stay
readable next to worked examples:

* rationals are always written as ``"num/den"`` strings, never floats,
  and read only as JSON ints or ASCII ``"[-]num[/den]"`` strings;
* players and items are numbered from 1 in files (library APIs use
  0-based indices); utility tables key bundles by bitmask with bit i-1
  standing for item i;
* allocations are written as per-player bundle lists, never as indices
  into a particular ordering, so files are portable across closures.
"""

import json

from .envy import is_acyclic
from .errors import MalformedInstanceError
from .model import (
    MAX_ITEMS,
    AllocationSet,
    Instance,
    MixedAllocation,
    PureAllocation,
    _entries,
    _normalize_rows,
    _num_den,
    _over_lcm,
    _plain_ratio,
    _shown,
    all_partitions_allocation_set,
    as_fraction,
    is_int,
    swap_closure,
)


def format_rational(q):
    """A rational (see ``as_fraction``) as ``"num/den"`` in lowest terms."""
    q = as_fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _rationals(values):
    """``format_rational`` of each of ``values``, as a list; None for None."""
    return None if values is None else [format_rational(q) for q in values]


def mask_to_items(mask):
    """Bitmask to sorted 1-based item list.  A mask that is not an int >= 0
    (a bool is not an int here) raises ``MalformedInstanceError``."""
    if not is_int(mask) or mask < 0:
        raise MalformedInstanceError(f"bundle mask {_shown(mask)} is not an integer >= 0")
    return [g + 1 for g in range(mask.bit_length()) if mask >> g & 1]


def items_to_mask(items, m):
    """1-based item list to bitmask.  ``items`` must be a sequence
    of distinct ints in 1..m, or this raises ``MalformedInstanceError``."""
    mask = 0
    for item in _entries(items, "item list"):
        if not is_int(item) or not 1 <= item <= m:
            raise MalformedInstanceError(f"item {_shown(item)} outside 1..{m}")
        bit = 1 << (item - 1)
        if mask & bit:
            raise MalformedInstanceError(f"item {item} listed twice in one bundle")
        mask |= bit
    return mask


def _require(condition, field, detail):
    if not condition:
        _fail(field, detail)


def _fail(field, detail):
    raise MalformedInstanceError(f"field {field!r}: {detail}")


def _in_field(field, build, *args):
    """``build(*args)``, its ``MalformedInstanceError`` prefixed by ``field`` as ``_require`` does."""
    try:
        return build(*args)
    except MalformedInstanceError as exc:
        raise MalformedInstanceError(f"field {field!r}: {exc}") from exc


def _parse_allocation_entry(entry, n, m, field):
    _require(isinstance(entry, list) and len(entry) == n, field, f"expected {n} bundles")
    for bundle in entry:
        _require(isinstance(bundle, list), field, "bundles must be item lists")
    return _in_field(field, lambda: PureAllocation(tuple(items_to_mask(bundle, m) for bundle in entry)))


def load_instance(data, warn=None):
    """Build an Instance from the documented JSON shape.

    Explicit allocation lists are always closed under pairwise swaps on
    load, as the existence theorem assumes; ``warn`` (a callable taking a
    message) fires when the closure added allocations.  Every
    ``MalformedInstanceError`` names its field, as ``field 'name': detail``.

    Every rational, in table rows and item lists, is a JSON int or an
    ASCII ``'[-]num[/den]'`` string and nothing else (``_num_den``).  A
    table row is read whole (``_plain_row``) when every entry is an
    ``[int mask, string]`` pair, the masks distinct and in range and every
    string read, the form ``dump_instance`` writes; any other row, and
    every error, goes through the per-entry reader (``_checked_row``),
    which reports a row's first bad entry.  The rows then go, as int lists,
    to the one normalizer behind ``normalize_utilities``, so no value is
    checked or coerced twice.
    """
    _require(isinstance(data, dict), "$", "instance must be a JSON object")
    allowed = {"n", "m", "utilities", "allocations"}
    for key in data:
        _require(key in allowed, key, "unknown field")
    for key in allowed:
        _require(key in data, key, "missing field")
    n, m = data["n"], data["m"]
    _require(is_int(n) and n >= 1, "n", "need an integer >= 1")
    _require(is_int(m) and 0 <= m <= MAX_ITEMS, "m", f"need an integer in 0..{MAX_ITEMS}")
    util = data["utilities"]
    _require(isinstance(util, dict), "utilities", "must be an object with a 'type' tag")
    kind = util.get("type")
    if kind == "table":
        key, noun = "values", "table"
    elif kind == "additive":
        key, noun = "items", "item list"
    else:
        raise MalformedInstanceError(f"field 'utilities.type': expected 'table' or 'additive', got {_shown(kind)}")
    # checked before the allocation set is built: all partitions cost one column per player
    rows = util.get(key)
    _require(isinstance(rows, list) and len(rows) == n, f"utilities.{key}", f"need one {noun} per player ({n})")

    spec = data["allocations"]
    if spec == "all_partitions":
        aset = all_partitions_allocation_set(n, m)
    else:
        _require(isinstance(spec, list) and spec, "allocations", "need 'all_partitions' or a non-empty list")
        listed = AllocationSet(
            _parse_allocation_entry(entry, n, m, f"allocations[{j}]") for j, entry in enumerate(spec)
        )
        aset = swap_closure(listed)
        if len(aset) > len(listed) and warn is not None:
            warn(
                f"allocation list was not swap-closed; closure grew it from "
                f"{len(listed)} to {len(aset)} allocations"
            )

    raw = []
    if kind == "table":
        top = 1 << m
        for i, row in enumerate(rows):
            field = f"utilities.values[{i}]"
            _require(isinstance(row, list), field, "need a list of [mask, value] pairs")
            raw.append(_plain_row(row, top) or _checked_row(row, top, field))
    else:
        # all partitions need every mask, in ascending order, and each sum is
        # then one addition to a smaller subset's; a listed set needs only
        # the masks it holds, summed one by one
        every = aset.partitions_of == m
        needed = range(1 << m) if every else list(aset.bundles_seen | {0})
        for i, row in enumerate(rows):
            field = f"utilities.items[{i}]"
            _require(isinstance(row, list) and len(row) == m, field, f"need {m} item values")
            pairs = _in_field(field, list, map(_num_den, row))
            per_item, den = _over_lcm([x for x, _ in pairs], [d for _, d in pairs])
            if every:
                sums = [0]
                for x in per_item:
                    sums += [s + x for s in sums]
            else:
                sums = [sum(per_item[g] for g in range(m) if mask >> g & 1) for mask in needed]
            raw.append((needed, sums, [den] * len(needed)))

    # every mask is checked and every value an int pair: skip the re-check
    return _in_field("utilities", lambda: Instance(n, m, _normalize_rows(raw), aset))


def _plain_row(row, top):
    """A table row whose entries are all ``[mask, string]`` lists, with
    distinct int masks in 0..top-1 and strings that ``_plain_ratio`` reads
    (ASCII '[-]num[/den]'), as parallel (masks, numerators, denominators)
    tuples; None for any other row.  Every check is a C-level pass over
    the row, and each distinct value string is read once, so this returns
    only what ``_checked_row`` would, and leaves every other row, and every
    error, to it."""
    if set(map(type, row)) != {list} or set(map(len, row)) != {2}:
        return None
    masks, values = zip(*row)
    if set(map(type, masks)) != {int} or min(masks) < 0 or max(masks) >= top or len(set(masks)) != len(masks):
        return None
    if set(map(type, values)) != {str}:
        return None
    read = {text: _plain_ratio(text) for text in set(values)}
    if None in read.values():
        return None
    nums, dens = zip(*map(read.__getitem__, values))
    return masks, nums, dens


def _checked_row(row, top, field):
    """A table row read entry by entry, as parallel (masks, numerators,
    denominators) lists; the first bad entry, in row order, raises its
    ``MalformedInstanceError``, prefixed by ``field``."""
    table = {}
    # each message is formatted only when its check fails
    for pair in row:
        _require(isinstance(pair, list) and len(pair) == 2, field, "entries are [mask, value] pairs")
        mask, value = pair
        if not (is_int(mask) and 0 <= mask < top):
            _fail(field, f"bundle mask {_shown(mask)} outside 0..{top - 1}")
        if mask in table:
            _fail(field, f"duplicate bundle mask {mask}")
        table[mask] = _in_field(field, _num_den, value)
    return list(table), [x for x, _ in table.values()], [d for _, d in table.values()]


def dump_allocation_set(aset):
    """An allocation set, in its order, as lists of per-player 1-based item lists."""
    return [[mask_to_items(b) for b in bs] for bs in aset.bundles]


def dump_instance(inst):
    """Inverse of load_instance; writes the raw (pre-rescale) utility tables,
    a set built as all partitions as ``"all_partitions"`` and any other as its list."""
    aset = inst.allocations
    allocations = "all_partitions" if aset.partitions_of == inst.m else dump_allocation_set(aset)
    values = []
    for i in range(inst.n):
        table = inst.utilities.raw_values[i]
        values.append([[mask, format_rational(q)] for mask, q in sorted(table.items())])
    return {
        "n": inst.n,
        "m": inst.m,
        "utilities": {"type": "table", "values": values},
        "allocations": allocations,
    }


def dump_mixed_allocation(p, inst):
    columns = inst.allocations.columns
    support = [
        {
            "bundles": [mask_to_items(column[j]) for column in columns],
            "probability": format_rational(q),
        }
        for j, q in p.pairs
    ]
    return {"support": support}


def load_mixed_allocation(data, inst):
    """Resolve a support-form lottery against the instance's allocation set."""
    if isinstance(data, dict) and "support" not in data and "p" in data:
        data = data["p"]  # accept a whole solve result
    _require(isinstance(data, dict) and isinstance(data.get("support"), list), "support", "need a support list")
    probs = {}
    for entry, field in ((e, f"support[{j}]") for j, e in enumerate(data["support"])):
        _require(isinstance(entry, dict), field, "entries are objects")
        _require("bundles" in entry and "probability" in entry, field, "need bundles and probability")
        allocation = _parse_allocation_entry(entry["bundles"], inst.n, inst.m, field)
        j = inst.allocations.position(allocation.bundles)
        _require(j is not None, field, f"allocation {_shown(entry['bundles'])} is not in the instance's set")
        _require(j not in probs, field, "allocation listed twice")
        probs[j] = _in_field(field, as_fraction, entry["probability"])
    return _in_field("support", MixedAllocation.from_support, len(inst.allocations), probs)


def dump_certificate(cert, inst):
    witness = None
    if cert.ef.witness is not None:
        i, h, margin = cert.ef.witness
        witness = {"envious": i + 1, "envied": h + 1, "margin": format_rational(margin)}
    dominator = None
    if cert.pe.dominator is not None:
        dominator = dump_mixed_allocation(cert.pe.dominator, inst)
    residual = None
    if cert.fixed_point_residual is not None:
        residual = format_rational(cert.fixed_point_residual)
    return {
        "ok": cert.ok,
        "ef": {"ok": cert.ef.ok, "witness": witness},
        "pe": {
            "ok": cert.pe.ok,
            "dominator": dominator,
            "gains": _rationals(cert.pe.gains),
            "weight": _rationals(cert.pe.weight),
        },
        "fixed_point_residual": residual,
    }


def dump_solve_result(state, cert, inst, wall_time):
    return {
        "p": dump_mixed_allocation(state.p, inst),
        "w": _rationals(state.w.w),
        "certificate": dump_certificate(cert, inst),
        "iterations": state.iteration,
        "wall_time": wall_time,
    }


def dump_trace_record(rec, inst):
    columns = inst.allocations.columns
    return {
        "iteration": rec.iteration,
        "w": _rationals(rec.w.w),
        "support": [[mask_to_items(column[j]) for column in columns] for j in rec.p.support()],
        "residual": format_rational(rec.residual),
        "nu": _rationals(rec.nu),
    }


def dump_dichotomy_report(report):
    def entry(c):
        return {
            "kind": c.kind,
            "bundles": None if c.bundles is None else [mask_to_items(b) for b in c.bundles],
            "split_index": None if c.split_index is None else c.split_index + 1,
            "welfare": format_rational(c.welfare),
        }

    return {
        "p": report.p,
        "x1": list(report.x1),
        "x2": list(report.x2),
        "intersecting": report.intersecting,
        "target_welfare": format_rational(report.target_welfare),
        "certified": [entry(c) for c in report.certified],
        "dichotomy_holds": report.dichotomy_holds,
        "flagged_mixed": [entry(c) for c in report.flagged_mixed],
    }


def envy_graph_to_dot(graph):
    """Envy graph as DOT, players numbered from 1, margins as edge labels."""
    acyclic, cycle = is_acyclic(graph)
    lines = ["digraph envy_graph {"]
    if acyclic:
        lines.append("  // acyclic: true")
    else:
        walk = " -> ".join(str(i + 1) for i in cycle)
        lines.append(f"  // acyclic: false (cycle: {walk} -> {cycle[0] + 1})")
    for i in range(graph.n):
        lines.append(f"  {i + 1};")
    for i, h, margin in graph.edges:
        lines.append(f'  {i + 1} -> {h + 1} [label="{format_rational(margin)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(obj):
    """Stable pretty JSON used by every CLI command: for the documents the
    package builds, exactly ``json.dumps(obj, indent=2) + "\n"``, written
    by a direct recursive printer.  ``indent=2`` makes ``json`` run its
    pure-Python encoder, whose closures leave a reference cycle behind on
    every call; this printer builds one list of parts and leaves none.  A
    dict, list or tuple is laid out by ``indent=2``'s rules, a str or dict
    key by ``json``'s own ASCII string encoder (a key that is not a str
    raises ``TypeError``), an int by ``int.__repr__`` and None, True and
    False as their literals; every other value (a float, a subclass of str
    or int) is written by ``json.dumps`` itself, which raises ``TypeError``
    for a type JSON cannot hold.  A container that holds itself raises
    ``RecursionError``, where ``json`` raises ``ValueError``."""
    parts = []
    _print(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _print(obj, newline, parts):
    """Append ``obj``'s ``indent=2`` JSON to ``parts``; ``newline`` is a line
    break and the indent of the line ``obj`` starts on."""
    kind = type(obj)
    if kind is str:
        parts.append(json.encoder.encode_basestring_ascii(obj))
    elif kind is int:
        parts.append(int.__repr__(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        parts.append("[")
        for value in obj:
            parts.append(inner)
            _print(value, inner, parts)
            parts.append(",")
        parts[-1] = newline + "]"
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        parts.append("{")
        for key, value in obj.items():
            parts.append(inner)
            parts.append(json.encoder.encode_basestring_ascii(key))
            parts.append(": ")
            _print(value, inner, parts)
            parts.append(",")
        parts[-1] = newline + "}"
    else:
        # a float, or a subclass of str or int
        parts.append(json.dumps(obj))
