"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every expected value here is recomputed by an independent oracle:
envy margins from raw sums, efficiency via a float LP in scipy plus (for
two players) an exhaustive geometric search, and every solve's efficiency
witness by a Fraction welfare scan over all allocations, projections via
clamp-pattern enumeration.  Every utility these oracles score is rescaled
from the instance's raw values by ``oracles.fraction_normalize``, never read
from the package's integer table.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from fairmix import (
    DisjointnessInput,
    EnvyGraph,
    MixedAllocation,
    WeightVector,
    certify,
    check_pareto_efficient,
    check_submodular,
    compute_rho,
    hard_utility_tables,
    is_acyclic,
    load_instance,
    load_mixed_allocation,
    project_onto_truncated_simplex,
    select_p_in_P,
    split_count,
    verify_welfare_dichotomy,
)
from fairmix.cli import main

from oracles import (
    find_dominating_vertex_or_pair,
    fraction_normalize,
    project_by_pattern_enumeration,
    weight_witness_ok,
)

F = Fraction
SEED = 20260815
DESK_RUNS = 200
PROJECTION_RUNS = 1000
WEIGHT_GAP_RUNS = 100
CROSS_VALIDATION_RUNS = 50
CYCLE_RUNS = 1500
LARGE_N_RUNS = 10


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_instance_data(rng, n=None, m=None, additive=None):
    n = n if n is not None else rng.choice([2, 3])
    m = m if m is not None else rng.choice([2, 3, 4])
    additive = additive if additive is not None else rng.random() < 0.5

    def coin():
        return f"{rng.randint(0, 12)}/{rng.choice([1, 2, 3])}"

    if additive:
        utilities = {"type": "additive", "items": [[coin() for _ in range(m)] for _ in range(n)]}
    else:
        utilities = {
            "type": "table",
            "values": [[[mask, coin()] for mask in range(1 << m)] for _ in range(n)],
        }
    return {"n": n, "m": m, "utilities": utilities, "allocations": "all_partitions"}


# ---------------------------------------------------------------- oracles


def rescaled(inst):
    """The instance's raw values rescaled in Fractions, by the oracle's own code."""
    return fraction_normalize(inst.utilities.raw_values)


def utility_sums(p, inst):
    """own[i] and view[i][h] expected utilities, recomputed from raw loops."""
    n = inst.n
    values = rescaled(inst)
    view = [
        [
            sum(q * values[i][inst.allocations[j].bundles[h]] for j, q in p.pairs)
            for h in range(n)
        ]
        for i in range(n)
    ]
    own = [view[i][i] for i in range(n)]
    return own, view


def envy_edges(p, inst):
    own, view = utility_sums(p, inst)
    return {
        (i, h)
        for i in range(inst.n)
        for h in range(inst.n)
        if h != i and view[i][h] > own[i]
    }


def has_cycle(edges, n):
    adjacency = {i: [h for (a, h) in edges if a == i] for i in range(n)}

    def walk(node, seen):
        if node in seen:
            return True
        for nxt in adjacency[node]:
            if walk(nxt, seen | {node}):
                return True
        return False

    return any(walk(i, frozenset()) for i in range(n))


def pe_gap_via_scipy(p, inst):
    """Optimum of the improvement LP in floats; ~0 means no dominator."""
    n, k = inst.n, len(inst.allocations)
    values = rescaled(inst)
    own = np.array([[float(values[i][a.bundles[i]]) for a in inst.allocations] for i in range(n)])
    dense = np.zeros(k)
    for j, q in p.pairs:
        dense[j] = float(q)
    eu = own @ dense
    c = np.concatenate([np.zeros(k), -np.ones(n)])
    a_ub = np.hstack([-own, np.eye(n)])
    a_eq = np.concatenate([np.ones(k), np.zeros(n)])[None, :]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=-eu,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * (k + n),  # gains must be non-negative to dominate
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def share_ratio_sides(p, inst):
    """Per player: best-anywhere share vs own share, plus the envy-free set."""
    own, view = utility_sums(p, inst)
    best = [max(view[i]) for i in range(inst.n)]
    total_best, total_own = sum(best), sum(own)
    lhs = [best[i] / total_best for i in range(inst.n)]
    rhs = [own[i] / total_own for i in range(inst.n)]
    ef_players = {i for i in range(inst.n) if best[i] == own[i]}
    return lhs, rhs, ef_players


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Solve randomized instances end to end through the CLI, keeping traces."""
    rng = random.Random(SEED)
    base = tmp_path_factory.mktemp("desk")
    runs = []
    started = time.perf_counter()
    for t in range(DESK_RUNS):
        data = random_instance_data(rng)
        instance_path = base / f"instance_{t}.json"
        trace_path = base / f"trace_{t}.jsonl"
        instance_path.write_text(json.dumps(data), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(
                ["solve", "--instance", str(instance_path), "--trace", str(trace_path)]
            )
        result = json.loads(out.getvalue()) if code == 0 else None
        inst = load_instance(data)
        p = load_mixed_allocation(result["p"], inst) if result else None
        trace = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
        runs.append(
            SimpleNamespace(data=data, inst=inst, p=p, exit_code=code, result=result, trace=trace)
        )
    elapsed = time.perf_counter() - started
    return SimpleNamespace(runs=runs, elapsed=elapsed)


@pytest.fixture(scope="module")
def efficient_point_masses():
    """Welfare-maximizing point masses: efficient by construction, often envious.

    These exercise the branches that certified envy-free output cannot:
    cyclic-envy candidates for the graph criteria and strict share-ratio
    inequalities.
    """
    rng = random.Random(SEED + 1)
    cases = []
    for _ in range(40):
        inst = load_instance(random_instance_data(rng, m=rng.choice([2, 3])))
        k = len(inst.allocations)
        values = rescaled(inst)
        welfare = [sum(values[i][a.bundles[i]] for i in range(inst.n)) for a in inst.allocations]
        j_star = max(range(k), key=lambda j: welfare[j])
        p = MixedAllocation.point_mass(k, j_star)
        cert = certify(p, inst)
        assert cert.pe_ok, "a welfare-maximizing point mass cannot be dominated"
        cases.append(SimpleNamespace(inst=inst, p=p, cert=cert))
    return cases


@pytest.fixture(scope="module")
def dichotomy_samples():
    """All pairs at p=1 and p=2, a fixed+random sample at p=3."""
    rng = random.Random(SEED + 2)
    samples = []
    for p in (1, 2):
        r = split_count(p)
        for x1 in itertools.product((0, 1), repeat=r):
            for x2 in itertools.product((0, 1), repeat=r):
                samples.append(DisjointnessInput(p, x1, x2))
    r3 = split_count(3)
    p3_strings = [((1,) * r3, (1,) * r3), ((0,) * r3, (0,) * r3)]
    while len(p3_strings) < 40:
        p3_strings.append(
            (
                tuple(rng.randint(0, 1) for _ in range(r3)),
                tuple(rng.randint(0, 1) for _ in range(r3)),
            )
        )
    samples.extend(DisjointnessInput(3, x1, x2) for x1, x2 in p3_strings)

    reports = []
    p3_started = time.perf_counter()
    p3_elapsed = 0.0
    for inp in samples:
        if inp.p == 3 and p3_elapsed == 0.0:
            p3_started = time.perf_counter()
        reports.append((inp, verify_welfare_dichotomy(inp)))
        if inp.p == 3:
            p3_elapsed = time.perf_counter() - p3_started
    return SimpleNamespace(reports=reports, p3_elapsed=p3_elapsed)


# ---------------------------------------------------------------- criteria


def test_existence_at_desk_scale(desk_runs):
    """Randomized instances all solve to a doubly-oracle-checked certificate."""
    failures = []
    for t, run in enumerate(desk_runs.runs):
        if run.exit_code != 0:
            failures.append(f"run {t} exited {run.exit_code}")
            continue
        if not run.result["certificate"]["ok"]:
            failures.append(f"run {t} emitted a failing certificate")
            continue
        if envy_edges(run.p, run.inst):
            failures.append(f"run {t} fails the envy-margin oracle")
        weight = run.result["certificate"]["pe"]["weight"]
        if weight != run.result["w"]:
            failures.append(f"run {t} certifies PE with weight {weight}, not its vertex")
        elif not weight_witness_ok(run.p, run.inst, weight):
            failures.append(f"run {t} fails the weight witness oracle")
        gap = pe_gap_via_scipy(run.p, run.inst)
        if gap > 1e-7:
            failures.append(f"run {t} fails the float LP oracle (gap {gap})")
        if run.inst.n == 2 and find_dominating_vertex_or_pair(run.p, run.inst) is not None:
            failures.append(f"run {t} fails the geometric domination oracle")
    ok = not failures and desk_runs.elapsed < 300
    report(
        "existence at desk scale",
        ok,
        f"{len(desk_runs.runs) - len(failures)}/{len(desk_runs.runs)} certified and "
        f"oracle-confirmed in {desk_runs.elapsed:.1f}s"
        + (f"; first problem: {failures[0]}" if failures else ""),
    )


def test_existence_beyond_three_players(tmp_path):
    """n = 4 and n = 5 instances solve to doubly-oracle-checked certificates."""
    failures = []
    solved = 0
    slowest = 0.0
    for n, m in ((4, 2), (4, 3), (5, 2)):
        rng = random.Random(7)
        for t in range(LARGE_N_RUNS):
            data = random_instance_data(rng, n=n, m=m)
            label = f"n={n} m={m} run {t}"
            path = tmp_path / f"instance_{n}_{m}_{t}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            out = io.StringIO()
            started = time.perf_counter()
            with redirect_stdout(out):
                code = main(["solve", "--instance", str(path)])
            slowest = max(slowest, time.perf_counter() - started)
            if code != 0:
                failures.append(f"{label} exited {code}")
                continue
            result = json.loads(out.getvalue())
            inst = load_instance(data)
            p = load_mixed_allocation(result["p"], inst)
            if not result["certificate"]["ok"]:
                failures.append(f"{label} emitted a failing certificate")
            elif envy_edges(p, inst):
                failures.append(f"{label} fails the envy-margin oracle")
            elif pe_gap_via_scipy(p, inst) > 1e-7:
                failures.append(f"{label} fails the float LP oracle")
            else:
                solved += 1
    total = 3 * LARGE_N_RUNS
    report(
        "existence beyond three players",
        not failures,
        f"{solved}/{total} certified and oracle-confirmed, slowest solve {slowest:.2f}s"
        + (f"; first problem: {failures[0]}" if failures else ""),
    )


def test_envy_graph_acyclic_for_efficient_lotteries(desk_runs, efficient_point_masses):
    """Every efficiency-certified lottery has an acyclic envy graph."""
    violations = 0
    checked = 0
    envious_cases = 0
    for inst, p in [(r.inst, r.p) for r in desk_runs.runs if r.p is not None] + [
        (c.inst, c.p) for c in efficient_point_masses
    ]:
        edges = envy_edges(p, inst)
        envious_cases += bool(edges)
        checked += 1
        if has_cycle(edges, inst.n):
            violations += 1
    report(
        "acyclic envy graph under efficiency",
        violations == 0 and envious_cases > 0,
        f"{checked} certified lotteries ({envious_cases} with envy present), {violations} cycles",
    )


def test_cycle_check_matches_oracle():
    """``is_acyclic`` agrees with the brute-force walk, and every cycle it names is real."""
    rng = random.Random(SEED)
    mismatches, bad_cycles, cyclic = [], [], 0
    for _ in range(CYCLE_RUNS):
        n = rng.randint(1, 5)
        density = rng.random()
        edges = {(i, h) for i in range(n) for h in range(n) if i != h and rng.random() < density}
        ok, cycle = is_acyclic(EnvyGraph(n, tuple((i, h, F(1)) for i, h in sorted(edges))))
        if ok == has_cycle(edges, n):
            mismatches.append((n, sorted(edges)))
        elif not ok:
            cyclic += 1
            closing = zip(cycle, cycle[1:] + cycle[:1])
            if not 2 <= len(set(cycle)) == len(cycle) or not all(e in edges for e in closing):
                bad_cycles.append((sorted(edges), cycle))
    report(
        "cycle check against the oracle",
        not mismatches and not bad_cycles and 0 < cyclic < CYCLE_RUNS,
        f"{CYCLE_RUNS} random graphs, {cyclic} cyclic, {len(mismatches)} verdict mismatches,"
        f" {len(bad_cycles)} invalid cycles",
    )


def test_envy_free_player_set_nonempty(desk_runs, efficient_point_masses):
    """Every efficiency-certified lottery leaves at least one player envy-free."""
    empty = 0
    checked = 0
    for inst, p in [(r.inst, r.p) for r in desk_runs.runs if r.p is not None] + [
        (c.inst, c.p) for c in efficient_point_masses
    ]:
        _, _, ef_players = share_ratio_sides(p, inst)
        checked += 1
        empty += not ef_players
    report(
        "envy-free player set non-empty",
        empty == 0,
        f"{checked} certified lotteries, {empty} with nobody envy-free",
    )


def test_projection_properties():
    """Feasibility, the coordinate bound, idempotence, and oracle agreement."""
    rng = random.Random(SEED + 3)
    failures = 0
    for _ in range(PROJECTION_RUNS):
        n = rng.randint(2, 5)
        y = [F(rng.randint(-8, 12), rng.randint(1, 6)) for _ in range(n - 1)]
        y.append(1 - sum(y))
        eps = F(1, n * rng.randint(1, 4))
        x = project_onto_truncated_simplex(tuple(y), eps)
        ok = (
            sum(x) == 1
            and all(v >= eps for v in x)
            and all(x[i] <= max(y[i], eps) for i in range(n))
            and project_onto_truncated_simplex(x, eps) == x
            and x == project_by_pattern_enumeration(tuple(y), eps)
        )
        failures += not ok
    report(
        "truncated-simplex projection properties",
        failures == 0,
        f"{PROJECTION_RUNS} random inputs, {failures} failures",
    )


def test_share_ratio_inequality(desk_runs, efficient_point_masses):
    """Envy-free players' best-anywhere share never exceeds their own share;
    equality everywhere exactly on envy-free lotteries."""
    violations = []
    strict_cases = 0
    checked = 0
    for inst, p in [(r.inst, r.p) for r in desk_runs.runs if r.p is not None] + [
        (c.inst, c.p) for c in efficient_point_masses
    ]:
        lhs, rhs, ef_players = share_ratio_sides(p, inst)
        is_ef = len(ef_players) == inst.n
        checked += 1
        strict_cases += not is_ef
        for i in ef_players:
            if lhs[i] > rhs[i]:
                violations.append(f"player {i} ratio {lhs[i]} > {rhs[i]}")
        all_equal = all(lhs[i] == rhs[i] for i in ef_players)
        if all_equal != is_ef:
            violations.append("equality pattern disagrees with the envy-free verdict")
    report(
        "share-ratio inequality",
        not violations and strict_cases > 0,
        f"{checked} certified lotteries ({strict_cases} strict), "
        + (violations[0] if violations else "no violations"),
    )


def test_weight_gap_blocks_envy():
    """If w_h is at most rho * w_i, the selected lottery gives i no envy toward h."""
    rng = random.Random(SEED + 4)
    violations = 0
    for _ in range(WEIGHT_GAP_RUNS):
        inst = load_instance(random_instance_data(rng, m=rng.choice([2, 3])))
        n = inst.n
        rho = compute_rho(inst)
        delta = rho / (2 * n)
        i, h = rng.sample(range(n), 2)
        w = [delta] * n
        w[i] = 1 - delta * (n - 1)
        assert w[h] <= rho * w[i]
        p = select_p_in_P(WeightVector(tuple(w), delta), inst)
        own, view = utility_sums(p, inst)
        violations += view[i][h] > own[i]
    report(
        "weight gap blocks envy",
        violations == 0,
        f"{WEIGHT_GAP_RUNS} engineered (instance, w) pairs, {violations} envy edges",
    )


def test_share_conservation(desk_runs):
    """Raw share updates sum to one exactly on every scanned vertex.

    The trace also accounts for the scan: positions run 1..iterations in
    order, and the last record is the answer's weight and support.
    """
    total = 0
    bad = 0
    incoherent = 0
    for run in desk_runs.runs:
        for record in run.trace:
            total += 1
            bad += sum(F(x) for x in record["nu"]) != 1
        if run.result is None:
            continue
        positions = [record["iteration"] for record in run.trace]
        last = run.trace[-1] if run.trace else {}
        answer = [entry["bundles"] for entry in run.result["p"]["support"]]
        incoherent += (
            positions != list(range(1, run.result["iterations"] + 1))
            or last.get("w") != run.result["w"]
            or last.get("support") != answer
        )
    report(
        "share update conservation",
        bad == 0 and incoherent == 0 and total > 0,
        f"{total} trace records across {len(desk_runs.runs)} runs, {bad} off-sum, "
        f"{incoherent} traces not ending at the answer",
    )


def test_welfare_dichotomy(dichotomy_samples):
    """Shared flagged index reaches 6p exactly; disjoint strings cap at 6p-1."""
    failures = [
        (inp.p, inp.x1, inp.x2)
        for inp, rep in dichotomy_samples.reports
        if not rep.dichotomy_holds
    ]
    counts = {p: sum(1 for inp, _ in dichotomy_samples.reports if inp.p == p) for p in (1, 2, 3)}
    sampled = counts[2] + counts[3]
    ok = not failures and sampled >= 100 and dichotomy_samples.p3_elapsed < 600
    report(
        "welfare dichotomy",
        ok,
        f"exhaustive p=1 ({counts[1]} pairs), p=2 ({counts[2]}), sampled p=3 ({counts[3]}, "
        f"{dichotomy_samples.p3_elapsed:.1f}s); failures: {failures[:3] if failures else 'none'}",
    )


def test_generated_utilities_submodular(dichotomy_samples):
    """Both players' generated tables show diminishing returns, exhaustively."""
    violations = 0
    checked = 0
    for inp, _ in dichotomy_samples.reports:
        for table in hard_utility_tables(inp):
            ok, _ = check_submodular(table, 2 * inp.p)
            checked += 1
            violations += not ok
    report(
        "hard-instance submodularity",
        violations == 0,
        f"{checked} player tables over all sampled strings, {violations} violations",
    )


def test_efficiency_oracle_cross_validation():
    """The LP efficiency check and the exhaustive geometric domination search agree."""
    rng = random.Random(SEED + 5)
    disagreements = 0
    checked = 0
    for _ in range(CROSS_VALIDATION_RUNS):
        inst = load_instance(random_instance_data(rng, n=2, m=2))
        k = len(inst.allocations)
        assert k <= 9
        for j in range(k):
            p = MixedAllocation.point_mass(k, j)
            lp_verdict = check_pareto_efficient(p, inst).ok
            oracle_verdict = find_dominating_vertex_or_pair(p, inst) is None
            checked += 1
            disagreements += lp_verdict != oracle_verdict
    report(
        "efficiency oracle cross-validation",
        disagreements == 0,
        f"{checked} point masses on {CROSS_VALIDATION_RUNS} instances, {disagreements} disagreements",
    )
