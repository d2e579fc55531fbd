"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All expected values are exact; there are no tolerances anywhere.  Randomized
suites are seeded, so every run checks the same instances.
"""

import itertools
import json
import time
from random import Random

from invsys import (
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    Ring,
    System,
    branch_generator,
    check_eq_recurrences,
    decompose,
    equiv_decide,
    ind_omega,
    normalize_cobounded,
    planted,
    quotient_card_report,
    singleton,
    tail,
    below,
    truncate,
    universe_for,
    witness_equivalence,
    zero_element,
)
from invsys.cli import main
from invsys.sampling import random_coboundary, random_planted


def _families():
    out = []
    for modulus in (2, 3):
        for count in (1, 2, 3):
            out.append(System(Ring(modulus), DisjointBranchesTree(count)))
        out.append(System(Ring(modulus), FiniteSupportTree((), 2)))
    return out


def _report(capsys, label, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"{label} failed{detail}"


def test_criterion_1_round_trip_decomposition(capsys):
    started = time.perf_counter()
    rng = Random(1001)
    mismatches = 0
    for system in _families():
        for _ in range(200):
            a = random_planted(system, rng, max_fact_levels=4)
            if decompose(a).combo != a.combo:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        capsys, "criterion 1 (round-trip decomposition, 200 per family)", ok,
        f" ({elapsed:.1f}s, {mismatches} mismatches)",
    )


def test_criterion_2_coefficient_recurrences(capsys):
    rng = Random(1002)
    families = _families()
    violations = 0
    for n in range(50):
        system = families[n % len(families)]
        a = random_planted(system, rng)
        report = check_eq_recurrences(a, 8)
        violations += len(report.violations)
    _report(
        capsys, "criterion 2 (coefficient recurrences, 50 elements to horizon 8)",
        violations == 0, f" ({violations} violations)",
    )


def test_criterion_3_equivalence_witnesses(capsys):
    rng = Random(1003)
    families = _families()
    failures = 0
    for n in range(100):
        system = families[n % len(families)]
        a = random_planted(system, rng, max_fact_levels=2)
        extra = random_coboundary(system, rng)
        b = a + planted(system, {}, extra)
        pairs = ind_omega().square_restrict(tail(max(1, (a - b).stab_bound)))
        witness = witness_equivalence(a, b, pairs)
        diff = a - b
        for i in range(12):
            for j in range(i + 1, 12):
                if diff.eval_entry(i, j) != witness.y.induced(i, j):
                    failures += 1
    _report(
        capsys, "criterion 3 (coboundary witnesses exact below 12, 100 pairs)",
        failures == 0, f" ({failures} failed identities)",
    )


def test_criterion_4_quotient_cardinalities(capsys):
    report_8 = quotient_card_report(System(Ring(2), DisjointBranchesTree(3)))
    eight_ok = (
        report_8["cardinality"] == 8
        and report_8["certified"]["pairs_checked"] == 28
        and report_8["certified"]["all_inequivalent"]
    )
    report_3 = quotient_card_report(System(Ring(3), DisjointBranchesTree(1)))
    three_ok = report_3["cardinality"] == 3 and report_3["certified"]["classes"] == 3

    branchless = System(Ring(3), DecreasingSeqTree())
    report_1 = quotient_card_report(branchless)
    rng = Random(1004)
    all_trivial = all(
        equiv_decide(random_planted(branchless, rng), zero_element(branchless))[0]
        for _ in range(50)
    )
    ok = eight_ok and three_ok and report_1["cardinality"] == 1 and all_trivial
    _report(capsys, "criterion 4 (quotient cardinalities 8 / 3 / 1)", ok)


def test_criterion_5_independence_exhaustive(capsys):
    checked = 0
    collisions = 0
    for modulus, count in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (4, 2)]:
        total = modulus ** count
        assert total <= 27
        system = System(Ring(modulus), DisjointBranchesTree(count))
        branches = [system.tree.branch(k) for k in range(count)]
        combos = [
            planted(system, dict(zip(branches, coeffs)))
            for coeffs in itertools.product(range(modulus), repeat=count)
        ]
        for x, y in itertools.combinations(combos, 2):
            checked += 1
            if equiv_decide(x, y)[0]:
                collisions += 1
    _report(
        capsys, "criterion 5 (independence of distinct combos, exhaustive)",
        collisions == 0, f" ({checked} pairs)",
    )


def test_criterion_6_oracle_cross_check(capsys):
    rng = Random(1006)
    families = _families()
    disagreements = 0
    incoherent = 0
    unsolvable = 0
    for n in range(200):
        system = families[n % len(families)]
        a = random_planted(system, rng, max_fact_levels=3, level_cap=3, index_cap=5)
        trunc = truncate(system, 6, universe_for(system, [a], 6))
        if not trunc.agreement(a):
            disagreements += 1
            continue
        table = trunc.primary_table(a)
        if not trunc.table_coherent(table):
            incoherent += 1
            continue
        try:
            trunc.solve_coboundary(table)
        except (ValueError, AssertionError):
            unsolvable += 1
    ok = disagreements == 0 and incoherent == 0 and unsolvable == 0
    _report(
        capsys, "criterion 6 (matrix oracle agreement + solvability, 200 at height 6)",
        ok, f" ({disagreements} disagreements, {incoherent} incoherent, {unsolvable} unsolvable)",
    )


def test_criterion_7_normalization_contract(capsys):
    rng = Random(1007)
    families = _families()
    failures = 0
    for n in range(100):
        system = families[n % len(families)]
        a = random_planted(system, rng)
        normal = normalize_cobounded(a)
        b = normal.element
        for i in range(8):
            istar = normal.bounds.at(i)
            for j in range(istar, istar + 3):
                entry = b.eval_entry(i, j)
                if not entry.restrict_to(below(j)).is_zero():
                    failures += 1
                if entry != entry.restrict_to(singleton(j)):
                    failures += 1
        for i in range(8):
            for j in range(i + 1, 12):
                if a.eval_entry(i, j) - b.eval_entry(i, j) != normal.witness.induced(i, j):
                    failures += 1
    _report(
        capsys, "criterion 7 (normalization contract, 100 elements)",
        failures == 0, f" ({failures} failures)",
    )


def test_criterion_8_cli_determinism(capsys, tmp_path):
    system = System(Ring(3), DisjointBranchesTree(2))
    sys_path = tmp_path / "system.json"
    sys_path.write_text(json.dumps(system.to_json()))
    elem = branch_generator(system, system.tree.branch(0))
    elem_path = tmp_path / "elem.json"
    elem_path.write_text(json.dumps(elem.to_json()))
    other = branch_generator(system, system.tree.branch(1))
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other.to_json()))

    invocations = [
        ["--system", str(sys_path), "--element", str(elem_path), "--cmd", "check"],
        ["--system", str(sys_path), "--element", str(elem_path), "--cmd", "decompose"],
        ["--system", str(sys_path), "--element", str(elem_path),
         "--element", str(other_path), "--cmd", "equiv"],
        ["--system", str(sys_path), "--cmd", "card"],
        ["--system", str(sys_path), "--cmd", "oracle-verify", "--seed", "99"],
        ["--system", str(sys_path), "--cmd", "oracle-verify", "--seed", "99",
         "--format", "text"],
    ]
    outputs = []
    for argv in invocations + invocations:
        main(argv)
        outputs.append(capsys.readouterr().out.encode())
    half = len(invocations)
    ok = outputs[:half] == outputs[half:]
    _report(capsys, "criterion 8 (CLI byte-reproducibility under fixed seed)", ok)
