"""Command-line front end.

Commands: verify, table, iso, frobenius, cellchain, centre,
demo-bisymmetric, dump-algebra.  Common flags: --n, --ring, --json,
--seed, --matrix-file.  Exit status: 0 when nothing failed (unknown and
undetermined verdicts do not fail scripting), 1 when at least one check
reported fail, 2 on usage errors.  With a fixed --seed the --json output
is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import basis as fb
from .algebra import (
    algebra_of_censym,
    centre,
    check_witness,
    full_matrix_algebra,
    format_vector,
)
from .cellular import (
    cell_chain_even,
    cell_chain_odd,
    quasi_hereditary_chain_odd,
    verify_cell_chain,
)
from .frobenius import (
    FrobeniusSystem,
    separability_check,
    splitness_check,
    verify_frobenius_system,
)
from .linalg import FreenessUndetermined
from .matrices import Matrix, matrix_unit, symmetry_class
from .reports import FAIL, PASS, UNDETERMINED, UNKNOWN, Report
from .rings import Ring, RingError, ring_from_literal
from .structure import (
    endring_odd,
    iso_even,
    iso_odd_quotient,
    iso_s2,
    morita_column_iso,
    s3_presentation,
    wedderburn_split,
)

CHECK_NAMES = (
    "closure", "rank", "structure-constants", "frobenius", "separability",
    "split", "isos", "cellchain", "heredity", "centre",
)


def check_closure(ring: Ring, n: int, seed: int, batch: int = 100) -> Report:
    """All pairwise canonical-basis products and a seeded batch of random
    products stay centrosymmetric."""
    params = {"check": "closure", "n": n, "ring": ring.literal(), "seed": seed}
    basis = fb.canonical_basis(ring, n)
    for ixu, fu in basis:
        for ixv, fv in basis:
            try:
                fu * fv
            except ValueError:
                return Report("closure", params, FAIL,
                              counterexample={"pair": f"({ixu.label}, {ixv.label})"})
    rng = random.Random(seed)
    r = fb.rank_of(n)
    for t in range(batch):
        a = fb.from_coords(ring, n, [ring.sample(rng) for _ in range(r)])
        b = fb.from_coords(ring, n, [ring.sample(rng) for _ in range(r)])
        try:
            a * b
        except ValueError:
            return Report("closure", params, FAIL,
                          counterexample={"pair": f"random[{t}]"})
    return Report("closure", params, PASS,
                  witness={"basis_pairs": len(basis) ** 2, "random_pairs": batch})


def check_rank(ring: Ring, n: int, seed: int, batch: int = 100) -> Report:
    params = {"check": "rank", "n": n, "ring": ring.literal(), "seed": seed}
    idxs = fb.canonical_indices(n)
    expected = fb.rank_of(n)
    if len(idxs) != expected:
        return Report("rank", params, FAIL,
                      counterexample={"size": len(idxs), "expected": expected})
    rng = random.Random(seed)
    for t in range(batch):
        v = [ring.sample(rng) for _ in range(expected)]
        if fb.coords(fb.from_coords(ring, n, v)) != v:
            return Report("rank", params, FAIL,
                          counterexample={"round_trip": f"random[{t}]"})
    return Report("rank", params, PASS, witness={"rank": expected})


def check_structure_constants(ring: Ring, n: int) -> Report:
    """The matrix-unit oracle tensor agrees with the closed product formula
    on all applicable canonical index pairs."""
    params = {"check": "structure-constants", "n": n, "ring": ring.literal()}
    idxs = fb.canonical_indices(n)
    table = fb.structure_constants(ring, n)
    applicable = 0
    for u, a in enumerate(idxs):
        for v, b in enumerate(idxs):
            f = fb.formula_product(ring, n, a, b)
            if f is None:
                continue
            applicable += 1
            oracle = {(idxs[w].i, idxs[w].j): c for w, c in table.get((u, v), ())}
            if oracle != f:
                return Report(
                    "structure-constants", params, FAIL,
                    counterexample={"pair": f"({a.label}, {b.label})",
                                    "oracle": str(oracle), "formula": str(f)})
    return Report("structure-constants", params, PASS,
                  witness={"formula_pairs": applicable, "total_pairs": len(idxs) ** 2})


def check_isos(ring: Ring, n: int) -> list:
    reports = []
    if n == 2:
        reports.append(check_witness(iso_s2(ring), {"n": n, "ring": ring.literal()}))
    if n == 3:
        _, w = s3_presentation(ring)
        reports.append(check_witness(w, {"n": n, "ring": ring.literal()}))
    if n >= 2 and n % 2 == 0:
        reports.append(check_witness(iso_even(ring, n // 2),
                                     {"n": n, "ring": ring.literal()}))
    if n >= 3 and n % 2 == 1:
        reports.append(check_witness(iso_odd_quotient(ring, n // 2),
                                     {"n": n, "ring": ring.literal()}))
    if n >= 4:
        for j in range(2, n // 2 + 1):
            reports.append(check_witness(morita_column_iso(ring, n, j),
                                         {"n": n, "ring": ring.literal(), "j": j}))
    if n >= 5 and n % 2 == 1:
        _, w = endring_odd(ring, n)
        reports.append(check_witness(w, {"n": n, "ring": ring.literal()}))
    if ring.invert_two() is not None:
        try:
            ws = wedderburn_split(ring, n)
            reports.append(check_witness(ws.witness, {"n": n, "ring": ring.literal()}))
        except (ValueError, FreenessUndetermined) as exc:
            reports.append(Report("witness:wedderburn", {"n": n, "ring": ring.literal()},
                                  FAIL, counterexample={"reason": str(exc)}))
    return reports


def check_cellchain(ring: Ring, n: int) -> Report:
    chain = cell_chain_odd(ring, n) if n % 2 else cell_chain_even(ring, n)
    return verify_cell_chain(chain)


def check_heredity(ring: Ring, n: int) -> Report:
    params = {"check": "heredity", "n": n, "ring": ring.literal()}
    if n % 2 == 0:
        return Report("heredity", params, UNKNOWN,
                      witness={"note": "quasi-heredity is only claimed for odd sizes"})
    if not ring.is_field:
        return Report("heredity", params, UNDETERMINED,
                      witness={"note": "heredity chains are computed over fields"})
    _, report = quasi_hereditary_chain_odd(ring, n)
    return report


def check_centre(ring: Ring, n: int) -> Report:
    a = algebra_of_censym(ring, n)
    candidates = [a.unit, fb.exchange_coords(ring, n)]
    rep = centre(a, candidates=candidates)
    rep.params["n"] = n
    return rep


def run_check(name: str, ring: Ring, n: int, seed: int) -> list:
    if name == "closure":
        return [check_closure(ring, n, seed)]
    if name == "rank":
        return [check_rank(ring, n, seed)]
    if name == "structure-constants":
        return [check_structure_constants(ring, n)]
    if name == "frobenius":
        return [verify_frobenius_system(FrobeniusSystem(ring, n), seed=seed)]
    if name == "separability":
        return [separability_check(FrobeniusSystem(ring, n))]
    if name == "split":
        return [splitness_check(FrobeniusSystem(ring, n))]
    if name == "isos":
        return check_isos(ring, n)
    if name == "cellchain":
        return [check_cellchain(ring, n)]
    if name == "heredity":
        return [check_heredity(ring, n)]
    if name == "centre":
        return [check_centre(ring, n)]
    raise RingError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")


def matrix_file_report(path: str) -> Report:
    with open(path, "r", encoding="utf-8") as fh:
        m = Matrix.from_text(fh.read())
    params = {"check": "matrix-file", "n": m.n, "ring": m.ring.literal(), "file": path}
    flags = sorted(symmetry_class(m))
    witness = {"flags": flags}
    if "centrosymmetric" in flags:
        cm = fb.CentroMatrix(m)
        cs = fb.coords(cm)
        witness["coords"] = [m.ring.format(c) for c in cs]
        ok = fb.from_coords(m.ring, m.n, cs) == cm
        return Report("matrix-file", params, PASS if ok else FAIL, witness=witness)
    return Report("matrix-file", params, PASS, witness=witness)


def emit(reports: list, as_json: bool) -> int:
    if as_json:
        doc = {"reports": [r.to_json_dict() for r in reports]}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for r in reports:
            print(r.summary_line())
            if r.verdict == FAIL:
                if r.clauses:
                    bad = {k: v for k, v in r.clauses.items() if v != PASS}
                    print(f"    clauses: {bad}")
                if r.counterexample:
                    print(f"    counterexample: {r.counterexample}")
    return 1 if any(r.verdict == FAIL for r in reports) else 0


def cmd_verify(args) -> int:
    ring = ring_from_literal(args.ring)
    reports = []
    if args.matrix_file:
        reports.append(matrix_file_report(args.matrix_file))
        if not args.check:
            return emit(reports, args.json)
    checks = []
    for chunk in args.check or ["all"]:
        checks.extend(c.strip() for c in chunk.split(",") if c.strip())
    if "all" in checks:
        checks = list(CHECK_NAMES)
    for c in checks:
        if c not in CHECK_NAMES:
            raise RingError(f"unknown check {c!r}; choose from {', '.join(CHECK_NAMES)}")
    sizes = [args.n] if args.n else list(range(1, 9))
    for n in sizes:
        for c in checks:
            reports.extend(run_check(c, ring, n, args.seed))
    return emit(reports, args.json)


def cmd_table(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n or 3
    a = algebra_of_censym(ring, n)
    rows = []
    for u, lu in enumerate(a.labels):
        for v, lv in enumerate(a.labels):
            rows.append((lu, lv, a.format_element(a.mul_basis(u, v))))
    if args.json:
        doc = {
            "n": n,
            "ring": ring.literal(),
            "labels": list(a.labels),
            "products": [{"left": lu, "right": lv, "product": p} for lu, lv, p in rows],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for lu, lv, p in rows:
            print(f"{lu} * {lv} = {p}")
    return 0


ISO_KINDS = ("s2", "s3", "even", "odd-quotient", "wedderburn", "morita", "endring")


def cmd_iso(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n or 2
    params = {"n": n, "ring": ring.literal()}
    reports = []
    if args.kind == "s2":
        reports.append(check_witness(iso_s2(ring), params))
    elif args.kind == "s3":
        _, w = s3_presentation(ring)
        reports.append(check_witness(w, params))
    elif args.kind == "even":
        if n % 2:
            raise RingError("--kind even needs an even --n")
        reports.append(check_witness(iso_even(ring, n // 2), params))
    elif args.kind == "odd-quotient":
        if n % 2 == 0 or n < 3:
            raise RingError("--kind odd-quotient needs an odd --n >= 3")
        reports.append(check_witness(iso_odd_quotient(ring, n // 2), params))
    elif args.kind == "wedderburn":
        ws = wedderburn_split(ring, n)
        rep = check_witness(ws.witness, params)
        rep.witness = {
            "plus_rank": ws.plus_algebra.rank,
            "minus_rank": ws.minus_algebra.rank,
            "p_plus": format_vector(ring, ws.witness.source.labels, ws.p_plus),
            "p_minus": format_vector(ring, ws.witness.source.labels, ws.p_minus),
        }
        reports.append(rep)
    elif args.kind == "morita":
        if n < 4:
            raise RingError("--kind morita needs --n >= 4")
        for j in range(2, n // 2 + 1):
            reports.append(check_witness(morita_column_iso(ring, n, j), dict(params, j=j)))
    elif args.kind == "endring":
        if n < 5 or n % 2 == 0:
            raise RingError("--kind endring needs an odd --n >= 5")
        _, w = endring_odd(ring, n)
        reports.append(check_witness(w, params))
    return emit(reports, args.json)


def cmd_frobenius(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n or 2
    sysm = FrobeniusSystem(ring, n)
    reports = [
        verify_frobenius_system(sysm, seed=args.seed),
        separability_check(sysm),
        splitness_check(sysm),
    ]
    return emit(reports, args.json)


def cmd_cellchain(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n or 2
    chain = cell_chain_odd(ring, n) if n % 2 else cell_chain_even(ring, n)
    report = verify_cell_chain(chain)
    if not args.json:
        for p, layer in enumerate(chain.layers, start=1):
            stage = layer.stage
            print(f"layer {p}: delta rank {layer.witness.delta_rank}, "
                  f"ideal rank {len(layer.witness.j_basis)}")
            print("  delta: " + "; ".join(
                stage.format_element(v) for v in layer.witness.delta_basis))
    return emit([report], args.json)


def cmd_centre(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n or 2
    return emit([check_centre(ring, n)], args.json)


def cmd_demo_bisymmetric(args) -> int:
    """The bisymmetric non-closure example over the integers at size 3."""
    ring = ring_from_literal("int")
    u = (matrix_unit(ring, 3, 1, 1) + matrix_unit(ring, 3, 1, 3)
         + matrix_unit(ring, 3, 3, 1) + matrix_unit(ring, 3, 3, 3))
    v = (matrix_unit(ring, 3, 1, 2) + matrix_unit(ring, 3, 2, 1)
         + matrix_unit(ring, 3, 2, 3) + matrix_unit(ring, 3, 3, 2))
    product = u * v
    expected = (matrix_unit(ring, 3, 1, 2) + matrix_unit(ring, 3, 3, 2)).scale(2)
    flags_u = sorted(symmetry_class(u))
    flags_v = sorted(symmetry_class(v))
    flags_p = sorted(symmetry_class(product))
    ok = (
        product == expected
        and "bisymmetric" in flags_u
        and "bisymmetric" in flags_v
        and "bisymmetric" not in flags_p
        and "centrosymmetric" in flags_p
    )
    report = Report(
        "bisymmetric-non-closure", {"n": 3, "ring": "int"},
        PASS if ok else FAIL,
        witness={
            "left_flags": flags_u,
            "right_flags": flags_v,
            "product_flags": flags_p,
            "product": "2*(e1_2 + e3_2)",
        },
        counterexample=None if ok else {"product": repr(product)},
    )
    return emit([report], args.json)


def cmd_dump_algebra(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n or 2
    if args.kind == "censym":
        a = algebra_of_censym(ring, n)
    else:
        a = full_matrix_algebra(ring, n)
    print(json.dumps(a.to_json_dict(), sort_keys=True, indent=2))
    return 0


def positive_int(text: str) -> int:
    """argparse type for matrix sizes: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"matrix size must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censym",
        description="Exact centrosymmetric matrix algebras over pluggable "
                    "commutative rings, with machine-checked witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_n=None):
        p.add_argument("--n", type=positive_int, default=default_n,
                       help="matrix size (default: the 1..8 grid for verify)")
        p.add_argument("--ring", default="int",
                       help="ring literal: int, rat, zmod:<m>, gf:<p>, c2:<ring>")
        p.add_argument("--json", action="store_true", help="emit a JSON report document")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the random-matrix batches")

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--check", action="append",
                   help=f"subset of: {', '.join(CHECK_NAMES)}, or all "
                        "(repeatable / comma separated)")
    p.add_argument("--matrix-file", help="also classify a matrix from a text file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="multiplication table of the canonical basis")
    common(p, default_n=3)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("iso", help="build and check one isomorphism witness")
    common(p, default_n=2)
    p.add_argument("--kind", required=True, choices=ISO_KINDS)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("frobenius", help="Frobenius system, separability, splitness")
    common(p, default_n=2)
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("cellchain", help="build and verify the cell chain")
    common(p, default_n=2)
    p.set_defaults(func=cmd_cellchain)

    p = sub.add_parser("centre", help="centre of the algebra")
    common(p, default_n=2)
    p.set_defaults(func=cmd_centre)

    p = sub.add_parser("demo-bisymmetric",
                       help="the bisymmetric non-closure example at size 3")
    common(p, default_n=3)
    p.set_defaults(func=cmd_demo_bisymmetric)

    p = sub.add_parser("dump-algebra", help="JSON dump of a structure algebra")
    common(p, default_n=2)
    p.add_argument("--kind", default="censym", choices=("censym", "matrix"))
    p.set_defaults(func=cmd_dump_algebra)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RingError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
