"""Command-line front end.

Commands: verify, table, iso, frobenius, cellchain, centre,
demo-bisymmetric, dump-algebra.  Each command takes only the flags it
reads: --n and --ring on every command but demo-bisymmetric, --json on
every command but dump-algebra (which always prints JSON), --seed on
verify and frobenius, --check and --matrix-file on verify, --kind on iso
and dump-algebra.  Exit status: 0 when nothing failed (unknown and
undetermined verdicts do not fail scripting), 1 when at least one check
reported fail, 2 on usage errors and 3 on an internal error.  Every usage
error (an empty --check list, an --n that an iso kind is not built for, a
Wedderburn split over a ring without an invertible 2, a bad ring literal
or matrix file) is decided before the first check runs and raised as a
``RingError``, or an ``OSError`` from reading the matrix file.  Any other
exception is an engine fault: inside a check it prints ``internal error
in <check> at n=<n>, ring=<ring>: ...`` on stderr.  No check draws
random input (the frobenius report records --seed and its batch in its
params), so the --json output is byte-identical across runs.

``CHECKS`` maps each verify check to its reports, and ``ISO_KINDS`` each
iso kind to its sizes and builder for both ``iso`` and ``verify --check
isos``.  ``frobenius`` and ``centre`` are ``verify`` at one size with a
fixed check list.  :func:`main` builds its argument parser once per
process (the ``cmd_*`` functions are bound at that first build) and runs
each command inside one :func:`censym.algebra.shared_builds` block, so the
morita columns of ``iso`` share one S_n and one S*f_1.  ``verify`` nests
one block per size inside it: the checks of a size share one
centrosymmetric algebra (and so build its structure-constant table once)
and one odd quotient, and each size's builds are dropped before the next
size runs; no algebra or product is cached across sizes or calls.  A check
named twice runs once, at its first position.  In text mode a
report prints its summary line, the flags and coordinates of a
matrix-file report, and the failing clauses and counterexample of a fail.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple

from . import basis as fb
from .algebra import (
    algebra_of_censym,
    centre,
    check_witness,
    full_matrix_algebra,
    format_vector,
    shared_builds,
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

def check_closure(ring: Ring, n: int) -> Report:
    """The product is bilinear, so centrosymmetric matrices are closed under
    it once every basis product f_u f_v is centrosymmetric.  Building the
    algebra builds each f_u f_v from unit cells and compares every cell with
    its mirror (c*P*c == P), so closure holds exactly when the algebra builds."""
    params = {"check": "closure", "n": n, "ring": ring.literal()}
    try:
        algebra_of_censym(ring, n)
    except fb.NotClosed as exc:
        return Report("closure", params, FAIL, counterexample={"pair": exc.pair})
    return Report("closure", params, PASS, witness={"basis_pairs": fb.rank_of(n) ** 2})


def check_rank(ring: Ring, n: int) -> Report:
    """ceil(n^2/2) basis elements, and coords inverts from_coords on each
    basis coordinate vector, hence on every vector: both maps are linear.
    Each round trip is read from its non-zero cells, so the check is O(r)."""
    params = {"check": "rank", "n": n, "ring": ring.literal()}
    idxs = fb.canonical_indices(n)
    expected = fb.rank_of(n)
    if len(idxs) != expected:
        return Report("rank", params, FAIL,
                      counterexample={"size": len(idxs), "expected": expected})
    for u, ix in enumerate(idxs):
        e = {u: ring.one()}
        if fb.coords_sparse(fb.from_coords(ring, n, e)) != e:
            return Report("rank", params, FAIL, counterexample={"round_trip": ix.label})
    return Report("rank", params, PASS, witness={"rank": expected})


def check_structure_constants(ring: Ring, n: int) -> Report:
    """The matrix-unit oracle tensor, read from the algebra's products, agrees
    with the closed product formula on all applicable canonical index pairs.
    The formula makes f_a * f_b zero unless b.i is a.j or n+1-a.j, so one
    walk in basis order visits, for each u, the v on those rows and the v
    of u's non-zero products; an applicable pair off the rows has formula
    {}, and the counterexample is the row-major-first failing pair.  An odd
    n leaves out the 2r-1 pairs with the middle idempotent as a factor and
    the (mid-1)^2 other middle-row-by-middle-column pairs of the r^2."""
    params = {"check": "structure-constants", "n": n, "ring": ring.literal()}
    idxs = fb.canonical_indices(n)
    by_left = algebra_of_censym(ring, n).by_left
    by_row, ij = {}, []
    for v, b in enumerate(idxs):
        by_row.setdefault(b.i, []).append(v)
        ij.append((b.i, b.j))
    for u, a in enumerate(idxs):
        row = by_left.get(u, {})
        for v in sorted({*by_row.get(a.j, ()), *by_row.get(n + 1 - a.j, ()), *row}):
            f = fb.formula_product(ring, n, a, idxs[v])
            if f is None:
                continue
            oracle = {}
            for w, c in row.get(v, {}).items():
                oracle[ij[w]] = c
            if oracle != f:
                return Report(
                    "structure-constants", params, FAIL,
                    counterexample={"pair": f"({a.label}, {idxs[v].label})",
                                    "oracle": str(oracle), "formula": str(f)})
    r, mid = len(idxs), fb.half_ceil(n)
    applicable = r * r if n % 2 == 0 else r * r - (2 * r - 1) - (mid - 1) ** 2
    return Report("structure-constants", params, PASS,
                  witness={"formula_pairs": applicable, "total_pairs": r * r})


class IsoKind(namedtuple("IsoKind", "sizes applies build default_n", defaults=(2,))):
    """One family of isomorphism witnesses: the sizes it is built for, in
    words and as the test ``applies(n)``, a builder ``build(ring, n)`` of
    (witness, extra report params) pairs, and the size ``iso`` uses without --n."""

    __slots__ = ()


# ``verify --check isos`` runs the kinds in this order
ISO_KINDS = {
    "s2": IsoKind("--n 2", lambda n: n == 2, lambda ring, n: [(iso_s2(ring), {})]),
    "s3": IsoKind("--n 3", lambda n: n == 3,
                  lambda ring, n: [(s3_presentation(ring)[1], {})], default_n=3),
    "even": IsoKind("an even --n", lambda n: n % 2 == 0,
                    lambda ring, n: [(iso_even(ring, n // 2), {})]),
    "odd-quotient": IsoKind("an odd --n >= 3", lambda n: n >= 3 and n % 2 == 1,
                            lambda ring, n: [(iso_odd_quotient(ring, n // 2), {})]),
    "morita": IsoKind("--n >= 4", lambda n: n >= 4, lambda ring, n: [
        (morita_column_iso(ring, n, j), {"j": j}) for j in range(2, n // 2 + 1)]),
    "endring": IsoKind("an odd --n >= 5", lambda n: n >= 5 and n % 2 == 1,
                       lambda ring, n: [(endring_odd(ring, n)[1], {})]),
    "wedderburn": IsoKind("any --n", lambda n: True,
                          lambda ring, n: [(wedderburn_split(ring, n).witness, {})]),
}


def check_isos(ring: Ring, n: int) -> list:
    """Every iso kind that applies at size n; Wedderburn only when 2 is
    invertible, with a construction error there reported as its fail."""
    params = {"n": n, "ring": ring.literal()}
    reports = []
    for kind, iso in ISO_KINDS.items():
        if not iso.applies(n) or kind == "wedderburn" and ring.invert_two() is None:
            continue
        try:
            built = iso.build(ring, n)
        except (ValueError, FreenessUndetermined) as exc:
            if kind != "wedderburn":
                raise
            reports.append(Report("witness:wedderburn", params, FAIL,
                                  counterexample={"reason": str(exc)}))
            continue
        reports.extend(check_witness(w, dict(params, **extra)) for w, extra in built)
    return reports


def cell_chain(ring: Ring, n: int):
    """The odd or the even cell chain, by the parity of n."""
    return cell_chain_odd(ring, n) if n % 2 else cell_chain_even(ring, n)


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


CHECKS = {
    "closure": lambda ring, n, seed: [check_closure(ring, n)],
    "rank": lambda ring, n, seed: [check_rank(ring, n)],
    "structure-constants": lambda ring, n, seed: [check_structure_constants(ring, n)],
    "frobenius": lambda ring, n, seed: [
        verify_frobenius_system(FrobeniusSystem(ring, n), seed=seed)],
    "separability": lambda ring, n, seed: [separability_check(FrobeniusSystem(ring, n))],
    "split": lambda ring, n, seed: [splitness_check(FrobeniusSystem(ring, n))],
    "isos": lambda ring, n, seed: check_isos(ring, n),
    "cellchain": lambda ring, n, seed: [verify_cell_chain(cell_chain(ring, n))],
    "heredity": lambda ring, n, seed: [check_heredity(ring, n)],
    "centre": lambda ring, n, seed: [check_centre(ring, n)],
}
CHECK_NAMES = tuple(CHECKS)


class InternalError(Exception):
    """An exception raised inside a check: an engine fault, not a usage error."""


def run_check(name: str, ring: Ring, n: int, seed: int) -> list:
    try:
        return CHECKS[name](ring, n, seed)
    except Exception as exc:
        raise InternalError(f"internal error in {name} at n={n}, ring={ring.literal()}: "
                            f"{type(exc).__name__}: {exc}") from exc


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
            # the matrix-file report's symmetry flags and canonical coordinates
            for key in ("flags", "coords"):
                if key in (r.witness or {}):
                    print(f"    {key}: {' '.join(r.witness[key]) or '(none)'}")
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
    if not checks:
        raise RingError(f"--check names no check; choose from {', '.join(CHECK_NAMES)}")
    for c in checks:
        if c not in CHECK_NAMES and c != "all":
            raise RingError(f"unknown check {c!r}; choose from {', '.join(CHECK_NAMES)}")
    if "all" in checks:
        checks = list(CHECK_NAMES)
    sizes = [args.n] if args.n else list(range(1, 9))
    for n in sizes:
        with shared_builds():
            for c in dict.fromkeys(checks):
                reports.extend(run_check(c, ring, n, args.seed))
    return emit(reports, args.json)


def cmd_table(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n
    a = algebra_of_censym(ring, n)
    rows = []
    for u, lu in enumerate(a.labels):
        for v, lv in enumerate(a.labels):
            rows.append((lu, lv, a.format_element(a.mul_basis_sparse(u, v))))
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


def cmd_iso(args) -> int:
    ring = ring_from_literal(args.ring)
    iso = ISO_KINDS[args.kind]
    n = args.n or iso.default_n
    if not iso.applies(n):
        raise RingError(f"--kind {args.kind} needs {iso.sizes}")
    if args.kind == "wedderburn" and ring.invert_two() is None:
        raise RingError(f"the splitting construction requires 2 invertible in {ring.literal()}")
    params = {"n": n, "ring": ring.literal()}
    if args.kind != "wedderburn":
        return emit([check_witness(w, dict(params, **extra))
                     for w, extra in iso.build(ring, n)], args.json)
    ws = wedderburn_split(ring, n)
    rep = check_witness(ws.witness, params)
    rep.witness = {
        "plus_rank": ws.plus_algebra.rank,
        "minus_rank": ws.minus_algebra.rank,
        "p_plus": format_vector(ring, ws.witness.source.labels, ws.p_plus),
        "p_minus": format_vector(ring, ws.witness.source.labels, ws.p_minus),
    }
    return emit([rep], args.json)


def cmd_cellchain(args) -> int:
    ring = ring_from_literal(args.ring)
    n = args.n
    chain = cell_chain(ring, n)
    report = verify_cell_chain(chain)
    if not args.json:
        for p, layer in enumerate(chain.layers, start=1):
            w = layer.witness
            print(f"layer {p}: delta rank {w.delta_rank}, ideal rank {len(w.j_basis)}")
            print("  delta: " + "; ".join(w.algebra.format_element(v) for v in w.delta_basis))
    return emit([report], args.json)


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
    n = args.n
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call, which binds the cmd_* functions."""
    parser = argparse.ArgumentParser(
        prog="censym",
        description="Exact centrosymmetric matrix algebras over pluggable "
                    "commutative rings, with machine-checked witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_n=None, n_default_help=None):
        p.add_argument("--n", type=positive_int, default=default_n,
                       help=f"matrix size (default: {n_default_help or default_n})")
        p.add_argument("--ring", default="int",
                       help="ring literal: int, rat, zmod:<m>, gf:<p>, c2:<ring>")

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report document")

    def seed_flag(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the frobenius report's params; "
                            "no check draws random input")

    p = sub.add_parser("verify", help="run verification suites")
    common(p, n_default_help="every size 1..8")
    json_flag(p)
    seed_flag(p)
    p.add_argument("--check", action="append",
                   help=f"subset of: {', '.join(CHECK_NAMES)}, or all "
                        "(repeatable / comma separated)")
    p.add_argument("--matrix-file", help="also classify a matrix from a text file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="multiplication table of the canonical basis")
    common(p, default_n=3)
    json_flag(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("iso", help="build and check one isomorphism witness")
    common(p, n_default_help="3 for --kind s3, 2 for every other kind")
    json_flag(p)
    p.add_argument("--kind", required=True, choices=ISO_KINDS,
                   help="; ".join(f"{k}: {v.sizes}" for k, v in ISO_KINDS.items()))
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("frobenius", help="Frobenius system, separability, splitness")
    common(p, default_n=2)
    json_flag(p)
    seed_flag(p)
    p.set_defaults(func=cmd_verify, check=("frobenius,separability,split",), matrix_file=None)

    p = sub.add_parser("cellchain", help="build and verify the cell chain")
    common(p, default_n=2)
    json_flag(p)
    p.set_defaults(func=cmd_cellchain)

    p = sub.add_parser("centre", help="centre of the algebra")
    common(p, default_n=2)
    json_flag(p)
    # verify reads a seed, which the centre check ignores
    p.set_defaults(func=cmd_verify, check=("centre",), matrix_file=None, seed=0)

    p = sub.add_parser("demo-bisymmetric",
                       help="the bisymmetric non-closure example at size 3")
    json_flag(p)
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
        with shared_builds():
            return args.func(args)
    except (RingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
