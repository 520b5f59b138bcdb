import argparse
import json
from collections import Counter

import pytest

from censym import basis as fb
from censym import cli
from censym.algebra import (
    LinearMapWitness,
    StructureAlgebra,
    algebra_of_censym,
    check_witness,
    full_matrix_algebra,
    shared_builds,
)
from censym.cli import CHECK_NAMES, ISO_KINDS, build_parser, check_closure, check_rank, main
from censym.frobenius import verify_frobenius_system
from censym.linalg import FreenessUndetermined
from censym.rings import ring_from_literal
from censym.structure import odd_quotient

from test_frobenius import NEGATIVE_CONTROLS

Z = ring_from_literal("int")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_frobenius_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--ring", "int",
                       "--check", "frobenius")
    assert code == 0
    assert "PASS" in out and "frobenius-system" in out


def test_verify_split_unknown_is_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--ring", "int",
                       "--check", "split")
    assert code == 0
    assert "UNKNOWN" in out


def test_verify_cellchain_even_gf2(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--ring", "gf:2",
                       "--check", "cellchain", "--json")
    assert code == 0
    doc = json.loads(out)
    (rep,) = doc["reports"]
    assert rep["verdict"] == "pass"
    assert rep["witness"]["layer_delta_ranks"] == [2, 2]


def verify_reports(capsys, ring, n, checks):
    code, out, _ = run(capsys, "verify", "--json", "--ring", ring, "--n", str(n),
                       "--check", ",".join(checks))
    assert code == 0
    return json.loads(out)["reports"]


@pytest.mark.parametrize("ring", ["int", "gf:5", "zmod:4", "c2:int"])
@pytest.mark.parametrize("n,checks", [(3, CHECK_NAMES), (4, CHECK_NAMES), (5, CHECK_NAMES),
                                      (9, ("isos", "cellchain", "heredity", "centre"))],
                         ids=["3", "4", "5", "9"])
def test_shared_builds_do_not_leak_between_checks(capsys, ring, n, checks):
    """A check shares its size's algebra and odd quotient with the checks
    before it; its reports must be those it gives when run alone."""
    alone = {c: verify_reports(capsys, ring, n, [c]) for c in checks}
    for order in (list(checks), list(reversed(checks))):
        assert verify_reports(capsys, ring, n, order) == [
            rep for c in order for rep in alone[c]]


def test_shared_builds_share_within_the_scope_only():
    with shared_builds():
        a, q = algebra_of_censym(Z, 5), odd_quotient(Z, 2)
        assert algebra_of_censym(Z, 5) is a and odd_quotient(Z, 2) is q
        assert q[0] is a and algebra_of_censym(ring=Z, n=5) is algebra_of_censym(ring=Z, n=5)
        assert algebra_of_censym(Z, 3) is not a and odd_quotient(Z, 1) is not q
    assert algebra_of_censym(Z, 5) is not a and odd_quotient(Z, 2) is not q
    assert algebra_of_censym(Z, 5) is not algebra_of_censym(Z, 5)


@pytest.mark.parametrize("n,sizes", [(4, [4]), (5, [5, 3])], ids=["4", "5"])
def test_verify_builds_one_table_per_size(capsys, monkeypatch, n, sizes):
    """The checks of a size read one table of product rows, built with the
    size's shared algebra; at odd n the endomorphism-ring iso adds n = 3."""
    calls = []
    real = fb.structure_rows
    monkeypatch.setattr(fb, "structure_rows",
                        lambda ring, m: calls.append((ring, m)) or real(ring, m))
    code, _, _ = run(capsys, "verify", "--n", str(n), "--ring", "int",
                     "--check", "closure,structure-constants,isos,cellchain,centre")
    assert code == 0
    assert Counter(calls) == Counter((Z, m) for m in sizes)


def test_verify_multiple_checks(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--ring", "gf:5",
                       "--check", "closure,rank", "--check", "centre")
    assert code == 0
    assert out.count("PASS") == 3


def test_closure_fails_when_a_basis_product_leaves_the_algebra(capsys, monkeypatch):
    """Negative control: basis elements without their mirror cell multiply
    out of the centrosymmetric matrices, and closure names the pair."""
    real = fb.unit_cells
    monkeypatch.setattr(fb, "unit_cells", lambda n, i, j: real(n, i, j)[:1])
    rep = check_closure(Z, 2)
    assert rep.verdict == "fail"
    assert rep.counterexample == {"pair": "(f1_1, f1_1)"}
    code, out, _ = run(capsys, "verify", "--check", "closure", "--json")
    assert code == 1
    reports = json.loads(out)["reports"]
    assert [r["verdict"] for r in reports] == ["pass"] + ["fail"] * 7  # n = 1 has one cell
    assert all(set(r["counterexample"]) == {"pair"} for r in reports[1:])


def test_rank_fails_when_coords_loses_a_coordinate(capsys, monkeypatch):
    """Negative control: a coordinate reader that zeroes the last coordinate
    breaks the round trip on the last basis element, and rank names it."""
    real = fb.coords_sparse
    monkeypatch.setattr(fb, "coords_sparse", lambda a: {
        u: c for u, c in real(a).items() if u != fb.rank_of(a.n) - 1})
    rep = check_rank(Z, 3)
    assert rep.verdict == "fail"
    assert rep.counterexample == {"round_trip": "f2_2"}
    code, _, _ = run(capsys, "verify", "--n", "3", "--check", "rank")
    assert code == 1


def test_structure_constants_fail_when_the_formula_drops_a_term(capsys, monkeypatch):
    """Negative control: a closed formula missing the (1, 3) term of
    f1_2 * f2_1 disagrees with the oracle, and the report names the pair."""
    real = fb.formula_product

    def dropped(ring, n, a, b):
        f = real(ring, n, a, b)
        if (a.label, b.label) == ("f1_2", "f2_1"):
            f.pop((1, 3))
        return f

    monkeypatch.setattr(fb, "formula_product", dropped)
    code, out, _ = run(capsys, "verify", "--json", "--n", "3", "--ring", "int",
                       "--check", "structure-constants")
    assert code == 1
    (rep,) = json.loads(out)["reports"]
    assert rep["verdict"] == "fail"
    assert rep["counterexample"] == {"formula": "{(1, 1): 1}",
                                     "oracle": "{(1, 1): 1, (1, 3): 1}",
                                     "pair": "(f1_2, f2_1)"}


@pytest.mark.parametrize("extra,failing", [
    ((0, 4), "(f1_1, f2_1)"),  # before the dropped term in row-major order
    ((6, 0), "(f1_2, f2_1)"),  # after it: the formula's mismatch comes first
], ids=["off-row-first", "mismatch-first"])
def test_structure_constants_fail_on_an_entry_off_the_formula_rows(
        capsys, monkeypatch, extra, failing):
    """Negative control: a table entry where the formula applies but neither
    kron guard holds (b.i is neither a.j nor n+1-a.j) fails the walk over
    the table's keys with the formula {}; with a dropped formula term at
    (f1_2, f2_1) as well, the row-major-first failing pair is named."""
    real_rows, real_formula = fb.structure_rows, fb.formula_product

    def extended(ring, n):
        rows = real_rows(ring, n)
        rows.setdefault(extra[0], {})[extra[1]] = {0: ring.one()}
        return rows

    def dropped(ring, n, a, b):
        f = real_formula(ring, n, a, b)
        if (a.label, b.label) == ("f1_2", "f2_1"):
            f.pop((1, 1))
        return f

    monkeypatch.setattr(fb, "structure_rows", extended)
    monkeypatch.setattr(fb, "formula_product", dropped)
    code, out, _ = run(capsys, "verify", "--json", "--n", "4", "--ring", "int",
                       "--check", "structure-constants")
    assert code == 1
    (rep,) = json.loads(out)["reports"]
    assert rep["verdict"] == "fail"
    assert rep["counterexample"] == {"pair": failing, "oracle": "{(1, 1): 1}",
                                     "formula": "{}"}


@pytest.mark.parametrize("extra,failing", [
    ((12, 0), None),  # f3_3 * f1_1: the middle idempotent first
    ((0, 12), None),  # f1_1 * f3_3: the middle idempotent second
    ((10, 7), None),  # f3_1 * f2_3: middle row by middle column
    ((0, 5), "(f1_1, f2_1)"),  # applicable, and f2_1 is off f1_1's rows
], ids=["middle-first", "middle-second", "middle-row-column", "off-row"])
def test_structure_constants_at_odd_n_skip_only_pairs_the_formula_leaves_out(
        monkeypatch, extra, failing):
    """At n = 5 an oracle entry the formula does not apply to is ignored,
    and one on an applicable pair off the formula rows fails with {}."""
    real = fb.structure_rows

    def extended(ring, n):
        rows = real(ring, n)
        assert extra[1] not in rows.get(extra[0], {})
        rows.setdefault(extra[0], {})[extra[1]] = {0: ring.one()}
        return rows

    monkeypatch.setattr(fb, "structure_rows", extended)
    rep = cli.check_structure_constants(Z, 5)
    if failing is None:
        assert rep.verdict == "pass"
        assert rep.witness == {"formula_pairs": 140, "total_pairs": 169}
    else:
        assert rep.verdict == "fail"
        assert rep.counterexample == {"pair": failing, "oracle": "{(1, 1): 1}",
                                      "formula": "{}"}


@pytest.mark.parametrize("n,calls", [(9, 349), (10, 500)])
def test_structure_constants_walk_visits_only_the_formula_rows(monkeypatch, n, calls):
    """On a correct table every product lies on the formula rows, so the
    walk calls the formula once per pair of those rows and on no other."""
    seen = Counter()
    real = fb.formula_product
    monkeypatch.setattr(fb, "formula_product",
                        lambda ring, m, a, b: seen.update([(a, b)]) or real(ring, m, a, b))
    assert cli.check_structure_constants(Z, n).verdict == "pass"
    idxs = fb.canonical_indices(n)
    assert seen == Counter((a, b) for a in idxs for b in idxs if b.i in (a.j, n + 1 - a.j))
    assert sum(seen.values()) == calls


def test_formula_pairs_is_the_count_of_applicable_pairs():
    """The closed count r^2, less 2r-1 and (mid-1)^2 at odd n, is the number
    of pairs the formula applies to."""
    for n in range(1, 14):
        idxs = fb.canonical_indices(n)
        rep = cli.check_structure_constants(Z, n)
        assert rep.verdict == "pass"
        assert rep.witness == {
            "formula_pairs": sum(fb.formula_applicable(n, a, b) for a in idxs for b in idxs),
            "total_pairs": len(idxs) ** 2}


def test_isos_report_a_wedderburn_construction_error_as_its_fail(capsys, monkeypatch):
    reason = "plus piece does not match full matrix structure constants"

    def broken(ring, n):
        raise ValueError(reason)

    monkeypatch.setattr(cli, "wedderburn_split", broken)
    code, out, _ = run(capsys, "verify", "--json", "--n", "3", "--ring", "rat",
                       "--check", "isos")
    assert code == 1
    reports = json.loads(out)["reports"]
    assert [(r["check"], r["verdict"]) for r in reports] == [
        ("witness:s3-block-presentation", "pass"),
        ("witness:odd-quotient-size-3", "pass"),
        ("witness:wedderburn", "fail"),
    ]
    assert reports[-1]["counterexample"] == {"reason": reason}
    assert reports[-1]["params"] == {"n": 3, "ring": "rat"}


def test_a_misused_witness_is_a_usage_error_not_a_fail(capsys, monkeypatch):
    # the witness is built by the engine, not by the user: misusing it is an
    # internal error (exit 3), neither a usage error nor a fail
    real = cli.iso_s2

    def unsupported(ring):
        w = real(ring)
        w.claimed = w.claimed + ("surjective",)
        return w

    monkeypatch.setattr(cli, "iso_s2", unsupported)
    code, out, err = run(capsys, "verify", "--n", "2", "--ring", "int", "--check", "isos")
    assert code == 3
    assert out == ""
    assert err == ("internal error in isos at n=2, ring=int: "
                   "ValueError: unsupported claim 'surjective'\n")


ENGINE_FAULTS = [ValueError("bad witness"), IndexError("list index out of range"),
                 FreenessUndetermined(0, "2")]


@pytest.mark.parametrize("fault", ENGINE_FAULTS, ids=lambda e: type(e).__name__)
def test_an_exception_inside_a_check_is_an_internal_error(capsys, monkeypatch, fault):
    """A ValueError, an IndexError or a FreenessUndetermined raised while a
    check runs exits 3 and names the check, its size and its ring; it is
    neither a usage error (2) nor a failed check (1)."""
    def broken(ring, m):
        raise fault

    monkeypatch.setattr(cli, "iso_even", broken)
    code, out, err = run(capsys, "verify", "--n", "4", "--check", "isos")
    assert code == 3
    assert out == ""
    assert err == f"internal error in isos at n=4, ring=int: {type(fault).__name__}: {fault}\n"


def test_an_exception_outside_a_check_is_an_internal_error(capsys, monkeypatch):
    def broken(ring, m):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "iso_even", broken)
    code, out, err = run(capsys, "iso", "--kind", "even", "--n", "4")
    assert code == 3
    assert out == ""
    assert err == "internal error: IndexError: list index out of range\n"


@pytest.mark.parametrize("ring", ["int", "rat", "zmod:4", "gf:2", "gf:5", "c2:int"])
def test_reports_do_not_depend_on_the_seed(capsys, ring):
    """closure and rank are exhaustive on the basis and the frobenius check
    reads its verdict off E's defect tables, so --seed reaches nothing but
    the frobenius-system report's params.seed."""
    for check in ("closure,rank", "frobenius"):
        docs = []
        for seed in ("0", "7"):
            code, out, _ = run(capsys, "verify", "--json", "--check", check,
                               "--ring", ring, "--seed", seed)
            assert code == 0
            doc = json.loads(out)
            for report in doc["reports"]:
                if report["check"] == "frobenius-system":
                    assert report["params"].pop("seed") == int(seed)
            docs.append(doc)
        assert docs[0] == docs[1]


def _reports_that_read_g(ring, n):
    """Every report that scans G, the generators of
    StructureAlgebra.generators(), as JSON, and the G of S_n: the verify
    checks that read G, each iso witness with its last row replaced by its
    first, the wrong-E Frobenius controls from n = 2, and validate() on
    S_n, on S_n with its last table entry dropped and on M_m."""
    with shared_builds():
        out = [r.to_json_dict() for check in ("isos", "cellchain", "heredity", "centre",
                                              "frobenius", "separability", "split")
               for r in cli.run_check(check, ring, n, 0)]
        for kind, iso in ISO_KINDS.items():
            if iso.applies(n) and (kind != "wedderburn" or ring.invert_two() is not None):
                out += [check_witness(LinearMapWitness(
                    w.source, w.target, [*w.matrix[:-1], w.matrix[0]], w.inverse,
                    w.claimed, w.name)).to_json_dict() for w, _ in iso.build(ring, n)]
        # the controls name cells of row 2
        out += [verify_frobenius_system(system(ring, n)).to_json_dict()
                for system in NEGATIVE_CONTROLS if n >= 2]
        a = algebra_of_censym(ring, n)
        table = a.table
        del table[max(table)]
        broken = StructureAlgebra(ring, a.labels, table, a.unit_sparse, a.invol_sparse,
                                  a._first)
        out += [a.validate(), broken.validate(),
                full_matrix_algebra(ring, (n + 1) // 2).validate()]
        return out, a.generators()


@pytest.mark.parametrize("n", range(1, 10))
def test_reports_do_not_depend_on_how_g_was_found(monkeypatch, any_ring, n):
    """G certifies what it scans whichever order the greedy tries the basis
    in, and a fail re-scans the whole basis: every verdict, clause and
    counterexample is the same with G found in basis-index order."""
    cycle_first, g = _reports_that_read_g(any_ring, n)
    init = StructureAlgebra.__init__

    def index_order(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._first = ()
    monkeypatch.setattr(StructureAlgebra, "__init__", index_order)
    index_first, h = _reports_that_read_g(any_ring, n)
    assert (g != h) == (n >= 3)
    assert cycle_first == index_first


def test_size_help_names_each_default():
    """Each subcommand's --n help names the size it uses without --n."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {}
    for name, p in sub.choices.items():
        for n_opt in (a for a in p._actions if a.dest == "n"):
            got[name] = (n_opt.default, n_opt.help)
    assert got == {
        "verify": (None, "matrix size (default: every size 1..8)"),
        "table": (3, "matrix size (default: 3)"),
        "iso": (None, "matrix size (default: 3 for --kind s3, 2 for every other kind)"),
        "frobenius": (2, "matrix size (default: 2)"),
        "cellchain": (2, "matrix size (default: 2)"),
        "centre": (2, "matrix size (default: 2)"),
        "dump-algebra": (2, "matrix size (default: 2)"),
    }
    assert {k: v.default_n for k, v in ISO_KINDS.items()} == {
        k: 3 if k == "s3" else 2 for k in ISO_KINDS}


UNREAD_FLAGS = [
    *([cmd, "--seed", "1"] for cmd in ("table", "cellchain", "centre", "demo-bisymmetric",
                                       "dump-algebra")),
    ["iso", "--kind", "s2", "--seed", "1"],
    ["demo-bisymmetric", "--n", "5"],
    ["demo-bisymmetric", "--ring", "gf:2"],
    ["dump-algebra", "--json"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
def test_flag_no_command_reads_is_usage_error(capsys, argv):
    """A subcommand accepts only the flags it reads: any other is an
    argparse usage error, not a report about something else."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments" in out.err


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--ring", "nosuchring")
    assert code == 2
    assert "unknown ring literal" in err


def test_unknown_check_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--check", "bogus")
    assert code == 2
    assert "unknown check" in err


def test_missing_command_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_table_pinned_rows(capsys):
    code, out, _ = run(capsys, "table", "--n", "3")
    assert code == 0
    assert "f1_2 * f2_1 = f1_1 + f1_3" in out
    assert "f2_1 * f1_2 = 2*f2_2" in out


def test_table_n1(capsys):
    code, out, _ = run(capsys, "table", "--n", "1")
    assert code == 0
    assert out.strip() == "f1_1 * f1_1 = f1_1"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert {"left": "f1_2", "right": "f1_2", "product": "f1_1"} in doc["products"]


def test_demo_bisymmetric(capsys):
    code, out, _ = run(capsys, "demo-bisymmetric", "--json")
    assert code == 0
    doc = json.loads(out)
    (rep,) = doc["reports"]
    assert rep["verdict"] == "pass"
    assert rep["witness"]["product_flags"] == ["centrosymmetric"]
    assert "bisymmetric" in rep["witness"]["left_flags"]


def test_iso_kinds(capsys):
    for argv in (
        ["iso", "--kind", "s2", "--ring", "gf:2"],
        ["iso", "--kind", "s3", "--ring", "int"],
        ["iso", "--kind", "even", "--n", "4", "--ring", "int"],
        ["iso", "--kind", "odd-quotient", "--n", "5", "--ring", "rat"],
        ["iso", "--kind", "wedderburn", "--n", "3", "--ring", "rat"],
        ["iso", "--kind", "morita", "--n", "5", "--ring", "int"],
        ["iso", "--kind", "endring", "--n", "5", "--ring", "int"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert "FAIL" not in out


def test_iso_kind_validation(capsys):
    code, _, err = run(capsys, "iso", "--kind", "even", "--n", "3")
    assert code == 2
    code, _, err = run(capsys, "iso", "--kind", "wedderburn", "--n", "2",
                       "--ring", "int")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["iso", "--kind", "s2", "--n", "5"],
    ["iso", "--kind", "s2", "--n", "3", "--json"],
    ["iso", "--kind", "s3", "--n", "2"],
    ["iso", "--kind", "s3", "--n", "5", "--json"],
])
def test_iso_kind_of_one_size_rejects_other_sizes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"--kind {argv[2]} needs --n " in err


def test_iso_morita_builds_the_algebra_once(capsys, monkeypatch):
    """main opens one build scope per command, so every column iso of
    ``iso --kind morita`` shares one S_n."""
    sizes = []
    real = fb.structure_rows
    monkeypatch.setattr(fb, "structure_rows",
                        lambda ring, m: sizes.append(m) or real(ring, m))
    code, out, _ = run(capsys, "iso", "--json", "--kind", "morita", "--ring", "gf:5", "--n", "8")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["params"]["j"] for r in reports] == [2, 3, 4]
    assert {r["verdict"] for r in reports} == {"pass"}
    assert sizes == [8]


def test_iso_s3_defaults_to_size_3(capsys):
    code, out, _ = run(capsys, "iso", "--kind", "s3", "--json")
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["params"]["n"] == 3
    assert rep["verdict"] == "pass"


def test_frobenius_command(capsys):
    code, out, _ = run(capsys, "frobenius", "--n", "3", "--ring", "zmod:9")
    assert code == 0
    assert "frobenius-system" in out and "separability" in out and "split" in out


@pytest.mark.parametrize("ring", ["int", "rat", "gf:2", "zmod:4", "c2:int", "gf:5"])
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("command,checked", [
    (["frobenius", "--seed", "3"], ["--seed", "3", "--check", "frobenius,separability,split"]),
    (["centre"], ["--check", "centre"]),
], ids=["frobenius", "centre"])
def test_command_prints_the_bytes_of_its_verify_checks(capsys, ring, n, command, checked):
    """``frobenius`` and ``centre`` are ``verify`` at one size with a fixed check list."""
    size = ["--json", "--ring", ring, "--n", str(n)]
    assert run(capsys, *command, *size) == run(capsys, "verify", *size, *checked)


def test_centre_command(capsys):
    code, out, _ = run(capsys, "centre", "--n", "4", "--ring", "gf:3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["witness"]["dimension"] == 2


def test_cellchain_human_output(capsys):
    code, out, _ = run(capsys, "cellchain", "--n", "3", "--ring", "int")
    assert code == 0
    assert "layer 1: delta rank 2, ideal rank 4" in out
    assert "f1_2" in out


def test_dump_algebra(capsys):
    code, out, _ = run(capsys, "dump-algebra", "--n", "2", "--ring", "int")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["f1_1", "f1_2"]
    assert doc["tensor"][1][1] == ["1", "0"]  # f1_2 * f1_2 = f1_1
    assert doc["unit"] == ["1", "0"]

    code, out, _ = run(capsys, "dump-algebra", "--n", "2", "--ring", "c2:int",
                       "--kind", "matrix")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 8
    assert doc["ring"] == "int"


def test_json_reports_are_byte_identical(capsys):
    args = ["verify", "--n", "3", "--ring", "gf:5", "--check",
            "closure,frobenius,split", "--seed", "42", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_schema_fields(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--ring", "int",
                       "--check", "separability", "--json")
    doc = json.loads(out)
    rep = doc["reports"][0]
    assert set(rep) >= {"check", "params", "verdict", "witness", "counterexample"}
    assert rep["verdict"] in {"pass", "fail", "unknown", "undetermined"}


def test_matrix_file_flow(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("n 3 ring int\n1 2 3\n4 5 4\n3 2 1\n")
    code, out, _ = run(capsys, "verify", "--n", "1", "--ring", "int",
                       "--check", "rank", "--matrix-file", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    filerep = [r for r in doc["reports"] if r["check"] == "matrix-file"][0]
    assert "centrosymmetric" in filerep["witness"]["flags"]
    assert filerep["witness"]["coords"] == ["1", "2", "3", "4", "5"]


def test_matrix_file_text_prints_flags_and_coords(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("n 3 ring int\n1 2 3\n4 5 4\n3 2 1\n")
    code, out, _ = run(capsys, "verify", "--matrix-file", str(path))
    assert code == 0
    assert out.splitlines()[1:] == ["    flags: centrosymmetric",
                                    "    coords: 1 2 3 4 5"]
    path.write_text("n 2 ring int\n1 2\n3 4\n")
    code, out, _ = run(capsys, "verify", "--matrix-file", str(path))
    assert code == 0
    assert out.splitlines()[1:] == ["    flags: (none)"]


def test_matrix_file_bad(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense\n")
    code, _, err = run(capsys, "verify", "--matrix-file", str(path))
    assert code == 2


NON_POSITIVE_SIZE = "matrix size must be >= 1"
BAD_INPUT = [
    (["verify", "--n", "-3", "--check", "rank"], NON_POSITIVE_SIZE),
    (["verify", "--n", "-2", "--check", "structure-constants"], NON_POSITIVE_SIZE),
    (["verify", "--n", "-2", "--check", "split"], NON_POSITIVE_SIZE),
    (["verify", "--n", "-2", "--check", "heredity"], NON_POSITIVE_SIZE),
    (["verify", "--n", "-2", "--check", "isos"], NON_POSITIVE_SIZE),
    (["verify", "--n", "0"], NON_POSITIVE_SIZE),
    (["verify", "--n", "0", "--json"], NON_POSITIVE_SIZE),
    (["iso", "--kind", "s2", "--n", "-2"], NON_POSITIVE_SIZE),
    (["table", "--n", "0"], NON_POSITIVE_SIZE),
    (["frobenius", "--n", "0"], NON_POSITIVE_SIZE),
    (["centre", "--n", "-1"], NON_POSITIVE_SIZE),
    (["verify", "--check", ","], "--check names no check"),
    (["verify", "--check", "", "--json"], "--check names no check"),
]


@pytest.mark.parametrize("argv,message", BAD_INPUT,
                         ids=[f"argv{k}" for k in range(len(BAD_INPUT))])
def test_non_positive_size_is_usage_error(capsys, argv, message):
    """Bad input exits 2 with nothing on stdout, whether argparse rejects
    it (SystemExit) or the command does (return code)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err
