import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import noncommuting_rep, one_gen_rep
from tkkwb import cli, jspace, weyl
from tkkwb.cli import main
from tkkwb.jordan import algebra_to_dict, spin_factor, truncated_poly
from tkkwb.jspace import rep_to_dict
from tkkwb.linalg import Matrix, RowSpan, add_operator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jordan_check_builtin(capsys):
    code, out, _ = run(capsys, "jordan", "check", "--builtin", "truncated-poly",
                       "--degree", "4")
    assert code == 0
    assert "PASS" in out


def test_jordan_check_spin(capsys):
    code, out, _ = run(capsys, "jordan", "check", "--builtin", "spin-factor",
                       "--dim", "3")
    assert code == 0


def test_jordan_check_is_exhaustive_and_takes_no_seed(capsys):
    # M4(k)+ has dim 16, and its identity is decided on all basis 4-tuples
    # like every other algebra's; --seed, kept for callers that pass it,
    # changes no byte
    code, out, err = run(capsys, "jordan", "check", "--builtin", "matrix", "--size", "4")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "  ok   jordan identity (polarized, all basis 4-tuples)"
    assert run(capsys, "jordan", "check", "--builtin", "matrix", "--size", "4",
               "--seed", "7") == (code, out, err)


def test_jordan_check_matrix_of_size_11(capsys):
    # the basis labels of M11(k)+ are distinct (E1,11 and E11,1), so the
    # check reaches its verdict instead of raising on a repeated label
    code, out, err = run(capsys, "jordan", "check", "--builtin", "matrix", "--size", "11")
    assert (code, err) == (0, "")
    assert out.startswith("jordan axioms for M11(k)+: PASS\n")


def test_jordan_check_corrupted(capsys, tmp_path):
    data = algebra_to_dict(truncated_poly(2))
    for ent in data["mult"]:
        if ent["i"] == 1 and ent["j"] == 1:
            ent["coords"] = ["0", "1", "0"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, out, _ = run(capsys, "jordan", "check", "--algebra", str(p))
    assert code == 1
    assert "FAIL" in out


def test_malformed_input_exit3(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    code, _, err = run(capsys, "jordan", "check", "--algebra", str(p))
    assert code == 3
    assert "input error" in err


def _algebra_data(**changes):
    data = algebra_to_dict(truncated_poly(2))
    data.update(changes)
    return data


_ZERO_DENOMINATOR_MULT = [{"i": 1, "j": 1, "coords": ["0", "0", "1/0"]}]
_SHORT_COORDS_MULT = [{"i": 1, "j": 1, "coords": ["0", "0"]}]
_ZERO_DENOMINATOR_REP = {"algebra": "truncated-poly:1",
                         "module": {"labels": ["v"], "degrees": [0]},
                         "rho": [[["1/0"]], [["0"]]]}
# rho(t) maps the degree-1 module vector to itself
_GRADING_BREAKING_REP = {"algebra": "truncated-poly:2",
                         "module": {"labels": ["m0", "m1"], "degrees": [0, 1]},
                         "rho": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "1"]],
                                 [["0", "0"], ["0", "0"]]]}
# JSON numbers that are not integers, and bools, where integers are read
_FLOAT_I_MULT = [dict(ent, i=0.9) if (ent["i"], ent["j"]) == (0, 1) else ent
                 for ent in _algebra_data()["mult"]]
_FLOAT_DEGREE_REP = {"algebra": "truncated-poly:1",
                     "module": {"labels": ["v"], "degrees": [0.5]},
                     "rho": [[["1"]], [["0"]]]}
_BOOL_ENTRY_REP = {"algebra": "truncated-poly:1",
                   "module": {"labels": ["v"], "degrees": [0]},
                   "rho": [[[True]], [["0"]]]}
# strings where lists belong, which a loop would read character by character
_STRING_UNIT_ALGEBRA = {"labels": ["1", "t"], "degrees": [0, 1], "unit": "10",
                        "mult": [{"i": 0, "j": 0, "coords": "10"},
                                 {"i": 0, "j": 1, "coords": "01"}]}
_STRING_COORDS_MULT = [{"i": 0, "j": 0, "coords": "100"}]
_SCALAR_REP = {"algebra": "truncated-poly:1",
               "module": {"labels": ["a", "b"], "degrees": [0, 0]},
               "rho": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]]}
_NEWTON_1 = ("jspace", "check", "--builtin-rep", "newton", "--n", "1", "--cutoff", "1")
_WEYL_NEGATIVE_DEGREE = ("weyl", "dims", "--builtin-rep", "newton", "--n", "1",
                         "--cutoff", "2", "--max-degree", "-1")


@pytest.mark.parametrize("argv, payload, message", [
    (("jordan", "check", "--algebra"), _algebra_data(labels=["1", "t", "t"]), None),
    (("jordan", "check", "--algebra"), _algebra_data(degrees=[0, 1]), None),
    (("jordan", "check", "--algebra"), _algebra_data(mult=_ZERO_DENOMINATOR_MULT), None),
    (("jordan", "check", "--algebra"), _algebra_data(mult=5), None),
    (("jspace", "check", "--rep"), _ZERO_DENOMINATOR_REP, None),
    (_WEYL_NEGATIVE_DEGREE, None, None),
    (_WEYL_NEGATIVE_DEGREE + ("--oracle", "snlt"), None, None),
    (("symfun", "relation", "--n", "0"), None, None),
    (("symfun", "frobenius", "--n", "0"), None, None),
    (("symfun", "coeffs", "--n", "-1"), None, None),
    (("symfun", "classes", "--n", "-1"), None, None),
    (("symfun", "classes", "--n", "0"), None, None),
    (_NEWTON_1 + ("--mode", "random", "--samples", "-1"), None, None),
    (("garland", "verify") + _NEWTON_1[2:] + ("--samples", "-1"), None, None),
    (("garland", "verify") + _NEWTON_1[2:] + ("--samples", "0"), None, None),
    (("weyl", "dims") + _NEWTON_1[2:], None, None),
    (("tkk", "check", "--builtin", "matrix", "--size", "x"), None, None),
    (("tkk", "check", "--jacobi", "spot", "--samples", "50"), None, None),
    (("jordan", "check", "--builtin", "spin-factor", "--dim", "-1"), None, None),
    (("jordan", "check", "--algebra"), _algebra_data(mult=_SHORT_COORDS_MULT),
     "mult entry i=1, j=1 has 2 coords, expected 3"),
    (("weyl", "dims", "--max-degree", "2", "--rep"), _GRADING_BREAKING_REP,
     "rho(t) entry (1,1) breaks the grading"),
    (("jordan", "check", "--algebra"), _algebra_data(degrees=[0, 1.5, 2]),
     "bad algebra data: cannot interpret 1.5 as an integer"),
    (("tkk", "build", "--algebra"), _algebra_data(degrees=[0, 1.5, 2]), None),
    (("jordan", "check", "--algebra"), _algebra_data(degrees=[0, True, 2]),
     "bad algebra data: cannot interpret True as an integer"),
    (("jordan", "check", "--algebra"), _algebra_data(mult=_FLOAT_I_MULT),
     "bad mult entry: cannot interpret 0.9 as an integer"),
    (("tkk", "check", "--algebra"), _algebra_data(mult=_FLOAT_I_MULT), None),
    (("jspace", "check", "--rep"), _FLOAT_DEGREE_REP,
     "bad representation data: cannot interpret 0.5 as an integer"),
    (("jspace", "check", "--rep"), _BOOL_ENTRY_REP,
     "bad representation data: cannot interpret True as a rational number"),
    (("jordan", "check", "--algebra"), _STRING_UNIT_ALGEBRA,
     "bad algebra data: unit must be a list, not str"),
    (("tkk", "build", "--algebra"), _STRING_UNIT_ALGEBRA, None),
    (("jordan", "check", "--algebra"), _algebra_data(labels="1tu"),
     "bad algebra data: labels must be a list, not str"),
    (("jordan", "check", "--algebra"), _algebra_data(degrees="012"),
     "bad algebra data: degrees must be a list, not str"),
    (("jordan", "check", "--algebra"), _algebra_data(mult=""),
     "bad algebra data: mult must be a list, not str"),
    (("jordan", "check", "--algebra"), _algebra_data(mult=_STRING_COORDS_MULT),
     "bad mult entry: coords must be a list, not str"),
    (("jspace", "check", "--rep"), dict(_SCALAR_REP, module={"labels": "ab", "degrees": [0, 0]}),
     "bad representation data: module labels must be a list, not str"),
    (("jspace", "check", "--rep"),
     dict(_SCALAR_REP, module={"labels": ["a", "b"], "degrees": "00"}),
     "bad representation data: module degrees must be a list, not str"),
    (("jspace", "check", "--rep"), dict(_SCALAR_REP, rho={"0": [["1", "0"], ["0", "1"]]}),
     "bad representation data: rho must be a list, not dict"),
    (("jspace", "check", "--rep"), dict(_SCALAR_REP, rho=["1001", [["0", "0"], ["0", "0"]]]),
     "bad representation data: rho matrix must be a list, not str"),
    (("jspace", "check", "--rep"),
     dict(_SCALAR_REP, rho=[["10", "01"], [["0", "0"], ["0", "0"]]]),
     "bad representation data: rho row must be a list, not str"),
], ids=["duplicate-labels", "short-degrees", "zero-denominator-algebra",
        "non-list-mult", "zero-denominator-rep", "negative-max-degree", "negative-max-degree-oracle",
        "symfun-relation-n0", "symfun-frobenius-n0", "symfun-coeffs-negative-n",
        "symfun-classes-negative-n", "symfun-classes-n0", "jspace-negative-samples",
        "garland-negative-samples", "garland-zero-samples", "weyl-missing-max-degree",
        "non-integer-size", "tkk-check-unread-samples", "negative-spin-factor-dim",
        "short-coords", "weyl-rep-breaks-grading", "float-degree", "float-degree-tkk-build",
        "bool-degree", "float-mult-index", "float-mult-index-tkk-check", "float-module-degree",
        "bool-rho-entry", "string-unit-and-coords", "string-unit-tkk-build", "string-labels",
        "string-degrees", "empty-string-mult", "string-coords", "string-module-labels",
        "string-module-degrees", "dict-rho", "string-rho-matrix", "string-rho-rows"])
def test_malformed_input_exits_3_without_traceback(capsys, tmp_path, argv, payload, message):
    if payload is not None:
        p = tmp_path / "input.json"
        p.write_text(json.dumps(payload))
        argv = argv + (str(p),)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: ")
    if message is not None:
        assert err == f"input error: {message}\n"


def test_integer_strings_still_read_as_integers(capsys, tmp_path):
    p = tmp_path / "input.json"
    data = _algebra_data(degrees=["0", "1", "2"])
    data["mult"] = [dict(ent, i=str(ent["i"])) for ent in data["mult"]]
    p.write_text(json.dumps(data))
    code, out, _ = run(capsys, "jordan", "check", "--algebra", str(p))
    assert code == 0 and "PASS" in out


def test_tkk_check(capsys):
    code, out, _ = run(capsys, "tkk", "check", "--builtin", "truncated-poly",
                       "--degree", "2")
    assert code == 0
    assert "dim {J,J}: 0" in out
    assert "grading: 3/3/3" in out


def test_tkk_build_one_dim(capsys):
    code, out, _ = run(capsys, "tkk", "build", "--builtin", "truncated-poly",
                       "--degree", "0")
    assert code == 0
    assert "dim sl2(J): 3" in out


def test_tkk_check_matrix(capsys):
    code, out, _ = run(capsys, "tkk", "check", "--builtin", "matrix", "--size", "2")
    assert code == 0


def test_jspace_check_newton(capsys):
    code, out, _ = run(capsys, "jspace", "check", "--builtin-rep", "newton",
                       "--n", "2", "--cutoff", "4")
    assert code == 0
    assert "level: 2" in out
    assert "dominant (symbolic)" in out


def test_jspace_check_envelope_items_prefixed_once(capsys):
    code, out, _ = run(capsys, "jspace", "check", "--builtin-rep", "newton",
                       "--n", "1", "--cutoff", "2")
    assert code == 0
    assert "  ok   envelope: dominance sum vanishes  [mode=symbolic]" in out.splitlines()
    assert "envelope: envelope:" not in out


def test_jspace_check_zero_rep(capsys):
    code, out, _ = run(capsys, "jspace", "check", "--builtin-rep", "zero",
                       "--builtin", "truncated-poly", "--degree", "2")
    assert code == 0
    assert "level: 0" in out
    assert "dominant" in out


def test_jspace_random_mode_reports_seed(capsys):
    code, out, _ = run(capsys, "jspace", "check", "--builtin-rep", "newton",
                       "--n", "1", "--cutoff", "2", "--mode", "random",
                       "--samples", "4", "--seed", "7")
    assert code == 0
    assert "samples=4" in out and "seed=7" in out


def test_weyl_dims_oracle(capsys):
    code, out, _ = run(capsys, "weyl", "dims", "--builtin-rep", "newton",
                       "--n", "1", "--cutoff", "4", "--max-degree", "4",
                       "--oracle", "snlt")
    assert code == 0
    assert "matches" in out


def test_weyl_dims_oracle_n2(capsys):
    code, out, _ = run(capsys, "weyl", "dims", "--builtin-rep", "newton",
                       "--n", "2", "--cutoff", "3", "--max-degree", "3",
                       "--oracle", "snlt")
    assert code == 0


def test_weyl_dims_oracle_level0(capsys):
    # the zero rep has level 0; its table is the trivial one-dimensional one
    code, out, err = run(capsys, "weyl", "dims", "--builtin-rep", "zero",
                         "--builtin", "truncated-poly", "--degree", "1",
                         "--max-degree", "1", "--oracle", "snlt")
    assert code == 0, err
    assert "oracle: symmetric-power enumeration matches" in out.splitlines()


# level-1 action by a non-nilpotent projection: fails the dominance sum
_NONDOMINANT_REP = {
    "algebra": {
        "labels": ["1", "t"],
        "degrees": [0, 0],
        "unit": ["1", "0"],
        "mult": [{"i": 0, "j": 0, "coords": ["1", "0"]},
                 {"i": 0, "j": 1, "coords": ["0", "1"]},
                 {"i": 1, "j": 1, "coords": ["0", "0"]}],
    },
    "module": {"labels": ["a", "b"], "degrees": [0, 0]},
    "rho": [[["1", "0"], ["0", "1"]],
            [["1", "0"], ["0", "0"]]],
}


def test_jspace_nondominant_rep_witness(capsys, tmp_path):
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(_NONDOMINANT_REP))
    code, out, _ = run(capsys, "jspace", "check", "--rep", str(p))
    assert code == 1
    # the least monomial of the symbolic sum left, and its least module
    # column: the (mu, i) = ((1, 1), 0) of efr_vanishes
    assert out.splitlines()[:3] == ["level: 1", "dominance: not dominant (symbolic)",
                                    "witness: t^2, column 0"]


@pytest.mark.parametrize("seed, witness", [(0, "-11/3*t"), (3, "-1*1 + 5/2*t")])
def test_jspace_random_witness_prints_the_drawn_element(capsys, tmp_path, seed, witness):
    # the dominance sum runs on an integer copy of the drawn element; the
    # witness is the drawn rational element itself
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(_NONDOMINANT_REP))
    code, out, _ = run(capsys, "jspace", "check", "--rep", str(p), "--mode", "random",
                       "--seed", str(seed))
    assert code == 1
    lines = out.splitlines()
    assert lines[:3] == ["level: 1", f"dominance: not dominant (random, samples=8, seed={seed})",
                         f"witness: {witness}"]
    assert f"  FAIL dominance: dominance sum vanishes  [witness a = {witness}]" in lines


_NEWTON_2_3 = ("--builtin-rep", "newton", "--n", "2", "--cutoff", "3")


# sha256 of json.dumps([exit code, stdout, stderr]) of `jspace check`, with
# the path of the rep file written as <rep>; recorded while the CLI still
# ran dominance_check itself as well as inside the envelope, but for the two
# symbolic not-dominant rows, re-recorded when their witness became the
# least monomial and module column of the exact sum
@pytest.mark.parametrize("argv, digest", [
    (("--builtin-rep", "newton", "--n", "3", "--cutoff", "4"),
     "d339d2d06fb16bc356e55e55e47d40c268261cd9aa61986e75a6f873de204e37"),
    (_NEWTON_2_3 + ("--mode", "random", "--samples", "3", "--seed", "1"),
     "6b5ecd03b457c76ec368337452bb14e4eed5c6078a96aa9516479ca34ec06b42"),
    (_NEWTON_2_3 + ("--format", "json"),
     "8fdc25576c2357fd2adb71d1d26ec7d94c311492f5da34b9e4c674c347c3a7fe"),
    (("--builtin-rep", "doubled-regular", "--builtin", "spin-factor", "--dim", "4"),
     "08b4b1eef400d653f4acbe36f8f084d0ea11499e21e45911e68dc47a7b294213"),
    (("--builtin-rep", "doubled-regular", "--builtin", "matrix", "--size", "2"),
     "e176de158232c8137b0af78c7a5958625a3026fe777ee6cdf036bba3c5849b75"),
    (("--builtin-rep", "regular", "--builtin", "matrix", "--size", "2"),
     "f0a8f8ea57f87f8abe30c56d7932ce8d0a490b8abbcd698b2fcc3092956dc873"),
    (("--rep", "<rep>"),
     "a57e569003ed0e0db2d8770793f60a6cbfb93fde4931f79d24ca917c6c09c304"),
    (("--builtin-rep", "doubled-regular", "--builtin", "spin-factor", "--dim", "10"),
     "e34e4175df1a023d51a13e88e905944d5084fd78cf726230054ad38f771745d7"),
], ids=["newton-3-4", "newton-2-3-random", "newton-2-3-json", "doubled-spin4",
        "doubled-matrix2", "regular-matrix2-exit1", "nondominant-exit1", "doubled-spin10-exit2"])
def test_jspace_check_bytes_pinned(capsys, tmp_path, argv, digest):
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(_NONDOMINANT_REP))
    code, out, err = run(capsys, "jspace", "check",
                         *(str(p) if a == "<rep>" else a for a in argv))
    blob = json.dumps([code, out.replace(str(p), "<rep>"), err.replace(str(p), "<rep>")])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# the tkk algebras of CI: three builtins, the spin factor of Gram matrix
# diag(1/3, 2/7, 5) (denominators in every table) and the degenerate spin
# factor of Gram matrix zero (the one nonzero center-map kernel), the last
# two read from JSON
_TKK_ALGEBRAS = {
    "spin8": ("--builtin", "spin-factor", "--dim", "8"),
    "matrix3": ("--builtin", "matrix", "--size", "3"),
    "poly4": ("--builtin", "truncated-poly", "--degree", "4"),
    "gram": [[Fraction(1, 3), 0, 0], [0, Fraction(2, 7), 0], [0, 0, 5]],
    "degenerate": [[0, 0], [0, 0]],
}
_TKK_RUNS = {
    "check": ("check",),
    "check-json": ("check", "--format", "json"),
    "build-json": ("build", "--format", "json"),
}


# sha256 of json.dumps([exit code, stdout, stderr]) of `tkk build` and `tkk
# check`, with the path of an algebra file written as <algebra>; recorded
# while _fill_table still wrote pre-scaled product copies and center_map
# swept the homomorphism identity one leading index at a time
@pytest.mark.parametrize("algebra, run_as, digest", [
    ("spin8", "check",
     "7759819441437b6428aeb20f634a5335af6fc0c34677b23f7c4ef41e861362d9"),
    ("spin8", "check-json",
     "cb8ca8fab4486b33e8e70482a0f0ac3f67b8f729dfe9e4089f7fcdc42ec34fb0"),
    ("spin8", "build-json",
     "1fe57df727fe6809efdf158242604d4233620c072bb8407e2af357d05295e31c"),
    ("matrix3", "check",
     "b089c814eca5e3cfbf27aeedd65bb702adda3afa77218bcf17bc887d7464a2fa"),
    ("matrix3", "check-json",
     "5521dfdb309141175926f5697e28790e4bc78b9ac2b8152725d302586b2cc179"),
    ("matrix3", "build-json",
     "397a6b73d97d42e68767d4737f166ccd9405662a500d9593cfbef1c159b39d8b"),
    ("poly4", "check",
     "153ea7d42f46c9acfdae172d2a526225addf7a3991197a54e81bee138691e7e0"),
    ("poly4", "check-json",
     "84818510ac54c96874da0afe2bb49e0884a2c5589ab86cdf768f1ce95f804ed1"),
    ("poly4", "build-json",
     "f10ba6655e3effaa989a9426d47e35fb7df9fb893b2bbb6f930cb2a8e7686a78"),
    ("gram", "check",
     "f2bb5d5a7b49918fcd4e59d2bb15a8bda1cc876c995ad09b8ad54fc1fbfc2b4d"),
    ("gram", "check-json",
     "c8e84c43d7822f8170356793c62221cf02974a8fd1d6789d94efe859be6aea64"),
    ("gram", "build-json",
     "b5cbed902106fb54125911573f35fb5d336c054f9467b9a83baf31e347973d85"),
    ("degenerate", "check",
     "703bb599d3b5ab6ed2168d03a5796d6d8c1eb24d4aada31c70e33233f4236a21"),
    ("degenerate", "check-json",
     "3c8bc595f6c39f5fad58b638a6f8597bd18030c74591849b5eb9c08686958392"),
    ("degenerate", "build-json",
     "a1041fbabcbadf0aecf0742f215f531cb310d222a156ad0e51df751e1da2c2ae"),
])
def test_tkk_check_bytes_pinned(capsys, tmp_path, algebra, run_as, digest):
    source = _TKK_ALGEBRAS[algebra]
    p = tmp_path / "algebra.json"
    if isinstance(source, list):
        p.write_text(json.dumps(algebra_to_dict(spin_factor(source))))
        source = ("--algebra", str(p))
    code, out, err = run(capsys, "tkk", *_TKK_RUNS[run_as], *source)
    blob = json.dumps([code, out.replace(str(p), "<algebra>"), err.replace(str(p), "<algebra>")])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_tkk_check_has_one_jacobi_verdict(capsys, tmp_path):
    # Jacobi is decided on every triple: there is no sampled mode, and
    # --seed, kept for callers that pass it, changes no byte
    code, _, err = run(capsys, "tkk", "check", "--jacobi", "spot")
    assert code == 3
    assert err.startswith("input error: unrecognized arguments: --jacobi spot")
    p = tmp_path / "algebra.json"
    for algebra, source in _TKK_ALGEBRAS.items():
        if isinstance(source, list):
            p.write_text(json.dumps(algebra_to_dict(spin_factor(source))))
            source = ("--algebra", str(p))
        plain = run(capsys, "tkk", "check", *source)
        assert run(capsys, "tkk", "check", "--seed", "7", *source) == plain, algebra


@pytest.mark.parametrize("mode", ["symbolic", "random"])
def test_jspace_check_decides_dominance_once(capsys, monkeypatch, tmp_path, mode):
    # the dominance line and a not-dominant witness are read from the
    # envelope, which decides it; the symbolic verdict draws no point
    modes = []
    dominance_check = jspace.dominance_check

    def counted(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return dominance_check(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the symbolic verdict drew a random point")

    monkeypatch.setattr(jspace, "dominance_check", counted)
    if mode == "symbolic":
        monkeypatch.setattr(jspace, "random_vector", refused)
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(_NONDOMINANT_REP))
    for argv, want in ((("--builtin-rep", "newton", "--n", "3", "--cutoff", "4"), 0),
                       (("--builtin-rep", "regular", "--builtin", "matrix", "--size", "2"), 1),
                       (("--rep", str(p)), 1)):
        modes.clear()
        code, out, _ = run(capsys, "jspace", "check", *argv, "--mode", mode)
        assert code == want, argv
        assert modes == [mode], argv
        assert ("witness: " in out) is bool(want), argv


@pytest.mark.parametrize("argv", [
    ("--builtin-rep", "newton", "--n", "3", "--cutoff", "4"),
    ("--builtin-rep", "doubled-regular", "--builtin", "matrix", "--size", "2"),
    ("--builtin-rep", "regular", "--builtin", "matrix", "--size", "2"),
], ids=["newton-3-4", "doubled-matrix2", "regular-matrix2-exit1"])
def test_jspace_check_sweeps_square_commutation_once(capsys, monkeypatch, argv):
    # check_jspace and the envelope read the rep's one verdict on the
    # polarized square commutation
    calls = []
    sweep = jspace._square_commutation_failure

    def counted(rep):
        calls.append(rep)
        return sweep(rep)

    monkeypatch.setattr(jspace, "_square_commutation_failure", counted)
    code, out, _ = run(capsys, "jspace", "check", *argv)
    assert "envelope: square commutation, polarized" in out
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["symbolic", "random"])
def test_jspace_check_converts_rho_once(capsys, monkeypatch, mode):
    # rho is scaled to integers once, when the rep is made; check_jspace, the
    # envelope and every dominance sum read that rep (both modes expand the
    # sum in the one core `_dominance_terms`), and its square commutation is
    # swept once
    reps, scaled, summed, swept = [], [], [], []
    newton_rep, integer_operators = jspace.newton_rep, jspace.integer_operators
    terms, sweep = jspace._dominance_terms, jspace._square_commutation_failure

    def made(*args):
        reps.append(newton_rep(*args))
        return reps[-1]

    def counted_scale(ops):
        scaled.append(ops)
        return integer_operators(ops)

    def counted_sum(rep, n, first):
        summed.append(rep)
        return terms(rep, n, first)

    def counted_sweep(rep):
        swept.append(rep)
        return sweep(rep)

    monkeypatch.setattr(jspace, "newton_rep", made)
    monkeypatch.setattr(jspace, "integer_operators", counted_scale)
    monkeypatch.setattr(jspace, "_dominance_terms", counted_sum)
    monkeypatch.setattr(jspace, "_square_commutation_failure", counted_sweep)
    code, _, _ = run(capsys, "jspace", "check", "--builtin-rep", "newton", "--n", "3",
                     "--cutoff", "4", "--mode", mode)
    assert code == 0
    assert len(reps) == 1 and len(scaled) == 1
    assert summed and all(rep is reps[0] for rep in summed)
    assert swept == reps


_DOUBLED_SPIN2 = ("--builtin-rep", "doubled-regular", "--builtin", "spin-factor", "--dim", "2")
_DOUBLED_M2 = ("--builtin-rep", "doubled-regular", "--builtin", "matrix", "--size", "2")


@pytest.mark.parametrize("rep_args", [("--builtin-rep", "newton", "--n", "3", "--cutoff", "4"),
                                      _DOUBLED_M2], ids=["newton-3-4", "doubled-matrix2"])
def test_jspace_check_sweeps_the_double_commutator_once(capsys, monkeypatch, rep_args):
    # on a commutative J the envelope's cubic relation is check_jspace's
    # derivation identity, and the rep decides it once for both reports
    sweeps = []
    sweep = jspace._double_commutator_failure

    def counted(*args):
        sweeps.append(args[0])
        return sweep(*args)

    monkeypatch.setattr(jspace, "_double_commutator_failure", counted)
    code, _, _ = run(capsys, "jspace", "check", *rep_args)
    assert code == 0
    assert len(sweeps) == 1


# sha256 of json.dumps([exit code, stdout, stderr]) of outputs read from the
# weight-zero extension, recorded before it ran on sparse integer operators
@pytest.mark.parametrize("argv, digest", [
    (("weyl", "dims") + _DOUBLED_SPIN2 + ("--max-degree", "0", "--format", "json"),
     "db7d2539231fdd5c7760f5399d58b6f2242f86237f24eaf9384138de13cfb9ba"),
    (("weyl", "dims") + _DOUBLED_M2 + ("--max-degree", "0", "--format", "json"),
     "49e3b057a2b4b372be286e0597e313643b06baa79472ce5f899d030d81ebd38e"),
    (("garland", "verify") + _DOUBLED_SPIN2,
     "8b383189e77f39fa4219562273fbef6ce79461eb803c70abaa27872fb6b30b6b"),
    (("garland", "verify") + _DOUBLED_M2,
     "8b383189e77f39fa4219562273fbef6ce79461eb803c70abaa27872fb6b30b6b"),
    (("weyl", "dims", "--builtin-rep", "regular", "--builtin", "matrix", "--size", "2",
      "--max-degree", "0"),
     "92bf84eefac3f9b292df61281d332a3c3fba113a6d0eaaa0f06b615d8fc81e94"),
], ids=["weyl-doubled-spin2", "weyl-doubled-matrix2", "garland-doubled-spin2",
        "garland-doubled-matrix2", "weyl-regular-matrix2-exit1"])
def test_extension_outputs_bytes_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    blob = json.dumps([code, out, err])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_symbolic_guard_exit2(capsys):
    # symbolic dominance refuses oversized algebras; random mode is the out
    code, _, err = run(capsys, "jspace", "check", "--builtin-rep", "zero",
                       "--builtin", "matrix", "--size", "4")
    assert code == 2
    assert "resource" in err
    code, _, _ = run(capsys, "jspace", "check", "--builtin-rep", "zero",
                     "--builtin", "matrix", "--size", "4", "--mode", "random",
                     "--samples", "2")
    assert code == 0


def test_weyl_window_too_small_exit2(capsys):
    code, _, err = run(capsys, "weyl", "dims", "--builtin-rep", "newton",
                       "--n", "1", "--cutoff", "2", "--max-degree", "2",
                       "--window", "0")
    assert code == 2
    assert "window" in err


def test_weyl_window_deeper_than_the_recursion_limit(capsys):
    # the window depth is only checked and echoed: the closure never builds a
    # cell deeper than n + 1, so a depth past the recursion limit changes nothing
    argv = ("weyl", "dims", "--builtin-rep", "newton", "--n", "1", "--cutoff", "1",
            "--max-degree", "1")
    code, out, err = run(capsys, *argv, "--window", "1100")
    assert code == 0, err
    assert (code, out, err) == run(capsys, *argv)


def test_weyl_unclosed_killed_part_exit1(capsys, monkeypatch):
    # a killed part that claims to contain nothing fails the closing pass
    monkeypatch.setattr(RowSpan, "contains", lambda self, vec: False)
    code, out, err = run(capsys, "weyl", "dims", "--builtin-rep", "newton",
                         "--n", "2", "--cutoff", "2", "--max-degree", "2")
    assert code == 1
    assert out.startswith("weight degree dim\n")
    assert err == "submodule certificate failed\n"


def test_jspace_check_rejects_a_non_jordan_algebra(capsys, tmp_path):
    # degree additivity fails (deg t^2 != 2 deg t), so J is not a Jordan algebra
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_algebra_data(degrees=[0, -1, 2])))
    for argv in (("jspace", "check", "--builtin-rep", "zero"),
                 ("tkk", "check"),
                 ("weyl", "dims", "--builtin-rep", "zero", "--max-degree", "1")):
        code, out, err = run(capsys, *argv, "--algebra", str(p))
        assert (code, out) == (3, ""), argv
        assert err == f"input error: {p} fails the Jordan axioms\n", argv


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("tkkwb ") and "my_" not in command:
            examples.append((command.split()[1:], comment.strip()))
    return examples


def test_readme_command_line_examples(capsys):
    examples = _readme_examples()
    assert len(examples) >= 10
    assert sum(bool(comment) for _, comment in examples) >= 2
    for argv, comment in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert comment in out, argv


def test_weyl_csv_format(capsys):
    code, out, _ = run(capsys, "weyl", "dims", "--builtin-rep", "newton",
                       "--n", "1", "--cutoff", "2", "--max-degree", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "weight,degree,dim"


def test_garland_verify(capsys):
    code, out, _ = run(capsys, "garland", "verify", "--builtin-rep", "newton",
                       "--n", "1", "--cutoff", "2", "--samples", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "seed: 0" in out


@pytest.mark.parametrize("route", ["efr_powers", "garland_coefficients"])
@pytest.mark.parametrize("where", ["lowering", "top"])
def test_garland_verify_fails_on_one_changed_entry(capsys, monkeypatch, route, where):
    # newton (2, 2) has level 2, so the depths are 0, 1, 2 and 3 = n + 1:
    # raise entry (0, 0) of one operator of the integer core of one route by
    # 1, in the lowering polynomial at rr = n or in the operator at rr = n + 1
    core = f"{route}_int"
    computed = getattr(weyl, core)

    def changed(g0, a, rrs):
        out = computed(g0, a, rrs)
        if where == "top":
            add_operator(out[3][1], {0: {0: 1}})
        else:
            lowering = out[2][1]
            assert lowering
            add_operator(lowering[min(lowering)], {0: {0: 1}})
        return out

    monkeypatch.setattr(weyl, core, changed)
    code, out, _ = run(capsys, "garland", "verify", "--builtin-rep", "newton", "--n", "2",
                       "--cutoff", "2", "--samples", "2")
    rr = 3 if where == "top" else 2
    failed = [f"sample {t} r={rr}: straightening vs generating function FAIL" for t in range(2)]
    assert [ln for ln in out.splitlines() if ln.endswith("FAIL")] == failed
    assert out.count(" PASS\n") == 6
    assert code == 1


def test_newton_rep_in_many_variables_meets_the_symbolic_guard(capsys):
    # level 12 on a 2-dim module: building the rep is quick, and symbolic
    # dominance refuses the level
    code, out, err = run(capsys, "jspace", "check", "--builtin-rep", "newton", "--n", "12",
                         "--cutoff", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("resource error: symbolic dominance guarded")


def test_garland_verify_straightens_each_argument_once_per_run(capsys, monkeypatch):
    # the benchmark job: every depth of a sample shares one raising pass and
    # one generating series, and every sample the straightening data of the
    # one extension, so no straightening repeats within the run and the
    # powers a^1..a^(n+1) are taken once per sample
    samples, jpowers = [], []
    draw, raise_basis, jpower = cli.random_vector, weyl._StraightData.raise_basis, weyl.jpower

    def new_sample(*args, **kwargs):
        samples.append([])
        return draw(*args, **kwargs)

    def counted_raise(self, x, fkey, mi):
        samples[-1].append((x, fkey, mi))
        return raise_basis(self, x, fkey, mi)

    def counted_jpower(*args):
        jpowers.append(len(samples))
        return jpower(*args)

    monkeypatch.setattr(cli, "random_vector", new_sample)
    monkeypatch.setattr(weyl._StraightData, "raise_basis", counted_raise)
    monkeypatch.setattr(weyl, "jpower", counted_jpower)
    code, out, _ = run(capsys, "garland", "verify", "--builtin-rep", "newton", "--n", "4",
                       "--cutoff", "3", "--samples", "2", "--seed", "0")
    assert code == 0 and "FAIL" not in out
    assert len(samples) == 2
    calls = [call for sample in samples for call in sample]
    assert len(calls) == len(set(calls)) == 839
    assert jpowers == [1] * 5 + [2] * 5


@pytest.mark.parametrize("argv", [
    ("weyl", "dims", "--max-degree", "1"),
    ("garland", "verify", "--samples", "1"),
], ids=["weyl-dims", "garland-verify"])
def test_ill_defined_braces_exit1_with_witness(capsys, tmp_path, argv):
    # rho has no weight-zero extension, so there is no table and no contraction
    r = noncommuting_rep()
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(rep_to_dict(r, algebra_to_dict(r.jordan))))
    code, out, err = run(capsys, *argv, "--rep", str(p))
    assert code == 1
    assert out == ""
    assert "FAIL well-defined on the brace quotient  [defining-span generator" in err


@pytest.mark.parametrize("n", [-1, -3])
@pytest.mark.parametrize("argv", [
    ("weyl", "dims", "--max-degree", "1"),
    ("garland", "verify", "--samples", "1"),
], ids=["weyl-dims", "garland-verify"])
def test_negative_level_exit1(capsys, tmp_path, argv, n):
    # rho(1) = n on a one-dimensional module: a J-space without a level
    r = one_gen_rep(n, Matrix.zeros(1, 1), "negative level")
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(rep_to_dict(r, algebra_to_dict(r.jordan))))
    code, out, err = run(capsys, *argv, "--rep", str(p))
    assert (code, out, err) == (1, "", f"level error: level {n} is negative\n")


def test_symfun_relation(capsys):
    code, out, _ = run(capsys, "symfun", "relation", "--n", "2")
    assert code == 0
    assert out.strip() == "2N3 - 3N2N1 + N1^3 = 0 PASS"


def test_symfun_coeffs(capsys):
    code, out, _ = run(capsys, "symfun", "coeffs", "--n", "1")
    assert code == 0
    assert out.strip() == "(1,1):+1 (2):-1"


def test_symfun_frobenius(capsys):
    code, out, _ = run(capsys, "symfun", "frobenius", "--n", "3")
    assert code == 0
    assert "PASS" in out


def test_symfun_classes(capsys):
    code, out, _ = run(capsys, "symfun", "classes", "--n", "4")
    assert code == 0
    assert "total 24 = 4! PASS" in out


def test_determinism_same_bytes(capsys):
    args = ("jspace", "check", "--builtin-rep", "newton", "--n", "1",
            "--cutoff", "3", "--mode", "random", "--samples", "3",
            "--seed", "11", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1.strip())  # valid json


def test_weyl_json_deterministic(capsys):
    args = ("weyl", "dims", "--builtin-rep", "newton", "--n", "2",
            "--cutoff", "2", "--max-degree", "2", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1.strip())
    assert data["meta"]["stable"] is True


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); SystemExit, as --help
    raises it, counts as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_and_reused(capsys):
    # one parser serves every main call of a process, and each call reads
    # exactly as with a parser of its own
    jobs = [("weyl", "dims", "--max-degree", "x"),
            ("weyl", "dims", "--builtin-rep", "newton", "--n", "2", "--cutoff", "6",
             "--max-degree", "3", "--oracle", "snlt"),
            ("tkk", "check", "--builtin", "matrix", "--size", "2"),
            ("weyl", "dims", "--bogus"),
            ("weyl", "dims", "--help"),
            ("symfun", "coeffs", "--n", "1")]
    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in jobs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in jobs:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [3, 0, 0, 3, ("SystemExit", 0), 0]
    assert shared[0][2].startswith("input error: argument --max-degree: invalid int value")
    assert "oracle: symmetric-power enumeration matches" in shared[1][1]
    assert shared[4][1].startswith("usage: tkkwb weyl dims")


def test_parser_not_built_at_import():
    code = ("import sys; from tkkwb import cli; "
            "sys.exit(cli._parser.cache_info().currsize)")
    env_path = str(Path(cli.__file__).resolve().parents[1])
    assert subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": env_path}).returncode == 0
