import argparse
import json
import math
import os
import random
import signal
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modp import cli, quillen
from modp.charclass import (
    PRESENTATION_MAX_N,
    RESTRICTION_MAX_N,
    Generator,
    GradedPresentation,
)
from modp.cli import (
    DIMS_MAX_DEGREE,
    SERIES_MAX_DEGREE,
    UCLASS_MAX_TRUNCATION,
    UCLASS_MAX_VARS,
    main,
)
from modp.exactalg import EXPONENT_LIMIT, MODULUS_LIMIT, MONOMIAL_GUARD
from modp.groupdata import _EXCEPTIONAL_RANK, _MINIMUM_RANK, WEYL_MAX_ORDER, Series
from modp.invariants import (
    CLASSICAL_MAX_RANK,
    QUOTIENT_MAX_R,
    SPIN_MAX_N,
    ClaimedPresentation,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_degrees_text(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "degrees", "--family", "B", "--rank", "3")
    assert code == 0
    assert out.strip() == "2 4 6"


def test_o1_degrees_are_empty(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "degrees", "--family", "O", "--rank", "1")
    assert (code, out.strip()) == (0, "-")
    code, out = run_cli(capsys, "flag-poincare", "--family", "O", "--rank", "1", "--json")
    assert (code, json.loads(out)["result"]["coefficients"]) == (0, [1])
    code, out = run_cli(capsys, "primes", "--family", "O", "--rank", "1", "--json")
    assert (code, json.loads(out)["result"]["degrees"]) == (0, [])


@pytest.mark.parametrize("family, rank, torsion", [("O", 1, "2"), ("O", 2, "2"), ("SO", 2, "-")])
def test_torsion_of_the_small_orthogonal_groups(family, rank, torsion, capsys, tmp_path,
                                                monkeypatch):
    # beta(w_1) != 0 in H^2(BO(n); Z) for every n; BSO(2) = CP^infinity
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "primes", "--family", family, "--rank", str(rank))
    assert (code, out.splitlines()) == (0, ["bad: 2", f"torsion: {torsion}"])


def test_primes_json_schema(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "primes", "--family", "E8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "modp/1"
    assert doc["result"]["bad_primes"] == [2, 3, 5]
    assert doc["result"]["degrees"] == [2, 8, 12, 14, 18, 20, 24, 30]


def test_invariants_pass_and_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "invariants", "--group", "spin", "--n", "7",
                        "--p", "2", "--max-degree", "6")
    assert code == 0
    assert "PASS" in out


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    parser = cli.build_parser()
    used = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: used.append(parser) or parse_args(argv))
    assert main(["degrees", "--family"]) == 2
    assert main(["degrees", "--family", "B", "--rank", "3"]) == 0
    assert capsys.readouterr().out == "2 4 6\n"
    assert used == [parser, parser]


def test_json_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    outputs = set()
    for _ in range(2):
        code, out = run_cli(capsys, "quillen", "--n", "11", "--dims", "0..12", "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_cache_roundtrip_and_transparency(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, cold = run_cli(capsys, "spin-compare", "--json")
    assert code == 0
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    doc = json.loads(entries[0].read_text())
    assert set(doc) == {"digest", "payload"}
    assert doc["digest"] == cli.ResultCache._digest([cli.source_digest(), doc["payload"]])
    code, warm = run_cli(capsys, "spin-compare", "--json")
    assert warm == cold
    code, uncached = run_cli(capsys, "spin-compare", "--json", "--no-cache")
    assert uncached == cold
    # corrupted entry, or valid JSON that is no object: recompute and
    # still answer identically
    for corrupt in ("{ not json", "[]", "null", "1"):
        entries[0].write_text(corrupt)
        code, healed = run_cli(capsys, "spin-compare", "--json")
        assert (code, healed) == (0, cold), corrupt
    # an entry of this code whose payload no longer matches its digest
    doc = json.loads(entries[0].read_text())
    for payload in ({}, [], {"h": "x"}):
        entries[0].write_text(json.dumps(dict(doc, payload=payload)))
        assert main(["spin-compare", "--json", "--verbose"]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold, payload
        assert "modp: cache stale" in captured.err.splitlines(), payload
    # an entry with no digest: recomputed
    entry = {"schema": "modp/1", "version": "0.0.0",
             "payload": {"D_top": -1, "D_low": -1, "D_dR_lower": -1,
                         "D_explicit_degree32": -1, "verdict": "stale"}}
    entries = list(tmp_path.glob("*.json"))
    entries[0].write_text(json.dumps(entry))
    code, fresh = run_cli(capsys, "spin-compare", "--json")
    assert fresh == cold


def test_whitney_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    e = json.dumps({"ring": {"vars": ["a1", "a2"], "weights": [1, 2]},
                    "components": ["1", "a1", "a2"]})
    unit = json.dumps({"components": ["1", "0", "0"]})
    code, out = run_cli(capsys, "whitney", "--e", e, "--f", unit, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["components"] == ["1", "a1", "a2"]
    # the result is a u-class: fed back as --e, it gives the same class
    code, again = run_cli(capsys, "whitney", "--e", json.dumps(doc["result"]), "--f", unit,
                          "--json")
    assert code == 0
    assert json.loads(again)["result"] == doc["result"]


def uclass(truncation, size=1):
    """A zero u-class of a ring of `size` variables of weight 1, as one
    argv word."""
    return json.dumps({"ring": {"vars": [f"a{i}" for i in range(size)], "weights": [1] * size},
                       "components": ["1"] + ["0"] * truncation}, separators=(",", ":"))


def test_whitney_answers_on_a_ring_of_1000_variables(capsys, tmp_path, monkeypatch):
    # as many variables as bo_presentation(1000), the largest cataloged ring
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    last = f"a{UCLASS_MAX_VARS - 1}"
    code, out = run_cli(capsys, "whitney", "--e", uclass(1, UCLASS_MAX_VARS), "--f",
                        f'{{"components":["1","{last}"]}}', "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert (len(result["ring"]["vars"]), result["components"]) == (UCLASS_MAX_VARS, ["1", last])


def test_whitney_refuses_a_truncation_above_1000(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    top = UCLASS_MAX_TRUNCATION
    t0 = time.perf_counter()
    assert main(["whitney", "--e", uclass(top + 1), "--f", uclass(top + 1)]) == 2
    assert time.perf_counter() - t0 < 0.1
    assert capsys.readouterr().err == ("modp: error: bad u-class input: need the truncation "
                                       f"of a u-class <= {top}, got {top + 1}\n")
    code, out = run_cli(capsys, "whitney", "--e", uclass(top), "--f", uclass(top), "--json")
    assert code == 0
    assert json.loads(out)["result"]["components"] == ["1"] + ["0"] * top


def test_a_modulus_of_0_is_refused_before_any_generator(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    t0 = time.perf_counter()
    assert main("invariants --group classical --family B --rank 14 --p 0 "
                "--max-degree 2".split()) == 2
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err == "modp: error: modulus must be a prime, not 0\n"


def test_restrict_and_ring(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "restrict", "--n", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["images"]["u2"] == "t1 + t2 + t3"
    code, out = run_cli(capsys, "ring", "--name", "bso", "--n", "11",
                        "--series-to", "6", "--json")
    gens = json.loads(out)["result"]["generators"]
    assert len(gens) == 10
    code, out = run_cli(capsys, "restrict", "--n", "11", "--target", "K", "--json")
    assert json.loads(out)["result"]["images"]["u2"] == "0"


def test_jacobian_csv_and_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "flag-poincare", "--family", "B", "--rank", "2", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,coefficient"
    assert out.splitlines()[1:] == ["0,1", "1,2", "2,2", "3,2", "4,1"]
    code, _ = run_cli(capsys, "jacobian", "--r", "4", "--variant", "SO")
    assert code == 0


def test_console_script_entry_point(tmp_path):
    env = {"PATH": "/usr/bin:/bin", "MODP_CACHE_DIR": str(tmp_path),
           "PYTHONPATH": ":".join(sys.path)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "-m", "modp.cli", "degrees", "--family", "G2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2 6"


# a prime, so that no check refuses it for being composite
HUGE = "1000000000000000003"

# Every input that main refuses.  On each, main returns 2 within 1.5 s,
# prints nothing on stdout and one `modp: error: ` line on stderr, and
# writes no cache entry; an entry (argv, line) also gives that line.  An
# argv is split on spaces.  The two sections run under two test names, so
# that each case keeps its test id.
def past(argv: str, what: str, bound: int) -> tuple[str, str]:
    """argv with its {} set to the first value past `bound`, and the line
    that refuses it."""
    return argv.format(bound + 1), f"modp: error: need {what} <= {bound}, got {bound + 1}"


REFUSED = {
    "precondition": [
        "quillen --n 11 --dims 3..x",
        "quillen --n 11 --dims 3..",
        "quillen --n 11 --dims 0..1000000000",
        "quillen --n 11 --dims=-1000000000..0",
        "quillen --n 1000000000",
        "invariants --n 4",
        "invariants --n 9 --p 3",
        "invariants --n 7 --max-degree 0",
        "invariants --group spin --max-degree 4",
        "invariants --group nakajima",
        "invariants --group classical --family B",
        "invariants --group classical --family B --rank 3 --p 4",
        "invariants --group classical --family B --rank 3 --p 0 --max-degree 4",
        "invariants --group classical --family E --rank 3",
        "invariants --group nakajima --r 8 --max-degree 40",
        "invariants --group nakajima --r 2 --max-degree 1000000000",
        # the first input past each bound, built from the bound, with its line
        past("invariants --group spin --n {} --max-degree 2", "n", SPIN_MAX_N),
        "invariants --group spin --n 200 --max-degree 2",
        past("invariants --group nakajima --r {} --max-degree 2", "r", QUOTIENT_MAX_R),
        past("invariants --group classical --family B --rank {} --p 3 --max-degree 2", "rank",
             CLASSICAL_MAX_RANK),
        past("quillen --n {} --dims 0..4", "n", quillen.MAX_N),
        past("ring --name bso --n {}", "n", PRESENTATION_MAX_N),
        past("ring --name bo --n {}", "n", PRESENTATION_MAX_N),
        past("restrict --n {}", "n", RESTRICTION_MAX_N),
        past("ring --name bso --n 11 --series-to {}", "--series-to", SERIES_MAX_DEGREE),
        past("quillen --n 11 --dims 0..{}", "the high end of --dims", DIMS_MAX_DEGREE),
        past("invariants --group classical --family B --rank 3 --p {}", "modulus",
             MODULUS_LIMIT - 1),
        past("invariants --group nakajima --r 3 --p {}", "modulus", MODULUS_LIMIT - 1),
        # the largest --dims is refused first by the monomial guard
        (f"quillen --n 11 --dims {DIMS_MAX_DEGREE}..{DIMS_MAX_DEGREE}",
         f"modp: error: degree {DIMS_MAX_DEGREE} needs more than {MONOMIAL_GUARD} monomials"),
        "invariants --group classical --family D --rank 150 --max-degree 2",
        "jacobian --r 9",
        "restrict --n 8 --target K",
        "restrict --n 1000000001 --target K",
        "ring --name bso",
        "ring --name bso --n 1000000",
        "ring --name bo --n 1000000",
        "ring --name bso --n 11 --series-to 20000000",
        "ring --name bmu --series-to 20000000",
        "quillen --n 11 --dims 0..143",
        "quillen --n 11 --dims 0..281",
        # |W(B7)| = 2^7 * 7! is the first order of B past the bound
        ("weyl --family B --rank 7",
         f"modp: error: need the Weyl group order of B7 <= {WEYL_MAX_ORDER}, "
         f"got {2 ** 7 * math.factorial(7)}"),
        "weyl --family B --rank 9",
        "weyl --family E6",
        "weyl --family E8",
        "degrees --family E8 --rank 3",
        "degrees --family A --rank 1000000000",
        "flag-poincare --family A --rank 121",
        "flag-poincare --family Spin --rank 1000000000",
        "weyl --family GL --rank 1000000000",
        "primes --family Sp --rank 1000000000",
        "primes --family X --rank 2",
        "whitney --e [] --f {}",
        'whitney --e {"ring":{"vars":["a"],"weights":["x"]},"components":["1"]} --f {}',
        'whitney --e {"ring":{"vars":["a"],"weights":[1]},"components":[1]} --f {}',
        pytest.param((f"whitney --e {uclass(UCLASS_MAX_TRUNCATION + 1)} "
                      f"--f {uclass(UCLASS_MAX_TRUNCATION + 1)}",
                      "modp: error: bad u-class input: need the truncation of a u-class "
                      f"<= {UCLASS_MAX_TRUNCATION}, got {UCLASS_MAX_TRUNCATION + 1}"),
                     id=f"whitney truncation {UCLASS_MAX_TRUNCATION + 1}"),
        pytest.param((f"whitney --e {uclass(1, UCLASS_MAX_VARS + 1)} --f {uclass(1)}",
                      "modp: error: bad u-class input: need the number of u-class variables "
                      f"<= {UCLASS_MAX_VARS}, got {UCLASS_MAX_VARS + 1}"),
                     id=f"whitney {UCLASS_MAX_VARS + 1} variables"),
        # a sign with no term after it
        'whitney --e {"ring":{"vars":["a"],"weights":[1]},"components":["1","a+"]} '
        '--f {"components":["1","0"]}',
        'whitney --e {"ring":{"vars":["a"],"weights":[1]},"components":["1","-"]} '
        '--f {"components":["1","0"]}',
        # a variable named 2 once read as the coefficient 2, and u_1 = 0 exited 0
        'whitney --e {"ring":{"vars":["2"],"weights":[1]},"components":["1","2"]} '
        '--f {"ring":{"vars":["2"],"weights":[1]},"components":["1","2"]}',
        # a variable the ring lacks is a ValueError, so the line has no stray quotes
        ('whitney --e {"ring":{"vars":["a"],"weights":[1]},"components":["1","b"]} '
         '--f {"components":["1","0"]}',
         "modp: error: bad u-class input: unknown variable 'b' in ring F2[a]"),
        # a flag that the group or the ring does not read: refused, not echoed
        # into params and cached under a key of its own
        ("invariants --group spin --n 7 --max-degree 4 --r 4",
         "modp: error: --group spin does not read --r"),
        ("invariants --group spin --n 7 --max-degree 4 --family B --rank 2",
         "modp: error: --group spin does not read --family or --rank"),
        ("invariants --group nakajima --r 3 --n 7",
         "modp: error: --group nakajima does not read --n"),
        ("invariants --group nakajima --r 3 --family B --rank 2",
         "modp: error: --group nakajima does not read --family or --rank"),
        ("invariants --group classical --family B --rank 2 --p 3 --n 7",
         "modp: error: --group classical does not read --n"),
        ("invariants --group classical --family B --rank 2 --p 3 --r 3",
         "modp: error: --group classical does not read --r"),
        ("ring --name bz2 --n 5", "modp: error: --name bz2 does not read --n"),
        ("ring --name bmu --n 5", "modp: error: --name bmu does not read --n"),
        # an output flag that the command does not read, a flag that is gone,
        # or two that exclude each other
        ("jacobian --r 2 --csv", "modp: error: unrecognized arguments: --csv"),
        ("degrees --family B --rank 3 --json --csv", "modp: error: unrecognized arguments: --csv"),
        ("quillen --n 11 --dims 3 --json --csv",
         "modp: error: argument --csv: not allowed with argument --json"),
        ("quillen --n 11 --dims 3 --no-cache --refresh-cache --verbose",
         "modp: error: unrecognized arguments: --refresh-cache"),
        ("selftest --json", "modp: error: unrecognized arguments: --json"),
        # argparse usage errors: one line, as every other exit 2
        "degrees --family B --rank x",
        "degrees --family B --rank",
        "ring --name x",
        "no-such-command",
        # lower sides that the size section checks as well
        "quillen --n 5",
        "quillen --n 11 --dims -1",
        "invariants --group nakajima --r 1",
        "ring --name bso --n 1",
    ],
    # whitney, spin-compare and selftest take no size argument
    "size": [
        f"degrees --family A --rank {HUGE}",
        f"primes --family O --rank {HUGE}",
        f"weyl --family B --rank {HUGE}",
        f"flag-poincare --family Spin --rank {HUGE}",
        f"invariants --group spin --n {HUGE}",
        f"invariants --group spin --n 11 --max-degree {HUGE}",
        f"invariants --group nakajima --r {HUGE}",
        f"invariants --group nakajima --r 5 --max-degree {HUGE}",
        f"invariants --group nakajima --r 5 --p {HUGE}",
        f"invariants --group classical --family B --rank {HUGE} --p 3",
        f"invariants --group classical --family C --rank 3 --p 3 --max-degree {HUGE}",
        f"invariants --group classical --family D --rank 4 --p {HUGE}",
        f"inv2-check --max-degree {HUGE}",
        f"ring --name bso --n {HUGE}",
        f"ring --name bo --n {HUGE}",
        f"ring --name bz2 --series-to {HUGE}",
        f"restrict --n {HUGE}",
        f"restrict --n {HUGE} --target K",
        f"jacobian --r {HUGE}",
        f"quillen --n {HUGE}",
        f"quillen --n 11 --dims {HUGE}",
        f"quillen --n 11 --dims 0..{HUGE}",
        # a one-variable ring holds one monomial in every degree: the exponent
        # limit refuses degree 128
        f"invariants --group nakajima --r 2 --max-degree {HUGE}",
        f"invariants --group classical --family B --rank 1 --p 3 --max-degree {HUGE}",
        # and each size argument below its lower side
        "degrees --family A --rank 0",
        "primes --family O --rank 0",
        "weyl --family B --rank 0",
        "flag-poincare --family Spin --rank 2",
        "invariants --group spin --n 5",
        "invariants --group spin --n 11 --max-degree 0",
        "invariants --group spin --n 7 --max-degree -2",
        "invariants --group nakajima --r 1",
        "invariants --group nakajima --r 5 --max-degree 0",
        "invariants --group nakajima --r 5 --p -3",
        "invariants --group classical --family B --rank 0 --p 3",
        "invariants --group classical --family C --rank 3 --p 3 --max-degree -1",
        "invariants --group classical --family D --rank 4 --p -2",
        "inv2-check --max-degree 0",
        "inv2-check --max-degree -2",
        "ring --name bso --n 1",
        "ring --name bo --n 0",
        "ring --name bz2 --series-to -1",
        "ring --name bso --n 5 --series-to -3",
        "restrict --n 1",
        "restrict --n 5 --target K",
        "jacobian --r 1",
        "quillen --n 5",
        "quillen --n 11 --dims -1",
        "quillen --n 11 --dims 5..2",
    ],
}


def check_refused(entry, capsys, tmp_path, monkeypatch):
    argv, line = (entry, None) if isinstance(entry, str) else entry
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    t0 = time.perf_counter()
    code = main(argv.split())
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("modp: error: ")
    assert "Traceback" not in captured.err
    assert line is None or captured.err == line + "\n"
    assert not list(tmp_path.glob("*.json"))
    assert elapsed < 1.5


def argv_of(entry):
    return entry if isinstance(entry, str) else entry[0]


@pytest.mark.parametrize("entry", REFUSED["precondition"], ids=argv_of)
def test_precondition_errors_exit_2(entry, capsys, tmp_path, monkeypatch):
    check_refused(entry, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("entry", REFUSED["size"], ids=argv_of)
def test_every_size_argument_is_refused_at_once(entry, capsys, tmp_path, monkeypatch):
    check_refused(entry, capsys, tmp_path, monkeypatch)


# the smallest or largest value each lower side accepts
@pytest.mark.parametrize("argv, last", [
    ("invariants --group spin --n 7 --max-degree 1", "PASS"),
    ("inv2-check --max-degree 1", "PASS"),
    ("ring --name bz2 --series-to 0", "series: 1"),
    ("quillen --n 11 --dims 3..3", "dim H^3 = 0"),
    ("invariants --group nakajima --r 2 --max-degree 127", "PASS"),
])
def test_edge_sizes_are_accepted(argv, last, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert out.splitlines()[-1] == last


# the least rank of each family, written out so that moving a bound in
# groupdata fails here; an exceptional family takes its one rank only
LEAST_RANK = {"A": 1, "B": 1, "C": 1, "D": 3, "G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8,
              "GL": 1, "SO": 2, "O": 1, "Sp": 2, "Spin": 3}


@pytest.mark.parametrize("family", sorted(_MINIMUM_RANK))
def test_each_rank_bound_holds_on_both_sides(family, capsys, tmp_path, monkeypatch):
    least = LEAST_RANK[family]
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, "degrees", "--family", family, "--rank", str(least))[0] == 0
    line = (f"{family} has rank {least}, got {least - 1}" if family in _EXCEPTIONAL_RANK
            else f"need the rank of {family} >= {least}, got {least - 1}")
    check_refused((f"degrees --family {family} --rank {least - 1}", f"modp: error: {line}"),
                  capsys, tmp_path, monkeypatch)


def counts_by_weight(weights, top: int) -> list[int]:
    """counts[d] for d <= top: the monomials of degree d on variables of
    the given weights, each exponent below EXPONENT_LIMIT, one variable at
    a time, without the library's count table."""
    counts = [1] + [0] * top
    for w in weights:
        grown = [0] * (top + 1)
        for d, c in enumerate(counts):
            for e in range(min(EXPONENT_LIMIT - 1, (top - d) // w) + 1):
                grown[d + e * w] += c
        counts = grown
    return counts


def test_the_monomial_guard_on_both_sides(capsys, tmp_path, monkeypatch):
    # the minimal presentation of quillen --n 8 is free on weights 4, 6, 7,
    # 8, 8, so each dimension is the size of its component: the last degree
    # whose component fits under MONOMIAL_GUARD answers it, and the first
    # one over the guard, which comes before it, gives its exact line
    small = quillen.quillen_presentation(8).minimal()
    assert small.relations == () and small.ring.weights == (4, 6, 7, 8, 8)
    counts = counts_by_weight(small.ring.weights, DIMS_MAX_DEGREE)
    accepted = max(d for d, c in enumerate(counts) if c <= MONOMIAL_GUARD)
    refused = min(d for d, c in enumerate(counts) if c > MONOMIAL_GUARD)
    assert refused < accepted < DIMS_MAX_DEGREE
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "quillen", "--n", "8", "--dims", str(accepted), "--no-cache")
    assert code == 0
    assert out.splitlines()[-1] == f"dim H^{accepted} = {counts[accepted]}"
    check_refused((f"quillen --n 8 --dims {refused}",
                   f"modp: error: degree {refused} needs {counts[refused]} monomials "
                   f"(> guard {MONOMIAL_GUARD})"), capsys, tmp_path, monkeypatch)


# sizes from the count table of the minimal presentation of Spin(11), on
# which the linear algebra runs: degree 282 is the first over the guard
@pytest.mark.parametrize("dims, degree, size", [
    ("300", 300, 282223),
    ("0..300", 282, 205620),
])
def test_quillen_guard_trips_before_any_basis_walk(dims, degree, size, capsys, tmp_path,
                                                   monkeypatch):
    from modp.exactalg import PolyRing

    def never(self, d):
        raise AssertionError(f"basis of degree {d} walked before the monomial guard")

    monkeypatch.setattr(PolyRing, "_enumerate", never)
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    assert main(["quillen", "--n", "11", "--dims", dims]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"modp: error: degree {degree} needs {size} monomials (> guard 200000)\n"


def test_quillen_to_120_matches_the_series(capsys, tmp_path, monkeypatch):
    from modp.quillen import quillen_presentation

    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "quillen", "--n", "11", "--dims", "0..120", "--no-cache",
                        "--json")
    assert code == 0
    series = quillen_presentation(11).series().coefficients(120)
    assert [(row["degree"], row["dim"]) for row in json.loads(out)["result"]["dims"]] == \
        list(enumerate(series))


def test_quillen_verbose_reports_the_minimal_presentation(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    argv = ["quillen", "--n", "11", "--dims", "0..20", "--json"]
    code, quiet = run_cli(capsys, *argv, "--no-cache")
    assert code == 0
    line = ("modp: minimal presentation 11 generators / 6 relations -> 7 generators, "
            "relation degrees [17, 33]\n")
    for status in ("miss", "hit"):
        assert main(argv + ["--verbose"]) == 0
        captured = capsys.readouterr()
        assert captured.out == quiet
        assert captured.err.startswith(line + f"modp: cache {status}\n")
        assert captured.err.count("\n") == 3  # and the "finished in" line
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_closed_stdout_exits_1_without_a_traceback(capsys, tmp_path, monkeypatch):
    import io

    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["quillen", "--n", "11", "--dims", "0..34", "--no-cache"]) == 1
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ""


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "11/11 selftests passed"


def test_route_mismatch_exits_1(capsys, tmp_path, monkeypatch):
    import modp.quillen

    def mismatch():
        raise RuntimeError("series 26 != linear algebra 27")

    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(modp.quillen, "spin11_compare", mismatch)
    assert main(["spin-compare", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "modp: spin-compare failed: series 26 != linear algebra 27\n"


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_json_golden.json").read_text())


def golden_ids(cases):
    """The first three words of each argv, or the first five where an
    earlier case already took those three (a second jacobian variant)."""
    ids = []
    for case in cases:
        short = " ".join(case["argv"][:3])
        ids.append(short if short not in ids else " ".join(case["argv"][:5]))
    return ids


# the jacobian cases cover r = 2..6 in both variants, recorded before the
# two certificates shared one path; the --csv cases were recorded before
# each command declared only the output flags it reads
@pytest.mark.parametrize("case", GOLDEN, ids=golden_ids(GOLDEN))
def test_json_bytes_match_golden(case, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    for verbose in ([], ["--verbose"]):
        code, out = run_cli(capsys, *case["argv"], *verbose)
        assert code == 0
        assert out == case["stdout"]


COMMON_FLAGS = {"-h", "--help", "--verbose", "--no-cache"}
GROUP_OPTIONS = {"--family", "--rank", "--json"}
# the flags each subcommand reads besides COMMON_FLAGS; --csv only where a
# table is written
SURFACE = {
    "degrees": GROUP_OPTIONS,
    "primes": GROUP_OPTIONS,
    "weyl": GROUP_OPTIONS,
    "flag-poincare": GROUP_OPTIONS | {"--csv"},
    "invariants": {"--group", "--n", "--r", "--family", "--rank", "--p", "--max-degree",
                   "--json", "--csv"},
    "inv2-check": {"--max-degree", "--json", "--csv"},
    "ring": {"--name", "--n", "--series-to", "--json"},
    "whitney": {"--e", "--f", "--json"},
    "restrict": {"--n", "--target", "--json"},
    "jacobian": {"--r", "--variant", "--json"},
    "quillen": {"--n", "--dims", "--json", "--csv"},
    "spin-compare": {"--json"},
    "selftest": set(),
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    for name, parser in subparsers.choices.items():
        flags = {s for action in parser._actions for s in action.option_strings}
        assert flags == SURFACE[name] | COMMON_FLAGS, name
        exclusive = {tuple(s for action in group._group_actions for s in action.option_strings)
                     for group in parser._mutually_exclusive_groups}
        assert exclusive == ({("--json", "--csv")} if "--csv" in flags else set()), name
    assert set(subparsers.choices) == set(SURFACE)


@pytest.mark.parametrize("argv", [
    "invariants --n 13 --max-degree 40",
    "invariants --group nakajima --r 8 --max-degree 40",
    "invariants --group classical --family B --rank 8 --p 3 --max-degree 40",
])
def test_guard_trips_before_the_claim_is_built(argv, capsys, tmp_path, monkeypatch):
    import modp.invariants

    def never(*args):
        raise AssertionError("claim built before the monomial guard")

    for builder in ("spin_claimed", "nakajima_claimed", "classical_claimed"):
        monkeypatch.setattr(modp.invariants, builder, never)
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("modp: error: degree ")
    if argv == "invariants --n 13 --max-degree 40":
        assert captured.err == "modp: error: degree 27 needs 201376 monomials (> guard 200000)\n"


def test_cache_misses_when_the_source_changes(capsys, tmp_path, monkeypatch):
    import modp.cli
    import modp.quillen

    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    argv = ("quillen", "--n", "11", "--dims", "0..8", "--json")
    code, cold = run_cli(capsys, *argv)
    assert code == 0
    (old_entry,) = tmp_path.glob("*.json")
    calls = []
    original = modp.quillen.quillen_presentation

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(modp.quillen, "quillen_presentation", counted)
    assert run_cli(capsys, *argv) == (0, cold)
    assert calls == []  # warm: served from the entry
    monkeypatch.setattr(modp.cli, "source_digest", lambda: "0" * 64)
    # the entry under the command's key, written by other code, is stale
    key = modp.cli.ResultCache._digest(["quillen", {"n": 11, "dims": list(range(9))}])
    new_path = tmp_path / f"{key}.json"
    new_path.write_text(old_entry.read_text())
    assert run_cli(capsys, *argv) == (0, cold)
    assert calls and set(calls) == {11}  # stale: recomputed
    recomputed = len(calls)
    doc = json.loads(new_path.read_text())
    assert doc["digest"] == modp.cli.ResultCache._digest(["0" * 64, doc["payload"]])
    assert run_cli(capsys, *argv) == (0, cold)
    assert len(calls) == recomputed  # warm again
    assert len(list(tmp_path.glob("*.json"))) == 1  # the stale entry was overwritten


def test_verbose_reports_each_cache_status(capsys, tmp_path, monkeypatch):
    (case,) = [c for c in GOLDEN if c["argv"][0] == "quillen" and "--json" in c["argv"]]
    argv = [a for a in case["argv"] if a != "--no-cache"]
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))

    def status_of(*extra):
        assert main(argv + list(extra)) == 0
        captured = capsys.readouterr()
        assert captured.out == case["stdout"]
        if "--verbose" not in extra:
            assert captured.err == ""
            return None
        (status,) = [line for line in captured.err.splitlines()
                     if line.startswith("modp: cache ")]
        return status.removeprefix("modp: cache ")

    assert status_of() is None
    assert status_of("--verbose") == "hit"
    (entry,) = tmp_path.glob("*.json")
    entry.unlink()
    assert status_of("--verbose") == "miss"
    doc = json.loads(entry.read_text())
    # one payload value changed under the digest it was written with
    entry.write_text(json.dumps(dict(doc, payload=dict(doc["payload"], h=-1))))
    assert status_of("--verbose") == "stale"
    assert status_of("--verbose") == "hit"
    # an entry in the earlier seven-field format, whose digest covered the
    # payload alone: stale once, then overwritten in place
    payload = doc["payload"]
    entry.write_text(json.dumps({
        "schema": "modp/1", "key": entry.stem, "version": cli.__version__,
        "source": cli.source_digest(), "digest": cli.ResultCache._digest(payload),
        "created_at": "2026-01-01T00:00:00Z", "payload": payload}))
    assert status_of("--verbose") == "stale"
    assert status_of("--verbose") == "hit"
    assert json.loads(entry.read_text()) == doc
    assert status_of("--verbose", "--no-cache") == "off"
    assert status_of("--no-cache") is None


def test_commands_without_a_cache_report_no_status(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    assert main(["weyl", "--family", "B", "--rank", "3", "--verbose"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("modp: weyl finished in ")
    assert "modp: cache" not in err


@pytest.mark.parametrize("target, wrong, message", [
    ("flag_poincare", lambda g: Series([1, 3, 5, 6, 5, 3, 1]),
     "BFS length series [1, 3, 5, 7, 8, 8, 7, 5, 3, 1] != flag Poincare polynomial "
     "[1, 3, 5, 6, 5, 3, 1]"),
    ("weyl_elements", lambda g: [None] * 47, "47 signed permutations != BFS order 48"),
], ids=["series", "elements"])
def test_weyl_route_mismatch_exits_1(target, wrong, message, capsys, tmp_path, monkeypatch):
    import modp.cli

    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(modp.cli, target, wrong)
    assert main(["weyl", "--family", "B", "--rank", "3", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"modp: weyl failed: {message}\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("change, max_degree, last_lines", [
    # Spin(11) without eta4, of degree 16: the span falls one short there
    (lambda cp: ClaimedPresentation(cp.names[:-1], cp.values[:-1]), 16,
     ["    16          18    17      17  NO", "FAIL"]),
    (lambda cp: ClaimedPresentation(cp.names, (cp.values[-1].ring.var("x1"),) + cp.values[1:]),
     4, ["FAIL: generator c2 is not invariant under s(1,2)"]),
], ids=["short claim", "generator not invariant"])
def test_a_failing_report_exits_1(change, max_degree, last_lines, capsys, tmp_path,
                                  monkeypatch):
    import modp.invariants

    claimed = modp.invariants.spin_claimed
    monkeypatch.setattr(modp.invariants, "spin_claimed", lambda *a: change(claimed(*a)))
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    assert main(["invariants", "--n", "11", "--max-degree", str(max_degree), "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("Spin(11) mod 2  claimed k[c2, c3, c4, c5")
    assert lines[-len(last_lines):] == last_lines


@pytest.mark.parametrize("variant", ["O", "SO"])
def test_a_failing_jacobian_certificate_exits_1(variant, capsys, tmp_path, monkeypatch):
    from modp import charclass

    # a product that lacks the factor t1 + t2
    monkeypatch.setattr(charclass, "_vandermonde",
                        lambda ring, ts: ring.var(ts[0]) * ring.var(ts[1]))
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    report = charclass.jacobian_certificate(3, variant)
    assert not report.ok
    assert not report.difference.is_zero()
    assert main(["jacobian", "--r", "3", "--variant", variant]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{variant} variant, r=3: FAIL",
        f"determinant = {report.determinant}",
        "expected    = t1*t2"]
    assert main(["jacobian", "--r", "3", "--variant", variant, "--json"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["ok"], result["expected"]) == (False, "t1*t2")
    assert result["difference"] == str(report.difference) != "0"


@pytest.mark.parametrize("target, wrong, message", [
    # a relation that lies in the ideal of the other one: the series, which
    # reads the relations as a regular sequence, loses degree 32 - 21
    ("spin11_lower_bound_ring",
     lambda: GradedPresentation([Generator(f"u{i}", i) for i in (4, 6, 7, 8, 10, 11)],
                                ["u11*u6 + u10*u7", "u4*u11*u6 + u4*u10*u7"]),
     "lower-bound ring: series vs linear algebra mismatch"),
    ("quillen_dim", lambda n, d: 27,
     "degree-32 comparison failed: topology 27, restriction image 26, "
     "explicit presentation 26"),
], ids=["lower bound", "degree 32"])
def test_spin_compare_route_mismatch_exits_1(target, wrong, message, capsys, tmp_path,
                                             monkeypatch):
    import modp.quillen

    monkeypatch.setattr(modp.quillen, target, wrong)
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    assert main(["spin-compare", "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"modp: spin-compare failed: {message}\n"


def test_a_cache_dir_that_is_a_file_warns_and_answers(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("MODP_CACHE_DIR", str(blocker))
    argv = ["quillen", "--n", "11", "--dims", "0..8"]
    code, uncached = run_cli(capsys, *argv, "--no-cache")
    assert code == 0
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == uncached
    assert captured.err == (f"modp: cache directory {blocker} is not writable; "
                            "continuing without cache\n")


def test_an_entry_that_is_a_directory_warns_and_answers(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    argv = ["quillen", "--n", "11", "--dims", "3"]
    code, cold = run_cli(capsys, *argv)
    (entry,) = tmp_path.glob("*.json")
    entry.unlink()
    entry.mkdir()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == (f"modp: cache directory {tmp_path} is not writable; "
                            "continuing without cache\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [entry.name]


def test_a_failed_cache_write_leaves_no_temporary_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    argv = ["quillen", "--n", "11", "--dims", "0..8"]
    code, uncached = run_cli(capsys, *argv, "--no-cache")

    def full(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli.os, "replace", full)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == uncached
    assert captured.err == (f"modp: cache directory {tmp_path} is not writable; "
                            "continuing without cache\n")
    assert list(tmp_path.iterdir()) == []


def test_a_warm_entry_is_served_as_written_and_no_cache_recomputes(capsys, tmp_path,
                                                                    monkeypatch):
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    argv = ["quillen", "--n", "11", "--dims", "0..8", "--json"]
    code, cold = run_cli(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.glob("*.json")
    doc = json.loads(entry.read_text())
    payload = dict(doc["payload"], h=-1)
    digest = cli.ResultCache._digest([cli.source_digest(), payload])
    written = json.dumps({"digest": digest, "payload": payload})
    entry.write_text(written)
    code, served = run_cli(capsys, *argv)
    assert json.loads(served)["result"]["h"] == -1  # a warm entry is served as it is
    assert main(argv + ["--no-cache", "--verbose"]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert "modp: cache off" in captured.err.splitlines()
    assert entry.read_text() == written  # --no-cache leaves the entry alone


def test_an_exceptional_weyl_group_has_no_elements_count(capsys, tmp_path, monkeypatch):
    # the signed permutations cover the classical families only
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    code, out = run_cli(capsys, "weyl", "--family", "G2", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order"] == 12
    assert "elements" not in result


FAMILIES = ["A", "B", "C", "D", "G2", "F4", "E6", "O", "SO", "Sp", "Spin", "X"]
RING_UCLASS = '{"ring":{"vars":["a","b"],"weights":[1,2]},"components":["1","a","b + a^2"]}'
GROUP_FLAGS = {"--family": (FAMILIES, ()), "--rank": (range(1, 5), (0, 121))}
# Per subcommand, each flag's small valid values, and the values just
# outside its bounds (or malformed ones, for a flag that takes no size).
FUZZED = {
    "degrees": GROUP_FLAGS,
    "primes": GROUP_FLAGS,
    "weyl": GROUP_FLAGS,
    "flag-poincare": GROUP_FLAGS,
    "invariants --group spin": {"--n": (range(6, 10), (5, 14)), "--p": ([2], (3,)),
                                "--max-degree": (range(1, 7), (0,))},
    "invariants --group nakajima": {"--r": (range(2, 6), (1, 14)), "--p": ([2, 3, 5], (1, 4)),
                                    "--max-degree": (range(1, 7), (0,))},
    "invariants --group classical": {"--family": (["B", "C", "D"], ("A",)),
                                     "--rank": (range(1, 4), (0, 15)),
                                     "--p": ([2, 3, 5, 7], (1, 4)),
                                     "--max-degree": (range(1, 7), (0,))},
    "inv2-check": {"--max-degree": (range(1, 9), (0,))},
    "ring": {"--name": (["bso", "bo", "bmu", "bz2"], ()), "--n": (range(2, 13), (1, 1001)),
             "--series-to": (range(0, 31), (-1, 10001))},
    "whitney": {"--e": ([RING_UCLASS], ("[]", "{", '{"components":["1","a"]}')),
                "--f": ([RING_UCLASS, '{"components":["1","0","0"]}', '{"components":["1","a"]}'],
                        ("[]", "{", '{"components":["1","c"]}'))},
    "restrict": {"--n": (range(2, 13), (1, 29)), "--target": (["bo2r", "K"], ())},
    "jacobian": {"--r": (range(2, 5), (1, 7)), "--variant": (["O", "SO"], ())},
    "quillen": {"--n": (range(6, 13), (5, 18)),
                "--dims": (["0..12", "7", "3..9"], ("-1", "5..4", "0..1001"))},
    "spin-compare": {},
    "selftest": {},
}


def fuzzed_argv(rng):
    command = rng.choice(sorted(FUZZED))
    argv = command.split()
    for flag, (small, outside) in FUZZED[command].items():
        if rng.random() < 0.05:
            continue  # a flag left out
        token = "".join(rng.choice(string.printable.strip()) for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.75:
            value = rng.choice(small)
        else:
            value = rng.choice(list(outside) + [HUGE, "1.5", "x", "", token])
        argv += [flag, str(value)]
    return argv + [flag for flag in ("--json", "--csv", "--verbose", "--no-cache")
                   if rng.random() < 0.2]


def test_fuzzed_argv_exit_0_1_or_2(capsys, tmp_path, monkeypatch):
    rng = random.Random(2024)
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))

    def timeout(signum, frame):
        pytest.fail(f"main({argv}) ran for over 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    t0 = time.perf_counter()
    try:
        for _ in range(300):
            argv = fuzzed_argv(rng)
            signal.alarm(5)
            try:
                code = main(argv)
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            if code == 2:
                assert len(err.splitlines()) == 1 and err.startswith("modp: error: "), argv
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 10
