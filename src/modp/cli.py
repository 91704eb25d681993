"""Command-line front end: deterministic text/JSON/CSV emitters and a
content-addressed on-disk cache for the expensive verification runs."""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .exactalg import MONOMIAL_GUARD, PolyRing, check_monomial_guard, check_size
from .groupdata import (
    _EXCEPTIONAL_RANK,
    GroupSpec,
    flag_poincare,
    fundamental_degrees,
    good_primes_excluded,
    isotropic_grassmannian_poincare,
    torsion_primes,
    weyl_elements,
    weyl_length_series,
)
from . import charclass, invariants, quillen

SCHEMA = "modp/1"


# -- cache -------------------------------------------------------------

def default_cache_dir() -> Path:
    env = os.environ.get("MODP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "modp-invariants"


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """sha256 over the names and bytes of the package's modp/*.py files,
    read once per process, so that a cached result is never served to
    different code under the same version string."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class ResultCache:
    """JSON store with one entry per (operation, parameters).  An entry is
    {"digest", "payload"}, and it is served only when its digest is the
    sha256 of the canonical JSON of [source_digest(), payload], so a result
    is never served to different code; any other entry, or one that cannot
    be read or parsed as a JSON object, is stale and is recomputed and
    overwritten in place where it can be, so no entry is left behind.
    `status` is what the last roundtrip did: "hit", "miss" (no entry),
    "stale" (an entry that could not be served) or "off"; None before any
    roundtrip."""

    def __init__(self, directory: Path, policy: str = "use"):
        self.directory = directory
        self.policy = policy
        self.status = None

    @staticmethod
    def _digest(value) -> str:
        return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()

    def roundtrip(self, op: str, params: dict, compute):
        if self.policy == "off":
            self.status = "off"
            return compute()
        path = self.directory / f"{self._digest([op, params])}.json"
        self.status = "miss"
        if path.exists():
            self.status = "stale"
            try:
                entry = json.loads(path.read_text())
                if (isinstance(entry, dict) and entry.get("digest")
                        == self._digest([source_digest(), entry.get("payload")])):
                    self.status = "hit"
                    return entry["payload"]
            except (OSError, ValueError, KeyError):
                pass  # an unreadable or corrupted entry: recompute and overwrite
        payload = compute()
        entry = {"digest": self._digest([source_digest(), payload]), "payload": payload}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle, sort_keys=True)
                os.replace(tmp, path)
            except OSError:
                os.unlink(tmp)  # a failed write leaves no temporary file behind
                raise
        except OSError:
            print(f"modp: cache directory {self.directory} is not writable; "
                  "continuing without cache", file=sys.stderr)
        return payload


# -- emitters ----------------------------------------------------------

def emit(args, params: dict, result: dict, text_lines: list[str],
         csv_rows: list[list] | None = None) -> None:
    """Only the commands that pass `csv_rows` declare --csv."""
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command, "params": params,
               "result": result}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    elif csv_rows is not None and args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
    else:
        for line in text_lines:
            print(line)


def group_payload(g: GroupSpec) -> dict:
    return {"family": g.family, "rank": g.rank,
            "degrees": fundamental_degrees(g),
            "bad_primes": sorted(good_primes_excluded(g)),
            "torsion_primes": sorted(torsion_primes(g))}


def _group_from_args(args) -> GroupSpec:
    rank = args.rank
    if rank is None:
        if args.family not in _EXCEPTIONAL_RANK:
            raise ValueError(f"--rank is required for family {args.family}")
        rank = _EXCEPTIONAL_RANK[args.family]
    return GroupSpec(args.family, rank)


# -- subcommands -------------------------------------------------------

def cmd_degrees(args) -> int:
    g = _group_from_args(args)
    payload = group_payload(g)
    emit(args, {"family": g.family, "rank": g.rank}, payload,
         [" ".join(str(d) for d in payload["degrees"]) or "-"])
    return 0


def cmd_primes(args) -> int:
    g = _group_from_args(args)
    payload = group_payload(g)
    emit(args, {"family": g.family, "rank": g.rank}, payload,
         [f"bad: {' '.join(map(str, payload['bad_primes'])) or '-'}",
          f"torsion: {' '.join(map(str, payload['torsion_primes'])) or '-'}"])
    return 0


def cmd_weyl(args) -> int:
    g = _group_from_args(args)
    lengths = weyl_length_series(g)
    expected = flag_poincare(g).as_polynomial()
    if lengths != expected:
        raise RuntimeError(f"BFS length series {lengths} != flag Poincare polynomial "
                           f"{expected}")
    payload = {"family": g.family, "rank": g.rank,
               "order": sum(lengths), "length_series": lengths}
    try:
        payload["elements"] = len(weyl_elements(g))
    except ValueError:
        pass
    else:
        if payload["elements"] != payload["order"]:
            raise RuntimeError(f"{payload['elements']} signed permutations != BFS order "
                               f"{payload['order']}")
    emit(args, {"family": g.family, "rank": g.rank}, payload,
         [f"order {payload['order']}",
          "length series " + " ".join(map(str, lengths))])
    return 0


def cmd_flag_poincare(args) -> int:
    g = _group_from_args(args)
    coeffs = flag_poincare(g).as_polynomial()
    payload = {"family": g.family, "rank": g.rank, "coefficients": coeffs,
               "value_at_one": sum(coeffs)}
    emit(args, {"family": g.family, "rank": g.rank}, payload,
         [" ".join(map(str, coeffs)), f"value at q=1: {sum(coeffs)}"],
         csv_rows=[["degree", "coefficient"]] + [[i, c] for i, c in enumerate(coeffs)])
    return 0


def _report_payload(report) -> dict:
    return {"label": report.label, "claimed": report.claimed,
            "failure": report.failure, "passed": report.passed,
            "rows": [{"degree": r.degree, "invariant_dim": r.invariant_dim,
                      "span_rank": r.span_rank, "series_coeff": r.series_coeff,
                      "ok": r.ok} for r in report.rows]}


def _report_lines(payload: dict) -> list[str]:
    lines = [f"{payload['label']}  claimed k[{', '.join(payload['claimed'])}]"]
    if payload["failure"]:
        lines.append(f"FAIL: {payload['failure']}")
        return lines
    lines.append("degree  invariants  span  series  ok")
    for row in payload["rows"]:
        lines.append(f"{row['degree']:>6}  {row['invariant_dim']:>10}  "
                     f"{row['span_rank']:>4}  {row['series_coeff']:>6}  "
                     f"{'yes' if row['ok'] else 'NO'}")
    lines.append("PASS" if payload["passed"] else "FAIL")
    return lines


def _report_csv(payload: dict) -> list[list]:
    rows = [["degree", "invariant_dim", "span_rank", "series_coeff", "ok"]]
    for r in payload["rows"]:
        rows.append([r["degree"], r["invariant_dim"], r["span_rank"],
                     r["series_coeff"], int(r["ok"])])
    return rows


def _check_flags(args, kind: str, own: tuple[str, ...], optional: tuple[str, ...]) -> None:
    """Refuse a call of `kind` that leaves out one of the flags it reads,
    or gives one of the optional flags that it does not read."""
    given = vars(args)
    if any(given[flag] is None for flag in own):
        raise ValueError(f"{kind} needs " + " and ".join(f"--{flag}" for flag in own))
    ignored = [f"--{flag}" for flag in optional if flag not in own and given[flag] is not None]
    if ignored:
        raise ValueError(f"{kind} does not read {' or '.join(ignored)}")


# the flags each group reads, besides --p and --max-degree
_GROUP_FLAGS = {"spin": ("n",), "nakajima": ("r",), "classical": ("family", "rank")}


def cmd_invariants(args) -> int:
    dmax = args.max_degree
    check_size("max degree", dmax, 1, math.inf)
    _check_flags(args, f"--group {args.group}", _GROUP_FLAGS[args.group],
                 ("n", "r", "family", "rank"))
    params = {"group": args.group, "n": args.n, "r": args.r,
              "family": args.family, "rank": args.rank, "p": args.p,
              "max_degree": dmax}

    def compute() -> dict:
        if args.group == "spin":
            action = invariants.spin_action(args.n, args.p)
            claim = functools.partial(invariants.spin_claimed, action, args.n)
        elif args.group == "nakajima":
            action = invariants.symmetric_quotient_action(args.r, args.p)
            claim = functools.partial(invariants.nakajima_claimed, action)
        else:
            action = invariants.classical_action(args.family, args.rank, args.p)
            claim = functools.partial(invariants.classical_claimed, action,
                                      args.family, args.rank, args.p)
        # the guard needs only the ring; building a claim can take seconds
        check_monomial_guard(action.ring, range(dmax + 1))
        return _report_payload(invariants.verify_presentation(action, claim(), dmax))

    payload = args.cache.roundtrip("invariants", params, compute)
    emit(args, params, payload, _report_lines(payload), csv_rows=_report_csv(payload))
    return 0 if payload["passed"] else 1


def cmd_inv2_check(args) -> int:
    ring = PolyRing(["y", "x"])
    report = invariants.lemma_inv2_check(ring, ring.var("y"), "x", args.max_degree)
    payload = _report_payload(report)
    emit(args, {"max_degree": args.max_degree}, payload,
         _report_lines(payload), csv_rows=_report_csv(payload))
    return 0 if payload["passed"] else 1


_RING_BUILDERS = {
    "bso": lambda args: charclass.bso_presentation(args.n),
    "bo": lambda args: charclass.bo_presentation(args.n),
    "bmu": lambda args: charclass.bmu_p_presentation(),
    "bz2": lambda args: charclass.bz2_presentation(),
}


# `modp ring --name bso --n 1000 --series-to 10000` takes about 1.4 s.
SERIES_MAX_DEGREE = 10_000


def cmd_ring(args) -> int:
    _check_flags(args, f"--name {args.name}", ("n",) if args.name in ("bso", "bo") else (),
                 ("n",))
    check_size("--series-to", args.series_to, 0, SERIES_MAX_DEGREE)
    pres = _RING_BUILDERS[args.name](args)
    series = pres.series().coefficients(args.series_to)
    payload = dict(pres.to_json(), series=series)
    gens = ", ".join(f"{g.name}({g.degree})" for g in pres.generators)
    emit(args, {"name": args.name, "n": args.n, "series_to": args.series_to}, payload,
         [f"generators: {gens}",
          "relations: " + ("; ".join(payload["relations"]) or "none"),
          "series: " + " ".join(map(str, series))])
    return 0


_UCLASS_SHAPE = '{"ring": {"vars": [str], "weights": [int]}, "components": [str]}'

# The Whitney sum pairs each term with those of the other class below the
# truncation, quadratic in it for dense classes, so the length is bounded.
UCLASS_MAX_TRUNCATION = 1000
# as many as the largest cataloged ring, bo_presentation(1000)
UCLASS_MAX_VARS = 1000


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(type(v) is kind for v in value)


def _uclass_from_json(doc, presentation=None) -> charclass.UClass:
    """A u-class from a document of shape _UCLASS_SHAPE; without "ring",
    the components are read in `presentation`.  Any other shape is a
    ValueError."""
    if not isinstance(doc, dict) or not _list_of(doc.get("components"), str):
        raise ValueError(f"a u-class is {_UCLASS_SHAPE}")
    # no lower side: UClass refuses an empty class, as u_0 must equal 1
    check_size("the truncation of a u-class", len(doc["components"]) - 1,
               -math.inf, UCLASS_MAX_TRUNCATION)
    if "ring" in doc or presentation is None:
        ring_doc = doc.get("ring")
        if not (isinstance(ring_doc, dict) and _list_of(ring_doc.get("vars"), str)
                and _list_of(ring_doc.get("weights"), int)
                and len(ring_doc["vars"]) == len(ring_doc["weights"])):
            raise ValueError(f"a u-class is {_UCLASS_SHAPE}")
        check_size("the number of u-class variables", len(ring_doc["vars"]), 0, UCLASS_MAX_VARS)
        presentation = charclass.GradedPresentation(
            [charclass.Generator(n, w) for n, w in zip(ring_doc["vars"], ring_doc["weights"])])
    return charclass.UClass(presentation,
                            [presentation.ring.poly(text) for text in doc["components"]])


def cmd_whitney(args) -> int:
    try:
        e = _uclass_from_json(json.loads(args.e))
        f = _uclass_from_json(json.loads(args.f), e.presentation)
        total = charclass.whitney_sum(e, f)
    except ValueError as err:
        raise ValueError(f"bad u-class input: {err}") from None
    payload = {"ring": {"vars": list(total.presentation.ring.names),
                        "weights": list(total.presentation.ring.weights)},
               "components": [str(c) for c in total.components]}
    emit(args, {}, payload,
         [f"u_{m} = {c}" for m, c in enumerate(payload["components"])])
    return 0


def cmd_restrict(args) -> int:
    if args.target == "K":
        rest = charclass.restriction_to_K(args.n)
    else:
        rest = charclass.restriction_bso_to_bo2r(args.n)
    images = {name: str(rest.image_of(name)) for name in rest.source.ring.names}
    payload = {"n": args.n, "target": args.target, "images": images}
    emit(args, {"n": args.n, "target": args.target}, payload,
         [f"{name} -> {img}" for name, img in sorted(
             images.items(), key=lambda kv: rest.source.generator(kv[0]).degree)])
    return 0


def cmd_jacobian(args) -> int:
    report = charclass.jacobian_certificate(args.r, args.variant)
    payload = {"variant": report.variant, "r": report.r, "ok": report.ok,
               "determinant": str(report.determinant),
               "expected": str(report.expected),
               "difference": str(report.difference),
               "row_factors": [str(f) for f in report.row_factors]}
    emit(args, {"r": args.r, "variant": args.variant}, payload,
         [f"{report.variant} variant, r={report.r}: {'PASS' if report.ok else 'FAIL'}",
          f"determinant = {report.determinant}",
          f"expected    = {report.expected}"])
    return 0 if report.ok else 1


# Every degree from 512 on is refused anyway by the monomial guard, by its
# size or by the exponent limit on w4; this bound keeps the list small.
DIMS_MAX_DEGREE = 1000


def _parse_dims(spec: str) -> list[int]:
    lo, sep, hi = spec.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"--dims takes a degree or a range lo..hi, not {spec!r}") from None
    check_size("the low end of --dims", lo, 0, hi)
    check_size("the high end of --dims", hi, lo, DIMS_MAX_DEGREE)
    return list(range(lo, hi + 1))


def cmd_quillen(args) -> int:
    dims = _parse_dims(args.dims)
    params = {"n": args.n, "dims": dims}

    def compute() -> dict:
        pres = quillen.quillen_presentation(args.n)
        # every requested component of the ring the linear algebra walks
        # is counted before any is computed, and so is their sum
        total = check_monomial_guard(pres.minimal().ring, dims)
        if total > MONOMIAL_GUARD:
            raise ValueError(f"--dims {args.dims} needs {total} monomials in all "
                             f"(> guard {MONOMIAL_GUARD})")
        return {"n": args.n, "h": quillen.h_value(args.n),
                "theta_degrees": [r.degree() for r in pres.relations],
                "extra_degree": pres.generator("z").degree,
                "dims": [{"degree": d, "dim": quillen.quillen_dim(args.n, d)}
                         for d in dims]}

    payload = args.cache.roundtrip("quillen", params, compute)
    if args.verbose:
        pres = quillen.quillen_presentation(args.n)
        small = pres.minimal()
        print(f"modp: minimal presentation {len(pres.generators)} generators / "
              f"{len(pres.relations)} relations -> {len(small.generators)} generators, "
              f"relation degrees {[r.degree() for r in small.relations]}", file=sys.stderr)
    lines = [f"h = {payload['h']}, ideal degrees {payload['theta_degrees']}, "
             f"extra generator degree {payload['extra_degree']}"]
    lines += [f"dim H^{row['degree']} = {row['dim']}" for row in payload["dims"]]
    emit(args, params, payload, lines,
         csv_rows=[["degree", "dim"]] + [[r["degree"], r["dim"]]
                                         for r in payload["dims"]])
    return 0


def cmd_spin_compare(args) -> int:
    def compute() -> dict:
        return quillen.spin11_compare().to_dict()

    payload = args.cache.roundtrip("spin-compare", {}, compute)
    emit(args, {}, payload,
         [f"D_top       = {payload['D_top']}",
          f"D_low       = {payload['D_low']}",
          f"D_dR_lower  = {payload['D_dR_lower']}",
          f"verdict: {payload['verdict']}"])
    return 0


def _bockstein_check() -> bool:
    """beta(fg) = beta(f) g + f beta(g) and beta^2 = 0 on BO(2)^3, with
    exponents of both parities."""
    beta = charclass.bockstein(3)
    f = beta.ring.poly("s1^3*t2 + s2*t3^2 + t1*t2*t3 + s3^2")
    g = beta.ring.poly("s1*t1^3 + s2^2*s3 + t3")
    return (beta(f * g) == beta(f) * g + f * beta(g)
            and not beta(beta(f)) and not beta(beta(g)) and bool(beta(f * g)))


def _whitney_check() -> bool:
    """u(E + F) = u(F + E), and the unit class changes nothing."""
    pres = charclass.GradedPresentation([charclass.Generator("a", 1),
                                         charclass.Generator("b", 2)])
    e = charclass.UClass(pres, [pres.ring.poly(t) for t in ("1", "a", "b", "a*b", "b^2")])
    f = charclass.UClass(pres, [pres.ring.poly(t) for t in ("1", "0", "a^2 + b", "a^3", "a^4")])
    s = charclass.whitney_sum(e, f)
    return (s == charclass.whitney_sum(f, e) and s != e
            and charclass.whitney_sum(e, charclass.unit_uclass(pres, 4)) == e)


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    def check(name, fn):
        t0 = time.time()
        try:
            ok = bool(fn())
        except Exception as err:  # a selftest must not crash the runner
            print(f"FAIL {name}: {err}")
            checks.append((name, False))
            return
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'} {name} ({time.time() - t0:.1f}s)")

    ring = PolyRing(["t1", "t2", "t3"])
    check("poly text roundtrip",
          lambda: ring.poly("t1*t2 + t1*t3 + t2*t3") ==
          ring.poly(str(ring.poly("t1*t2 + t1*t3 + t2*t3"))))
    check("flag poincare vs BFS",
          lambda: weyl_length_series(GroupSpec("B", 3)) ==
          flag_poincare(GroupSpec("B", 3)).as_polynomial())
    check("isotropic grassmannian n=11 total",
          lambda: isotropic_grassmannian_poincare(11).value_at_one() == 32)
    check("spin(7) invariants to degree 8", lambda: invariants.verify_presentation(
        invariants.spin_action(7), invariants.spin_claimed(invariants.spin_action(7), 7),
        8).passed)
    check("lemma inv2 to degree 6", lambda: invariants.lemma_inv2_check(
        PolyRing(["y", "x"]), PolyRing(["y", "x"]).var("y"), "x", 6).passed)
    check("bockstein Leibniz and square zero r=3", _bockstein_check)
    check("whitney commutative, with unit", _whitney_check)
    check("jacobian O r=3", lambda: charclass.jacobian_certificate(3, "O").ok)
    check("jacobian SO r=4", lambda: charclass.jacobian_certificate(4, "SO").ok)
    check("quillen regularity n=11 to 20",
          lambda: all(quillen.quillen_dim(11, d) >= 0 for d in range(21)))
    check("spin11 degree-32 comparison",
          lambda: (rep := quillen.spin11_compare()).D_dR_lower == rep.D_top + 1)
    failures = [name for name, ok in checks if not ok]
    print(f"{len(checks) - len(failures)}/{len(checks)} selftests passed")
    return 0 if not failures else 1


# -- parser ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is a ValueError, which `main` reports as every other:
    one line on stderr and exit 2.  The subparsers are built from the same
    class."""

    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modp",
        description="Exact modular invariant theory and characteristic-class "
                    "calculus at small primes.")
    parser.add_argument("--version", action="version", version=__version__)
    # a command declares only the flags it reads, so argparse refuses the rest:
    # `doc` serves all but selftest, `table` the four commands that write CSV
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true")
    common.add_argument("--no-cache", dest="policy", action="store_const", const="off",
                        default="use")
    doc, table = (argparse.ArgumentParser(add_help=False, parents=[common]) for _ in range(2))
    output = table.add_mutually_exclusive_group()
    for group in (doc, output):
        group.add_argument("--json", action="store_true", help="emit one JSON document")
    output.add_argument("--csv", action="store_true", help="emit the table as CSV")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text, out in (
            ("degrees", cmd_degrees, "fundamental degrees", doc),
            ("primes", cmd_primes, "bad and torsion primes", doc),
            ("weyl", cmd_weyl, "Weyl group order and lengths", doc),
            ("flag-poincare", cmd_flag_poincare, "Poincare polynomial of G/B", table)):
        p = sub.add_parser(name, parents=[out], help=text)
        p.add_argument("--family", required=True)
        p.add_argument("--rank", type=int)
        p.set_defaults(fn=fn)

    p = sub.add_parser("invariants", parents=[table],
                       help="verify a claimed invariant-ring presentation")
    p.add_argument("--group", default="spin", choices=["spin", "nakajima", "classical"])
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--family")
    p.add_argument("--rank", type=int)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=10)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("inv2-check", parents=[table],
                       help="invariants of x -> x+a equal R[x(x+a)]")
    p.add_argument("--max-degree", type=int, default=8)
    p.set_defaults(fn=cmd_inv2_check)

    p = sub.add_parser("ring", parents=[doc], help="cataloged presentations")
    p.add_argument("--name", required=True, choices=sorted(_RING_BUILDERS))
    p.add_argument("--n", type=int)
    p.add_argument("--series-to", type=int, default=20)
    p.set_defaults(fn=cmd_ring)

    p = sub.add_parser("whitney", parents=[doc], help="u-class direct sum")
    p.add_argument("--e", required=True, help="JSON u-class")
    p.add_argument("--f", required=True, help="JSON u-class")
    p.set_defaults(fn=cmd_whitney)

    p = sub.add_parser("restrict", parents=[doc],
                       help="restriction images of the u-classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", default="bo2r", choices=["bo2r", "K"])
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("jacobian", parents=[doc], help="injectivity certificate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--variant", default="O", choices=["O", "SO"])
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("quillen", parents=[table],
                       help="dimensions of H*(BSpin(n); F_2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", default="0..20", help="degree or range, e.g. 0..34")
    p.set_defaults(fn=cmd_quillen)

    p = sub.add_parser("spin-compare", parents=[doc],
                       help="the degree-32 Spin(11) comparison")
    p.set_defaults(fn=cmd_spin_compare)

    p = sub.add_parser("selftest", parents=[common], help="quick verification battery")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    """Exit 0 on success, 1 when a verification fails (a failed report, or
    a RuntimeError from two routes that disagree) or the output could not
    be written, 2 on a usage or precondition error; every error is one
    line on stderr, and a closed stdout prints nothing.  Under --verbose,
    a command that used the cache reports its status on stderr.  The code
    is returned, not raised; only --help and --version exit, with 0."""
    try:
        args = build_parser().parse_args(argv)
        args.cache = ResultCache(default_cache_dir(), args.policy)
        t0 = time.time()
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`modp ... | head`): point stdout at devnull
        # so that the flush at exit cannot raise again, and say nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError):
            pass  # not a file descriptor, so nothing is left to flush
        finally:
            os.close(devnull)
        return 1
    except ValueError as err:
        print(f"modp: error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"modp: {args.command} failed: {err}", file=sys.stderr)
        return 1
    if args.verbose:
        if args.cache.status is not None:
            print(f"modp: cache {args.cache.status}", file=sys.stderr)
        print(f"modp: {args.command} finished in {time.time() - t0:.2f}s",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
