"""The four benchmark workloads.

Each workload turns a seed into a list of jobs.  The seed fixes the
order of the jobs and the choices among jobs of equal cost (a classical
family, an output format, the random polynomials of an identity check),
so that every seed gives the same amount of work.  The library sees only
the generated inputs: random polynomials are drawn here as exponent
tuples and handed to `PolyRing.from_terms` inside the job.

A job's `run` returns the raw answer and the verdict of the library's
own two-route check.  `canon` turns the raw answer into JSON data for
the golden comparison, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Job:
    key: str                                # equal keys must give equal answers
    run: Callable[[], tuple[object, bool]]  # timed: (raw answer, library check ok)
    canon: Callable[[object], object]       # untimed: raw answer -> JSON data
    kind: str = "job"                       # cli-cache: cold, warm, nocache, light
    prep: Callable[[], None] | None = None  # untimed, just before run
    after: Callable[[], bool] | None = None  # untimed outside check, just after run


def _exponents(weights: list[int], d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of weighted degree d (the harness's own
    enumeration, so input generation does not touch the library)."""
    out = []
    for e in itertools.product(*[range(d // w + 1) for w in weights]):
        if sum(a * w for a, w in zip(e, weights)) == d:
            out.append(e)
    return out


def _random_terms(rng: random.Random, monos: list, density: float) -> dict:
    """A random set of round(density * len(monos)) monomials; the fixed
    size keeps the cost of a job the same from seed to seed."""
    return dict.fromkeys(rng.sample(monos, round(density * len(monos))), 1)


def _poly_data(f) -> list:
    return sorted([list(m), c] for m, c in f.terms.items())


class Workload:
    name = ""
    # layer metrics that must read nonzero on this workload (self-check)
    exercised: tuple[str, ...] = ()

    def __init__(self, modp: dict, tmp_dir: Path):
        self.m = modp
        self.tmp_dir = tmp_dir
        self.state: dict = {}
        # taken before any tracing wraps them: every memo of modp.quillen
        self.memos = [v for v in vars(modp["quillen"]).values() if hasattr(v, "cache_clear")]

    def prepare(self) -> None:
        """One-time work, timed as part of set-up."""

    def begin_pass(self) -> None:
        self.state = {}
        self.clear_memos()
        gc.collect()  # garbage of the last pass must not inflate this one's peak

    def clear_memos(self) -> None:
        for memo in self.memos:
            memo.cache_clear()

    def close(self) -> None:
        """Release what prepare() made."""

    def pool(self) -> list[Job]:
        """Every job with a seed-independent key, for golden answers."""
        raise NotImplementedError

    def jobs(self, seed: int) -> list[Job]:
        raise NotImplementedError


# -- spin-verify --------------------------------------------------------

class SpinVerify(Workload):
    name = "spin-verify"
    exercised = ("exactalg.subst.calls", "exactalg.mul.calls", "exactalg.add.calls",
                 "exactalg.basis.calls", "exactalg.f2.calls", "exactalg.fp.calls",
                 "invariants.brute.calls", "invariants.orbit.classes",
                 "invariants.verify.calls")
    # The counts put the median job inside the block of 14 rank-4 degree-8
    # jobs and p90 inside the three Spin(9) jobs, so that neither
    # percentile sits on the step between two job sizes.
    SPIN = [(6, 12), (7, 12), (8, 12), (9, 12), (9, 12), (9, 12), (10, 12), (11, 10)]
    NAKAJIMA = [(3, 12), (4, 12), (5, 12)]
    # (rank, degree) slots; the seed picks the family B, C or D of each
    CLASSICAL = [(3, 8)] * 10 + [(4, 8)] * 14 + [(4, 12)] * 4

    def _verify(self, build, dmax: int):
        inv = self.m["invariants"]

        def run():
            action, cp = build(inv)
            rep = inv.verify_presentation(action, cp, dmax)
            return (cp.names, rep), rep.passed and len(rep.rows) == dmax
        return run

    @staticmethod
    def _canon(raw):
        names, rep = raw
        return {"claimed": names, "failure": rep.failure,
                "rows": [[r.degree, r.invariant_dim, r.span_rank, r.series_coeff]
                         for r in rep.rows]}

    def spin_job(self, n: int, d: int) -> Job:
        def build(inv):
            action = inv.spin_action(n, 2)
            return action, inv.spin_claimed(action, n)
        return Job(f"spin({n})@{d}", self._verify(build, d), self._canon)

    def nakajima_job(self, r: int, d: int) -> Job:
        def build(inv):
            action = inv.symmetric_quotient_action(r, 2)
            return action, inv.nakajima_claimed(action)
        return Job(f"nakajima({r})@{d}", self._verify(build, d), self._canon)

    def classical_job(self, family: str, rank: int, d: int) -> Job:
        def build(inv):
            action = inv.classical_action(family, rank, 3)
            return action, inv.classical_claimed(action, family, rank, 3)
        return Job(f"{family}{rank}p3@{d}", self._verify(build, d), self._canon)

    def pool(self) -> list[Job]:
        jobs = [self.spin_job(n, d) for n, d in sorted(set(self.SPIN))]
        jobs += [self.nakajima_job(r, d) for r, d in self.NAKAJIMA]
        jobs += [self.classical_job(f, rank, d) for f in "BCD"
                 for rank, d in sorted(set(self.CLASSICAL))]
        return jobs

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(seed)
        jobs = [self.spin_job(n, d) for n, d in self.SPIN]
        jobs += [self.nakajima_job(r, d) for r, d in self.NAKAJIMA]
        jobs += [self.classical_job(rng.choice("BCD"), rank, d)
                 for rank, d in self.CLASSICAL]
        rng.shuffle(jobs)
        return jobs


# -- ideal-dims ---------------------------------------------------------

class IdealDims(Workload):
    name = "ideal-dims"
    exercised = ("exactalg.basis.calls", "exactalg.basis.monomials", "exactalg.f2.calls",
                 "exactalg.mul.calls", "quillen.dim.calls", "quillen.sq.calls",
                 "charclass.dim_degree.calls")
    QUILLEN = [(10, 48), (11, 44), (12, 40)]   # (n, top degree) of each sweep
    PRESENTATIONS = [("spin11_explicit_presentation", 72),
                     ("spin11_lower_bound_ring", 72)]

    def quillen_job(self, n: int, d: int) -> Job:
        q = self.m["quillen"]
        return Job(f"quillen_dim({n},{d})", lambda: (q.quillen_dim(n, d), True),
                   lambda raw: raw)

    def presentation_job(self, factory: str, d: int, top: int) -> Job:
        q = self.m["quillen"]

        def run():
            # one presentation per sweep and pass, so its basis cache is
            # shared by the ascending degrees the way quillen_dim's is
            if factory not in self.state:
                self.state[factory] = getattr(q, factory)()
            pres = self.state[factory]
            dim = pres.dim_degree(d)
            return dim, dim == pres.series(top).coefficient(d)
        return Job(f"{factory}.dim_degree({d})", run, lambda raw: raw)

    def sweeps(self) -> list[list[Job]]:
        out = [[self.quillen_job(n, d) for d in range(top + 1)] for n, top in self.QUILLEN]
        out += [[self.presentation_job(b, d, top) for d in range(top + 1)]
                for b, top in self.PRESENTATIONS]
        return out

    def pool(self) -> list[Job]:
        return [job for sweep in self.sweeps() for job in sweep]

    def jobs(self, seed: int) -> list[Job]:
        # No choice is left to the seed: the inputs are fixed sweeps, and
        # shuffling their order moved the median job by up to 25% between
        # seeds through allocator and collector state.
        return self.pool()


# -- class-calculus -----------------------------------------------------

class ClassCalculus(Workload):
    name = "class-calculus"
    exercised = ("exactalg.mul.calls", "exactalg.add.calls", "exactalg.subst.calls",
                 "exactalg.det.calls", "charclass.deriv.calls", "charclass.whitney.calls",
                 "charclass.jacobian.calls")
    BOCKSTEIN_RANK = 4
    PAIRS_PER_DEGREES = 6      # Bockstein pairs per (deg a, deg b) in 1..5 x 1..5
    WHITNEY_TRIPLES = 120
    WHITNEY_TRUNCATION = 12

    def bockstein_job(self, key: str, terms_a: dict, terms_b: dict) -> Job:
        cc = self.m["charclass"]

        def run():
            if "beta" not in self.state:
                self.state["beta"] = cc.bockstein(self.BOCKSTEIN_RANK)
            beta = self.state["beta"]
            fa = beta.ring.from_terms(terms_a)
            fb = beta.ring.from_terms(terms_b)
            left = beta(fa * fb)
            ok = left == beta(fa) * fb + fa * beta(fb) and beta(beta(fa)).is_zero()
            return left, ok
        return Job(key, run, _poly_data)

    def whitney_job(self, key: str, comps: list[list[dict]]) -> Job:
        cc = self.m["charclass"]

        def run():
            if "whitney" not in self.state:
                pres = cc.GradedPresentation([cc.Generator("a", 1), cc.Generator("b", 2)])
                self.state["whitney"] = (pres, cc.unit_uclass(pres, self.WHITNEY_TRUNCATION))
            pres, unit = self.state["whitney"]
            e, f, g = (cc.UClass(pres, [pres.ring.one()] +
                                 [pres.ring.from_terms(t) for t in c]) for c in comps)
            s = cc.whitney_sum(e, f)
            ok = (cc.whitney_sum(e, unit) == e and s == cc.whitney_sum(f, e)
                  and cc.whitney_sum(e.even_part(), f.even_part()).even_part() == s.even_part()
                  and cc.whitney_sum(s, g) == cc.whitney_sum(e, cc.whitney_sum(f, g)))
            return s, ok
        return Job(key, run, lambda s: [_poly_data(c) for c in s.components])

    def jacobian_job(self, r: int, variant: str) -> Job:
        cc = self.m["charclass"]

        def run():
            rep = cc.jacobian_certificate(r, variant)
            return rep, rep.ok
        return Job(f"jacobian({r},{variant})", run,
                   lambda rep: [rep.ok, _poly_data(rep.determinant)])

    def restriction_job(self, n: int) -> Job:
        """Images of restriction_bso_to_bo2r(n); for r = n//2 <= 5 also the
        odd-class identity against the Bockstein (criterion 6)."""
        cc = self.m["charclass"]
        ea = self.m["exactalg"]

        def run():
            rest = cc.restriction_bso_to_bo2r(n)
            images = {u: rest.image_of(u) for u in rest.source.ring.names}
            r = n // 2
            ok = True
            if r <= 5:
                beta = cc.bockstein(r)
                ring = beta.ring
                ts = [f"t{i}" for i in range(1, r + 1)]
                s_total = ring.zero()
                for i in range(1, r + 1):
                    s_total = s_total + ring.var(f"s{i}")
                for a in range(1, r + (n % 2)):
                    e_a = ea.elementary_symmetric(ring, a, ts)
                    want = beta(e_a) if n % 2 else beta(e_a) + s_total * e_a
                    ok = ok and images[f"u{2 * a + 1}"] == want
            return images, ok
        return Job(f"restrict_bo2r({n})", run,
                   lambda images: {u: _poly_data(f) for u, f in images.items()})

    def restriction_k_job(self, n: int) -> Job:
        """restriction_to_K(n) against collapse_to_K after the BO(2)^r
        restriction."""
        cc = self.m["charclass"]

        def run():
            rest = cc.restriction_to_K(n)
            via = cc.restriction_bso_to_bo2r(n)
            collapse = cc.collapse_to_K(n // 2)
            images = {u: rest.image_of(u) for u in rest.source.ring.names}
            ok = all(images[u] == collapse(via.image_of(u)) for u in images)
            return images, ok
        return Job(f"restrict_K({n})", run,
                   lambda images: {u: _poly_data(f) for u, f in images.items()})

    def fixed_jobs(self) -> list[Job]:
        jobs = [self.jacobian_job(r, v) for r in range(2, 7) for v in ("O", "SO")]
        jobs += [self.restriction_job(n) for n in range(4, 14)]
        jobs += [self.restriction_k_job(n) for n in (7, 9, 11, 13)]
        return jobs

    pool = fixed_jobs

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(seed)
        r = self.BOCKSTEIN_RANK
        weights = [1] * r + [2] * r
        monos = {d: _exponents(weights, d) for d in range(1, 6)}
        jobs = self.fixed_jobs()
        for da, db in itertools.product(range(1, 6), repeat=2):
            for k in range(self.PAIRS_PER_DEGREES):
                jobs.append(self.bockstein_job(
                    f"bockstein:{seed}:{da}:{db}:{k}",
                    _random_terms(rng, monos[da], 0.3), _random_terms(rng, monos[db], 0.3)))
        wmonos = {d: _exponents([1, 2], d) for d in range(1, self.WHITNEY_TRUNCATION + 1)}
        for k in range(self.WHITNEY_TRIPLES):
            comps = [[_random_terms(rng, wmonos[d], 0.35)
                      for d in range(1, self.WHITNEY_TRUNCATION + 1)] for _ in range(3)]
            jobs.append(self.whitney_job(f"whitney:{seed}:{k}", comps))
        rng.shuffle(jobs)
        return jobs


# -- cli-cache ----------------------------------------------------------

class CliCache(Workload):
    name = "cli-cache"
    exercised = ("cli.cache.hits", "cli.cache.misses", "cli.cache.calls",
                 "cli.parse.calls", "cli.emit.calls", "groupdata.bfs.calls",
                 "quillen.dim.calls", "invariants.brute.calls")
    CACHED = [
        ["invariants", "--group", "spin", "--n", "9", "--max-degree", "12"],
        ["quillen", "--n", "11", "--dims", "0..34"],
        ["spin-compare"],
    ]
    WARM_PER_PASS = 6
    LIGHT = [
        ["degrees", "--family", "B", "--rank", "3"],
        ["degrees", "--family", "E8"],
        ["primes", "--family", "E8"],
        ["primes", "--family", "Sp", "--rank", "8"],
        ["flag-poincare", "--family", "G2"],
        ["flag-poincare", "--family", "D", "--rank", "4"],
        ["ring", "--name", "bso", "--n", "11", "--series-to", "40"],
        ["ring", "--name", "bo", "--n", "9"],
        ["restrict", "--n", "11", "--target", "K"],
        ["restrict", "--n", "10"],
        ["jacobian", "--r", "4", "--variant", "SO"],
        ["jacobian", "--r", "5", "--variant", "O"],
        ["weyl", "--family", "B", "--rank", "4"],
        ["weyl", "--family", "A", "--rank", "5"],
        ["weyl", "--family", "D", "--rank", "5"],
    ]
    FORMATS = ([], ["--json"])

    def prepare(self) -> None:
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="modp-cache-", dir=self.tmp_dir))
        self._saved_env = os.environ.get("MODP_CACHE_DIR")
        self._passes = 0

    def begin_pass(self) -> None:
        super().begin_pass()
        self._passes += 1
        self.cache_dir = self.root / f"pass{self._passes}"
        os.environ["MODP_CACHE_DIR"] = str(self.cache_dir)

    def close(self) -> None:
        if self._saved_env is None:
            os.environ.pop("MODP_CACHE_DIR", None)
        else:
            os.environ["MODP_CACHE_DIR"] = self._saved_env
        shutil.rmtree(self.root, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp_dir.rmdir()

    def cache_entries(self) -> int:
        return len(list(self.cache_dir.glob("*.json"))) if self.cache_dir.exists() else 0

    def cli_job(self, argv: list[str], kind: str) -> Job:
        cli = self.m["cli"]
        full = argv + (["--no-cache"] if kind == "nocache" else [])
        before = []

        def prep():
            # cold runs start from cleared quillen memos, and so do uncached
            # runs, so that they compute everything they report
            if kind in ("cold", "nocache"):
                self.clear_memos()
            before[:] = [self.cache_entries()]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(full)
                except SystemExit as exc:
                    code = exc.code
            return (code, out.getvalue()), code == 0 and not err.getvalue()

        def after():
            # a cold run writes exactly one cache entry; nothing else writes
            return self.cache_entries() - before[0] == (1 if kind == "cold" else 0)

        return Job("modp " + " ".join(argv), run, lambda raw: list(raw), kind, prep, after)

    def pool(self) -> list[Job]:
        return [self.cli_job(argv + fmt, "nocache")
                for argv in self.CACHED + self.LIGHT for fmt in self.FORMATS]

    def jobs(self, seed: int) -> list[Job]:
        rng = random.Random(seed)
        events = []
        for argv in self.CACHED:
            events += [tuple(argv + rng.choice(self.FORMATS))] * (self.WARM_PER_PASS + 2)
        events += [tuple(argv + rng.choice(self.FORMATS)) for argv in self.LIGHT]
        rng.shuffle(events)
        kinds: dict[tuple, list[str]] = {}
        for event in sorted(set(events)):
            if event[0] in {a[0] for a in self.CACHED}:
                later = ["warm"] * self.WARM_PER_PASS + ["nocache"]
                rng.shuffle(later)
                kinds[event] = ["cold"] + later
        jobs = []
        for event in events:
            kind = kinds[event].pop(0) if event in kinds else "light"
            jobs.append(self.cli_job(list(event), kind))
        return jobs


WORKLOADS = {cls.name: cls for cls in (SpinVerify, IdealDims, ClassCalculus, CliCache)}
