"""The three benchmark workloads.

Each workload turns a seed into a fixed list of ops (one *pass*), computes the
expected outcome of every op with its own code (never with ``diexact``), runs
an op through the package's public API, checks the result against the
expectation, and knows the exact work counts of one pass.

``run`` takes a tracer: the untraced run passes a ``NullTracer``.  Traced
and untraced ops run the same code.  Calls the package makes itself get their
spans from ``traced_calls``: the names the traced pass wraps in spans (see
``Tracer.instrument``).  run.py checks that both runs produce the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace


def digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    digest: str
    detail: object


class Workload:
    """Defaults for the workloads below.  Each also has ``ops`` (the op
    indexes of one pass), ``run(i, tracer)`` returning an ``Outcome``,
    ``check(i, outcome)`` against its own expectation, and ``counts()``,
    the exact work of one pass."""

    root_span = "bench.op_self"
    setup_spans: dict[str, float] = {}

    def new_pass(self) -> None:
        """Prepare the inputs of the next pass; untimed."""

    def traced_calls(self) -> list[tuple]:
        """``(module, attribute, span name)`` of the package functions that
        the traced pass wraps in spans."""
        return []

    def probe(self, i: int, tr) -> None:
        """Time layer kernels on op i's input, outside the op; traced run
        only."""


# ---------------------------------------------------------------------------
# Independent oracles.  These share no code with diexact.


def class_count(n_left: int, n_right: int, links) -> int:
    """Classes of the equivalence on left + right generated by the links
    (i, j): left element i ~ right element j."""
    parent = list(range(n_left + n_right))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = n_left + n_right
    for i, j in links:
        ri, rj = find(i), find(n_left + j)
        if ri != rj:
            parent[ri] = rj
            classes -= 1
    return classes


def rows_equal_or_disjoint(pairs) -> bool:
    """Riguet's characterisation: R is difunctional iff any two of its rows
    are equal or disjoint."""
    rows: dict[int, set[int]] = {}
    for i, j in pairs:
        rows.setdefault(i, set()).add(j)
    distinct = {frozenset(row) for row in rows.values()}
    seen: set[int] = set()
    for row in distinct:
        if seen & row:
            return False
        seen |= row
    return True


def difunctional_count(max_left: int, max_right: int, related=None) -> int:
    """Number of difunctional relations over sides of every size pair
    0..max_left x 0..max_right (1..max when ``related`` forces a pair)."""
    low = 0 if related is None else 1
    total = 0
    for m in range(low, max_left + 1):
        for n in range(low, max_right + 1):
            cells = [(i, j) for i in range(m) for j in range(n)]
            for bits in range(1 << len(cells)):
                pairs = [c for b, c in enumerate(cells) if bits >> b & 1]
                if related is not None and related not in pairs:
                    continue
                total += rows_equal_or_disjoint(pairs)
    return total


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def square_tables(square) -> tuple[list[int], list[int], list[int], list[int], int, int, int]:
    """f, g, h, k of a square as index tables, plus |A|, |B|, |D|."""
    f, g = square.span.left, square.span.right
    h, k = square.cospan.left, square.cospan.right
    a_ix = {a: i for i, a in enumerate(h.domain.elements)}
    b_ix = {b: i for i, b in enumerate(k.domain.elements)}
    d_ix = {d: i for i, d in enumerate(h.codomain.elements)}
    return (
        [a_ix[v] for v in f.values],
        [b_ix[v] for v in g.values],
        [d_ix[v] for v in h.values],
        [d_ix[v] for v in k.values],
        len(a_ix),
        len(b_ix),
        len(d_ix),
    )


def expected_square_verdicts(f, g, h, k, n_a, n_b, n_d) -> tuple[bool, bool]:
    """(is a pushout, is a pullback) for a commuting square of index tables."""
    if any(h[a] != k[b] for a, b in zip(f, g)):
        raise ValueError("generated square does not commute")
    # Pushout: the classes of A + B glued along the span biject onto D.
    glued = class_count(n_a, n_b, zip(f, g))
    hit = set(h) | set(k)
    pushout = glued == n_d and len(hit) == n_d
    # Pullback: c -> (f c, g c) is a bijection onto {(a, b) | h a = k b}.
    images = list(zip(f, g))
    fibre = {(a, b) for a in range(n_a) for b in range(n_b) if h[a] == k[b]}
    pullback = len(set(images)) == len(images) and set(images) == fibre
    return pushout, pullback


# ---------------------------------------------------------------------------
# pushout-docs


VERDICT_LINES = tuple(
    f"{name}: true"
    for name in ("COMMUTES", "PUSHOUT", "PULLBACK", "STABILITY", "JOINT-EPI", "AGREEMENT")
)
_WITNESS = re.compile(
    r"precondition violated: relation is not difunctional: "
    r"\((\w+),(\w+)\), \((\w+),(\w+)\), \((\w+),(\w+)\) hold but \((\w+),(\w+)\) does not"
)


@dataclass
class DocExpectation:
    n: int
    exit_code: int
    classes: int
    pairs: frozenset


class PushoutDocs(Workload):
    """Relation documents through ``diexact pushout`` (``--method both``)."""

    name = "pushout-docs"
    root_span = "cli.self"

    def __init__(self, m: SimpleNamespace, seed: int, scale: str, workdir: Path):
        self.m = m
        sizes = (8, 16, 24, 32, 48) if scale == "full" else (4, 8)
        combos = [
            (n, k) for n in sizes for k in sorted({1, 2, n // 8, n // 4} - {0})
        ]
        rng = random.Random(seed)
        # Every (n, k) once intact, plus one dropped pair on a third as many
        # documents again: a quarter of all documents.
        plan = [(n, k, False) for n, k in combos]
        plan += [(n, k, True) for n, k in rng.sample(combos, round(len(combos) / 3))]
        rng.shuffle(plan)
        self.paths: list[str] = []
        self.expected: list[DocExpectation] = []
        for index, (n, k, drop) in enumerate(plan):
            text, expectation = self._document(rng, n, k, drop)
            path = workdir / f"doc{index:03d}.txt"
            path.write_text(text)
            self.paths.append(str(path))
            self.expected.append(expectation)
        self.ops = range(len(self.paths))

    @staticmethod
    def _document(rng: random.Random, n: int, k: int, drop: bool):
        """Deal the shuffled elements of each side round-robin into k
        blocks; R is the union of the block rectangles, minus one pair when
        ``drop``.  The shape, and so the work, depends on (n, k) alone."""
        block_a = rng.sample([x % k for x in range(n)], n)
        block_b = rng.sample([x % k for x in range(n)], n)
        pairs = [(i, j) for i in range(n) for j in range(n) if block_a[i] == block_b[j]]
        if drop and pairs:
            pairs.pop(rng.randrange(len(pairs)))
        difunctional = rows_equal_or_disjoint(pairs)
        expectation = DocExpectation(
            n=n,
            exit_code=0 if difunctional else 3,
            classes=class_count(n, n, pairs),
            pairs=frozenset((f"a{i + 1}", f"b{j + 1}") for i, j in pairs),
        )
        text = (
            "set A = {" + ", ".join(f"a{i}" for i in range(1, n + 1)) + "}\n"
            "set B = {" + ", ".join(f"b{j}" for j in range(1, n + 1)) + "}\n"
            "rel R : A -|> B = {"
            + ", ".join(f"(a{i + 1},b{j + 1})" for i, j in pairs)
            + "}\n"
        )
        return text, expectation

    def run(self, i: int, tr) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m.cli.main(["pushout", self.paths[i]])
        result = (code, out.getvalue(), err.getvalue())
        return Outcome(digest(*result), result)

    def traced_calls(self) -> list[tuple]:
        """The calls ``cmd_pushout`` makes, by the names it looks them up."""
        cli = self.m.cli
        return [
            (cli, "parse_document", "documents.parse"),
            (cli, "malcev_pushout_direct", "pushouts.direct"),
            (cli, "malcev_pushout_decomposed", "pushouts.decomposed"),
            (cli, "canonical_comparison", "fsets.comparison"),
            (cli, "certify", "certificates.certify"),
            (cli, "render_certificate", "cli.render"),
        ]

    def check(self, i: int, outcome: Outcome) -> bool:
        code, stdout, stderr = outcome.detail
        want = self.expected[i]
        if code != want.exit_code:
            return False
        if code == 0:
            lines = stdout.splitlines()
            corner = next((x for x in lines if x.startswith("corner = {")), "")
            body = corner[len("corner = {") : -1]
            size = len(body.split(", ")) if body else 0
            return (
                not stderr
                and size == want.classes
                and all(line in lines for line in VERDICT_LINES)
            )
        match = _WITNESS.fullmatch(stderr.strip())
        if stdout or not match:
            return False
        (a, b, a_, b2, a2, b_, a2_, b2_) = match.groups()
        return (
            (a, b, a2, b2) == (a_, b_, a2_, b2_)
            and (a, b) in want.pairs
            and (a, b2) in want.pairs
            and (a2, b) in want.pairs
            and (a2, b2) not in want.pairs
        )

    def probe(self, i: int, tr) -> None:
        """Time the relation kernels on an accepted document's own relation."""
        if self.expected[i].exit_code != 0:
            return
        r = self.m.documents.parse_document(Path(self.paths[i]).read_text()).payload
        with tr.span("relations.witness"):
            self.m.relations.difunctionality_witness(r)
        with tr.span("relations.block_assemble"):
            e = self.m.pushouts.pushout_equivalence(r)
        with tr.span("relations.block_compose"):
            self.m.relations.rel_compose(e, e)

    def counts(self) -> dict[str, int]:
        accepted = [x for x in self.expected if x.exit_code == 0]
        return {
            "relations.pairs": sum(len(x.pairs) for x in self.expected),
            "relations.block_cells": sum((2 * x.n) ** 2 for x in accepted),
            "relations.compose_products": sum((2 * x.n) ** 3 for x in accepted),
            "pushouts.classes": sum(x.classes for x in accepted),
            "certificates.fibers": sum(x.classes for x in accepted),
            "cli.refused": sum(x.exit_code == 3 for x in self.expected),
        }


# ---------------------------------------------------------------------------
# suite-sweep


_SUITE_LINE = re.compile(r"(\S+) \S+: (\d+) instances, (\d+) failures")
SUITE_FUNCTIONS = (
    ("T1a", "suite_coproducts"),
    ("T1b", "suite_equivalences"),
    ("T2", "suite_agreement"),
    ("D", "suite_certificates"),
    ("P0", "suite_zero_object"),
    ("P1", "suite_pointed_pushouts"),
)


class SuiteSweep(Workload):
    """``run_all_suites`` at fixed flags over consecutive seeds."""

    name = "suite-sweep"

    def __init__(self, m: SimpleNamespace, seed: int, scale: str, workdir: Path):
        self.m = m
        self.max_size, self.samples, per_pass = (3, 300, 5) if scale == "full" else (2, 20, 2)
        self.configs = [
            m.suites.SuiteConfig(max_size=self.max_size, samples=self.samples, seed=seed + i)
            for i in range(per_pass)
        ]
        self.ops = range(per_pass)
        # The suites' corpus rules: exhaustive spans up to min(max_size, 2),
        # pointed spans over 1..min(max_size, 2), and the seeded samples.
        small = min(self.max_size, 2)
        plain = difunctional_count(small, small) + self.samples
        self.expected_totals = {
            "T1a": (self.max_size + 1) ** 2,
            "T1b": sum(bell(s) for s in range(self.max_size + 1)),
            "T2": plain,
            "D": plain,
            "P0": max(1, min(self.max_size, 5)),
            "P1": difunctional_count(small, small, related=(0, 0)) + (self.samples or 25),
        }

    def run(self, i: int, tr) -> Outcome:
        text = self.m.suites.run_all_suites(self.configs[i]).render()
        return Outcome(digest(text), text)

    def traced_calls(self) -> list[tuple]:
        """Each suite function, by the name ``run_all_suites`` calls it."""
        return [
            (self.m.suites, function, f"suites.{name}") for name, function in SUITE_FUNCTIONS
        ]

    def check(self, i: int, outcome: Outcome) -> bool:
        lines = outcome.detail.splitlines()
        config = self.configs[i]
        totals = {}
        for line in lines[1:-1]:
            match = _SUITE_LINE.fullmatch(line)
            if not match or match.group(3) != "0":
                return False
            totals[match.group(1)] = int(match.group(2))
        instances = sum(self.expected_totals.values())
        return (
            lines[0].startswith(
                f"suites: max-size={config.max_size} samples={config.samples} "
                f"seed={config.seed} "
            )
            and totals == self.expected_totals
            and lines[-1] == f"RESULT: PASS (6 suites, {instances} instances, 0 failures)"
        )

    def probe(self, i: int, tr) -> None:
        """Time building the span corpus that T2 and D each build."""
        enumeration = self.m.enumeration
        with tr.span("enumeration.corpus"):
            list(enumeration.exhaustive_malcev_spans(min(self.max_size, 2)))
            rng = random.Random(self.configs[i].seed)
            for _ in range(self.samples):
                enumeration.random_malcev_span(rng, self.max_size)

    def counts(self) -> dict[str, int]:
        return {"suites.instances": len(self.configs) * sum(self.expected_totals.values())}


# ---------------------------------------------------------------------------
# crossval-squares


class CrossvalSquares(Workload):
    """Fast oracles against the assumption-free cross-validators, one
    commuting square at a time.

    A few large squares (apex 9 or corner 6) cost as much as hundreds of
    small ones, so a plain sample of the seed's stream would make a pass's
    cost depend on how many of them the seed happens to draw.  The pass is
    therefore stratified: the strata (apex size, corner size, expected
    pushout and pullback verdicts) and their counts are those of the
    sampler's first ``count`` squares at seed 0, and the run's seed picks
    which squares of its own stream fill each stratum.
    """

    name = "crossval-squares"
    STREAM_LIMIT = 5  # times ``count`` squares drawn before falling back

    def __init__(self, m: SimpleNamespace, seed: int, scale: str, workdir: Path):
        self.m = m
        count = 600 if scale == "full" else 40
        self.ops = range(count)
        sampling = 0.0

        def draw(rng: random.Random, n: int) -> list:
            nonlocal sampling
            start = time.perf_counter()
            squares = m.enumeration.sample_commuting_squares(rng, n, max_size=3)
            sampling += time.perf_counter() - start
            return [(square, self._classify(square)) for square in squares]

        reference = draw(random.Random(0), count)
        quota: dict[tuple, int] = {}
        for _, (stratum, _, _) in reference:
            quota[stratum] = quota.get(stratum, 0) + 1
        picked = []
        rng = random.Random(seed)
        for _ in range(self.STREAM_LIMIT * 4):
            if len(picked) == count:
                break
            for square, info in draw(rng, count // 4):
                if quota.get(info[0]):
                    quota[info[0]] -= 1
                    picked.append((square, info))
        for square, info in reference:
            if quota.get(info[0]):
                quota[info[0]] -= 1
                picked.append((square, info))
        self.setup_spans = {"enumeration.squares": sampling}
        self._picked = [square for square, _ in picked]
        self.expected = [verdicts for _, (_, verdicts, _) in picked]
        self.corner_sizes = [n_d for _, (_, _, n_d) in picked]

    @staticmethod
    def _classify(square) -> tuple[tuple, tuple[bool, ...], int]:
        """Stratum, expected verdict vector and corner size of a square."""
        tables = square_tables(square)
        pushout, pullback = expected_square_verdicts(*tables)
        # Colimits in Set are universal, so every pushout is stable.
        stable = (pushout, pushout) if pushout else ()
        verdicts = (pushout,) * 3 + (pullback,) * 2 + stable
        return (len(tables[0]), tables[-1], pushout, pullback), verdicts, tables[-1]

    def new_pass(self) -> None:
        """Fresh copies of the squares for every pass, so that no pass reuses
        the lazily built indexes of an earlier one."""
        fsets = self.m.fsets

        def copy(f):
            return fsets.SetFunction(
                fsets.FiniteSet(f.domain.elements), fsets.FiniteSet(f.codomain.elements), f.values
            )

        self.squares = [
            fsets.CommutativeSquare(
                fsets.Span(fsets.FiniteSet(sq.span.apex.elements), copy(sq.span.left), copy(sq.span.right)),
                fsets.Cospan(copy(sq.cospan.left), copy(sq.cospan.right)),
            )
            for sq in self._picked
        ]

    def run(self, i: int, tr) -> Outcome:
        square = self.squares[i]
        c = self.m.certificates
        with tr.span("certificates.pushout_oracle"):
            pushout = c.is_pushout_square(square).ok
        with tr.span("certificates.up_pushout"):
            up = c.pushout_by_universal_property(square, max_test_size=4)
        with tr.span("certificates.up_pushout_brute"):
            brute = c.pushout_by_universal_property_bruteforce(square, max_test_size=3)
        with tr.span("certificates.pullback_oracle"):
            pullback = c.is_pullback_square(square).ok
        with tr.span("certificates.up_pullback"):
            up_pullback = c.pullback_by_universal_property(square, max_apex_size=3)
        verdicts: tuple[bool, ...] = (pushout, up, brute, pullback, up_pullback)
        if pushout:
            with tr.span("certificates.stability"):
                stable = c.is_stable_pushout(square)[0].ok
            with tr.span("certificates.all_pullbacks"):
                stable_all = c.stable_by_all_pullbacks(square, max_size=3)
            verdicts += (stable, stable_all)
        return Outcome(digest(verdicts), verdicts)

    def check(self, i: int, outcome: Outcome) -> bool:
        return outcome.detail == self.expected[i]

    def counts(self) -> dict[str, int]:
        pushouts = [d for d, e in zip(self.corner_sizes, self.expected) if e[0]]
        return {
            "certificates.squares": len(self.squares),
            "certificates.pushout_squares": len(pushouts),
            "certificates.fibers": sum(pushouts),
            "certificates.base_changes": sum(d**s for d in pushouts for s in range(4)),
        }


WORKLOADS = {w.name: w for w in (PushoutDocs, SuiteSweep, CrossvalSquares)}
