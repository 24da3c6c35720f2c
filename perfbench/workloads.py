"""The three benchmark workloads: inputs, timed operation and reference checks.

Each workload calls only public names of flagcone, through module
attributes (``cone.extreme_rays``, ``poset.witness_poset``), so a traced run
sees every call.  A workload is

* ``setup(seed, size)``: warm what the timed phase must not pay for;
  returns a state dict;
* ``items(state)``: the inputs of the timed operations, in order; made
  between operations, outside the clock, and never repeated;
* ``job(state, item)``: one timed operation; returns its output;
* ``forms(output)``: how many forms the operation handled;
* ``check(state, item, output, reference)``: the reference checks, run
  after the clock stops; returns a list of failure messages;
* ``summary(state, outputs)``: counts describing what the run did.

A ``cold`` workload runs one operation per fresh interpreter.  A measured
run repeats operations until its time is up and it has done at least
``min_ops``; a traced run does exactly ``min_ops``, so its counts repeat.

Sizes: ``full`` is the benchmark, ``small`` the reduced one the harness
self-test runs (rank-5 enumeration and derivation, degree-5 forms).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

from flagcone import algebra, cone, intervals, poset
from flagcone.algebra import Form

# Witness posets with more maximal chains than this are not materialized:
# partition_classes grows with chains times rank sets, and one 4,096-chain
# witness costs seconds, which would let a single form set a run's rate.
MAX_WITNESS_CHAINS = 256

# A certify run covers at least this many forms, so that at least ten
# samples lie beyond the 95th percentile.
MIN_FORMS = 200


def ray_digest(rays) -> str:
    """SHA-256 of the sorted ray coordinates, one comma-separated line each."""
    lines = sorted(rays)
    text = "\n".join(",".join(str(x) for x in coords) for coords in lines)
    return hashlib.sha256(text.encode()).hexdigest()


# -- enumerate: cold extreme_rays(n) ---------------------------------------


class Enumerate:
    """A cold ``extreme_rays(n)``: what ``flagcone extremes --rank n+1`` prints.

    The input is fixed, so the seed is unused.  Each operation needs a fresh
    interpreter because reports are cached per process.
    """

    name = "enumerate-r6"
    cold = True
    min_ops = 1

    def setup(self, seed: int, size: str) -> dict:
        return {"n": 5 if size == "full" else 4}

    def items(self, state: dict):
        return itertools.repeat(None)

    def job(self, state: dict, item):
        return cone.extreme_rays(state["n"])

    def forms(self, output) -> int:
        return len(output.rays)

    def summary(self, state: dict, outputs: list) -> dict:
        return {"rank": state["n"] + 1, "rays": len(outputs[0].rays)}

    def check(self, state: dict, item, report, reference: dict) -> list[str]:
        ref = reference["enumerate"][str(state["n"])]
        fails = []
        if len(report.rays) != ref["rays"]:
            fails.append(f"{len(report.rays)} rays, expected {ref['rays']}")
        tags = {t: len(report.tagged(t)) for t in ("lift", "convolution", "new")}
        if tags != ref["tags"]:
            fails.append(f"tags {tags}, expected {ref['tags']}")
        rays = [cone.form_to_ray(e.form).coords for e in report.rays]
        if ray_digest(rays) != ref["digest"]:
            fails.append("ray digest differs from the reference")
        normals = [normal.coords for _, normal in cone.facet_system(state["n"]).facets]
        for entry, coords in zip(report.rays, rays):
            dots = [sum(a * b for a, b in zip(row, coords)) for row in normals]
            if min(dots) < 0:
                fails.append(f"ray {coords} violates a facet")
            zeros = tuple(i for i, v in enumerate(dots) if v == 0)
            if zeros != tuple(entry.active):
                fails.append(f"ray {coords} has a wrong active set")
        return fails


# -- derive: generate_extremes(n) ------------------------------------------


class Derive:
    """``generate_extremes(n)``: the ``extremes --method generate`` path.

    Set-up warms the lower-rank reports and the facet system, so the timed
    phase runs no double description.  The seed is unused.
    """

    name = "derive-r6"
    cold = False
    min_ops = 1

    def setup(self, seed: int, size: str) -> dict:
        n = 5 if size == "full" else 4
        for k in range(n):
            cone.extreme_rays(k)
        cone.facet_system(n)
        return {"n": n}

    def items(self, state: dict):
        return itertools.repeat(None)

    def job(self, state: dict, item):
        return cone.generate_extremes(state["n"])

    def forms(self, output) -> int:
        return len(output)

    def summary(self, state: dict, outputs: list) -> dict:
        return {"rank": state["n"] + 1, "forms": len(outputs[0])}

    def check(self, state: dict, item, forms, reference: dict) -> list[str]:
        ref = reference["derive"][str(state["n"])]
        fails = []
        if len(forms) != ref["forms"]:
            fails.append(f"{len(forms)} forms, expected {ref['forms']}")
        if ray_digest(cone.form_to_ray(F).coords for F in forms) != ref["digest"]:
            fails.append("form digest differs from the reference")
        return fails


# -- certify: decide, certify and materialize a stream of forms ------------


def form_stream(seed: int, degree: int, lower: dict[int, list[Form]]):
    """An endless seeded stream of (built inside, form) pairs of one degree.

    Three of every four forms are nonnegative integer combinations of two
    to four shift and convolution images of lower-rank extreme forms, so
    they lie in the cone.  Every fourth is such a combination plus a
    negative monomial of between a tenth and a half of the coefficient sum;
    most, not all, of those fall outside.  Outside forms cost a few
    milliseconds and inside forms tens, with few in between, so the median
    latency must fall well inside one group or it jumps with the mix: at
    three to one it lies in the bulk of the inside forms.
    """
    rng = random.Random(seed)
    top = max(lower)

    def lift(F: Form, deg: int) -> Form:
        while F.degree < deg:
            F = algebra.shift(F, rng.randrange(F.degree))
        return F

    def extreme_up_to(deg: int) -> Form:
        return rng.choice(lower[rng.randrange(min(deg, top + 1))])

    def image() -> Form:
        if rng.randrange(3) == 0:
            return lift(rng.choice(lower[top]), degree)
        a = rng.randint(1, degree - 1)
        b = degree - a
        return algebra.convolve(lift(extreme_up_to(a), a), lift(extreme_up_to(b), b))

    for i in itertools.count():
        F = image() * rng.randint(1, 4)
        for _ in range(rng.randint(1, 3)):
            F = F + image() * rng.randint(1, 4)
        built_inside = i % 4 != 3
        if not built_inside:
            total = int(sum(c for _, c in F.terms()))
            c = rng.randint(max(1, total // 10), max(1, total // 2))
            F = F + Form.monomial(degree, rng.randrange(1 << (degree - 1)), -c)
        yield built_inside, F


class Certify:
    """Each form decided the way ``flagcone check --certificate`` decides it.

    ``contains`` (with its witness search) and ``contains_by_projection``
    both run; an outside form's witness poset is then built and its flag
    vector, evaluation and chain partition computed, when the witness has at
    most MAX_WITNESS_CHAINS maximal chains.  In-cone forms scan every facet
    and run the whole projection recursion; outside forms stop at the first
    violated facet and pay for the witness instead.
    """

    name = "certify-r7"
    cold = False
    min_ops = MIN_FORMS

    def setup(self, seed: int, size: str) -> dict:
        n = 6 if size == "full" else 4
        lower = {k: [e.form for e in cone.extreme_rays(k).rays] for k in range(n - 1)}
        cone.facet_system(n)
        return {"n": n, "seed": seed, "lower": lower}

    def items(self, state: dict):
        return form_stream(state["seed"], state["n"] + 1, state["lower"])

    def job(self, state: dict, item):
        _, F = item
        result = cone.contains(F)
        by_projection = cone.contains_by_projection(F)
        material = None
        spec = result.witness
        if spec is not None and spec.N ** spec.k <= MAX_WITNESS_CHAINS:
            P = poset.witness_poset(spec)
            fvec = poset.flag_vector(P)
            value = algebra.eval_poset(P, F)
            classes = poset.partition_classes(P)
            material = (len(P), fvec, value, {m: len(cs) for m, cs in classes.items()})
        return result, by_projection, material

    def forms(self, output) -> int:
        return 1

    def summary(self, state: dict, outputs: list) -> dict:
        outside = [r for r, _, _ in outputs if not r.inside]
        witnesses = [r.witness for r in outside if r.witness is not None]
        built = [m for _, _, m in outputs if m is not None]
        return {
            "degree": state["n"] + 1,
            "forms": len(outputs),
            "inside": len(outputs) - len(outside),
            "witnesses": len(witnesses),
            "materialized": len(built),
            "max_witness_N": max((w.N for w in witnesses), default=0),
            "max_elements": max((m[0] for m in built), default=0),
            "max_chains": max((max(m[3].values()) for m in built), default=0),
        }

    def check(self, state: dict, item, output, reference: dict) -> list[str]:
        built_inside, F = item
        result, by_projection, material = output
        fails = []
        if by_projection != result.inside:
            fails.append("contains and contains_by_projection disagree")
        if built_inside and not result.inside:
            fails.append("a form built inside the cone was reported outside")
        if not result.inside:
            family = intervals.blockers(result.violated)
            total = sum((F.coeff(s) for s in family.members), Fraction(0))
            if total >= 0 or total != result.value:
                fails.append(f"blocker sum {total} at {result.violated}, reported {result.value}")
        spec = result.witness
        if spec is not None and not result.witness_value < 0:
            fails.append("witness evaluation is not negative")
        if material is not None:
            _, fvec, value, sizes = material
            if value != result.witness_value:
                fails.append(f"witness evaluates to {value}, reported {result.witness_value}")
            if any(fvec[m] != spec.predicted_flag_number(m) for m in fvec):
                fails.append("witness flag numbers differ from N ** hits")
            if sizes != fvec:
                fails.append("partition class sizes differ from the flag numbers")
        return fails


WORKLOADS = {w.name: w for w in (Enumerate(), Derive(), Certify())}
