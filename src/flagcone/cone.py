"""The cone of valid flag-vector inequalities and its polar.

A form of degree n+1 is nonnegative on every graded poset of rank n+1
exactly when, for each of the Catalan-many antichains of intervals on
[1, n], the form's coefficients sum to something nonnegative over the
antichain's blocker family.  This module materializes those facets, decides
membership two independent ways (facet evaluation and the projection
recursion), enumerates the extreme rays of the cone by double description,
reproduces them constructively by lifting and convolution, and builds the
polar cone spanned by the normalized limit flag vectors, whose facets are
those extreme rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from . import ranksets
from .algebra import (
    Form,
    Scalar,
    convolve,
    eval_system,
    factor_once,
    leading_ones_factor,
    project,
    shift,
    trailing_ones_factor,
)
from .intervals import (
    AmbientTooLarge,
    IntervalSystem,
    blockers,
    enumerate_antichains,
)
from .polyhedra import (
    RationalMatrix,
    Ray,
    canonicalize,
    dd_rays,
    matrix_rank,
)
from .poset import WitnessSpec

__all__ = [
    "ConeDescription",
    "DegreeTooLarge",
    "ExtremeEntry",
    "ExtremeReport",
    "FacetSystem",
    "MembershipResult",
    "NotInCone",
    "Tag",
    "classify",
    "contains",
    "contains_by_projection",
    "extreme_rays",
    "facet_system",
    "flag_cone",
    "form_to_ray",
    "generate_extremes",
    "is_extreme",
    "ray_to_form",
]

MAX_MEMBERSHIP_AMBIENT = 6  # degree (rank) up to 7
MAX_DD_AMBIENT = 5          # rank-6 enumeration is the heaviest supported
WITNESS_N_CAP = 1 << 20

Tag = Literal["lift", "convolution", "new"]


class DegreeTooLarge(ValueError):
    """The form's degree exceeds the supported membership bound."""


class NotInCone(ValueError):
    """Extremeness was asked of a form outside the cone."""


def form_to_ray(F: Form) -> Ray:
    """Canonical primitive integer vector of the form's coefficients."""
    return canonicalize(F.vector())


def ray_to_form(ray: Ray) -> Form:
    """Inverse of form_to_ray; the dimension must be a power of two."""
    size = len(ray.coords)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError(f"ray dimension {size} is not a power of two")
    return Form.from_vector(n + 1, ray.coords)


@dataclass(frozen=True)
class FacetSystem:
    """All facets of the degree-(n+1) cone, one per antichain of intervals.

    Facets are ordered canonically: each antichain's intervals sorted by
    (lo, hi), antichains sorted lexicographically by that interval list.
    The normal of the antichain I is the 0/1 indicator of its blocker
    family over the rank sets in ascending mask order, so a facet's value
    on a coefficient vector is the sum over its support (see values).
    """

    n: int
    facets: tuple[tuple[IntervalSystem, Ray], ...]

    @property
    def normal_matrix(self) -> list[tuple[int, ...]]:
        return [normal.coords for _, normal in self.facets]

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Per facet, the coordinates where its 0/1 normal is 1."""
        return tuple(
            tuple(c for c, z in enumerate(normal.coords) if z)
            for _, normal in self.facets
        )

    def values(self, vec: Sequence[Scalar]) -> Iterator[Scalar]:
        """The facet values of a coefficient vector, lazily, in facet order."""
        for support in self.supports:
            yield sum([vec[c] for c in support])

    def __len__(self) -> int:
        return len(self.facets)


@lru_cache(maxsize=None)
def facet_system(n: int) -> FacetSystem:
    """Facets of the cone of degree-(n+1) forms nonnegative on all posets."""
    if n > MAX_MEMBERSHIP_AMBIENT:
        raise AmbientTooLarge(f"ambient {n} > {MAX_MEMBERSHIP_AMBIENT}")
    systems = sorted(enumerate_antichains(n), key=lambda s: s.sort_key())
    facets = []
    for sys_ in systems:
        fam = blockers(sys_)
        normal = Ray(tuple(1 if mask in fam else 0 for mask in ranksets.subsets(n)))
        facets.append((sys_, normal))
    return FacetSystem(n, tuple(facets))


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a facet membership test, with a certificate on failure.

    When the form lies outside the cone, `violated` is the first antichain
    in canonical order whose blocker sum is negative and `value` is that
    sum.  `witness` is then a poset recipe on which the form provably
    evaluates negatively (`witness_value`), found by doubling N; if no
    power of two up to the cap produced a negative evaluation the recipe is
    omitted, the violated antichain alone being conclusive.
    """

    inside: bool
    violated: IntervalSystem | None = None
    value: Fraction | None = None
    witness: WitnessSpec | None = None
    witness_value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.inside


def _witness_evaluation(F: Form, system: IntervalSystem, N: int) -> Fraction:
    """Closed-form evaluation of F on the witness poset P(n, I, N)."""
    ivs = system.sorted_intervals
    total = Fraction(0)
    for s, c in F.terms():
        hits = sum(1 for iv in ivs if s & iv.mask)
        total += c * N**hits
    return total


def _check_degree(F: Form) -> int:
    n = F.degree - 1
    if n > MAX_MEMBERSHIP_AMBIENT:
        raise DegreeTooLarge(
            f"degree {F.degree} exceeds the membership bound "
            f"{MAX_MEMBERSHIP_AMBIENT + 1}"
        )
    return n


def contains(F: Form) -> MembershipResult:
    """Is the form nonnegative on every graded poset of its rank?

    Evaluates the blocker sum of each facet antichain in canonical order
    (FacetSystem.values) and stops at the first negative one.  On failure
    the result carries that antichain and a concrete witness recipe; see
    MembershipResult.
    """
    n = _check_degree(F)
    fs = facet_system(n)
    for (sys_, _), value in zip(fs.facets, fs.values(F.vector())):
        if value < 0:
            witness = None
            witness_value = None
            if n >= 1:
                N = 1
                while N <= WITNESS_N_CAP:
                    wv = _witness_evaluation(F, sys_, N)
                    if wv < 0:
                        witness = WitnessSpec(n, sys_, N)
                        witness_value = wv
                        break
                    N *= 2
            return MembershipResult(False, sys_, value, witness, witness_value)
    return MembershipResult(True)


def contains_by_projection(F: Form) -> bool:
    """Membership by the projection recursion, independent of the facets.

    A degree-1 form is nonnegative exactly when its coefficient is; a
    higher form lies in its cone exactly when every projection with
    cutoff m in [0, n] lies in the next cone down.
    """
    _check_degree(F)
    cache: dict[Form, bool] = {}

    def rec(G: Form) -> bool:
        if G.degree == 1:
            return G.coeff(0) >= 0
        hit = cache.get(G)
        if hit is not None:
            return hit
        verdict = True
        for m in range(G.degree):
            image = project(G, m)
            ok = image >= 0 if isinstance(image, Fraction) else rec(image)
            if not ok:
                verdict = False
                break
        cache[G] = verdict
        return verdict

    return rec(F)


def is_extreme(F: Form) -> bool:
    """Does the form span an extreme ray of its cone?

    True exactly when the facet normals vanishing on F have rank 2^n - 1,
    one less than the ambient dimension.  One sweep over the facet values
    both checks membership and collects the vanishing normals.  A form
    outside the cone raises NotInCone naming the first violated antichain,
    the one contains(F).violated reports; a zero form is not extreme.
    """
    n = _check_degree(F)
    fs = facet_system(n)
    active = []
    for (sys_, normal), value in zip(fs.facets, fs.values(F.vector())):
        if value < 0:
            raise NotInCone(f"form violates the facet at {sys_}")
        if value == 0:
            active.append(normal.coords)
    target = (1 << n) - 1
    if not active:
        return target == 0
    return matrix_rank(active) == target


@dataclass(frozen=True)
class ExtremeEntry:
    """One extreme ray: its form, provenance tag and active facet indices.

    `ray` holds the primitive integer coordinates dd_rays returned, so
    ExtremeReport.ray_set needs no conversion back from the form.
    """

    form: Form
    tag: Tag
    active: tuple[int, ...]
    ray: tuple[int, ...]


@dataclass(frozen=True)
class ExtremeReport:
    """Complete extreme-ray listing of the degree-(n+1) cone."""

    n: int
    rays: tuple[ExtremeEntry, ...]

    @property
    def forms(self) -> tuple[Form, ...]:
        return tuple(e.form for e in self.rays)

    def tagged(self, tag: Tag) -> tuple[ExtremeEntry, ...]:
        return tuple(e for e in self.rays if e.tag == tag)

    @cached_property
    def ray_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(e.ray for e in self.rays)


def classify(F: Form, lower: Sequence[ExtremeReport]) -> Tag:
    """Provenance of an extreme form relative to lower-rank extreme lists.

    `lift` when the union of the support sets misses a letter (so the
    compression drops the degree), else `convolution` when the form factors
    and both factors are lower-rank extremes up to scaling, else `new`.
    Factor matching tries the factorization as returned and with both
    factors negated; the two flips cancel, so either joint assignment
    reconstructs F.
    """
    union = 0
    for s, _ in F.terms():
        union |= s
    if union != (1 << F.degree - 1) - 1:
        return "lift"
    split = factor_once(F)
    if split is not None:
        by_degree: dict[int, frozenset[tuple[int, ...]]] = {
            rep.n + 1: rep.ray_set for rep in lower
        }

        def matches(G: Form) -> bool:
            rays = by_degree.get(G.degree)
            return rays is not None and form_to_ray(G).coords in rays

        F1, F2 = split
        for sign in (1, -1):
            if matches(F1 * sign) and matches(F2 * sign):
                return "convolution"
    return "new"


_REPORT_CACHE: dict[int, ExtremeReport] = {}


def extreme_rays(n: int) -> ExtremeReport:
    """All extreme rays of the degree-(n+1) cone, by double description.

    Each ray keeps its integer coordinates, is converted to a form, and is
    classified against the lower-rank reports.  Ambients up to 4 take well
    under a second; n = 5 (rank 6) takes about 1.15 s on one 2.1 GHz
    x86-64 core (perfbench enumerate-r6).  Reports are cached per ambient.
    """
    cached = _REPORT_CACHE.get(n)
    if cached is not None:
        return cached
    if n > MAX_DD_AMBIENT:
        raise AmbientTooLarge(f"ambient {n} > {MAX_DD_AMBIENT}")
    fs = facet_system(n)
    rays = dd_rays(fs.normal_matrix)
    lower = tuple(extreme_rays(k) for k in range(n))
    entries = []
    for ray in rays:
        F = ray_to_form(ray)
        active = tuple(i for i, v in enumerate(fs.values(ray.coords)) if v == 0)
        entries.append(ExtremeEntry(F, classify(F, lower), active, ray.coords))
    report = ExtremeReport(n, tuple(entries))
    _REPORT_CACHE[n] = report
    return report


def _excluded_product(F: Form, G: Form) -> bool:
    """The one convolution family not guaranteed extreme.

    Products where the left factor ends in a ones form and the right factor
    starts with one need not be extreme (the ones-by-ones product never is),
    so generation skips them; if such a product is extreme after all, only
    the double description run discovers it.
    """
    return trailing_ones_factor(F)[1] >= 1 and leading_ones_factor(G)[1] >= 1


def generate_extremes(
    n: int,
    injected_new: Mapping[int, Iterable[Form]] | None = None,
) -> list[Form]:
    """Degree-(n+1) extremes derived by lifting and convolution.

    Recursively builds the full extreme sets of all lower ranks (derived
    forms plus the injected `new` forms for those ranks, keyed by ambient),
    then lifts the rank-n set through every shift index and convolves every
    compatible lower pair.  Candidates failing the extremeness rank test
    are dropped, and the output is deduplicated by canonical ray and
    reported in canonical ray order.

    By default the certified new rays of the lower ranks are taken from
    extreme_rays reports and nothing is injected at ambient n itself, so
    the result is the derived subset: what lifting and convolution alone
    reach.  Completeness at the top rank comes only from extreme_rays;
    passing injected_new with an entry for ambient n unions those forms in.
    """
    if injected_new is None:
        injected = {
            k: [e.form for e in extreme_rays(k).tagged("new")]
            for k in range(1, n)
        }
    else:
        injected = {k: list(forms) for k, forms in injected_new.items()}

    full: dict[int, dict[tuple[int, ...], Form]] = {}

    def full_set(k: int) -> dict[tuple[int, ...], Form]:
        if k in full:
            return full[k]
        if k == 0:
            out = {form_to_ray(Form(1, {0: 1})).coords: Form(1, {0: 1})}
        else:
            out = dict(derived(k))
            for F in injected.get(k, []):
                out[form_to_ray(F).coords] = F
        full[k] = out
        return out

    def derived(k: int) -> dict[tuple[int, ...], Form]:
        out: dict[tuple[int, ...], Form] = {}
        for F in full_set(k - 1).values():
            for i in range(k):
                lifted = shift(F, i)
                out.setdefault(form_to_ray(lifted).coords, lifted)
        for a in range(1, k + 1):
            b = k + 1 - a
            for F in full_set(a - 1).values():
                for G in full_set(b - 1).values():
                    if _excluded_product(F, G):
                        continue
                    H = convolve(F, G)
                    out.setdefault(form_to_ray(H).coords, H)
        return {
            coords: F for coords, F in out.items() if is_extreme(F)
        }

    if n == 0:
        return [Form(1, {0: 1})]
    result = derived(n)
    for F in injected.get(n, []):
        if is_extreme(F):
            result.setdefault(form_to_ray(F).coords, F)
    return [result[c] for c in sorted(result)]


@dataclass(frozen=True)
class ConeDescription:
    """V- and H-descriptions of the polar (closed flag-vector) cone.

    Generators are the normalized limit flag vectors: one 0/1 vector per
    antichain, indicating its blocker family.  By polarity the facet
    normals of the cone they span are exactly the extreme rays of the
    inequality cone, so `facets` holds those rays, taken from extreme_rays.
    """

    n: int
    generators: tuple[tuple[IntervalSystem, Ray], ...]
    facets: RationalMatrix


def flag_cone(n: int) -> ConeDescription:
    """The closed cone spanned by flag vectors of rank-(n+1) posets.

    The facets are the rays of extreme_rays(n) in its double description
    output order (lexicographic); a cached report runs nothing.
    """
    report = extreme_rays(n)
    facets = RationalMatrix(tuple(sorted(report.ray_set)))
    return ConeDescription(n, facet_system(n).facets, facets)
