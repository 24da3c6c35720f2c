"""The cone of valid flag-vector inequalities and its polar.

A form of degree n+1 is nonnegative on every graded poset of rank n+1
exactly when, for each of the Catalan-many antichains of intervals on
[1, n], the form's coefficients sum to something nonnegative over the
antichain's blocker family.  One facet table per rank (facet_system)
holds each antichain with its blocker sum's inclusion-exclusion terms: one
subset-sum (zeta) transform of the coefficients then gives every blocker
sum as a short signed sum, and the 0/1 normals that the double description
and the extremeness rank test need are read off the same terms.  The
module decides membership two independent ways, by facet values, with no
normal, and by the projection recursion on integer coefficient vectors.
It enumerates the extreme rays of the cone by double description, reproduces
them constructively by lifting and convolution, and builds the polar cone
spanned by the normalized limit flag vectors, whose facets are those
extreme rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Literal, Sequence

from .algebra import (
    Form, _product_vector, _project_vector, _shift_vector, _subset_sums, _superset_sums,
)
from .intervals import AmbientTooLarge, IntervalSystem, enumerate_antichains
from .polyhedra import (
    Ray, Scalar, _independent_rows, _primitive, canonicalize, dd_rays,
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

    Facets come in the order enumerate_antichains generates them, which is
    canonical: each antichain's intervals sorted by (lo, hi), antichains
    ascending lexicographically by that list (IntervalSystem.sort_key).
    `terms` holds each antichain with the subset sums its blocker sum adds
    and subtracts (_blocker_terms); `values` reads the facet values off
    them, and `facets` the 0/1 normals, on first use: the indicators of the
    blocker families over the rank sets in ascending mask order, the rows
    of the double description and of the extremeness rank test.
    """

    n: int
    terms: tuple[tuple[IntervalSystem, tuple[int, ...], tuple[int, ...]], ...]

    def values(self, vec: Sequence[Scalar]) -> Iterator[Scalar]:
        """The facet values of a coefficient vector, lazily, in facet order:
        each the signed sum of its terms' subset sums g(T) (_subset_sums)."""
        get = _subset_sums(vec).__getitem__
        for _, plus, minus in self.terms:
            yield sum(map(get, plus)) - sum(map(get, minus))

    @cached_property
    def facets(self) -> tuple[tuple[IntervalSystem, Ray], ...]:
        """Each antichain with its 0/1 normal.  The blocker sum adds g(T)
        over `plus` and subtracts it over `minus`, and g(T) sums the
        coefficients of the rank sets inside T, so the normal's entry S is
        the superset sum at S of the signed term counts (_superset_sums)."""
        facets = []
        for sys_, plus, minus in self.terms:
            signed = [plus.count(T) - minus.count(T) for T in range(1 << self.n)]
            facets.append((sys_, Ray(tuple(_superset_sums(signed)))))
        return tuple(facets)

    @property
    def normal_matrix(self) -> list[tuple[int, ...]]:
        return [normal.coords for _, normal in self.facets]

    def __len__(self) -> int:
        return len(self.terms)


@lru_cache(maxsize=None)
def facet_system(n: int) -> FacetSystem:
    """Facets of the cone of degree-(n+1) forms nonnegative on all posets."""
    if n > MAX_MEMBERSHIP_AMBIENT:
        raise AmbientTooLarge(f"ambient {n} > {MAX_MEMBERSHIP_AMBIENT}")
    return FacetSystem(n, tuple((s, *_blocker_terms(s)) for s in enumerate_antichains(n)))


def _blocker_terms(sys_: IntervalSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Subset sums the blocker sum adds (`plus`) and subtracts (`minus`).

    A rank set blocks the antichain I exactly when it meets every interval,
    so by inclusion-exclusion over the subsets J of I the blocker sum is
    the sum of (-1)^|J| g(T_J), where T_J is the complement of the union of
    J and g(T) sums the coefficients of the rank sets inside T.  Equal T_J
    are merged with their signs; a net multiplicity above 1 repeats the
    index.  At rank 7 that leaves 9.4 terms per facet, against 23.8
    nonzeros in a 0/1 normal.
    """
    full = (1 << sys_.ambient_n) - 1
    unions = {0: 1}  # union of J -> sum of (-1)^|J|
    for iv in sys_.intervals:
        grown = dict(unions)
        for u, c in unions.items():
            grown[u | iv.mask] = grown.get(u | iv.mask, 0) - c
        unions = grown
    plus: list[int] = []
    minus: list[int] = []
    for u, c in sorted(unions.items()):
        (plus if c > 0 else minus).extend([full ^ u] * abs(c))
    return tuple(plus), tuple(minus)


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a facet membership test, with a certificate on failure.

    When the form lies outside the cone, `violated` is the first antichain
    in canonical order whose blocker sum is negative and `value` is that
    sum.  `witness` is then a poset recipe on which the form provably
    evaluates negatively (`witness_value`), found by doubling N from 1.
    The recipe is None, the violated antichain alone being conclusive, in
    two cases: at rank 2 and above when no power of two N up to
    WITNESS_N_CAP = 2^20 gave a negative evaluation, and at rank 1, where
    no witness recipe exists (WitnessSpec needs n >= 1) and none is sought.
    """

    inside: bool
    violated: IntervalSystem | None = None
    value: Fraction | None = None
    witness: WitnessSpec | None = None
    witness_value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.inside


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

    Evaluates the blocker sum of each facet antichain in canonical order,
    from the subset sums of the form's coefficients (FacetSystem.values),
    and stops at the first negative one.  It reads the antichains and their
    term lists only, so no facet normal is built.  On failure the result
    carries that antichain and a concrete witness recipe; see
    MembershipResult.
    """
    fs = facet_system(_check_degree(F))
    for (sys_, _, _), value in zip(fs.terms, fs.values(F.vector())):
        if value < 0:
            witness = None
            witness_value = None
            if fs.n >= 1:
                N = 1
                while N <= WITNESS_N_CAP:
                    spec = WitnessSpec(fs.n, sys_, N)
                    wv = sum(c * spec.predicted_flag_number(s) for s, c in F.terms())
                    if wv < 0:
                        witness = spec
                        witness_value = wv
                        break
                    N *= 2
            return MembershipResult(False, sys_, value, witness, witness_value)
    return MembershipResult(True)


def contains_by_projection(F: Form) -> bool:
    """Membership by the projection recursion, independent of the facets.

    A degree-1 form is nonnegative exactly when its coefficient is; a
    higher form lies in its cone exactly when every projection with
    cutoff m in [0, n] lies in the next cone down.  The recursion runs on
    the primitive integer coefficient vector (_primitive): projection is
    linear, so a positive scaling keeps every projection's sign.
    """
    _check_degree(F)
    return _projection_rec(_primitive(F.vector()), {})


def _projection_rec(G: tuple[int, ...], cache: dict[tuple[int, ...], bool]) -> bool:
    """The recursion of contains_by_projection on an integer coefficient
    vector, each projection taken by _project_vector, memoized in `cache`.

    A module-level function rather than a closure over the cache, so a call
    leaves no reference cycle and its projected vectors are freed on return.
    """
    if len(G) == 1:
        return G[0] >= 0
    hit = cache.get(G)
    if hit is not None:
        return hit
    verdict = True
    for m in range(len(G).bit_length()):
        if not _projection_rec(_project_vector(G, m), cache):
            verdict = False
            break
    cache[G] = verdict
    return verdict


def is_extreme(F: Form) -> bool:
    """Does the form span an extreme ray of its cone?

    True exactly when the facet normals vanishing on F have rank 2^n - 1,
    one less than the ambient dimension (Fukuda & Prodon 1996).  One sweep
    over the facet values (FacetSystem.values, from subset sums) both
    checks membership and collects the normals of the facets where the
    value is zero.  It runs in integers, over form_to_ray(F): a
    positive scaling keeps every value's sign and every zero.  A form
    outside the cone raises NotInCone naming the first violated antichain,
    the one contains(F).violated reports.

    The rank test picks independent active normals with the echelon
    routine of polyhedra and stops once it has 2^n - 1 of them.  That is
    exact because F, being nonzero, lies in the kernel of its active
    normals, so their rank is at most 2^n - 1.  The zero form lies in every
    kernel and has no canonical ray, so it is turned away first: it is not
    extreme.
    """
    n = _check_degree(F)
    if F.is_zero:
        return False
    return _is_extreme_ray(facet_system(n), form_to_ray(F).coords)


def _is_extreme_ray(fs: FacetSystem, ray: tuple[int, ...]) -> bool:
    """The facet sweep and rank test of is_extreme on a form's canonical ray.

    generate_extremes already holds each candidate's ray as its dedup key,
    so it calls this directly instead of canonicalizing again.
    """
    active = []
    for (sys_, normal), value in zip(fs.facets, fs.values(ray)):
        if value < 0:
            raise NotInCone(f"form violates the facet at {sys_}")
        if value == 0:
            active.append(normal.coords)
    target = (1 << fs.n) - 1
    return len(_independent_rows(active, target)) == target


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


def _ends_in_ones(ray: Sequence[Scalar]) -> bool:
    """Does the form factor as F' * f_empty: do its support sets share one
    top letter?"""
    return len({s.bit_length() for s, c in enumerate(ray) if c}) == 1


def _starts_with_ones(ray: Sequence[Scalar]) -> bool:
    """Does the form factor as f_empty * F': do its support sets share one
    lowest letter (that of the empty set being 0)?"""
    return len({(s & -s).bit_length() for s, c in enumerate(ray) if c}) == 1


def _derived_rays(
    n: int, lower: Sequence[ExtremeReport]
) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], bool]]:
    """The degree-(n+1) lifts and products of the lower reports' rays.

    Reads the integer rays (ExtremeEntry.ray) alone.  The lifts are the
    shift images of the rays of the report of degree n, through every
    shift index; the products pair a ray of degree p with one of degree
    n+1-p.  Both are built by the vector routines shift and convolve use.
    Each product maps to True when every pair reaching it is excluded: a
    left factor ending in a ones form times a right factor starting with
    one.

    Shifting keeps a primitive vector primitive, and so does the product
    (content is multiplicative), so each ray is the canonical ray of the
    form shift or convolve would build from the lower forms.
    """
    rays = {rep.n + 1: [e.ray for e in rep.rays] for rep in lower}
    lifts = {tuple(_shift_vector(a, k)) for a in rays.get(n, ()) for k in range(n)}
    products: dict[tuple[int, ...], bool] = {}
    for p in range(1, n + 1):
        # Ones-ending times ones-starting products need not be extreme
        # (ones by ones never is), so generate_extremes skips them.
        rights = [(b, _starts_with_ones(b)) for b in rays.get(n + 1 - p, ())]
        for a in rays.get(p, ()):
            left_ones = _ends_in_ones(a)
            for b, right_ones in rights:
                ray = tuple(_product_vector(a, b))
                products[ray] = products.get(ray, True) and left_ones and right_ones
    return lifts, products


def _tag(ray: tuple[int, ...], products: dict[tuple[int, ...], bool]) -> Tag:
    """`lift` when the support misses a letter, else `convolution` when the
    ray is a product ray, else `new`."""
    union = 0
    for s, c in enumerate(ray):
        if c:
            union |= s
    if union != len(ray) - 1:
        return "lift"
    return "convolution" if ray in products else "new"


def classify(F: Form, lower: Sequence[ExtremeReport]) -> Tag:
    """Provenance of an extreme form relative to lower-rank extreme lists.

    `lift` when the union of the support sets misses a letter (so the
    compression drops the degree), else `convolution` when the form is a
    positive multiple of the product of two lower-rank extreme rays of the
    given reports, at any junction, else `new`.  The rule is the one
    extreme_rays tags its rays by, over the products _derived_rays builds.
    """
    return _tag(form_to_ray(F).coords, _derived_rays(F.degree - 1, lower)[1])


@lru_cache(maxsize=None)
def extreme_rays(n: int) -> ExtremeReport:
    """All extreme rays of the degree-(n+1) cone, by double description.

    Each ray keeps its integer coordinates and the active facets dd_rays
    read off its zero set, and is converted to a form.  Its tag comes from
    the construction, by classify's rule: `lift` when its support misses a
    letter, else `convolution` when it is a product of two lower-rank rays
    (_derived_rays, excluded products included), else `new`.  Ambients up
    to 4 take well under a second; n = 5 (rank 6) takes about 0.17 s on
    one x86-64 core (perfbench enumerate-r6 solve_s, median of six runs,
    BENCH_21.json).  Reports are cached per ambient.
    """
    if n > MAX_DD_AMBIENT:
        raise AmbientTooLarge(f"ambient {n} > {MAX_DD_AMBIENT}")
    fs = facet_system(n)
    rays = dd_rays(fs.normal_matrix)
    products = _derived_rays(n, [extreme_rays(k) for k in range(n)])[1]
    entries = []
    for ray, active in rays:
        tag = _tag(ray.coords, products)
        entries.append(ExtremeEntry(ray_to_form(ray), tag, active, ray.coords))
    return ExtremeReport(n, tuple(entries))


def generate_extremes(n: int) -> list[Form]:
    """Degree-(n+1) extremes derived by lifting and convolution.

    Takes the complete extreme sets of every lower rank from extreme_rays
    and builds, on their integer rays (_derived_rays), each lift of a
    rank-n ray through every shift index and each product of a pair of
    lower-rank rays whose degrees sum to n + 1, skipping a product that
    every pair reaching it leaves excluded (a left factor ending in a ones
    form times a right factor starting with one; if such a product is
    extreme after all, only extreme_rays finds it).  The candidates
    failing the extremeness rank test of is_extreme are dropped, and the
    rest are reported as forms in canonical ray order.  Every candidate is
    a primitive integer vector, so its form is the one shift or convolve
    would build; no Form arithmetic and no canonicalize runs.

    The result is the derived subset of the top rank: what lifting and
    convolution alone reach.  It reads no provenance tags, so it does not
    depend on classify; completeness at the top rank comes only from
    extreme_rays(n).  An ambient outside [0, MAX_MEMBERSHIP_AMBIENT] fails
    in facet_system before any lower rank is enumerated.
    """
    fs = facet_system(n)
    if n == 0:
        return [Form(1, {0: 1})]
    lifts, products = _derived_rays(n, [extreme_rays(k) for k in range(n)])
    candidates = lifts.union(ray for ray, excluded in products.items() if not excluded)
    return [ray_to_form(Ray(c)) for c in sorted(candidates) if _is_extreme_ray(fs, c)]


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
    facets: tuple[tuple[int, ...], ...]


def flag_cone(n: int) -> ConeDescription:
    """The closed cone spanned by flag vectors of rank-(n+1) posets.

    The facets are the rays of extreme_rays(n) in its double description
    output order (lexicographic); a cached report runs nothing.
    """
    facets = tuple(e.ray for e in extreme_rays(n).rays)
    return ConeDescription(n, facet_system(n).facets, facets)
