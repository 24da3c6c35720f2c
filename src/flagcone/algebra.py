"""The graded algebra of chain-count functionals.

A form of degree n+1 is a rational linear combination of the basis symbols
f_S, S a subset of [1, n]; it acts on a graded poset of rank n+1 by
substituting flag numbers for the symbols.  The product (convolution) splits
a poset at a middle rank: (F * G)(P) sums F on the lower interval times G on
the upper interval over all elements at the junction rank, and on basis
symbols it unions the supports around the junction letter.

A Form is its dense coefficient vector, indexed by the 2^n rank-set masks,
and shift, convolution, projection and the subset-sum transform are each
defined once on such vectors (_shift_vector, _product_vector,
_project_vector, _subset_sums).

Degree-0 values are bare scalars (Fraction), never Form objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import add, and_, sub
from typing import Iterable, Iterator, Mapping, Sequence

from . import poset as poset_mod
from . import ranksets
from .intervals import MAX_AMBIENT, AmbientTooLarge, IntervalSystem, is_blocker
from .polyhedra import Scalar


class DegreeMismatch(ValueError):
    """Operands or arguments disagree about the degree."""


class BadShiftIndex(ValueError):
    """Shift position outside [0, n]."""


class ZeroForm(ValueError):
    """The operation is undefined on the zero form."""


# One Fraction object per small integer, for coefficients built in bulk:
# most entries of a dense vector are 0, and the extreme forms' nonzero
# coefficients are mostly +1 and -1.
_SMALL_INTEGERS = {k: Fraction(k) for k in range(-16, 17)}
_ZERO = _SMALL_INTEGERS[0]


def _length(degree: int) -> int:
    """2^(degree-1), the length of a degree's coefficient vector, for a
    degree in [1, MAX_AMBIENT + 1]; checked before anything that long is
    built."""
    if degree < 1:
        raise DegreeMismatch(f"degree {degree} < 1")
    if degree - 1 > MAX_AMBIENT:
        raise AmbientTooLarge(f"ambient {degree - 1} > {MAX_AMBIENT}")
    return 1 << (degree - 1)


class Form:
    """Exact-rational combination of the f_S basis in one degree.

    A form is its dense coefficient vector: `_vec` holds 2^(degree-1)
    Fractions, the coefficient of f_S at index S (ascending mask order).
    Integral entries in [-16, 16], zero included, are the shared Fractions
    of _SMALL_INTEGERS.  A degree above MAX_AMBIENT + 1 is refused with
    AmbientTooLarge.
    """

    __slots__ = ("degree", "_vec")

    def __init__(self, degree: int, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        acc: list[Scalar] = [0] * _length(degree)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for mask, c in items:
            ranksets.check_mask(mask, degree - 1)
            acc[mask] += Fraction(c)
        self._store(degree, acc)

    def _store(self, degree: int, vec: Iterable[Scalar]) -> "Form":
        """Set a new form's degree and coefficient tuple, and return it:
        each entry a Fraction, the shared one of _SMALL_INTEGERS if any."""
        shared = _SMALL_INTEGERS.get
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_vec", tuple([
            (shared(c) or (c if type(c) is Fraction else Fraction(c))) if c else _ZERO
            for c in vec
        ]))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- construction helpers ----------------------------------------------

    @classmethod
    def monomial(cls, degree: int, mask: int, coeff: Scalar = 1) -> "Form":
        return cls(degree, {mask: coeff})

    @classmethod
    def from_vector(cls, degree: int, vec: Sequence[Scalar]) -> "Form":
        if len(vec) != _length(degree):
            raise DegreeMismatch(
                f"vector length {len(vec)} != 2**{degree - 1}"
            )
        return object.__new__(cls)._store(degree, vec)

    # -- inspection ----------------------------------------------------------

    def coeff(self, mask: int) -> Fraction:
        ranksets.check_mask(mask, self.degree - 1)
        return self._vec[mask]

    __getitem__ = coeff

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """(mask, coefficient) pairs of the nonzero coefficients, in
        ascending mask order."""
        return ((m, c) for m, c in enumerate(self._vec) if c)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(m for m, c in enumerate(self._vec) if c)

    @property
    def is_zero(self) -> bool:
        return not any(self._vec)

    def vector(self) -> tuple[Fraction, ...]:
        """The dense coefficient tuple over all masks in ascending order."""
        return self._vec

    # -- arithmetic ----------------------------------------------------------

    def _binop(self, other: "Form", op) -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatch(f"degrees {self.degree} != {other.degree}")
        return object.__new__(Form)._store(self.degree, map(op, self._vec, other._vec))

    def __add__(self, other):
        return self._binop(other, add)

    def __sub__(self, other):
        return self._binop(other, sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        if isinstance(scalar, Form):
            return NotImplemented
        return object.__new__(Form)._store(
            self.degree, map(Fraction(scalar).__mul__, self._vec)
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1 / Fraction(scalar))

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.degree == other.degree
            and self._vec == other._vec
        )

    def __hash__(self):
        return hash((self.degree, self._vec))

    def __str__(self):
        return render_terms("f", self.terms()) or f"0 (degree {self.degree})"

    def __repr__(self):
        return f"Form({self.degree}, {dict(self.terms())!r})"


# -- convolution and friends -------------------------------------------------


def _shift_vector(vec: Sequence[Scalar], k: int) -> list[Scalar]:
    """The coefficient vector of a shift at k: a zero bit inserted at
    position k into every index, the values kept, the new slots 0."""
    low = (1 << k) - 1
    out: list[Scalar] = [0] * (2 * len(vec))
    for s, c in enumerate(vec):
        out[(s & low) | ((s & ~low) << 1)] = c
    return out


def _product_vector(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    """The coefficient vector of a product: index s | len(a) | t << p, with
    p = len(a).bit_length(), gets a_s * b_t; the other slots are 0."""
    junction = len(a)
    p = junction.bit_length()
    left = [(s | junction, c) for s, c in enumerate(a) if c]
    out: list[Scalar] = [0] * (2 * len(a) * len(b))
    for t, d in enumerate(b):
        if d:
            high = t << p
            for s, c in left:
                out[s | high] = c * d
    return out


def _subset_sums(vec: Sequence[Scalar]) -> list[Scalar]:
    """The zeta transform of a coefficient vector: entry T sums vec[S] over
    the S inside T.  One in-place pass per bit adds g[T ^ bit] into g[T] for
    every T holding the bit; the values keep their type."""
    g = list(vec)
    size = len(g)
    for b in range(size.bit_length() - 1):
        bit = 1 << b
        for base in range(bit, size, bit << 1):
            for T in range(base, base + bit):
                g[T] += g[T ^ bit]
    return g


def convolve(F: Form | Scalar, G: Form | Scalar) -> Form | Fraction:
    """Product of forms: junction letter inserted between the two supports.

    On basis symbols: f(m)_S * f(n)_T = f(m+n) on S U {m} U (T + m), which
    on coefficient vectors is _product_vector.  Scalars act as degree-0
    forms, i.e. by scaling.
    """
    if not isinstance(F, Form) and not isinstance(G, Form):
        return Fraction(F) * Fraction(G)
    if not isinstance(F, Form):
        return G * F
    if not isinstance(G, Form):
        return F * G
    _length(F.degree + G.degree)  # checked before the vector is built
    return Form.from_vector(
        F.degree + G.degree, _product_vector(F.vector(), G.vector())
    )


def shift(F: Form, k: int) -> Form:
    """Degree-raising embedding: letters <= k stay, letters > k move up one.

    The image never uses letter k+1, and shifting preserves extremeness in
    the nonnegativity cones.  k may be 0 (shift every letter up) through
    n = degree - 1 (append an unused top slot).  On coefficient vectors it
    is _shift_vector.
    """
    n = F.degree - 1
    if not (0 <= k <= n):
        raise BadShiftIndex(f"k = {k} outside [0, {n}]")
    _length(F.degree + 1)  # checked before the vector is built
    return Form.from_vector(F.degree + 1, _shift_vector(F.vector(), k))


def _project_vector(vec: Sequence[Scalar], m: int) -> tuple[Scalar, ...]:
    """The coefficient vector of a projection at cutoff m, for len(vec) >= 2.

    The top half (the rank sets holding the top letter n) folds onto the
    bottom half, each entry dropping its top letter.  A bottom entry keeps
    its own value only when its rank set meets [m, n-1], i.e. from index
    2^(m-1) on, or everywhere when m <= 0; below that only the folded value
    is left.  The values keep their type: ints stay ints.
    """
    half = len(vec) >> 1
    cut = 0 if m <= 0 else half if m >= half.bit_length() else 1 << (m - 1)
    top = vec[half:]
    return (*top[:cut], *map(add, vec[cut:half], top[cut:]))


def project(F: Form, m: int) -> Form | Fraction:
    """Degree-lowering projection with visibility cutoff m.

    Top-letter terms drop their top letter; a term without the top letter
    survives unchanged exactly when its support (with 0 adjoined) meets
    [m, n-1].  For m <= 0 everything survives.  A form of degree n+1 is
    nonnegative on all rank-(n+1) posets exactly when all its projections
    m = 0..n are nonnegative on all rank-n posets; degree-1 forms project
    to their scalar coefficient.  On coefficient vectors it is
    _project_vector.
    """
    n = F.degree - 1
    if n == 0:
        return F.coeff(0)
    return Form.from_vector(n, _project_vector(F.vector(), m))


def prefix_restriction(F: Form, k: int) -> Form | Fraction:
    """Keep only terms supported inside [1, k], lowering the degree by one.

    Defined for k <= n - 1 (degree n+1 input); negative k gives the zero
    form.  Degree-1 forms restrict to the scalar zero.  Satisfies
    project(F, m) = project(F, 0) - prefix_restriction(F, m - 1).
    """
    n = F.degree - 1
    if n == 0:
        if k > 0:
            raise DegreeMismatch(f"k = {k} > 0 for degree-1 form")
        return Fraction(0)
    if k > n - 1:
        raise DegreeMismatch(f"k = {k} > {n - 1} cannot land in degree {n}")
    if k < 0:
        return Form(n)
    keep = (1 << k) - 1
    return Form(n, {s: c for s, c in F.terms() if s & ~keep == 0})


def reflect(F: Form) -> Form:
    """Reverse the letters: j -> n + 1 - j.  Pairs with poset duality."""
    n = F.degree - 1
    return Form(
        F.degree,
        {poset_mod.reflect_mask(s, n): c for s, c in F.terms()},
    )


# -- factorization -----------------------------------------------------------


def factor_once(F: Form) -> tuple[Form, Form] | None:
    """Split F = F1 * F2 at the smallest junction letter, if any.

    A junction at m requires every support set to contain m; the coefficient
    table indexed by (part below m, part above m) must then factor as an
    outer product.  F1 is normalized so its lexicographically first nonzero
    coefficient is 1.
    """
    if F.is_zero:
        raise ZeroForm("factoring the zero form")
    deg, vec = F.degree, F.vector()
    support = [s for s, _ in F.terms()]
    common = reduce(and_, support)
    for m in range(1, deg):
        junction = 1 << (m - 1)
        if not common & junction:
            continue
        # The column of the first term, scaled to a first nonzero entry 1,
        # and the row of that entry: the factors, if the table is their
        # outer product.
        high = support[0] >> m << m
        column = [vec[i | junction | high] for i in range(junction)]
        r0 = next(i for i, c in enumerate(column) if c)
        F1 = Form.from_vector(m, [c / column[r0] for c in column])
        F2 = Form.from_vector(deg - m, vec[r0 | junction :: junction << 1])
        if convolve(F1, F2) == F:
            return F1, F2
    return None


# -- basis changes ------------------------------------------------------------


def to_h_coeffs(F: Form) -> dict[int, Fraction]:
    """Coordinates in the h-basis: the U-th one sums a_S over S containing U.

    Complementing every index (reversing the vector) turns supersets into
    subsets, so these are the reversed subset sums of the reversed vector.
    """
    return dict(enumerate(reversed(_subset_sums(F.vector()[::-1]))))


# -- evaluation ----------------------------------------------------------------


def eval_poset(P: poset_mod.GradedPoset, F: Form) -> Fraction:
    """Substitute the poset's flag numbers into the form."""
    if P.rank != F.degree:
        raise DegreeMismatch(f"poset rank {P.rank} != form degree {F.degree}")
    return sum(
        (c * poset_mod.flag_number(P, s) for s, c in F.terms()), Fraction(0)
    )


def eval_system(system: IntervalSystem, F: Form) -> Fraction:
    """Sum the coefficients over the blockers of the interval system.

    This is the limiting normalized value of the form on the witness posets
    of the system, and nonnegativity of these sums over all systems is
    equivalent to nonnegativity of the form on every graded poset.
    """
    if system.ambient_n != F.degree - 1:
        raise DegreeMismatch(
            f"ambient {system.ambient_n} != degree - 1 = {F.degree - 1}"
        )
    return sum((c for s, c in F.terms() if is_blocker(s, system)), Fraction(0))


def limit_check(
    system: IntervalSystem, F: Form, Ns: Sequence[int]
) -> list[Fraction]:
    """Evaluate F on the witness posets of the system, normalized by the
    top flag number; the values approach eval_system(system, F) as N grows."""
    n = F.degree - 1
    if system.ambient_n != n:
        raise DegreeMismatch(
            f"ambient {system.ambient_n} != degree - 1 = {n}"
        )
    out = []
    for N in Ns:
        P = poset_mod.witness_poset(poset_mod.WitnessSpec(n, system, N))
        full = poset_mod.flag_number(P, (1 << n) - 1)
        out.append(eval_poset(P, F) / full)
    return out


# -- text format ----------------------------------------------------------------


def render_terms(letter: str, terms: Iterable[tuple[int, Scalar]]) -> str:
    """Signed-sum text of the nonzero (mask, coefficient) terms, in order.

    `letter` names the basis symbol, as in "f{1} - 2*f{2}"; no terms give "".
    """
    parts: list[str] = []
    for mask, c in terms:
        if not c:
            continue
        mag = abs(c)
        body = f"{letter}{ranksets.to_string(mask)}"
        if mag != 1:
            body = f"{mag}*{body}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts)


# Matched here, not left to int() or Fraction(), whose grammar differs
# between Python versions; a denominator needs a nonzero digit.
_COEFFICIENT = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def parse_form(text: str) -> Form:
    """Parse the form text format: a `form rank=R` header first, then term
    lines with a rank set inside [1, R-1] and an ASCII integer or num/den
    coefficient with den not zero, at most one term line per rank set."""
    degree, records = ranksets._read_records(text, "form")
    _length(degree)  # checked before any term line is read
    coeffs: dict[int, Fraction] = {}
    for parts, raw in records:
        if len(parts) != 2 or not _COEFFICIENT.fullmatch(parts[1]):
            raise ValueError(f"bad term line {raw!r}")
        mask = ranksets.parse(parts[0], degree - 1)
        if mask in coeffs:
            raise ValueError(f"repeated term line {raw!r}")
        coeffs[mask] = Fraction(parts[1])
    return Form(degree, coeffs)
