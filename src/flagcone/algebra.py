"""The graded algebra of chain-count functionals.

A form of degree n+1 is a rational linear combination of the basis symbols
f_S, S a subset of [1, n]; it acts on a graded poset of rank n+1 by
substituting flag numbers for the symbols.  The product (convolution) splits
a poset at a middle rank: (F * G)(P) sums F on the lower interval times G on
the upper interval over all elements at the junction rank, and on basis
symbols it unions the supports around the junction letter.

Degree-0 values are bare scalars (Fraction), never Form objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from . import poset as poset_mod
from . import ranksets
from .intervals import IntervalSystem, is_blocker
from .polyhedra import Scalar


class DegreeMismatch(ValueError):
    """Operands or arguments disagree about the degree."""


class BadShiftIndex(ValueError):
    """Shift position outside [0, n]."""


class ZeroForm(ValueError):
    """The operation is undefined on the zero form."""


# One Fraction object per small integer, for coefficients built in bulk:
# the extreme forms' coefficients are mostly +1 and -1.
_SMALL_INTEGERS = {k: Fraction(k) for k in range(-16, 17)}
_ZERO = _SMALL_INTEGERS[0]


class Form:
    """Sparse exact-rational combination of the f_S basis in one degree."""

    __slots__ = ("degree", "_coeffs")

    def __init__(self, degree: int, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        if degree < 1:
            raise DegreeMismatch(f"degree {degree} < 1")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Fraction] = {}
        for mask, c in items:
            ranksets.check_mask(mask, degree - 1)
            acc[mask] = acc.get(mask, _ZERO) + Fraction(c)
        # Integral coefficients in range share the Fractions of
        # _SMALL_INTEGERS, as in from_vector, so a kept form holds none of
        # its own for them.
        small = _SMALL_INTEGERS.get
        object.__setattr__(self, "degree", degree)
        object.__setattr__(
            self, "_coeffs",
            {
                m: small(c.numerator, c) if c.denominator == 1 else c
                for m, c in sorted(acc.items()) if c
            },
        )

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- construction helpers ----------------------------------------------

    @classmethod
    def monomial(cls, degree: int, mask: int, coeff: Scalar = 1) -> "Form":
        return cls(degree, {mask: coeff})

    @classmethod
    def from_vector(cls, degree: int, vec: Sequence[Scalar]) -> "Form":
        if degree < 1:
            raise DegreeMismatch(f"degree {degree} < 1")
        if len(vec) != 1 << (degree - 1):
            raise DegreeMismatch(
                f"vector length {len(vec)} != 2**{degree - 1}"
            )
        # The masks of a full-length vector are distinct, ascending and in
        # range, so nothing of __init__ but the Fraction conversion applies;
        # small integral coordinates share the Fractions of _SMALL_INTEGERS.
        small = _SMALL_INTEGERS.get
        form = object.__new__(cls)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(
            form, "_coeffs",
            {m: small(c) or Fraction(c) for m, c in enumerate(vec) if c},
        )
        return form

    # -- inspection ----------------------------------------------------------

    def coeff(self, mask: int) -> Fraction:
        ranksets.check_mask(mask, self.degree - 1)
        return self._coeffs.get(mask, _ZERO)

    __getitem__ = coeff

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """(mask, coefficient) pairs in ascending mask order."""
        return iter(self._coeffs.items())

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def vector(self) -> tuple[Fraction, ...]:
        """Dense coefficient tuple over all masks in ascending order."""
        get = self._coeffs.get
        return tuple([get(m, _ZERO) for m in range(1 << (self.degree - 1))])

    # -- arithmetic ----------------------------------------------------------

    def _binop(self, other: "Form", sign: int) -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatch(f"degrees {self.degree} != {other.degree}")
        acc = dict(self._coeffs)
        for m, c in other._coeffs.items():
            acc[m] = acc.get(m, _ZERO) + sign * c
        return Form(self.degree, acc)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return Form(self.degree, {m: -c for m, c in self._coeffs.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, Form):
            return NotImplemented
        s = Fraction(scalar)
        return Form(self.degree, {m: s * c for m, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1 / Fraction(scalar))

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.degree, tuple(self._coeffs.items())))

    def __str__(self):
        return render_terms("f", self.terms()) or f"0 (degree {self.degree})"

    def __repr__(self):
        return f"Form({self.degree}, {self._coeffs!r})"


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
    deg = F.degree
    common = None
    for s in F.support:
        common = s if common is None else common & s
    for m in range(1, deg):
        if not (common >> (m - 1)) & 1:
            continue
        low_mask = (1 << (m - 1)) - 1
        table: dict[tuple[int, int], Fraction] = {}
        for s, c in F.terms():
            table[(s & low_mask, s >> m)] = c
        rows = sorted({i for i, _ in table})
        cols = sorted({j for _, j in table})
        r0 = rows[0]
        c0 = min(j for (i, j) in table if i == r0)
        pivot = table[(r0, c0)]
        u = {i: table.get((i, c0), Fraction(0)) / pivot for i in rows}
        v = {j: table.get((r0, j), Fraction(0)) for j in cols}
        ok = True
        for i in rows:
            for j in cols:
                if table.get((i, j), Fraction(0)) != u[i] * v[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Form(m, u), Form(deg - m, v)
    return None


# -- basis changes ------------------------------------------------------------


def to_h_coeffs(F: Form) -> dict[int, Fraction]:
    """Coordinates in the h-basis: the U-th one sums a_S over S containing U."""
    n = F.degree - 1
    return {
        u: sum((c for s, c in F.terms() if s & u == u), Fraction(0))
        for u in range(1 << n)
    }


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
    """Parse the form text format: ASCII integer or num/den coefficients
    with den not zero, at most one term line per rank set."""
    degree = None
    coeffs: dict[int, Fraction] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "form":
            if degree is not None:
                raise ValueError("repeated form header")
            rank = re.fullmatch(r"rank=([0-9]+)", " ".join(parts[1:]))
            if rank is None:
                raise ValueError(f"bad header {raw!r}")
            degree = int(rank[1])
        else:
            if degree is None:
                raise ValueError("term before form header")
            if len(parts) != 2 or not _COEFFICIENT.fullmatch(parts[1]):
                raise ValueError(f"bad term line {raw!r}")
            mask = ranksets.parse(parts[0])
            if mask in coeffs:
                raise ValueError(f"repeated term line {raw!r}")
            coeffs[mask] = Fraction(parts[1])
    if degree is None:
        raise ValueError("missing form header")
    return Form(degree, coeffs)
