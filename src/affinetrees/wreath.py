"""Lexicographic wreath products and their affine actions.

For a group H acting affinely (and order-preservingly) on a space V, and
an ordered scalar index group (the integers or rationals), the wreath
product consists of pairs (shift, finitely supported map index -> H).
It acts on the product of the index group with the finitely-supported
maps index -> V: the shift translates the first coordinate, and the
fiber placed at index i of the result is h_{i + shift} applied to the
point fiber at i + shift.  The dilation fixes the first coordinate and
applies the component dilations fiberwise (with the same index shift),
so convex subgroups are shifted rather than stabilised.

H is consumed through a small contract -- identity, multiplication,
inversion, action and dilation on fiber values, and ``act_zero(h)``, the
image of the zero fiber -- so translation groups, affine matrix groups
and other wreath products all plug in, enabling iterated constructions.
An absent fiber is zero, so ``act`` sends it straight to ``act_zero``:
h itself for a translation, the translation column for a matrix map,
with no arithmetic.  ``act``, ``dilate``, ``mul`` and ``inv`` take
and return normalised values and elements, and check only that each
element is a :class:`WreathElem` (``WreathGroup.check_element`` raises
:class:`~affinetrees.errors.StructureMismatch` otherwise), not its
shift, support or fibers; the validating constructors are
:meth:`WreathGroup.element` (through each base's ``check_element``),
``MatrixAffineAut`` (which ``from_affine_matrix`` calls) and
``LexVec(space, value)``.

A uniform index shift preserves the order of a support or family, and an
element changes at most the fibers at its own support indices.  So
``act``, ``mul`` and ``dilate`` shift the sorted tuples in one pass and
merge the few changed indices in by bisection
(:func:`~affinetrees.ordered.merge_sorted`); no index is hashed and
nothing is sorted again.  Every shift, in ``act``, ``dilate``, ``mul``
and ``inv``, goes through :func:`~affinetrees.ordered.shift_sorted`: a
Z index moves by ``i + t``, and a Q index a/b by t = p/q becomes
(a*q + p*b) / (b*q) in int arithmetic, reduced by one gcd unless b or q
is 1, so no ``Fraction`` addition re-normalises it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import MatrixAffineAut
from .errors import EmptyLevels, StructureMismatch, TooManyLevels
from .ordered import LexFamily, LexVec, Product, Scalars, merge_sorted, shift_sorted
from .trimat import TriMat


class TranslationBundle:
    """An ordered abelian group acting on itself by translation.

    Elements of the acting group are simply values of the space; the
    action is free and isometric (dilation is the identity).
    """

    def __init__(self, space):
        self.point_space = space

    def __eq__(self, other):
        return isinstance(other, TranslationBundle) and self.point_space == other.point_space

    def identity(self):
        return self.point_space.zero()

    def is_identity(self, h) -> bool:
        return self.point_space.is_zero(h)

    def mul(self, a, b):
        return self.point_space.add(a, b)

    def inv(self, a):
        return self.point_space.neg(a)

    def act(self, h, value):
        return self.point_space.add(value, h)

    def act_zero(self, h):
        return h

    def dilate(self, h, value):
        return value

    def check_element(self, h):
        return self.point_space.coerce(h)

    def sample_element(self, rng):
        return self.point_space.sample(rng)


class MatrixBundle:
    """A group of affine matrix automorphisms acting on a fixed space.

    Elements are :class:`~affinetrees.actions.MatrixAffineAut` values
    sharing one point space; an optional sampler supplies random
    elements for the verification suites.
    """

    def __init__(self, space, sampler=None):
        self.point_space = space
        self._sampler = sampler

    def __eq__(self, other):
        return isinstance(other, MatrixBundle) and self.point_space == other.point_space

    def identity(self) -> MatrixAffineAut:
        return MatrixAffineAut(TriMat.identity(len(self.point_space.factors) + 1), self.point_space)

    def is_identity(self, h) -> bool:
        return h.is_identity()

    def mul(self, a, b):
        return a.compose(b)

    def inv(self, a):
        return a.invert()

    def act(self, h, value):
        return h._mat_apply(value, True)

    def act_zero(self, h):
        return h.translation[::-1]

    def dilate(self, h, value):
        return h._mat_apply(value, False)

    def check_element(self, h):
        if not isinstance(h, MatrixAffineAut) or h.space != self.point_space:
            raise StructureMismatch(f"not an automorphism of {self.point_space!r}")
        return h

    def sample_element(self, rng):
        if self._sampler is None:
            raise StructureMismatch("this matrix bundle has no element sampler")
        return self._sampler(rng)


@dataclass(frozen=True)
class WreathElem:
    """(shift, finitely supported map index -> H element).

    ``support`` holds only non-identity H values, sorted by index.
    """

    shift: object
    support: tuple

    def mapping(self) -> dict:
        return dict(self.support)

    def __repr__(self):
        return f"WreathElem(shift={self.shift!r}, support={self.support!r})"


class WreathGroup:
    """The lexicographic wreath product of a base action by a scalar index
    group, together with its affine action."""

    def __init__(self, base, index_space: Scalars):
        if not isinstance(index_space, Scalars) or index_space.kind == "R":
            raise StructureMismatch("wreath index must be the Z or Q scalars")
        self.base = base
        self.index_space = index_space
        self.fiber_space = base.point_space
        self.point_space = Product(index_space, LexFamily(index_space, base.point_space))

    def __eq__(self, other):
        return (
            isinstance(other, WreathGroup)
            and self.base == other.base
            and self.index_space == other.index_space
        )

    # -- elements ----------------------------------------------------------

    def element(self, shift, mapping) -> WreathElem:
        shift = self.index_space.coerce(shift)
        items = mapping.items() if isinstance(mapping, dict) else mapping
        out = {}
        for idx, h in items:
            idx = self.index_space.coerce(idx)
            if idx in out:
                raise StructureMismatch(f"duplicate support index {idx!r}")
            out[idx] = self.base.check_element(h)
        support = [(i, h) for i, h in out.items() if not self.base.is_identity(h)]
        return WreathElem(shift, tuple(sorted(support)))

    def identity(self) -> WreathElem:
        return WreathElem(self.index_space.zero(), ())

    def is_identity(self, e: WreathElem) -> bool:
        return self.index_space.is_zero(e.shift) and not e.support

    def check_element(self, e) -> WreathElem:
        if not isinstance(e, WreathElem):
            raise StructureMismatch(f"not a wreath element: {e!r}")
        return e

    def mul(self, a: WreathElem, b: WreathElem) -> WreathElem:
        """(a_shift, (k_i)) * (b_shift, (h_i)) has map i -> k_{i-b_shift} h_i."""
        self.check_element(a)
        self.check_element(b)
        base, t = self.base, b.shift
        support = merge_sorted(
            shift_sorted(a.support, t) if t else a.support,
            b.support,
            lambda k, h: h if k is None else base.mul(k, h),
            base.is_identity,
        )
        return WreathElem(a.shift + t, support)

    def inv(self, a: WreathElem) -> WreathElem:
        """(shift, (h_i))**-1 = (-shift, (h_{i+shift}**-1)); checked against
        the multiplication rule by the verification suites."""
        self.check_element(a)
        inv, t = self.base.inv, -a.shift
        return WreathElem(t, shift_sorted(((i, inv(h)) for i, h in a.support), t))

    # -- the action ----------------------------------------------------------
    # Contract methods work on raw point-space values so that a wreath
    # group can serve as the base of a further wreath level; the *_vec
    # wrappers take and return LexVec.

    def act(self, g: WreathElem, value):
        """(shift, (h_i)) . (c, (v_i)) = (c + shift, (h_{i+shift} v_{i+shift})_i)."""
        self.check_element(g)
        c, fam = value
        base, t = self.base, g.shift
        act, act_zero = base.act, base.act_zero
        moved = merge_sorted(
            fam,
            g.support,
            lambda v, h: act_zero(h) if v is None else act(h, v),
            self.fiber_space.is_zero,
        )
        if t:
            moved = shift_sorted(moved, -t)
        return (c + t, moved)

    def act_zero(self, g: WreathElem):
        return self.act(g, self.point_space.zero())

    def dilate(self, g: WreathElem, value):
        """First coordinate fixed; fiber at i becomes the h_{i+shift}
        dilation of the fiber at i+shift."""
        self.check_element(g)
        c, fam = value
        base, fiber, t = self.base, self.fiber_space, g.shift
        zero = fiber.zero()
        # a dilation is linear, so an absent fiber stays absent
        out = merge_sorted(
            fam,
            g.support,
            lambda v, h: zero if v is None else base.dilate(h, v),
            fiber.is_zero,
        )
        if t:
            out = shift_sorted(out, -t)
        return (c, out)

    def act_vec(self, g: WreathElem, point: LexVec) -> LexVec:
        if point.space != self.point_space:
            raise StructureMismatch("point lives in a different space")
        return LexVec._trusted(self.point_space, self.act(g, point.value))

    def dilate_vec(self, g: WreathElem, delta: LexVec) -> LexVec:
        if delta.space != self.point_space:
            raise StructureMismatch("difference lives in a different space")
        return LexVec._trusted(self.point_space, self.dilate(g, delta.value))

    # -- sampling -----------------------------------------------------------

    def sample_element(self, rng) -> WreathElem:
        shift = self.index_space.sample(rng)
        size = rng.randint(0, 2)
        mapping = {}
        for _ in range(size):
            mapping[self.index_space.sample(rng)] = self.base.sample_element(rng)
        return self.element(shift, mapping)

    def sample_nontrivial(self, rng) -> WreathElem:
        while True:
            g = self.sample_element(rng)
            if not self.is_identity(g):
                return g

    def sample_point(self, rng) -> LexVec:
        return LexVec._trusted(self.point_space, self.point_space.sample(rng))


#: Most levels :func:`iterated_wreath` builds.  A sampled element or point
#: grows about 1.5 times per level, so the cost of a sample does too; the
#: README gives the time of ``wreath --samples 1000`` at this bound.
MAX_WREATH_LEVELS = 6


def iterated_wreath(levels):
    """Iterated wreath bundle over scalar kinds ('Z' or 'Q').

    One level gives the group translating itself; each further level
    wraps the previous bundle in a :class:`WreathGroup`.  At most
    :data:`MAX_WREATH_LEVELS` levels are accepted.
    """
    levels = list(levels)
    if not levels:
        raise EmptyLevels("need at least one level")
    if len(levels) > MAX_WREATH_LEVELS:
        raise TooManyLevels(
            f"{len(levels)} levels, more than the {MAX_WREATH_LEVELS} supported"
        )
    bundle = TranslationBundle(Scalars(levels[0]))
    for kind in levels[1:]:
        bundle = WreathGroup(bundle, Scalars(kind))
    return bundle
