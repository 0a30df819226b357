"""Sparse multivariate polynomials over an exact coefficient domain.

Terms live in a dict mapping exponent tuples to nonzero coefficient payloads,
one entry per monomial, so polynomials are equal when their dicts are; the
variable set is fixed by a VarContext.  An operation that sends two terms to
one monomial (a sum, `homogenize`, a substitution) adds them and drops a zero
sum.  Printing and leading-term selection use graded lexicographic order, so
every textual dump is deterministic.

Products and substitutions run in one packed-monomial kernel (Johnson 1974;
Monagan-Pearce 2011): each exponent tuple is packed into one int, exponent i
in bits [i*w, (i+1)*w), with the field width w chosen per call from the
largest exponent the call can produce, so a monomial product is one integer
addition that never carries between fields.  Coefficients enter the kernel
lifted by their domain (`Domain.lift`): numerators over a common denominator
for Q, where integral payloads are ints, their own lifts; pairs of those for
Q(xi); residues for F_p; payloads for F_{p^m}.  Each output term is lowered
to a payload once.  A product with a one-term operand shifts exponents and
scales coefficients.  Exact division (`try_div`) pops the remainder's
leading terms from a heap, as Monagan-Pearce divide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, lshift, neg, sub

from .domains import QQ, QQXI, _poly_gcd, power


class VarContext:
    """An ordered tuple of variable names."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarContext{self.names}"


def _grlex_key(exps):
    return (sum(exps), exps)


def _heap_key(exps):
    """A key that orders monomials by descending grlex in a min-heap, with
    the monomial last."""
    return (-sum(exps), tuple(map(neg, exps)), exps)


# -----------------------------------------------------------------------------
# packed-monomial kernel


def _top(p):
    """The largest exponent in any term of p (0 for constants and zero)."""
    return max(map(max, p.terms), default=0) if p.ctx.nvars else 0


@lru_cache(maxsize=None)
def _packing(nvars, w):
    """(pack, unpack) between exponent tuples and ints, with fields of w
    bits; exponents below 2^w fit."""
    shifts = tuple(i * w for i in range(nvars))
    mask = (1 << w) - 1

    def pack(exps):
        return sum(map(lshift, exps, shifts))

    def unpack(k):
        return tuple([(k >> s) & mask for s in shifts])
    return pack, unpack


def _lift(p, pack):
    """p's terms as (packed key -> lifted value, scale)."""
    values, scale = p.dom.lift(p.terms.values())
    return dict(zip(map(pack, p.terms), values)), scale


def _kmul(a, b, dom):
    """Product of two packed polynomials with lifted coefficients over `dom`;
    zero terms are dropped, and int values are reduced mod dom.char."""
    out = {}
    terms = list(b.items())
    if dom.int_kernel:
        for k1, c1 in a.items():
            for k2, c2 in terms:
                k = k1 + k2
                if k in out:
                    out[k] += c1 * c2
                else:
                    out[k] = c1 * c2
        return _normalized(out, dom)
    add, mul = dom.add, dom.mul
    for k1, c1 in a.items():
        for k2, c2 in terms:
            k = k1 + k2
            if k in out:
                out[k] = add(out[k], mul(c1, c2))
            else:
                out[k] = mul(c1, c2)
    return _normalized(out, dom)


def _normalized(out, dom):
    """`out` without zero values, int values reduced mod dom.char."""
    if not dom.int_kernel:
        return {k: v for k, v in out.items() if not dom.is_zero(v)}
    p = dom.char
    if p:
        return {k: r for k, v in out.items() if (r := v % p)}
    return {k: v for k, v in out.items() if v}


def _lowered(ctx, dom, packed, scale, unpack):
    """The MPoly of a normalized packed polynomial whose values are over
    `scale`."""
    lower = dom.lower
    return MPoly(ctx, dom, {unpack(k): lower(v, scale) for k, v in packed.items()})


class MPoly:
    __slots__ = ("ctx", "dom", "terms")

    def __init__(self, ctx, dom, terms=None):
        self.ctx = ctx
        self.dom = dom
        self.terms = terms if terms is not None else {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx, dom):
        return cls(ctx, dom, {})

    @classmethod
    def constant(cls, ctx, dom, c):
        if isinstance(c, int):
            c = dom.from_int(c)
        if dom.is_zero(c):
            return cls.zero(ctx, dom)
        return cls(ctx, dom, {(0,) * ctx.nvars: c})

    @classmethod
    def variable(cls, ctx, dom, name):
        e = [0] * ctx.nvars
        e[ctx.index[name]] = 1
        return cls(ctx, dom, {tuple(e): dom.one})

    def _compatible(self, other):
        if self.ctx != other.ctx or self.dom != other.dom:
            raise ValueError("mixed polynomial contexts/domains")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.ctx, self.dom, other)
        self._compatible(other)
        dom = self.dom
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = dom.add(out[e], c)
                if dom.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MPoly(self.ctx, dom, out)

    __radd__ = __add__

    def __neg__(self):
        dom = self.dom
        return MPoly(self.ctx, dom, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.ctx, self.dom, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.dom.from_int(other))
        self._compatible(other)
        if len(other.terms) == 1 or len(self.terms) == 1:
            return self._monomial_product(other)
        top = _top(self) + _top(other)
        pack, unpack = _packing(self.ctx.nvars, top.bit_length())
        a, sa = _lift(self, pack)
        b, sb = _lift(other, pack)
        return _lowered(self.ctx, self.dom, _kmul(a, b, self.dom), sa * sb, unpack)

    __rmul__ = __mul__

    def _monomial_product(self, other):
        """self * other when one of them has one term: the other's exponents
        shifted by it and its coefficients scaled, with no kernel round trip.
        A field has no zero divisors, so no term cancels."""
        if len(other.terms) != 1:
            self, other = other, self
        (e0, c0), = other.terms.items()
        mul = self.dom.mul
        return MPoly(self.ctx, self.dom, {tuple(map(add, e, e0)): mul(c, c0)
                                          for e, c in self.terms.items()})

    def scale(self, c):
        dom = self.dom
        if dom.is_zero(c):
            return MPoly.zero(self.ctx, dom)
        return MPoly(self.ctx, dom, {e: dom.mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        return power(self, e, MPoly.__mul__) if e else MPoly.constant(self.ctx, self.dom, 1)

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.ctx, self.dom, other)
        return (isinstance(other, MPoly) and self.ctx == other.ctx
                and self.dom == other.dom and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, self.dom, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- structure ------------------------------------------------------------

    def total_degree(self):
        """Max total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def lowest_form(self):
        """The homogeneous part of minimal total degree (zero poly -> zero)."""
        if not self.terms:
            return self
        d0 = min(sum(e) for e in self.terms)
        return MPoly(self.ctx, self.dom,
                     {e: c for e, c in self.terms.items() if sum(e) == d0})

    def order_at_origin(self):
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def leading_term(self):
        """(exps, coeff) maximal in graded-lex order."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def multidegree(self, grading):
        """Common Z^r-degree of all terms under `grading` (var name -> tuple),
        or None if the terms disagree."""
        if not self.terms:
            return None
        names = self.ctx.names
        common = None
        for exps in self.terms:
            deg = None
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                g = grading[names[i]]
                if deg is None:
                    deg = tuple(e * gi for gi in g)
                else:
                    deg = tuple(di + e * gi for di, gi in zip(deg, g))
            if deg is None:
                deg = (0,) * len(next(iter(grading.values())))
            if common is None:
                common = deg
            elif deg != common:
                return None
        return common

    # -- calculus / substitution ----------------------------------------------

    def partial(self, name):
        """Formal partial derivative.  Terms with e_i > 0 have distinct
        derivatives, so none merge; a coefficient e_i c may vanish mod p."""
        i = self.ctx.index[name]
        dom = self.dom
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                nc = dom.mul(c, dom.from_int(e[i]))
                if not dom.is_zero(nc):
                    out[e[:i] + (e[i] - 1,) + e[i + 1:]] = nc
        return MPoly(self.ctx, dom, out)

    def substitute(self, mapping):
        """Replace variables by polynomials.  `mapping` maps names to MPoly
        in a common target context; unmapped variables must exist there."""
        if not mapping:
            return self
        target = next(iter(mapping.values()))
        tctx, dom = target.ctx, target.dom
        if dom != self.dom:
            raise ValueError("substitute images must share the source domain")
        images = []
        for i, name in enumerate(self.ctx.names):
            if name in mapping:
                img = mapping[name]
                if img.ctx != tctx:
                    raise ValueError("substitute images in mixed contexts")
                images.append(img)
            else:
                images.append(MPoly.variable(tctx, dom, name))
        if not self.terms:
            return MPoly.zero(tctx, dom)
        # every image is lifted over one scale S, so a source term c*x^e of
        # total degree |e| contributes c * S^(D - |e|) * prod P_i^e_i over
        # S^D, where D is the source's total degree and P_i the lifted images
        tops = [_top(img) for img in images]
        top = max(sum(x * t for x, t in zip(e, tops)) for e in self.terms)
        pack, unpack = _packing(tctx.nvars, top.bit_length())
        values, S = dom.lift(c for img in images for c in img.terms.values())
        values = iter(values)
        powers = {}
        for i, img in enumerate(images):
            powers[i, 1] = dict(zip(map(pack, img.terms), values))

        def power(i, e):
            k = e
            while (i, k) not in powers:
                k -= 1
            for k in range(k + 1, e + 1):
                powers[i, k] = _kmul(powers[i, k - 1], powers[i, 1], dom)
            return powers[i, e]

        def rescaled(exps, c):
            f = S ** (D - sum(exps))
            return c if f == 1 else dom.mul(c, dom.from_int(f))

        D = self.total_degree()
        coeffs, scale = dom.lift(rescaled(e, c) for e, c in self.terms.items())
        acc = {}
        for exps, c in zip(self.terms, coeffs):
            part = {0: c}
            for i, e in enumerate(exps):
                if e:
                    part = _kmul(part, power(i, e), dom)
            if dom.int_kernel:
                for k, v in part.items():
                    acc[k] = acc[k] + v if k in acc else v
            else:
                for k, v in part.items():
                    acc[k] = dom.add(acc[k], v) if k in acc else v
        return _lowered(tctx, dom, _normalized(acc, dom), scale * S ** D, unpack)

    def evaluate(self, point):
        """Value at a full assignment (sequence of payloads, one per variable)."""
        dom = self.dom
        if len(point) != self.ctx.nvars:
            raise ValueError("point arity mismatch")
        cache = {}

        def vp(i, e):
            key = (i, e)
            if key not in cache:
                cache[key] = dom.pow(point[i], e)
            return cache[key]

        acc = dom.zero
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v = dom.mul(v, vp(i, e))
            acc = dom.add(acc, v)
        return acc

    def homogenize(self, name, target=None):
        """Raise every term to total degree `target` (default: current max)
        using the existing variable `name`.  Terms that land on one monomial,
        as x^2 and x*x do for x^2 + x, are added."""
        i, dom = self.ctx.index[name], self.dom
        if target is None:
            target = self.total_degree() or 0
        out = {}
        for e, c in self.terms.items():
            t = sum(e)
            if t > target:
                raise ValueError("degree above homogenization target")
            ne = e[:i] + (e[i] + target - t,) + e[i + 1:]
            out[ne] = dom.add(out[ne], c) if ne in out else c
        return MPoly(self.ctx, dom, {e: c for e, c in out.items() if not dom.is_zero(c)})

    def map_domain(self, new_dom, conv):
        """Convert coefficients with `conv`, dropping those that map to zero."""
        out = {}
        for e, c in self.terms.items():
            nc = conv(c)
            if not new_dom.is_zero(nc):
                out[e] = nc
        return MPoly(self.ctx, new_dom, out)

    # -- exact division ---------------------------------------------------------

    def try_div(self, g):
        """Exact quotient self / g, or None when g does not divide self.

        Division with a heap (Monagan-Pearce 2011): the remainder is one dict
        updated in place, and its leading term comes from a grlex max-heap of
        its monomials, so a step touches only the other terms of g.  A
        monomial cancelled and later re-added has a stale heap entry, which
        is skipped when popped; every monomial a step adds is below the one
        it removes, so entries of one monomial pop together."""
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        self._compatible(g)
        dom = self.dom
        ge, gc = g.leading_term()
        gc_inv = dom.inv(gc)
        tail = [(e, c) for e, c in g.terms.items() if e != ge]
        rem = dict(self.terms)
        heap = [_heap_key(e) for e in rem]
        heapify(heap)
        quot = {}
        while heap:
            key = heappop(heap)
            rc = rem.pop(key[2], None)
            if rc is None:
                continue
            qe = tuple(map(sub, key[2], ge))
            if min(qe, default=0) < 0:
                return None
            qc = quot[qe] = dom.mul(rc, gc_inv)
            for e, c in tail:
                m = tuple(map(add, qe, e))
                v = dom.mul(qc, c)
                if m in rem:
                    left = dom.sub(rem[m], v)
                    if dom.is_zero(left):
                        del rem[m]
                    else:
                        rem[m] = left
                else:
                    rem[m] = dom.neg(v)
                    heappush(heap, _heap_key(m))
        return MPoly(self.ctx, dom, quot)

    # -- printing ---------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def to_text(self):
        if not self.terms:
            return "0"
        names = self.ctx.names
        parts = []
        for exps, c in self.sorted_terms():
            piece = self.dom.fmt(c)
            for i, e in enumerate(exps):
                if e == 1:
                    piece += f"*{names[i]}"
                elif e > 1:
                    piece += f"*{names[i]}^{e}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self):
        return f"MPoly({self.to_text()})"


# -----------------------------------------------------------------------------


@dataclass
class RationalMap:
    """A projective map given by a tuple of polynomials in a common context."""

    name: str
    components: tuple

    def __post_init__(self):
        self.components = tuple(self.components)
        ctx = self.components[0].ctx
        for c in self.components:
            if c.ctx != ctx:
                raise ValueError("map components in mixed contexts")

    @property
    def ctx(self):
        return self.components[0].ctx

    @property
    def dom(self):
        return self.components[0].dom

    def degree(self):
        degs = {c.total_degree() for c in self.components if not c.is_zero()}
        return degs.pop() if len(degs) == 1 else None

    def evaluate(self, point):
        return tuple(c.evaluate(point) for c in self.components)

    def map_domain(self, new_dom, conv):
        return RationalMap(self.name,
                           tuple(c.map_domain(new_dom, conv) for c in self.components))

    def to_text(self):
        return "\n".join(f"{self.name}[{i}] = {c.to_text()}"
                         for i, c in enumerate(self.components))


def compose(outer, inner):
    """outer ∘ inner as a RationalMap (plain substitution, no cancellation)."""
    if len(inner.components) != outer.ctx.nvars:
        raise ValueError("composition arity mismatch")
    mapping = dict(zip(outer.ctx.names, inner.components))
    comps = tuple(c.substitute(mapping) for c in outer.components)
    return RationalMap(f"{outer.name}.{inner.name}", comps)


# -----------------------------------------------------------------------------
# exact linear algebra over a domain


def _zxi_step(p, x, a, y, prev):
    """(p*x - a*y) / prev in Z[xi], for int pairs that prev divides."""
    n0 = p[0] * x[0] - 3 * p[1] * x[1] - a[0] * y[0] + 3 * a[1] * y[1]
    n1 = p[0] * x[1] + p[1] * x[0] - a[0] * y[1] - a[1] * y[0]
    c0, c1 = prev
    nrm = c0 * c0 + 3 * c1 * c1
    return (n0 * c0 + 3 * n1 * c1) // nrm, (n1 * c0 - n0 * c1) // nrm


def exact_rank(rows, dom):
    """Rank of a matrix of payloads by fraction-free elimination (Bareiss
    1968) on its rows lifted by `dom.lift`.  Each entry is a minor, so the
    division by the previous pivot is exact: `//` over Q, conjugate over
    norm over Q(xi), `dom.div` over F_q."""
    if dom is QQ:
        def step(p, x, a, y, prev):
            return (p * x - a * y) // prev
    elif dom is QQXI:
        step = _zxi_step
    else:
        def step(p, x, a, y, prev):
            return dom.div(dom.sub(dom.mul(p, x), dom.mul(a, y)), prev)
    mat = [dom.lift(r)[0] for r in rows]
    rank, prev, is_zero = 0, dom.one, dom.is_zero
    # the leading column of `mat` is the next pivot column tried
    while mat and mat[0]:
        piv = next((i for i, r in enumerate(mat) if not is_zero(r[0])), None)
        if piv is None:
            mat = [r[1:] for r in mat]
            continue
        p, *top = mat.pop(piv)
        mat = [[step(p, x, a, y, prev) for x, y in zip(rest, top)] for a, *rest in mat]
        rank, prev = rank + 1, p
    return rank


# -----------------------------------------------------------------------------
# local multiplicity at a point


def _binary_form_shares_factor(f, g):
    """Whether two homogeneous forms in <= 2 active variables share a factor.
    Returns None when the active variable count exceeds 2 (not decided)."""
    active = set()
    for p in (f, g):
        for e in p.terms:
            for i, x in enumerate(e):
                if x:
                    active.add(i)
    if len(active) > 2:
        return None
    if len(active) <= 1:
        # powers of a single variable (or constants)
        if len(active) == 0:
            return False
        i = next(iter(active))
        return min(e[i] for e in f.terms) > 0 and min(e[i] for e in g.terms) > 0
    i, j = sorted(active)
    dom = f.dom

    def univ(p):
        # coefficients of p(x_i, 1), little-endian, and the least power of x_j
        coeffs = [dom.zero] * (max(e[i] for e in p.terms) + 1)
        for e, c in p.terms.items():
            coeffs[e[i]] = dom.add(coeffs[e[i]], c)
        return coeffs, min(e[j] for e in p.terms)

    cf, jf = univ(f)
    cg, jg = univ(g)
    return jf > 0 and jg > 0 or len(_poly_gcd(cf, cg, dom)) > 1


def multiplicity_at(gens, point):
    """Local multiplicity of the scheme cut out by `gens` at a projective point.

    The point is moved to an affine origin (chart of its first nonzero
    coordinate).  For a single generator this is the order of vanishing.  For
    two generators the second is reduced against the first while the lowest
    form of one divides the other's, and the result is the product of the two
    vanishing orders.  `shared_tangent` in the returned dict flags lowest
    forms that still share a factor without dividing (product may overcount
    then); it stays None when that test is undecided.
    """
    if not gens:
        raise ValueError("no generators")
    ctx, dom = gens[0].ctx, gens[0].dom
    pivot = next((i for i, c in enumerate(point) if not dom.is_zero(c)), None)
    if pivot is None:
        raise ValueError("zero point")
    scale = dom.inv(point[pivot])
    pt = [dom.mul(c, scale) for c in point]
    mapping = {}
    for i, name in enumerate(ctx.names):
        if i == pivot:
            mapping[name] = MPoly.constant(ctx, dom, 1)
        else:
            mapping[name] = MPoly.variable(ctx, dom, name) + MPoly.constant(ctx, dom, 1).scale(pt[i])
    return local_multiplicity([g.substitute(mapping) for g in gens])


def local_multiplicity(local):
    """`multiplicity_at` of generators already moved to the point: their
    multiplicity at the origin, in the same dict."""
    for f in local:
        if f.is_zero():
            raise ValueError("a generator vanishes identically")
    if any(f.order_at_origin() == 0 for f in local):
        return {"multiplicity": 0, "orders": tuple(f.order_at_origin() for f in local),
                "shared_tangent": False}
    if len(local) == 1:
        ordv = local[0].order_at_origin()
        return {"multiplicity": ordv, "orders": (ordv,), "shared_tangent": False}
    if len(local) != 2:
        raise ValueError("multiplicity supported for one or two generators")
    f, g = local
    while True:
        if f.order_at_origin() > g.order_at_origin():
            f, g = g, f
        quot = g.lowest_form().try_div(f.lowest_form())
        if quot is None:
            break
        g2 = g - quot * f
        if g2.is_zero():
            raise ValueError("generators share a component through the point")
        g = g2
    of, og = f.order_at_origin(), g.order_at_origin()
    shared = _binary_form_shares_factor(f.lowest_form(), g.lowest_form())
    return {"multiplicity": of * og, "orders": (of, og), "shared_tangent": shared}
