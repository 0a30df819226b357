"""`MPoly` operations that only the tests use: a coefficient, the degree
in one variable, and a scalar substituted for one variable."""

from skewplanes.mpoly import MPoly


def coefficient_of(f, exps):
    return f.terms.get(tuple(exps), f.dom.zero)


def degree_in(f, name):
    i = f.ctx.index[name]
    return max((e[i] for e in f.terms), default=0)


def set_var(f, name, value):
    """f with the scalar payload (or int) `value` for the variable `name`."""
    dom = f.dom
    if isinstance(value, int):
        value = dom.from_int(value)
    i = f.ctx.index[name]
    out = {}
    for e, c in f.terms.items():
        nc = dom.mul(c, dom.pow(value, e[i])) if e[i] else c
        if dom.is_zero(nc):
            continue
        ne = e[:i] + (0,) + e[i + 1:]
        prev = out.get(ne)
        s = nc if prev is None else dom.add(prev, nc)
        if dom.is_zero(s):
            out.pop(ne, None)
        else:
            out[ne] = s
    return MPoly(f.ctx, dom, out)
