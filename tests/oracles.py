"""Independent numerical oracles used to freeze expected test values.

These deliberately avoid the jet machinery: plain evaluation plus
central finite differences with Richardson extrapolation, and a
dict-based polynomial calculus for exact symbolic expectations.
"""

import itertools

import numpy as np


def fd_partial(fn, x, axis, order, h):
    """Central finite difference of a scalar function of a point array."""
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[axis] = 1.0
    if order == 1:
        return (fn(x + h * e) - fn(x - h * e)) / (2 * h)
    if order == 2:
        return (fn(x + h * e) - 2 * fn(x) + fn(x - h * e)) / h**2
    if order == 3:
        return (fn(x + 2 * h * e) - 2 * fn(x + h * e)
                + 2 * fn(x - h * e) - fn(x - 2 * h * e)) / (2 * h**3)
    raise ValueError(order)


def richardson_partial(fn, x, axis, order, h, levels=1):
    """Richardson extrapolation of the O(h^2) central differences.

    Uses steps h, h/2, ..., h/2**levels; level k removes the h^(2k) term.
    """
    table = [fd_partial(fn, x, axis, order, h / 2**i)
             for i in range(levels + 1)]
    for level in range(1, levels + 1):
        f = 4**level
        table = [(f * fine - coarse) / (f - 1)
                 for coarse, fine in zip(table, table[1:])]
    return table[0]


def fd_mixed(fn, x, axes, h):
    """Mixed partial d^k f / dx_{a1}..dx_{ak} by nested differences."""
    if not axes:
        return fn(np.asarray(x, dtype=float))
    first, rest = axes[0], axes[1:]
    e = np.zeros_like(np.asarray(x, dtype=float))
    e[first] = 1.0
    return (fd_mixed(fn, x + h * e, rest, h)
            - fd_mixed(fn, x - h * e, rest, h)) / (2 * h)


class Poly:
    """Multivariate polynomial as {exponent tuple: coefficient}."""

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = dict(terms or {})

    @classmethod
    def random(cls, dim, rng, n_terms=5, max_deg=3):
        terms = {}
        for _ in range(n_terms):
            alpha = tuple(int(a) for a in rng.integers(0, max_deg + 1,
                                                       size=dim))
            if sum(alpha) > max_deg:
                continue
            terms[alpha] = terms.get(alpha, 0.0) + float(
                rng.uniform(-2, 2))
        return cls(dim, terms)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[1:])
        for alpha, c in self.terms.items():
            total = total + c * np.prod(
                [x[i] ** a for i, a in enumerate(alpha)], axis=0)
        return total

    def diff(self, axis):
        out = {}
        for alpha, c in self.terms.items():
            if alpha[axis] == 0:
                continue
            beta = list(alpha)
            beta[axis] -= 1
            out[tuple(beta)] = out.get(tuple(beta), 0.0) + c * alpha[axis]
        return Poly(self.dim, out)

    def diff_multi(self, axes):
        p = self
        for a in axes:
            p = p.diff(a)
        return p

    def to_source(self):
        parts = []
        names = ["x", "y", "z", "w"][:self.dim]
        for alpha, c in sorted(self.terms.items()):
            factors = [repr(c)]
            for name, a in zip(names, alpha):
                if a == 1:
                    factors.append(name)
                elif a > 1:
                    factors.append(f"{name}^{a}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


def all_multi_indices(dim, max_order):
    out = []
    for order in range(max_order + 1):
        for alpha in itertools.product(range(order + 1), repeat=dim):
            if sum(alpha) == order:
                out.append(alpha)
    return out
