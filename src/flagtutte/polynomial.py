"""Exact multivariate (Laurent) polynomials with rational coefficients.

The auxiliary-variable polynomials that decorate equivariant supports and
come out of the invariants all live here.  Representation: a fixed tuple of
variable names and a dict from integer exponent tuples to nonzero exact
coefficients, each an int or a Fraction (the public constructors make
Fractions; integer results may hold ints, which print, compare and
serialize alike).  Exponents may be negative; nothing downstream ever needs
radicals or floats.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError("not an exact scalar: %r" % (c,))


def _merge_vars(a, b):
    out = list(a)
    for name in b:
        if name not in out:
            out.append(name)
    return tuple(out)


class AuxPolynomial:
    """Polynomial in a declared tuple of auxiliary variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            width = len(self.vars)
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != width:
                    raise ValueError("exponent width %d != %d variables"
                                     % (len(exps), width))
                coeff = _as_fraction(coeff)
                if not coeff:
                    continue
                prev = clean.get(exps)
                if prev is not None:
                    coeff += prev
                    if not coeff:
                        del clean[exps]
                        continue
                clean[exps] = coeff
        self.terms = clean

    # ------------------------------------------------------------ constructors

    @classmethod
    def _trusted(cls, vars, terms):
        """Wrap a dict of nonzero int or Fraction terms over the tuple vars
        without re-validating it."""
        out = cls.__new__(cls)
        out.vars = vars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, vars=()):
        return cls(vars, {})

    @classmethod
    def constant(cls, c, vars=()):
        return cls(vars, {(0,) * len(vars): _as_fraction(c)})

    @classmethod
    def monomial(cls, vars, exps, coeff=1):
        return cls(vars, {tuple(exps): _as_fraction(coeff)})

    @classmethod
    def variable(cls, name, vars=None):
        if vars is None:
            vars = (name,)
        vars = tuple(vars)
        exps = tuple(1 if v == name else 0 for v in vars)
        if sum(exps) != 1:
            raise ValueError("variable %r not in %r" % (name, vars))
        return cls(vars, {exps: Fraction(1)})

    # ------------------------------------------------------------- conversions

    def align(self, vars):
        """Reindex onto a superset variable tuple."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        pos = []
        for name in self.vars:
            if name not in vars:
                raise ValueError("cannot drop variable %r" % name)
            pos.append(vars.index(name))
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(vars)
            for p, e in zip(pos, exps):
                new[p] = e
            terms[tuple(new)] = c
        return AuxPolynomial(vars, terms)

    def _pair(self, other):
        if isinstance(other, AuxPolynomial):
            vars = _merge_vars(self.vars, other.vars)
            return self.align(vars), other.align(vars)
        return self, AuxPolynomial.constant(other, self.vars)

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other):
        a, b = self._pair(other)
        terms = dict(a.terms)
        for exps, c in b.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return AuxPolynomial._trusted(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return AuxPolynomial._trusted(
            self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, AuxPolynomial):
            c = _as_fraction(other)
            if c == 0:
                return AuxPolynomial.zero(self.vars)
            return AuxPolynomial._trusted(
                self.vars, {e: k * c for e, k in self.terms.items()})
        a, b = self._pair(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(key, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = s
        return AuxPolynomial._trusted(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = AuxPolynomial.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # --------------------------------------------------------------- structure

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, **exps):
        """Coefficient polynomial of a fixed power of some variables."""
        fixed = {self.vars.index(name): e for name, e in exps.items()}
        keep = tuple(v for i, v in enumerate(self.vars) if i not in fixed)
        terms = {}
        for e, c in self.terms.items():
            if all(e[i] == want for i, want in fixed.items()):
                key = tuple(e[i] for i in range(len(self.vars)) if i not in fixed)
                terms[key] = c
        return AuxPolynomial(keep, terms)

    def substitute(self, mapping):
        """Substitute polynomials or scalars for variables.

        mapping: dict name -> AuxPolynomial | int | Fraction.  Variables not
        mentioned survive.  Substituting into negative powers requires the
        value to be a monomial (used for t -> 1/t style dualities).
        """
        remaining = tuple(v for v in self.vars if v not in mapping)
        vars_out = remaining
        for val in mapping.values():
            if isinstance(val, AuxPolynomial):
                vars_out = _merge_vars(vars_out, val.vars)
        result = AuxPolynomial.zero(vars_out)
        cache = {}
        for exps, coeff in self.terms.items():
            piece = AuxPolynomial.constant(coeff, vars_out)
            for name, e in zip(self.vars, exps):
                if e == 0:
                    continue
                if name in mapping:
                    val = mapping[name]
                    key = (name, e)
                    if key not in cache:
                        if isinstance(val, AuxPolynomial):
                            base = val.align(_merge_vars(vars_out, val.vars))
                        else:
                            base = AuxPolynomial.constant(val, vars_out)
                        if e >= 0:
                            cache[key] = base ** e
                        else:
                            cache[key] = base._monomial_inverse() ** (-e)
                    piece = piece * cache[key]
                else:
                    piece = piece * AuxPolynomial.monomial(
                        vars_out,
                        tuple(e if v == name else 0 for v in vars_out))
            result = result + piece
        return result

    def _monomial_inverse(self):
        if len(self.terms) != 1:
            raise ValueError("only monomials can be inverted")
        (exps, coeff), = self.terms.items()
        return AuxPolynomial(self.vars,
                             {tuple(-e for e in exps): Fraction(1) / coeff})

    def evaluate(self, mapping):
        """Fully numeric evaluation; every variable must be mapped."""
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for name, e in zip(self.vars, exps):
                if e == 0:
                    continue
                val *= _as_fraction(mapping[name]) ** e
            total += val
        return total

    # ------------------------------------------------------------- comparisons

    def __eq__(self, other):
        if isinstance(other, AuxPolynomial):
            a, b = self._pair(other)
            return a.terms == b.terms
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return not self.terms
            return self.terms == {(0,) * len(self.vars): c}
        return NotImplemented

    __hash__ = None

    # ---------------------------------------------------------------- printing

    def canonical_str(self):
        """Graded-lex descending text form, e.g. 'x^2*y + x*y^2 + 2'."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms,
                      key=lambda e: (-sum(e), tuple(-x for x in e)))
        pieces = []
        for i, exps in enumerate(keys):
            coeff = self.terms[exps]
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.vars, exps) if e != 0)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%s*%s" % (mag, mono)
            if i == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "AuxPolynomial(%s)" % self.canonical_str()

    __str__ = canonical_str

    # -------------------------------------------------------------------- json

    def to_json(self):
        keys = sorted(self.terms,
                      key=lambda e: (-sum(e), tuple(-x for x in e)))
        return {
            "vars": list(self.vars),
            "monomials": [{"e": list(e), "c": str(self.terms[e])}
                          for e in keys],
        }

    @classmethod
    def from_json(cls, data):
        vars = tuple(data["vars"])
        terms = {}
        for mono in data["monomials"]:
            terms[tuple(mono["e"])] = Fraction(mono["c"])
        return cls(vars, terms)
