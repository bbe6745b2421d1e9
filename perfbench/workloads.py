"""The three benchmark workloads: inputs, the measured call, and the gate.

Every workload draws its instances from the library's deterministic corpus.
The seed picks the sample and its order; the library only ever sees the
instances themselves.  Functions are looked up on the ``flagtutte`` module at
call time so that the tracer's rebinding of those names is honoured.
"""

import random


class Workload:
    """One workload: how to build, sample, run and check its instances.

    load(ft) builds the full instance list (this is the timed set-up);
    call(ft, inst) is the measured operation; digest(out) shrinks its result
    to what the gate needs, outside the timed region, so that results kept
    for the gate do not inflate the measured memory; gate(ft, inst, kept)
    checks the kept result through an independent route.  Ranked by the
    cost proxy, the `certain` heaviest instances are always kept and run
    first, one of each adjacent pair among the next `band` is drawn, and the
    lighter rest is always kept.  certain=None keeps the whole corpus and
    only shuffles it.
    """

    def __init__(self, name, load, call, gate, certain=None, band=0,
                 digest=None):
        self.name = name
        self.load = load
        self.call = call
        self.gate = gate
        self.certain = certain
        self.band = band
        self.digest = digest or (lambda out: out)


# ------------------------------------------------------------- cost proxy


def _flag_base_chains(fm):
    chains = [(b,) for b in sorted(fm.constituents[-1].bases_masks)]
    for m in reversed(fm.constituents[:-1]):
        level = sorted(m.bases_masks)
        chains = [(b,) + c for c in chains for b in level if b & ~c[0] == 0]
    return chains


def _exchange_count(fm, chain):
    n = fm.n
    moves = set()
    for m, b in zip(fm.constituents, chain):
        bases = m.bases_masks
        for i in range(n):
            if not b >> i & 1:
                continue
            stripped = b & ~(1 << i)
            for j in range(n):
                if not b >> j & 1 and stripped | (1 << j) in bases:
                    moves.add((i, j))
    return len(moves)


def flag_cost_proxy(fm):
    """Sum over flag bases of 2^(exchange directions at that basis).

    Computed here from the basis masks alone, so that ranking the corpus by
    expected cost warms none of the library's caches.  The triangulation of a
    tangent cone grows roughly exponentially in its generator count.
    """
    return sum(1 << _exchange_count(fm, c) for c in _flag_base_chains(fm))


def sample_order(workload, instances, seed):
    """Indices of the seeded sample, in the order the loop runs them.

    The flag workloads have a heavy tail: the costliest 3% of flags take a
    third of a full sweep, and which of two flags that share tangent cones
    runs first decides which pays for the triangulation.  A plain random
    sample and order would swing the totals and the tail by more than the
    bounds.  So the heaviest flags by the cost proxy are always in and
    always run first, heaviest first.  In the next band, where most of the
    remaining time goes, the seed draws one of each pair of flags adjacent
    in the proxy ranking; the light flags, which set the median, are all
    kept.  The drawn and light flags follow in seeded order.
    """
    rng = random.Random(seed)
    idx = list(range(len(instances)))
    if workload.certain is None:
        rng.shuffle(idx)
        return idx
    cost = [flag_cost_proxy(fm) for fm in instances]
    idx.sort(key=lambda i: (-cost[i], i))
    first = workload.certain
    last = first + workload.band
    drawn = idx[last:]
    for j in range(first, last, 2):
        drawn.append(rng.choice(idx[j:min(j + 2, last)]))
    rng.shuffle(drawn)
    return idx[:first] + drawn


# ---------------------------------------------------------------- kt-corpus


def _load_flags(ft):
    return ft.flag_corpus()


def _call_kt(ft, fm):
    return ft.kt(fm)


def _gate_kt(ft, fm, poly):
    """kt of a one-step flag is the Tutte polynomial; for two steps its value
    at (2, 2) is 2^n times the number of pseudo-bases."""
    if fm.k == 1:
        return poly == ft.tutte(fm.constituents[0])
    m1, m2 = fm.constituents
    want = 2 ** fm.n * len(ft.pseudo_basis_masks(m1, m2))
    return poly.evaluate({"x": 2, "y": 2}) == want


# ------------------------------------------------------- equivariant-corpus


def _load_flags_rank1(ft):
    return [fm for fm in ft.flag_corpus() if fm.ranks[0] >= 1]


def _call_equivariant(ft, fm):
    return ft.kt_equivariant(fm)


def _digest_equivariant(eq):
    return eq.specialize_t1()


def _gate_equivariant(ft, fm, at_t1):
    """The t = 1 specialization, with u = x-1 and v = y-1, is kt."""
    x = ft.AuxPolynomial.variable("x")
    y = ft.AuxPolynomial.variable("y")
    return at_t1.substitute({"u": x - 1, "v": y - 1}) == ft.kt(fm)


# ----------------------------------------------------------- corank-nullity


def _load_pairs(ft):
    return ft.quotient_corpus()


def _call_corank(ft, pair):
    m1, m2 = pair
    lvt = ft.lv_tutte(m1, m2)
    tut = ft.tutte(m2)
    beta = None
    if m2.rank_value > m1.rank_value:
        beta = ft.beta_polynomial(m1, m2)
    return lvt, tut, beta, ft.poincare(m1, m2)


def _gate_corank(ft, pair, out):
    """LVT(2, 2, 1) and T(2, 2) count subsets; the reduced beta matches its
    Higgs-layer expression."""
    m1, m2 = pair
    lvt, tut, beta, _ = out
    n_subsets = 2 ** m1.n
    if lvt.evaluate({"x": 2, "y": 2, "z": 1}) != n_subsets:
        return False
    if tut.evaluate({"x": 2, "y": 2}) != n_subsets:
        return False
    if beta is not None and beta[1] != ft.reduced_beta_via_higgs(m1, m2):
        return False
    return True


WORKLOADS = {
    w.name: w for w in (
        Workload("kt-corpus", _load_flags, _call_kt, _gate_kt,
                 certain=40, band=360),
        Workload("equivariant-corpus", _load_flags_rank1, _call_equivariant,
                 _gate_equivariant, certain=40, band=360,
                 digest=_digest_equivariant),
        Workload("corank-nullity", _load_pairs, _call_corank, _gate_corank),
    )
}
