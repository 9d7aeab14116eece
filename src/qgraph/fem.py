"""P1 Galerkin oracle for the vertex-coupled form, by exact inertia counts.

Independent cross-check of the secular solver: discretize each edge with
linear elements, add the imaginary skew trace pairing at coupled vertices,
eliminate the linear constraints (alternating trace sums at even-degree
coupled vertices, Dirichlet tips) by nullspace restriction, and find the
lowest eigenvalues of the reduced Hermitian pencil (A, M) by counting them.

What is counted: N_h(s), the eigenvalues of (A, M) below s, is the inertia
n_-(A - sM), as M is positive definite. Each edge's node chain is split at
one interior node, and by Haynsworth's inertia additivity (1968)

    N_h(s) = sum over chains of #{its discrete Dirichlet eigenvalues < s}
             + n_-(C_T^H W(s) C_T),

the count Friedlander (1991) makes for the continuum, here on the discrete
pencil. W(s) lives on the traces and split nodes: the skew vertex coupling
(`_vertex_terms`, which writes it straight into W's slots) plus each
chain's 2x2 Schur block, in closed form in every regime of s
(`_chain_terms`); C_T restricts it to the kept traces and the split nodes.
The chains' own counts (`_chain_counts`) are read only by the count,
`_inertia`. The blocks eliminate the interior nodes exactly for the
assembled pencil, so a count is exact up to rounding, and one count is one
batched `eigvalsh` on matrices about 3E x 3E (E edges), with nothing done
per node.

The two split plans: a chain's block has a pole at each of its discrete
Dirichlet eigenvalues. The first plan splits each edge at the fraction
(3 - sqrt 5) / 2 of its elements, the second at (5 - sqrt 5) / 10, so that a
root on a pole of one lies off the poles of the other. Near a pole a block
term is large; it is counted through a bordered row instead (`_inertia`),
so the count holds within an ulp of the pole.

The refinement: a doubling bracket +-1, +-2, ... with N_h = 0 below and
N_h >= count above; lockstep bisection on counts until each cell is free of
poles on one plan at least; then, on that plan, regula falsi steps on each
eigenvalue of C_T^H W C_T that crosses zero in the cell, each decreasing in
s, to a relative 1e-12, with the chain terms of that plan alone and no
chain counts. Each root's bracket and values are plain floats; numpy runs
only each step's batched Schur eigenvalues. An end kept twice in a row has
its value scaled by the Anderson-Bjorck factor
1 - f(x) / f(the end x replaced), or halved where that is not positive
(Anderson & Bjorck, BIT 13, 1973): the steps stay superlinear where two
roots lie close, as on the 4-cycles' near-double roots, where Illinois
halving turns linear. A cell whose Schur eigenvalues at its ends do not
cross zero as often as its counts jump, or in which a root's bracket
closes onto the cell's end with no step on that end's side (a root within
rounding of an end or a pole, as beside a 1e-12 edge, whose entries are
of order 1e12), is refused with LinAlgError naming the cell, not guessed
at: the end of a bisection cell is no root. A cell with
poles on both plans bisects to the tolerance, and its count jump is its
multiplicity.

Shares only the MetricGraph data model with the secular path: nothing is
imported from `secular`, `solve` or `kernels`, and no secular count, search
floor or secular matrix enters; independence is the point. The tests
assemble the whole pencil node by node, with vertex terms of their own, and
check the oracle's counts and eigenvalues against dense `eigh` on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshTooCoarse
from .graph import END, BoundaryType, MetricGraph, START

# each plan's split of an edge, as a fraction of its elements from its start
_SPLITS = (0.3819660112501051, 0.2763932022500210)
# the bracket tries +-2^j for j below 64, in batches of 8 per side
_BRACKET_BATCH = 8
_BRACKET_DOUBLINGS = 64
# bisection and secant steps stop at this width relative to max(1, |s|)
_REL_TOL = 1e-12
# secant steps before a cell settles for its midpoint; a few dozen suffice
_SECANT_STEPS = 100
# a chain term is large, and counted through a border, where |tan(n phi / 2)|
# or its inverse exceeds this: n phi lies within about 1e-4 of a pole
_POLE = 1e4


def _vertex_terms(g: MetricGraph, slots: int):
    """The skew vertex coupling on W's `slots` slots, edge i's start and end
    traces being slots 2i and 2i + 1, and C_T. Every slot is its own column
    of C_T but an eliminated trace (a Dirichlet tip's, or the last one at an
    even coupled vertex), whose row holds the combination of kept traces
    that its constraint gives, none for a Dirichlet tip."""
    ends = {(e.id, end): 2 * i + (end == END)
            for i, e in enumerate(g.edges) for end in (START, END)}
    w = np.zeros((slots, slots), dtype=complex)
    kept = np.ones(slots, dtype=bool)
    er, src, ev = [], [], []
    for v in g.vertices:
        s = [ends[ref] for ref in v.order]
        if v.bc is BoundaryType.DIRICHLET:
            kept[s[0]] = False
        elif v.bc is BoundaryType.COUPLED:
            # i (-1)^(j+k) sign(j - k) between its j-th and k-th traces
            j = np.arange(v.degree)
            w.imag[np.ix_(s, s)] = ((-1.0) ** np.add.outer(j, j)
                                    * np.sign(np.subtract.outer(j, j)))
            if v.degree % 2 == 0:
                # sum_j (-1)^j F_j = 0 (from j = 0)  =>  F_last = the sum of
                # (-1)^j F_j over the others
                kept[s[-1]] = False
                er += [s[-1]] * (v.degree - 1)
                src += s[:-1]
                ev += list((-1.0) ** j[:-1])
    col = np.cumsum(kept) - 1
    ct = np.zeros((slots, int(kept.sum())))
    ct[np.flatnonzero(kept), col[kept]] = 1.0
    ct[er, col[src]] = ev
    return w, ct


def _phase(s, n, h):
    """x = s h^2, p = sqrt|x| / 2, q = sqrt|1 - x/12|, theta = n arctan2(p, q)
    and the oscillating mask 0 < x < 12 of the chains at s (see
    `_chain_terms`), which `_chain_terms` and `_chain_counts` read; s, n
    and h broadcast."""
    x = s * h * h
    p = 0.5 * np.sqrt(np.abs(x))
    q = np.sqrt(np.abs(1.0 - x / 12.0))
    return x, p, q, n * np.arctan2(p, q), (x > 0.0) & (x < 12.0)


def _chain_terms(phase, n, h):
    """Each chain's exact Schur block on its end nodes, in its sum and
    difference directions, at the s of `_phase(s, n, h)`, which broadcast.

    A chain of n elements of length h carries, in A - sM, a/2 = 1/h - s h/3
    on its end nodes, a on each interior node and b = -1/h - s h/6 between
    neighbours. Eliminating its n - 1 interior nodes leaves [[d, o], [o, d]]
    on its ends, d = -b sin(phi) cot(n phi) and o = b sin(phi) / sin(n phi),
    where cos(phi) = -a / 2b, so sin(phi/2) = (h/2) sqrt(s / (1 + s h^2/6)).
    With x = s h^2, p = sqrt|x| / 2, q = sqrt|1 - x/12| and
    g = |b sin(phi)| = 2 p q / h, the half-angle forms of sigma = d + o and
    delta = d - o subtract nothing:

    * 0 < x < 12, oscillating: tan(phi/2) = p / q, t = tan(n phi / 2),
      sigma = -g t and delta = g / t;
    * -6 <= x <= 0, growing: phi = i psi, tanh(psi/2) = p / q,
      T = tanh(n psi / 2), sigma = g T and delta = g / T;
    * x < -6 and x >= 12, alternating: phi = pi + i psi, tanh(psi/2) = q / p,
      and the same with sigma and delta swapped for odd n, negated past 12.

    The last two are evaluated only where the batch holds such a point, and
    merged onto the oscillating values. Returns (sigma, delta, t), t = 1
    outside the oscillating regime: only there is a term large, sigma where
    |t| is, delta where 1 / |t| is.
    """
    x, p, q, theta, osc = phase
    g = 2.0 * p * q / h
    t = np.tan(theta)
    mixed = not osc.all()
    if mixed:
        t = np.where(osc, t, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            big = np.maximum(p, q)
            tanh = np.tanh(n * np.arctanh(np.minimum(p, q) / big))
            # g / T where both vanish, at x = 0 and 12: 2 max(p, q)^2 / (n h)
            coth = np.where(tanh == 0.0, 2.0 * big * big / (n * h), g / tanh)
        swap = (n % 2 == 1) & ((x < -6.0) | (x >= 12.0))
        sign = np.where(x >= 12.0, -1.0, 1.0)
    # t is finite and nonzero where 0 < x < 12, and 1 elsewhere
    sigma, delta = -g * t, g / t
    if mixed:
        sigma = np.where(osc, sigma, sign * np.where(swap, coth, g * tanh))
        delta = np.where(osc, delta, sign * np.where(swap, g * tanh, coth))
    return sigma, delta, t


def _chain_counts(phase, n, t):
    """Each chain's count of its discrete Dirichlet eigenvalues below the s
    of `_phase`, t being its `_chain_terms` size factor there. Its interior
    block has one negative eigenvalue for each j in 1..n-1 with
    j pi / n < phi: none in the growing regime, all n - 1 past x = 12."""
    x, _, _, theta, osc = phase
    # the pole nearest n phi is m pi; s lies above it where t has the sign of
    # (-1)^m, as t crosses 0 at even m and flips from +inf at odd m
    m = np.rint(2.0 * theta / np.pi)
    below = np.clip(m - (t * (1.0 - 2.0 * (m % 2)) <= 0.0), 0, n - 1)
    below = np.where(osc, below, np.where(x >= 12.0, n - 1, 0))
    return below.astype(int)


@dataclass(frozen=True)
class _Plans:
    """Both split plans of one mesh, on W's slots (the traces and the split
    nodes): n[k] holds each chain's elements on plan k and h their length.
    w0 is the skew vertex coupling restricted by C_T. Row c of vecs is
    C_T^T (e_u + e_v) for chain c from slot u to slot v, row nchain + c
    C_T^T (e_u - e_v), and the rows of basis are their outer products over
    two, the entries sigma and delta multiply in C_T^T W C_T. ndof counts
    the reduced pencil's dofs."""
    n: np.ndarray
    h: np.ndarray
    w0: np.ndarray
    vecs: np.ndarray
    basis: np.ndarray
    ndof: int


def _plans(g: MetricGraph, h: float) -> _Plans:
    """The split plans of g's mesh of size h.

    Edge i's start and end traces are W's slots 2i and 2i + 1; an edge of
    two or more elements has a split node, slot 2E + (its rank among them),
    and two chains, start to split node and split node to end; an edge of
    one element is one chain between its traces."""
    if not h > 0:
        raise MeshTooCoarse("mesh size must be positive")
    num = len(g.edges)
    ne = np.array([max(1, int(round(e.length / h))) for e in g.edges])
    he = g.lengths / ne
    cut = ne > 1
    slots = 2 * num + int(cut.sum())
    mid = 2 * num + np.cumsum(cut) - 1
    start, end = 2 * np.arange(num), 2 * np.arange(num) + 1
    u = np.concatenate((start[~cut], start[cut], mid[cut]))
    v = np.concatenate((end[~cut], mid[cut], end[cut]))
    first = np.clip(np.rint(np.multiply.outer(_SPLITS, ne[cut])), 1,
                    ne[cut] - 1).astype(int)
    n = np.concatenate((np.ones((2, int((~cut).sum())), dtype=int), first,
                        ne[cut] - first), axis=1)
    w, ct = _vertex_terms(g, slots)
    vecs = np.concatenate((ct[u] + ct[v], ct[u] - ct[v]))
    r = ct.shape[1]
    return _Plans(n=n, h=np.concatenate((he[~cut], he[cut], he[cut])),
                  w0=ct.T @ w @ ct, vecs=vecs,
                  basis=0.5 * (vecs[:, :, None] * vecs[:, None, :]).reshape(
                      vecs.shape[0], r * r),
                  # the nodes, less the eliminated traces
                  ndof=int(ne.sum()) + num - (slots - r))


def _assemble(plans: _Plans, terms):
    """C_T^T W C_T for each row of chain terms."""
    r = plans.w0.shape[0]
    return plans.w0 + (terms @ plans.basis).reshape(-1, r, r)


def _inertia(plans: _Plans, s, plan):
    """N_h at each s, counted on plan[i] for s[i], and the chain count of
    each plan, shape (S, 2).

    A term whose size factor exceeds _POLE lies near its chain's pole and
    is large, and eigvalsh would lose the small eigenvalues of W under it.
    It is moved to a border instead: by Haynsworth, n_-(F + rho/2 v v^T) =
    n_-([[F, v], [v^T, -2/rho]]) - [rho > 0], and no entry of the bordered
    matrix is large."""
    phase = _phase(s[:, None, None], plans.n, plans.h)
    sigma, delta, t = _chain_terms(phase, plans.n, plans.h)
    chains = _chain_counts(phase, plans.n, t).sum(axis=2)
    # the chain terms of each point's own plan, sigma and delta side by side,
    # and each term's size factor: t for sigma, 1 / t for delta
    pick = np.arange(s.size), plan
    terms = np.concatenate((sigma[pick], delta[pick]), axis=1)
    t = np.concatenate((t[pick], 1.0 / t[pick]), axis=1)
    large = np.abs(t) > _POLE
    w = _assemble(plans, np.where(large, 0.0, terms))
    fix = 0
    nb = int(large.sum(axis=1).max())
    if nb:
        # each row's large terms first; a row with fewer is padded by +1s
        k = np.argsort(~large, axis=1, kind="stable")[:, :nb]
        on = np.take_along_axis(large, k, axis=1)
        rho = np.take_along_axis(terms, k, axis=1)
        v = plans.vecs[k] * on[:, :, None]
        with np.errstate(divide="ignore"):
            corner = np.where(on, -2.0 / rho, 1.0)[:, :, None] * np.eye(nb)
        w = np.concatenate((np.concatenate((w, v.transpose(0, 2, 1)), axis=2),
                            np.concatenate((v, corner), axis=2)), axis=1)
        fix = (on & (rho > 0.0)).sum(axis=1)
    n = (np.linalg.eigvalsh(w) < 0.0).sum(axis=1) - fix
    return chains[np.arange(s.size), plan] + n, chains


def _tol(a, b):
    return _REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _float_tol(a: float, b: float) -> float:
    """`_tol` of two floats."""
    return _REL_TOL * max(1.0, abs(a), abs(b))


def _quotient(num: float, den: float) -> float:
    """num / den, with the inf or nan of IEEE division where den is 0."""
    if den == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(num) / den)
    return num / den


def _anderson_bjorck(plans: _Plans, a, b, plan, jump):
    """The roots in each cell (a, b) that holds jump eigenvalues and no pole
    of its plan, jump times each, ascending: Anderson-Bjorck steps on each
    Schur eigenvalue that crosses zero. Raises LinAlgError, naming the
    cell, where a cell's Schur eigenvalues at its ends do not cross zero
    jump times, or where a root's bracket closes onto an end of its cell
    with no step inside the cell on that end's side: both read a root
    within rounding of an end or a pole, and the end's sign as noise."""
    m = a.size

    def schur_eigenvalues(x, plan):
        # the chain terms of each point's own plan
        n, h = plans.n[plan], plans.h
        sigma, delta, _ = _chain_terms(_phase(x[:, None], n, h), n, h)
        return np.linalg.eigvalsh(
            _assemble(plans, np.concatenate((sigma, delta), axis=1)))

    mu = schur_eigenvalues(np.concatenate((a, b)),
                           np.concatenate((plan, plan)))
    below = (mu < 0.0).sum(axis=1)
    bad = np.flatnonzero(below[m:] != below[:m] + jump)
    if bad.size:
        i = bad[0]
        raise np.linalg.LinAlgError(
            f"the cell [{float(a[i])!r}, {float(b[i])!r}] holds {jump[i]} "
            f"eigenvalue(s) by its counts, but its Schur eigenvalues cross "
            f"zero {below[m + i] - below[i]} times")
    # on a pole-free cell the Schur eigenvalues at indices n_-(W(a)) ..
    # n_-(W(a)) + jump - 1 fall through zero inside it, each once, as each
    # decreases with s
    cell = np.repeat(np.arange(m), jump)
    j = below[cell] + np.arange(cell.size) - np.repeat(np.cumsum(jump) - jump,
                                                       jump)
    plan = plan[cell]
    # each root's bracket, its values, and the side of its last step, in
    # plain floats: numpy runs only the batched Schur eigenvalues
    a, b, fa, fb = (v.tolist() for v in (a[cell], b[cell], mu[cell, j],
                                         mu[m + cell, j]))
    side = [0.0] * cell.size
    tol = [_float_tol(x0, x1) for x0, x1 in zip(a, b)]
    live = [i for i in range(cell.size) if b[i] - a[i] > tol[i]]
    ends = {i: (a[i], b[i]) for i in live}
    for _ in range(_SECANT_STEPS):
        if not live:
            break
        # a secant point within half the tolerance of an end steps to that
        # distance, so that a root found from one side closes its cell
        xs = []
        for i in live:
            t = 0.5 * tol[i]
            x = b[i] - _quotient(fb[i] * (b[i] - a[i]), fb[i] - fa[i])
            xs.append(min(max(x, a[i] + t), b[i] - t))
        fxs = schur_eigenvalues(np.array(xs), plan[live])[
            np.arange(len(live)), j[live]].tolist()
        for i, x, fx in zip(live, xs, fxs):
            up = fx >= 0.0  # the root lies above x
            # an end kept twice in a row has its value scaled by
            # 1 - f(x) / f(the end x replaces), or halved where that is not
            # positive
            scale = 1.0 - _quotient(fx, fa[i] if up else fb[i])
            if not scale > 0.0:
                scale = 0.5
            if up:
                if side[i] < 0:
                    fb[i] *= scale
                a[i], fa[i] = x, fx
                if not fx > 0.0:  # a root on x closes its cell there
                    b[i] = x
            else:
                if side[i] > 0:
                    fa[i] *= scale
                b[i], fb[i] = x, fx
            side[i] = -1.0 if up else 1.0
            tol[i] = _float_tol(a[i], b[i])
        live = [i for i in live if b[i] - a[i] > tol[i]]
    for i, (x0, x1) in ends.items():
        if b[i] - a[i] <= tol[i] and (a[i] == x0 or b[i] == x1):
            raise np.linalg.LinAlgError(
                f"the cell [{x0!r}, {x1!r}] holds a root by its counts, but "
                f"its Schur eigenvalue changes sign nowhere inside it: the "
                f"root closed onto the cell's end")
    return np.array([0.5 * (x0 + x1) for x0, x1 in zip(a, b)])


def oracle_eigenvalues(g: MetricGraph, count: int, h: float) -> np.ndarray:
    """`count` smallest eigenvalues of the constrained pencil, ascending,
    each as often as its multiplicity.

    The counts are exact up to the pencil's order, so every eigenvalue of
    it can be asked for. Raises MeshTooCoarse when `count` exceeds the
    reduced dofs, `ndof`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    plans = _plans(g, h)
    if count > plans.ndof:
        raise MeshTooCoarse(
            f"{count} eigenvalues asked of a pencil with ndof = {plans.ndof} "
            f"reduced dofs; refine the mesh")

    # the bracket: N_h = 0 at its lowest point and N_h >= count at its top
    k = _BRACKET_BATCH
    xs, ns = np.empty(0), np.empty(0, dtype=int)
    chains = np.empty((0, 2), dtype=int)
    for e in range(0, _BRACKET_DOUBLINGS, k):
        mags = 2.0 ** np.arange(e, e + k)
        s = np.concatenate((-mags[::-1], mags))
        n, ch = _inertia(plans, s, np.zeros(s.size, dtype=int))
        xs = np.concatenate((s[:k], xs, s[k:]))
        ns = np.concatenate((n[:k], ns, n[k:]))
        chains = np.concatenate((ch[:k], chains, ch[k:]))
        if ns[0] == 0 and ns[-1] >= count:
            break
    else:
        raise np.linalg.LinAlgError(
            f"no bracket of the lowest {count} eigenvalues within 2^"
            f"{_BRACKET_DOUBLINGS}")

    # lockstep bisection on the first plan's counts, until each cell is free
    # of poles on one plan at least
    while True:
        jump = np.diff(ns)
        pole = (chains[1:] != chains[:-1]).all(axis=1)
        held = (ns[:-1] < count) & (jump > 0)
        split = held & pole & (xs[1:] - xs[:-1] > _tol(xs[:-1], xs[1:]))
        if not split.any():
            break
        i = np.flatnonzero(split)
        mid = 0.5 * (xs[i] + xs[i + 1])
        n, ch = _inertia(plans, mid, np.zeros(i.size, dtype=int))
        xs = np.insert(xs, i + 1, mid)
        # a count within rounding of a root may step back; the counts are
        # monotone
        ns = np.maximum.accumulate(np.insert(ns, i + 1, n))
        chains = np.insert(chains, i + 1, ch, axis=0)

    cells = np.flatnonzero(held)
    a, b, jump = xs[cells], xs[cells + 1], jump[cells]
    values = np.repeat(0.5 * (a + b), jump)
    free = ~pole[cells]
    if free.any():
        plan = np.argmin(chains[cells + 1] != chains[cells], axis=1)
        values[np.repeat(free, jump)] = _anderson_bjorck(
            plans, a[free], b[free], plan[free], jump[free])
    return values[:count]
