"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the defining
formulas (modular arithmetic, explicit matrix entries, exhaustive triple
searches) without importing any ringlab search or construction code, so the
two sides can disagree when either is wrong.
"""

from math import gcd


# --- modular arithmetic facts ------------------------------------------------

def zn_units(n):
    return sorted(a for a in range(n) if gcd(a, n) == 1)


def zn_nilpotents(n):
    return sorted(x for x in range(n) if _zn_is_nilpotent(x, n))


def _zn_is_nilpotent(a, n):
    x = a % n
    for _ in range(n + 1):
        if x == 0:
            return True
        x = (x * a) % n
    return False


def zn_idempotents(n):
    return sorted(a for a in range(n) if (a * a) % n == a)


def zn_radical(n):
    """J(Z_n) = multiples of the product of primes dividing n."""
    r = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            r *= p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        r *= m
    return sorted(range(0, n, r)) if r < n or n == 1 else [0]


# --- independent 2x2 matrix arithmetic over Z_n -------------------------------

def mat_mul(A, B, n):
    (a, b, c, d), (e, f, g, h) = A, B
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def mat_add(A, B, n):
    return tuple((x + y) % n for x, y in zip(A, B))


def mat_neg(A, n):
    return tuple((-x) % n for x in A)


# --- 2x2 matrices over any base, from the base's scalar operations -------------

def mat2_ops(b, add, mul, neg):
    """add, mul and neg of the 2x2 matrices over a ring of order b, given
    its scalar operations; a matrix [[p, q], [r, s]] is the index
    ((p*b + q)*b + r)*b + s."""
    def entries(x):
        return x // b ** 3, x // b ** 2 % b, x // b % b, x % b

    def index(p, q, r, s):
        return ((p * b + q) * b + r) * b + s

    def m_add(x, y):
        return index(*(add(u, v) for u, v in zip(entries(x), entries(y))))

    def m_mul(x, y):
        (p, q, r, s), (e, f, g, h) = entries(x), entries(y)
        return index(add(mul(p, e), mul(q, g)), add(mul(p, f), mul(q, h)),
                     add(mul(r, e), mul(s, g)), add(mul(r, f), mul(s, h)))

    def m_neg(x):
        return index(*(neg(u) for u in entries(x)))

    return m_add, m_mul, m_neg


# --- independent upper triangular 2x2 over Z_n (entries a, b, d) --------------

def tri_mul(X, Y, n):
    (a, b, d), (e, f, h) = X, Y
    return ((a * e) % n, (a * f + b * h) % n, (d * h) % n)


def tri_add(X, Y, n):
    return tuple((x + y) % n for x, y in zip(X, Y))


# --- generic exhaustive facts from raw operations -----------------------------

def is_nilpotent(order, mul, a):
    x = a
    for _ in range(order + 1):
        if x == 0:
            return True
        x = mul(x, a)
    return False


def idempotent_set(order, mul):
    return [e for e in range(order) if mul(e, e) == e]


def nilpotent_set(order, mul):
    return [a for a in range(order) if is_nilpotent(order, mul, a)]


def unit_set(order, mul, one):
    out = []
    for u in range(order):
        if any(mul(u, v) == one and mul(v, u) == one for v in range(order)):
            out.append(u)
    return out


def inverse_map(order, mul, one):
    """Each unit mapped to its smallest two-sided inverse."""
    out = {}
    for u in range(order):
        for v in range(order):
            if mul(u, v) == one and mul(v, u) == one:
                out[u] = v
                break
    return out


def center_set(order, mul):
    return [a for a in range(order)
            if all(mul(a, b) == mul(b, a) for b in range(order))]


def left_ideal_set(order, add, mul, neg, a):
    """R^1 a: the smallest set holding 0 and a that is closed under +, - and
    multiplication by the ring on the left, grown to a fixed point."""
    members = {0, a}
    while True:
        grown = (members | {neg(x) for x in members}
                 | {mul(r, x) for r in range(order) for x in members}
                 | {add(x, y) for x in members for y in members})
        if grown == members:
            return members
        members = grown


def closure_worklist(order, add, mul, neg, gens, two_sided):
    """The smallest set holding 0 and gens that is closed under negation,
    addition and multiplication by the ring on the left, and on the right too
    when two_sided, by a worklist: each element taken from it adds its
    products with every r, its sums with every member so far and its
    negative."""
    seen = {0, *gens}
    todo = list(seen)
    while todo:
        x = todo.pop()
        new = {mul(r, x) for r in range(order)}
        if two_sided:
            new |= {mul(x, r) for r in range(order)}
        new |= {add(x, y) for y in seen}
        new.add(neg(x))
        new -= seen
        seen |= new
        todo.extend(new)
    return tuple(sorted(seen))


def radical_set(order, add, mul, neg, one=None):
    """J(R) from its definition: with a unity, the a with 1 - r*a a unit for
    every r; without one, the a such that every member x of R^1 a is left
    quasi-regular, b + x - b*x = 0 for some b."""
    def sub(u, v):
        return add(u, neg(v))
    if one is not None:
        units = set(unit_set(order, mul, one))
        return [a for a in range(order)
                if all(sub(one, mul(r, a)) in units for r in range(order))]

    def left_quasi_regular(x):
        return any(add(b, sub(x, mul(b, x))) == 0 for b in range(order))
    regular = [left_quasi_regular(x) for x in range(order)]
    return [a for a in range(order)
            if all(regular[x] for x in left_ideal_set(order, add, mul, neg, a))]


def ideal_check(order, add, mul, neg, members):
    """The sorted members of a two-sided ideal, or the first closure error,
    checked element by element."""
    mem = sorted(set(members))
    if 0 not in mem:
        return "ideal must contain zero"
    for a in mem:
        if neg(a) not in mem:
            return f"not closed under negation at {a}"
        for b in mem:
            if add(a, b) not in mem:
                return f"not closed under addition at ({a}, {b})"
    for a in mem:
        for r in range(order):
            if mul(r, a) not in mem or mul(a, r) not in mem:
                return f"not absorbing at ({r}, {a})"
    return tuple(mem)


def wncl_triples(order, add, mul, neg, a):
    """All (e, q, x) with e idempotent, q nilpotent, a - e - q = e*x*a,
    found by a plain triple loop."""
    def sub(u, v):
        return add(u, neg(v))
    triples = []
    for e in idempotent_set(order, mul):
        for q in nilpotent_set(order, mul):
            target = sub(sub(a, e), q)
            for x in range(order):
                if mul(mul(e, x), a) == target:
                    triples.append((e, q, x))
    return triples


def has_wncl(order, add, mul, neg, a):
    return bool(wncl_triples(order, add, mul, neg, a))


def has_nil_clean(order, add, mul, neg, a):
    def sub(u, v):
        return add(u, neg(v))
    return any(is_nilpotent(order, mul, sub(a, e))
               for e in idempotent_set(order, mul))


def has_clean(order, add, mul, neg, one, a):
    def sub(u, v):
        return add(u, neg(v))
    units = set(unit_set(order, mul, one))
    return any(sub(a, e) in units for e in idempotent_set(order, mul))


def has_exchange(order, add, mul, neg, one, a):
    def sub(u, v):
        return add(u, neg(v))
    for e in idempotent_set(order, mul):
        if any(mul(r, a) == e for r in range(order)) and \
           any(mul(s, sub(one, a)) == sub(one, e) for s in range(order)):
            return True
    return False


def pi_regular_pairs(order, mul, a):
    """All (n, r) with a^n * r * a^n = a^n for n up to the point the power
    sequence repeats, computed by naive repeated multiplication."""
    pairs = []
    powers = []
    x = a
    seen = {}
    n = 1
    while x not in seen:
        seen[x] = n
        powers.append(x)
        x = mul(x, a)
        n += 1
    for n, an in enumerate(powers, 1):
        for r in range(order):
            if mul(mul(an, r), an) == an:
                pairs.append((n, r))
    return pairs


def has_strongly_regular(order, mul, a):
    return any(mul(mul(a, a), r) == a for r in range(order))


# --- the phases of the generator proof of the axioms, right law on n^2 |G| cells --

def generator_proof_phases(add, mul, neg, zero, one=None):
    """How many phases of the generator proof of the ring axioms hold, run in
    order up to the first that fails (6: all), on tables given as lists of
    rows (neg a list), with the right distributive law checked as it was
    before the edge form: (b + g)a = ba + ga for every b, a and generator g,
    n^2 |G| cells. Phase 0: closure, commutativity of +, an identity z of +
    (zero if its row is one, else the first row that is), zb = 0 = bz; the
    greedy generators (the smallest element not yet reached by adding
    generators to z, at most log2 n of them, else phase 1 fails) and the
    first edge x = p + g reaching each x. 1: x + y = p + (g + y) on those
    edges and g + (h + y) = h + (g + y) for generators g, h. 2: both
    distributive laws, the left one for generators g, h. 3: (gh)k = g(hk)
    on generators. 4: z is zero and x + neg(x) = zero. 5: the unity."""
    n = len(add)
    E = range(n)
    if any(v >= n for table in (add, mul) for row in table for v in row) or \
            any(v >= n for v in neg) or any(add[x][y] != add[y][x] for x in E for y in E):
        return 0
    z = zero if add[zero] == list(E) else next((x for x in E if add[x] == list(E)), None)
    if z is None or any(mul[z][b] != z or mul[b][z] != z for b in E):
        return 0
    gens, edges, reached = [], [], [z]
    for c in E:
        if c in reached:
            continue
        if 2 ** (len(gens) + 1) > n:
            return 1
        gens.append(c)
        old = len(reached)
        for j, x in enumerate(reached):  # grows as it goes
            for g in (gens if j >= old else gens[-1:]):
                if add[x][g] not in reached:
                    reached.append(add[x][g])
                    edges.append((add[x][g], x, g))
    if not gens:
        return 6
    if any(add[x][y] != add[p][add[g][y]] for x, p, g in edges for y in E) or \
            any(add[g][add[h][y]] != add[h][add[g][y]] for g in gens for h in gens for y in E):
        return 1
    if any(mul[g][add[h][b]] != add[mul[g][h]][mul[g][b]] for g in gens for h in gens for b in E) or \
            any(mul[add[b][g]][a] != add[mul[b][a]][mul[g][a]] for b in E for g in gens for a in E):
        return 2
    if any(mul[mul[g][h]][k] != mul[g][mul[h][k]] for g in gens for h in gens for k in gens):
        return 3
    if z != zero or any(add[x][neg[x]] != zero for x in E):
        return 4
    if one is not None and any(mul[one][a] != a or mul[a][one] != a for a in E):
        return 5
    return 6
