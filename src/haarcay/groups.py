"""Finite groups of small order as dense multiplication tables.

Elements are indices 0..order-1 with the identity fixed at index 0.  Element
subsets are plain int bitmasks over those indices; every subset helper takes
the owning table explicitly, so masks of different tables never meet.  Family
constructors build each group from an explicit normal form (power words for
the two-generator p-groups, vector-times-cycle pairs for the semidirect
products) and index the normal forms in lexicographic order, which makes the
element numbering reproducible bit for bit.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

AUT_TABLE_CAP = 200            # automorphism search refuses larger tables
AUT_SIZE_CAP = 10 ** 6         # ... and refuses to return more maps than this
TABLE_ORDER_CAP = 1024

AutImages = tuple  # length-order tuple: images of a group automorphism


class GroupConstructionError(ValueError):
    """A family constraint or presentation relator was violated."""


class GroupTable:
    """A finite group given by its full multiplication table.

    ``mult[x][y]`` is the product x*y, identity is element 0, ``inv[x]`` the
    inverse.  ``gens`` is a list of (label, element) pairs naming the
    generators used by connection-set words.
    """

    __slots__ = ("order", "mult", "inv", "gens", "tag", "_element_orders", "_aut_cache")

    def __init__(self, mult: Sequence[Sequence[int]],
                 gens: Sequence[tuple[str, int]] = (),
                 tag: Optional[str] = None,
                 validate: bool = True):
        self.order = len(mult)
        self.mult = tuple(tuple(row) for row in mult)
        self.gens = tuple((str(lbl), int(e)) for lbl, e in gens)
        self.tag = tag
        self._element_orders: Optional[tuple[int, ...]] = None
        self._aut_cache: Optional[list[AutImages]] = None
        inv = [-1] * self.order
        for x in range(self.order):
            row = self.mult[x]
            for y in range(self.order):
                if row[y] == 0:
                    inv[x] = y
                    break
            if inv[x] < 0:
                raise GroupConstructionError(f"element {x} has no inverse")
        self.inv = tuple(inv)
        if validate:
            self.validate()

    def validate(self) -> None:
        """Check the group axioms: Latin square, identity, inverses,
        associativity (exact, by Light's test)."""
        n = self.order
        if n < 1 or n > TABLE_ORDER_CAP:
            raise _order_error(n)
        full = (1 << n) - 1
        for x in range(n):
            row_mask = 0
            col_mask = 0
            for y in range(n):
                row_mask |= 1 << self.mult[x][y]
                col_mask |= 1 << self.mult[y][x]
            if row_mask != full or col_mask != full:
                raise GroupConstructionError(f"multiplication table is not a Latin square at {x}")
            if self.mult[0][x] != x or self.mult[x][0] != x:
                raise GroupConstructionError("element 0 is not an identity")
            if self.mult[x][self.inv[x]] != 0:
                raise GroupConstructionError(f"inverse table broken at {x}")
        # Light's test: the elements a with (x*a)*y = x*(a*y) for all x, y
        # are closed under products, so checking a generating set is exact;
        # for one a and x it compares row x*a with row x read through row a
        mult = self.mult
        for a in generating_sequence(self):
            for x, row in enumerate(mult):
                left, right = mult[row[a]], tuple(map(row.__getitem__, mult[a]))
                if left != right:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise GroupConstructionError(f"associativity fails at ({x},{a},{y})")

    # -- element arithmetic -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return self.mult[x][y]

    def inverse(self, x: int) -> int:
        return self.inv[x]

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv[x], -k
        acc = 0
        while k:
            if k & 1:
                acc = self.mult[acc][x]
            x = self.mult[x][x]
            k >>= 1
        return acc

    def conjugate(self, x: int, y: int) -> int:
        """y^-1 * x * y."""
        return self.mult[self.mult[self.inv[y]][x]][y]

    def element_order(self, x: int) -> int:
        if self._element_orders is None:
            orders = []
            for e in range(self.order):
                k, acc = 1, e
                while acc != 0:
                    acc = self.mult[acc][e]
                    k += 1
                orders.append(k)
            self._element_orders = tuple(orders)
        return self._element_orders[x]

    def commutator(self, x: int, y: int) -> int:
        """x^-1 * y^-1 * x * y."""
        return self.mult[self.mult[self.mult[self.inv[x]][self.inv[y]]][x]][y]

    def is_abelian(self) -> bool:
        return all(self.mult[x][y] == self.mult[y][x]
                   for x in range(self.order) for y in range(x + 1, self.order))

    def gen(self, label: str) -> int:
        for lbl, e in self.gens:
            if lbl == label:
                return e
        raise KeyError(f"no generator labelled {label!r} in {self.tag or 'group'}")

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order}, tag={self.tag!r})"


# -- element-set (bitmask) helpers ------------------------------------------

def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elements_of(mask: int) -> list[int]:
    out = []
    v = mask
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def mask_image(mask: int, images: Sequence[int]) -> int:
    """Apply an element map (automorphism, projection, ...) to a subset."""
    out = 0
    v = mask
    while v:
        low = v & -v
        out |= 1 << images[low.bit_length() - 1]
        v ^= low
    return out


def left_translate_mask(H: GroupTable, g: int, mask: int) -> int:
    """{g*s : s in mask}."""
    return mask_image(mask, H.mult[g])


def inverse_mask(H: GroupTable, mask: int) -> int:
    return mask_image(mask, H.inv)


def right_translate_mask(H: GroupTable, mask: int, g: int) -> int:
    """{s*g : s in mask}, as (g^-1 * mask^-1)^-1."""
    return inverse_mask(H, left_translate_mask(H, H.inv[g], inverse_mask(H, mask)))


def _dimino_closure(elements: list, gens: Sequence, g, mul: Callable,
                    reject: Optional[Callable] = None, cap: Optional[int] = None) -> Optional[list]:
    """The elements of <G, g>, where G is the group with ``elements``
    (identity first) and generators ``gens``, or None as soon as ``reject``
    holds for an element about to be added or the size would pass ``cap``.
    Dimino's algorithm: whole cosets G·r are added, and the representatives
    r·s are reached for every generator s, in ``mul``'s own convention, at
    about one product per element and generator (Butler, *Fundamental
    Algorithms for Permutation Groups*, 1991, ch. 4)."""
    grown = list(elements)
    members = set(elements)
    gens = (*gens, g)
    reps = [g]
    for r in reps:  # grows while it is walked
        if r in members:
            continue
        if cap is not None and len(grown) + len(elements) > cap:
            return None
        for x in elements:
            y = mul(x, r)
            if reject is not None and reject(y):
                return None
            grown.append(y)
            members.add(y)
        reps.extend(mul(r, s) for s in gens)
    return grown


def _generated(gens: Iterable, identity, mul: Callable,
               cap: Optional[int] = None) -> Optional[tuple[list, list]]:
    """The elements of <gens>, identity first, and the generators that
    grew it: each one, in the order given, that lies outside the group
    closed from those before it, which ``_dimino_closure`` then extends by
    it.  None as soon as the group would pass ``cap`` elements."""
    elements, used = [identity], []
    members = {identity}
    for g in gens:
        if g not in members:
            elements = _dimino_closure(elements, used, g, mul, cap=cap)
            if elements is None:
                return None
            members = set(elements)
            used.append(g)
    return elements, used


def subgroup_generated(H: GroupTable, mask: int) -> int:
    """The subgroup generated by the subset (plus identity), closed by
    ``_generated``, one Dimino closure per generator it keeps."""
    elements, _ = _generated(elements_of(mask), 0, H.mul)
    if H.order % len(elements):
        raise RuntimeError("subgroup size must divide the group order")
    return mask_of(elements)


def is_subgroup(H: GroupTable, mask: int) -> bool:
    return mask != 0 and subgroup_generated(H, mask) == mask


def is_normal_subgroup(H: GroupTable, mask: int) -> bool:
    if not is_subgroup(H, mask):
        raise ValueError("mask is not a subgroup")
    for g in range(H.order):
        for x in elements_of(mask):
            if not (mask >> H.conjugate(x, g)) & 1:
                return False
    return True


def center_mask(H: GroupTable) -> int:
    out = 0
    for z in range(H.order):
        if all(H.mult[z][x] == H.mult[x][z] for x in range(H.order)):
            out |= 1 << z
    return out


def quotient(H: GroupTable, normal: int) -> tuple[GroupTable, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns the coset table and the
    projection element -> coset index.  Cosets are indexed by their least
    element, so the projection is deterministic and the trivial-subgroup
    quotient is a copy of H with the identity projection."""
    if not is_normal_subgroup(H, normal):
        raise ValueError("quotient requires a normal subgroup")
    coset_of = [-1] * H.order
    reps: list[int] = []
    for g in range(H.order):
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for x in elements_of(left_translate_mask(H, g, normal)):
            coset_of[x] = idx
    m = len(reps)
    mult = [[coset_of[H.mult[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    gens = [(lbl, coset_of[e]) for lbl, e in H.gens]
    tag = f"{H.tag}/N{normal.bit_count()}" if H.tag else None
    Q = GroupTable(mult, gens=gens, tag=tag)
    proj = tuple(coset_of)
    for x in range(H.order):
        for y in range(H.order):
            if proj[H.mult[x][y]] != Q.mult[proj[x]][proj[y]]:
                raise RuntimeError("projection is not a homomorphism")
    return Q, proj


# -- group automorphisms -----------------------------------------------------

def is_group_automorphism(H: GroupTable, images: Sequence[int]) -> bool:
    if sorted(images) != list(range(H.order)) or images[0] != 0:
        return False
    return all(images[H.mult[x][y]] == H.mult[images[x]][images[y]]
               for x in range(H.order) for y in range(H.order))


def generating_sequence(H: GroupTable) -> list[int]:
    """Greedy deterministic generating sequence (smallest new element first)."""
    return _generator_walk(H)[0]


def _generator_walk(G: GroupTable) -> tuple[list[int], list[tuple[list, list]]]:
    """A greedy generating sequence g_1, g_2, ... (each the smallest element
    not yet reached) and, per g_l, the edges x -> x*h (h among g_1..g_l) of a
    breadth-first walk over <g_1..g_l> that no earlier level has seen, as
    (steps, checks) lists of (x*h, x, h).  A step reaches a new element from
    one reached before it; a check is any other new edge.  The edge 0 -> g_l
    is neither: it is where g_l's image is chosen.  The walk only multiplies
    on the right, so it also runs on a Latin square not yet known to be
    associative."""
    gens: list[int] = []
    levels = []
    reached = [0]
    seen = 1
    while len(reached) < G.order:
        g = next(e for e in range(1, G.order) if not (seen >> e) & 1)
        gens.append(g)
        old = len(reached)
        reached.append(g)
        seen |= 1 << g
        steps: list[tuple[int, int, int]] = []
        checks: list[tuple[int, int, int]] = []
        i = 0
        while i < len(reached):
            x = reached[i]
            for h in (gens if i >= old else (g,)):
                z = G.mult[x][h]
                if not (seen >> z) & 1:
                    seen |= 1 << z
                    reached.append(z)
                    steps.append((z, x, h))
                elif x or h != g:
                    checks.append((z, x, h))
            i += 1
        levels.append((steps, checks))
    return gens, levels


def _isomorphisms(G: GroupTable, H: GroupTable) -> Iterator[tuple[int, ...]]:
    """Every isomorphism G -> H (tables of equal order) as an image table.
    Backtracks over the images of a generating sequence of G, candidates of
    the right element order in increasing order.  A choice for g_l extends
    the images along the steps of ``_generator_walk`` and survives when no
    two elements share an image and every check holds: a map that respects
    x -> x*h for every generator h respects every product, so the survivors
    are exactly the injective homomorphisms on <g_1..g_l>."""
    gens, levels = _generator_walk(G)
    by_order: dict[int, list[int]] = {}
    for e in range(H.order):
        by_order.setdefault(H.element_order(e), []).append(e)
    cands = [by_order.get(G.element_order(g), []) for g in gens]
    hm = H.mult
    img = [0] * G.order  # each level writes only its own elements

    def extend(level: int, used: int) -> Iterator[tuple[int, ...]]:
        if level == len(gens):
            yield tuple(img)
            return
        g = gens[level]
        steps, checks = levels[level]
        for cand in cands[level]:
            if (used >> cand) & 1:
                continue
            img[g] = cand
            now = used | (1 << cand)
            for z, x, h in steps:
                iz = hm[img[x]][img[h]]
                if (now >> iz) & 1:
                    break
                img[z] = iz
                now |= 1 << iz
            else:
                for z, x, h in checks:
                    if img[z] != hm[img[x]][img[h]]:
                        break
                else:
                    yield from extend(level + 1, now)

    return extend(0, 1)


def group_automorphisms(H: GroupTable) -> list[AutImages]:
    """All automorphisms of the group, sorted and cached on the table."""
    if H._aut_cache is not None:
        return list(H._aut_cache)
    if H.order > AUT_TABLE_CAP:
        raise ValueError(f"automorphism search capped at order {AUT_TABLE_CAP}")
    found: list[AutImages] = []
    for images in _isomorphisms(H, H):
        found.append(images)
        if len(found) > AUT_SIZE_CAP:
            raise ValueError("automorphism group larger than cap")
    found.sort()
    H._aut_cache = found
    return list(found)


def group_isomorphism(G: GroupTable, H: GroupTable) -> Optional[tuple[int, ...]]:
    """An isomorphism G -> H as an image table, or None."""
    if G.order != H.order:
        return None
    if sorted(G.element_order(e) for e in range(G.order)) != \
            sorted(H.element_order(e) for e in range(H.order)):
        return None
    return next(_isomorphisms(G, H), None)


def inner_automorphism(H: GroupTable, y: int) -> AutImages:
    """x -> y^-1 x y."""
    images = tuple(H.conjugate(x, y) for x in range(H.order))
    if not is_group_automorphism(H, images):
        raise RuntimeError("conjugation is not an automorphism")
    return images


def is_inner_abelian(H: GroupTable) -> bool:
    """Non-abelian, but every proper subgroup abelian: equivalently every
    non-commuting pair generates the whole group."""
    full = (1 << H.order) - 1
    nonabelian = False
    for x in range(1, H.order):
        for y in range(x + 1, H.order):
            if H.mult[x][y] != H.mult[y][x]:
                nonabelian = True
                if subgroup_generated(H, (1 << x) | (1 << y)) != full:
                    return False
    return nonabelian


# -- family constructors ------------------------------------------------------

def _order_error(order) -> GroupConstructionError:
    return GroupConstructionError(f"order {order} outside supported range 1..{TABLE_ORDER_CAP}")


def _refuse_oversize(*powers: tuple[int, int]) -> None:
    """Refuse, with ``validate``'s message, a group whose order, the product
    of base ** exp over ``powers``, passes ``TABLE_ORDER_CAP``.  Every family
    constructor calls it as soon as its parameters give the order, before
    any primality test, polynomial search or table.  Factors with |base| < 2
    or exp < 1 are left out (the family checks refuse those parameters), and
    an order of more than 4096 bits is written as a product of powers, not
    built."""
    powers = tuple((abs(b), e) for b, e in powers if abs(b) > 1 and e > 0)
    bits = sum(e * b.bit_length() for b, e in powers)   # log2(order) < bits
    if bits <= TABLE_ORDER_CAP.bit_length() - 1:
        return
    if bits > 4096:
        raise _order_error("*".join(f"{b}^{e}" for b, e in powers))
    order = 1
    for b, e in powers:
        order *= b ** e
    if order > TABLE_ORDER_CAP:
        raise _order_error(order)


class _MixedRadix:
    """Codes 0..size-1 for digit vectors whose i-th digit lies in
    0..sizes[i]-1, the first digit most significant."""

    __slots__ = ("sizes", "place", "size")

    def __init__(self, sizes: Sequence[int]):
        self.sizes = tuple(sizes)
        place = []
        acc = 1
        for s in reversed(self.sizes):
            place.append(acc)
            acc *= s
        self.place = tuple(reversed(place))
        self.size = acc

    def decode(self, code: int) -> list[int]:
        return [(code // w) % s for w, s in zip(self.place, self.sizes)]

    def encode(self, digits: Iterable[int]) -> int:
        """The code of the digits, each reduced modulo its size."""
        return sum((d % s) * w for d, s, w in zip(digits, self.sizes, self.place))

    def sum_table(self) -> list[list[int]]:
        """Table of digit-wise addition: the group Z_sizes[0] x Z_sizes[1] x ..."""
        digits = [self.decode(c) for c in range(self.size)]
        return [[self.encode(x + y for x, y in zip(u, v)) for v in digits] for u in digits]


def _table_from_forms(forms: list[tuple], mul: Callable[[tuple, tuple], tuple],
                      gen_forms: Sequence[tuple[str, tuple]], tag: str) -> GroupTable:
    forms = sorted(forms)
    index = {f: i for i, f in enumerate(forms)}
    if index[forms[0]] != 0 or any(forms[0]):
        raise RuntimeError("identity form must sort first")
    n = len(forms)
    mult = [[index[mul(forms[i], forms[j])] for j in range(n)] for i in range(n)]
    gens = [(lbl, index[f]) for lbl, f in gen_forms]
    return GroupTable(mult, gens=gens, tag=tag)


def cyclic_group(n: int) -> GroupTable:
    _refuse_oversize((n, 1))
    if n < 1:
        raise GroupConstructionError("cyclic group needs n >= 1")
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(mult, gens=[("a", 1 % n)], tag=f"Cyclic({n})")


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n: a^n = b^2 = 1, b a b = a^-1."""
    _refuse_oversize((2, 1), (n, 1))
    if n < 1:
        raise GroupConstructionError("dihedral group needs n >= 1")

    def mul(u, v):
        i1, j1 = u
        i2, j2 = v
        return ((i1 + (i2 if j1 == 0 else -i2)) % n, (j1 + j2) % 2)

    forms = [(i, j) for i in range(n) for j in range(2)]
    return _table_from_forms(forms, mul, [("a", (1 % n, 0)), ("b", (0, 1))],
                             tag=f"Dihedral({n})")


def quaternion_group() -> GroupTable:
    """Q8 with normal forms i^a j^b (-1)^c."""

    def mul(u, v):
        a1, b1, c1 = u
        a2, b2, c2 = v
        # j^b1 i^a2 = i^a2 j^b1 (-1)^(a2 b1); i^2 = j^2 = -1
        c = (c1 + c2 + a2 * b1 + (a1 + a2) // 2 + (b1 + b2) // 2) % 2
        return ((a1 + a2) % 2, (b1 + b2) % 2, c)

    forms = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    return _table_from_forms(forms, mul, [("i", (1, 0, 0)), ("j", (0, 1, 0))], tag="Q8")


def mp_group(p: int, m: int, n: int) -> GroupTable:
    """a^(p^m) = b^(p^n) = c^p = 1, [a,b] = c = a^(p^(m-1)); order p^(m+n).

    Normal form a^i b^j with a^i b^j * a^k b^l = a^(i+k-p^(m-1)kj) b^(j+l).
    """
    _refuse_oversize((p, m + n))
    if not _is_prime(p):
        raise GroupConstructionError(f"p={p} is not prime")
    if m < 2 or n < 1:
        raise GroupConstructionError("family needs m >= 2 and n >= 1")
    pm, pn, c_exp = p ** m, p ** n, p ** (m - 1)

    def mul(u, v):
        i1, j1 = u
        i2, j2 = v
        return ((i1 + i2 - c_exp * i2 * j1) % pm, (j1 + j2) % pn)

    forms = [(i, j) for i in range(pm) for j in range(pn)]
    return _table_from_forms(
        forms, mul,
        [("a", (1, 0)), ("b", (0, 1)), ("c", (c_exp, 0))],
        tag=f"MpMN({p},{m},{n})")


def mp1_group(p: int, m: int, n: int) -> GroupTable:
    """a^(p^m) = b^(p^n) = c^p = 1, [a,b] = c central; order p^(m+n+1)."""
    _refuse_oversize((p, m + n + 1))
    if not _is_prime(p):
        raise GroupConstructionError(f"p={p} is not prime")
    if n < 1 or m < n:
        raise GroupConstructionError("family needs m >= n >= 1")
    if p == 2 and m + n < 3:
        raise GroupConstructionError("p=2 needs m + n >= 3")
    pm, pn = p ** m, p ** n

    def mul(u, v):
        i1, j1, k1 = u
        i2, j2, k2 = v
        return ((i1 + i2) % pm, (j1 + j2) % pn, (k1 + k2 - i2 * j1) % p)

    forms = [(i, j, k) for i in range(pm) for j in range(pn) for k in range(p)]
    return _table_from_forms(
        forms, mul,
        [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))],
        tag=f"MpMN1({p},{m},{n})")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod_divides(f: list[int], g: list[int], p: int) -> bool:
    """Does monic f divide g over F_p?  Coefficients little-endian."""
    r = list(g)
    df = len(f) - 1
    while len(r) - 1 >= df:
        lead = r[-1] % p
        if lead:
            shift = len(r) - 1 - df
            for i, c in enumerate(f):
                r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    return all(c % p == 0 for c in r)


def _order_mod(p: int, q: int) -> int:
    """Multiplicative order of p modulo q."""
    k, acc = 1, p % q
    while acc != 1:
        acc = acc * p % q
        k += 1
    return k


def _canonical_action_matrix(p: int, n: int, q: int) -> list[list[int]]:
    """Companion matrix of the least monic degree-n divisor of
    1 + x + ... + x^(q-1) over F_p.  Requires ord_q(p) = n, which makes the
    divisor irreducible and the action single-orbit."""
    if _order_mod(p, q) != n:
        raise GroupConstructionError(
            f"no degree-{n} irreducible action: ord_{q}({p}) = {_order_mod(p, q)} != {n}")
    cyclo = [1] * q  # 1 + x + ... + x^(q-1)
    for coeffs in _monic_polys(p, n):
        if _poly_mod_divides(coeffs + [1], cyclo, p):
            low = coeffs
            break
    else:  # pragma: no cover - ord check above guarantees a factor
        raise GroupConstructionError("no degree-n divisor found")
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        mat[i][i - 1] = 1          # companion: e_k -> e_(k+1)
    for i in range(n):
        mat[i][n - 1] = (-low[i]) % p
    return mat


def _monic_polys(p: int, n: int):
    """Lower coefficient lists [c_0, ..., c_n-1] of the monic degree-n
    polynomials over F_p, lazily, in lex order on (c_n-1, ..., c_0), so the
    least polynomial comes first."""
    for t in product(range(p), repeat=n):
        yield list(t[::-1])


def _action_powers(codec: _MixedRadix, images: Sequence[Sequence[int]],
                   count: int) -> list[list[int]]:
    """Tables of phi^0 .. phi^count on the codes of ``codec``, where phi is
    the linear map sending the i-th unit vector to the digits images[i]."""
    def phi(code):
        out = [0] * len(images)
        for c, image in zip(codec.decode(code), images):
            for k, d in enumerate(image):
                out[k] += c * d
        return codec.encode(out)

    step = [phi(c) for c in range(codec.size)]
    powers = [list(range(codec.size))]
    for _ in range(count):
        powers.append([step[c] for c in powers[-1]])
    return powers


def _semidirect_table(add: Sequence[Sequence[int]], powers: Sequence[Sequence[int]],
                      top_order: int) -> list[list[int]]:
    """Table of the elements (v, j) = a^v t^j, numbered v * top_order + j.
    ``add`` is the base group's table and ``powers[r]`` the action of t^r on
    it (t^-1 a^v t = a^(powers[1][v])), so t^j a^u = a^(powers[-j][u]) t^j."""
    n_elems = len(add) * top_order
    mult = [[0] * n_elems for _ in range(n_elems)]
    for v1, add_v1 in enumerate(add):
        for j1 in range(top_order):
            row = mult[v1 * top_order + j1]
            back = powers[(-j1) % len(powers)]
            for v2 in range(len(add)):
                base = add_v1[back[v2]] * top_order
                for j2 in range(top_order):
                    row[v2 * top_order + j2] = base + (j1 + j2) % top_order
    return mult


def miller_moreno_group(p: int, n: int, q: int, m: int,
                        matrix: Optional[Sequence[Sequence[int]]] = None) -> GroupTable:
    """Z_p^n semidirect Z_(q^m), the top generator acting on the vector part
    by a fixed-point-free automorphism of multiplicative order q."""
    _refuse_oversize((p, n), (q, m))
    if not (_is_prime(p) and _is_prime(q)) or p == q:
        raise GroupConstructionError("p and q must be distinct primes")
    if n < 1 or m < 1:
        raise GroupConstructionError("n and m must be >= 1")
    if pow(p, n, q) != 1:
        raise GroupConstructionError(f"constraint violated: {q} does not divide {p}^{n} - 1")
    if matrix is None:
        if n >= q:
            raise GroupConstructionError(f"constraint violated: n={n} must be < q={q}")
        mat = _canonical_action_matrix(p, n, q)
    else:
        mat = [[int(v) % p for v in row] for row in matrix]
        if len(mat) != n or any(len(row) != n for row in mat):
            raise GroupConstructionError("action matrix must be n x n")
    # validate: order exactly q and no nonzero fixed vector
    codec = _MixedRadix([p] * n)
    act = _action_powers(codec, list(zip(*mat)), q)  # images of the unit vectors: columns
    if any(act[r] == act[0] for r in range(1, q)):
        raise GroupConstructionError("action matrix order is a proper divisor of q")
    if act.pop() != act[0]:
        raise GroupConstructionError("action matrix does not have order q")
    if any(act[r][c] == c for r in range(1, q) for c in range(1, codec.size)):
        raise GroupConstructionError("action has a nonzero fixed vector")

    qm = q ** m
    mult = _semidirect_table(codec.sum_table(), act, qm)
    gens = [("a", codec.place[0] * qm), ("b", 1)]
    return GroupTable(mult, gens=gens, tag=f"MillerMoreno({p},{n},{q},{m})")


# -- presented abelian-by-cyclic groups ---------------------------------------

_DEFAULT_LABELS = ("x", "y", "z", "u", "v", "w")


def _parse_word(word: str, labels: Sequence[str]) -> list[int]:
    """Signed generator indices; uppercase letters mean inverses."""
    out = []
    for ch in word:
        low = ch.lower()
        if low not in labels:
            raise GroupConstructionError(f"unknown generator letter {ch!r} in relator {word!r}")
        idx = labels.index(low)
        out.append(idx + 1 if ch.islower() else -(idx + 1))
    return out


def presented_group(ngens: int, relators: Sequence[str],
                    labels: Optional[Sequence[str]] = None) -> GroupTable:
    """Realize an abelian-by-cyclic presentation directly.

    Supported shape: each generator has one pure power relator; all
    generators but the last commute pairwise (commutator relators); the last
    generator conjugates each of the others to a word in them.  That covers
    every presentation this package ships.  Relators are re-checked on the
    finished table, so an inconsistent presentation raises instead of
    collapsing silently.
    """
    if ngens < 1 or ngens > len(_DEFAULT_LABELS):
        raise GroupConstructionError(f"ngens must be 1..{len(_DEFAULT_LABELS)}")
    labels = tuple(labels) if labels is not None else _DEFAULT_LABELS[:ngens]
    if len(labels) != ngens or len(set(labels)) != ngens:
        raise GroupConstructionError("labels must be distinct, one per generator")
    words = [(_parse_word(w, labels), w) for w in relators]

    orders = [0] * ngens
    commuting: set[tuple[int, int]] = set()
    conj: dict[int, list[int]] = {}
    t = ngens - 1
    for w, raw in words:
        if len(set(abs(s) for s in w)) == 1 and all(s > 0 for s in w):
            g = w[0] - 1
            if orders[g]:
                raise GroupConstructionError(f"two power relators for generator {labels[g]!r}")
            orders[g] = len(w)
        elif (len(w) == 4 and w[0] < 0 and w[1] < 0 and w[2] == -w[0] and w[3] == -w[1]
              and abs(w[0]) - 1 != t and abs(w[1]) - 1 != t):
            commuting.add((min(abs(w[0]), abs(w[1])) - 1, max(abs(w[0]), abs(w[1])) - 1))
        elif (len(w) >= 3 and w[0] == -(t + 1) and w[2] == t + 1
              and 0 < w[1] <= t):
            conj[w[1] - 1] = [-s for s in reversed(w[3:])]  # g^t = tail^-1
        else:
            raise GroupConstructionError(f"unsupported relator shape {raw!r}")
    for g in range(ngens):
        if not orders[g]:
            raise GroupConstructionError(f"generator {labels[g]!r} lacks a power relator")
    _refuse_oversize(*((k, 1) for k in orders))
    for i in range(t):
        for j in range(i + 1, t):
            if (i, j) not in commuting:
                raise GroupConstructionError(
                    f"unsupported presentation: {labels[i]!r},{labels[j]!r} not declared commuting")
    for g in range(t):
        if g not in conj:
            conj[g] = [g + 1]  # t acts trivially on it

    base_orders = orders[:t]
    codec = _MixedRadix(base_orders)

    def vec_of_word(w: list[int]) -> list[int]:
        v = [0] * t
        for s in w:
            g = abs(s) - 1
            if g >= t:
                raise GroupConstructionError("conjugation tail must avoid the acting generator")
            v[g] = (v[g] + (1 if s > 0 else -1)) % base_orders[g]
        return v

    # the action must be an automorphism of the base of order dividing orders[t]
    ot = orders[t]
    powers = _action_powers(codec, [vec_of_word(conj[g]) for g in range(t)], ot)
    if sorted(powers[1]) != powers[0]:
        raise GroupConstructionError("relator inconsistency: action is not a bijection")
    if powers.pop() != powers[0]:
        raise GroupConstructionError("relator inconsistency: action order does not divide "
                                     f"{labels[t]!r}'s order")
    mult = _semidirect_table(codec.sum_table(), powers, ot)
    gen_elems = [(labels[g], codec.place[g] * ot) for g in range(t)]
    gen_elems.append((labels[t], 1 % len(mult)))
    G = GroupTable(mult, gens=gen_elems, tag=f"Presented({','.join(labels)})")

    concrete = [e for _, e in G.gens]
    for w, raw in words:
        acc_e = 0
        for s in w:
            e = concrete[abs(s) - 1]
            acc_e = G.mult[acc_e][e if s > 0 else G.inv[e]]
        if acc_e != 0:
            raise GroupConstructionError(f"relator inconsistency: {raw!r} does not hold")
    return G


def direct_product(factors: Sequence[GroupTable]) -> GroupTable:
    if not factors:
        return cyclic_group(1)
    _refuse_oversize(*((G.order, 1) for G in factors))
    codec = _MixedRadix([G.order for G in factors])
    digits = [codec.decode(c) for c in range(codec.size)]
    mult = [[codec.encode(G.mult[x][y] for G, x, y in zip(factors, u, v)) for v in digits]
            for u in digits]
    gens = [(f"{lbl}{i + 1}", e * codec.place[i])
            for i, G in enumerate(factors) for lbl, e in G.gens]
    tag = "x".join(G.tag or "?" for G in factors)
    return GroupTable(mult, gens=gens, tag=tag)


# -- FamilySpec dispatch -------------------------------------------------------

# the JSON shapes of FamilySpec parameters, as named in error messages
_INT = "an integer"
_STRINGS = "a list of strings"
_SPECS = "a list of FamilySpec objects"
_MATRIX = "a list of lists of integers"

# family -> (constructor, {required key: shape} in argument order, {optional key: shape})
_FAMILIES: dict[str, tuple[Callable[..., GroupTable], dict[str, str], dict[str, str]]] = {
    "Cyclic": (cyclic_group, {"n": _INT}, {}),
    "Dihedral": (dihedral_group, {"n": _INT}, {}),
    "Quaternion": (quaternion_group, {}, {}),
    "MpMN": (mp_group, {"p": _INT, "m": _INT, "n": _INT}, {}),
    "MpMN1": (mp1_group, {"p": _INT, "m": _INT, "n": _INT}, {}),
    "MillerMoreno": (miller_moreno_group, {"p": _INT, "n": _INT, "q": _INT, "m": _INT},
                     {"matrix": _MATRIX}),
    "Presented": (presented_group, {"ngens": _INT, "relators": _STRINGS}, {"labels": _STRINGS}),
    "DirectProduct": (lambda factors: direct_product([group_from_spec(f) for f in factors]),
                      {"factors": _SPECS}, {}),
}


def _has_shape(value, shape: str) -> bool:
    if shape == _INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if not isinstance(value, list):
        return False
    if shape == _STRINGS:
        return all(isinstance(v, str) for v in value)
    if shape == _SPECS:
        return all(isinstance(v, dict) for v in value)
    return all(isinstance(row, list) and all(_has_shape(v, _INT) for v in row) for row in value)


def group_from_spec(spec: dict) -> GroupTable:
    """Build a group from the structured FamilySpec format, e.g.
    {"family":"MpMN","p":3,"m":1,"n":1} or
    {"family":"Presented","ngens":3,"relators":[...]}.  Every parameter
    must have its JSON shape, and a key the family does not take is refused."""
    fam = spec.get("family")
    if not isinstance(fam, str) or fam not in _FAMILIES:
        raise GroupConstructionError(f"unknown family {fam!r}")
    build, required, optional = _FAMILIES[fam]
    missing = [k for k in required if k not in spec]
    if missing:
        raise GroupConstructionError(
            f"{fam} needs parameters {', '.join(required)}; missing {', '.join(missing)}")
    shapes = {**required, **optional}
    unknown = [repr(k) for k in spec if k != "family" and k not in shapes]
    if unknown:
        raise GroupConstructionError(f"{fam} takes no parameter {', '.join(unknown)}")
    for k, shape in shapes.items():
        if k in spec and not _has_shape(spec[k], shape):
            raise GroupConstructionError(f"{fam} parameter {k} must be {shape}, got {spec[k]!r}")
    return build(*[spec[k] for k in required], *[spec.get(k) for k in optional])


_NAME_RE = re.compile(r"^([A-Za-z0-9]+)(?:\((-?\d+(?:,-?\d+)*)?\))?$")


def group_from_name(name: str) -> GroupTable:
    """Compact constructor strings: Cyclic(6), Dihedral(7), Quaternion/Q8,
    MpMN(2,2,1), MpMN1(3,1,1), MillerMoreno(2,2,3,1)."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise GroupConstructionError(f"cannot parse group name {name!r}")
    fam = "Quaternion" if m.group(1) == "Q8" else m.group(1)
    args = [int(v) for v in m.group(2).split(",")] if m.group(2) else []
    if fam not in _FAMILIES or any(shape != _INT for shape in _FAMILIES[fam][1].values()):
        raise GroupConstructionError(f"unknown family {fam!r} in group name {name!r}")
    required = _FAMILIES[fam][1]
    if len(args) != len(required):
        raise GroupConstructionError(
            f"{name!r}: expected {fam}({','.join(required)}), got {len(args)} argument(s)")
    return group_from_spec({"family": fam, **dict(zip(required, args))})


# -- connection-set words -------------------------------------------------------

_EXPONENT_RE = re.compile(r"(-?\d+)?")


def evaluate_word(H: GroupTable, word: str) -> int:
    """Evaluate a word like 'a-1b2', 'xyz' or 'a1a2-1' over the group's named
    generators: at each position the longest generator label, then an
    optional signed exponent; '1' denotes the identity."""
    word = word.strip()
    if word == "1":
        return 0
    pos = 0
    acc = 0
    gens = dict(H.gens)
    labels = sorted((lbl for lbl in gens if lbl), key=len, reverse=True)
    while pos < len(word):
        label = next((lbl for lbl in labels if word.startswith(lbl, pos)), None)
        if label is None:
            raise ValueError(f"cannot parse word {word!r} at {pos} over generators {sorted(gens)}")
        m = _EXPONENT_RE.match(word, pos + len(label))
        exp = int(m.group(1)) if m.group(1) else 1
        acc = H.mult[acc][H.power(gens[label], exp)]
        pos = m.end()
    return acc


def connection_set(H: GroupTable, words: str | Sequence[str]) -> int:
    """Mask for a comma-separated (or pre-split) list of words."""
    if isinstance(words, str):
        words = [w for w in words.split(",") if w.strip()]
    return mask_of(evaluate_word(H, w) for w in words)
