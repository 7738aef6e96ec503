"""Finite commutative rings with unity, on elements encoded as integers.

Every ring enumerates its elements as indices 0..size-1 through a
mixed-radix encoding of coordinate tuples; index 0 is always the additive
zero. Three concrete kinds exist: Z_n, direct products, and rings given by
structure constants over a finite basis, kept as one tensor. The two
mixed-radix kinds share one vector codec, `_decode_many`; each kind renders
its element text once, in `element_strs`. The bulk predicates are
vectorized over numpy. The zero-product relation is kept as one row per
annihilator class (`ann_classes`), not as an n x n matrix; a product
builds its classes and its other predicates from its factors' by
Kronecker products, and units follow from zero divisors, so graphs of
rings up to the size cap build quickly; so do the nilradical's powers
(`nil_power_masks`): a product's from its factors', Z_n's in closed form.
Those masks are the one form of the nilradical: `nilradical()` counts them,
and the ideal functions take and return membership masks.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    DescriptorError,
    ElementError,
    InvalidModulusError,
    NotARingError,
    PreconditionError,
)

DEFAULT_SIZE_CAP = 4096
AN_SIZE = 32  # elements of the built-in local ring, 4 * 2 * 2 * 2
DEFAULT_VALIDATION_CAP = 64
# bytes of each int64 (a, b, c) temporary of validate: 128 KB ran faster
# than 1 MB blocks and than one first operand at a time
_VALIDATE_BLOCK_BYTES = 1 << 17

# rows per block of the zero-product scan, to bound its int64 temporaries
_BLOCK = 256


class FiniteRing:
    """Base interface: commutative ring with unity on indices 0..size-1."""

    kind: str
    size: int
    unity: int
    name: str | None = None
    factors: tuple = ()  # the factors of a direct product; empty otherwise
    _graph = None  # weak reference to the ring's Beck graph, kept by graphs.build_graph

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    # -- vector arithmetic (index arrays in, index arrays out) ------------

    def add_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mul_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- element presentation ---------------------------------------------

    element_strs: list[str]  # every element's text, in ring order: a cached property of each kind

    def element_str(self, a: int) -> str:
        return self.element_strs[self._check(a)]

    def elements(self) -> range:
        return range(self.size)

    def _check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise ElementError(f"element index {a} outside [0, {self.size})")
        return a

    def __repr__(self) -> str:
        return self.name or f"{self.kind}[{self.size}]"

    # -- cached bulk predicates -------------------------------------------

    @cached_property
    def ann_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The zero relation as one row per annihilator class, `(cls, rows)`:
        `cls[a]` numbers Ann(a), and `rows[i, b]` is whether class i times b
        is 0. The rows are pairwise distinct, c x n for c classes."""
        if self.factors:
            # Ann((x_i)) = prod Ann(x_i): a tuple of factor classes, factor 1 innermost
            cls, rows = np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=bool)
            for f in self.factors:
                f_cls, f_rows = f.ann_classes
                cls = (f_cls[:, None] * len(rows) + cls[None, :]).ravel()
                rows = (f_rows[:, None, :, None] & rows[None, :, None, :]).reshape(len(f_rows) * len(rows), -1)
            return cls, rows
        n = self.size
        v = np.arange(n, dtype=np.int64)
        if isinstance(self, ZmodRing):
            # a*b = 0 in Z_N iff gcd(a, N)*b = 0: one row per divisor of N
            divisors = np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1
            cls = np.searchsorted(divisors, np.gcd(v, n))
            return cls, self.mul_many(divisors[:, None], v[None, :]) == 0
        # the distinct rows of the relation, scanned in blocks of rows
        class_of: dict[bytes, int] = {}
        cls = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _BLOCK):
            for a, row in enumerate(self.mul_many(v[lo:lo + _BLOCK, None], v[None, :]) == 0, lo):
                cls[a] = class_of.setdefault(row.tobytes(), len(class_of))
        return cls, np.frombuffer(b"".join(class_of), dtype=bool).reshape(-1, n)

    @cached_property
    def zero_rel_matrix(self) -> np.ndarray:
        """Z[a, b] = (a*b == 0), n x n: for tests and oracles; the program reads ann_classes."""
        cls, rows = self.ann_classes
        return rows[cls]

    @cached_property
    def unit_mask(self) -> np.ndarray:
        """unit_mask[a] iff a is a unit: a nonzero non-zero-divisor, or Z1's unity 0.

        In a finite ring, multiplication by a non-zero-divisor is injective, hence onto.
        """
        out = ~self.zero_divisor_mask
        out[0] = self.unity == 0
        return out

    @cached_property
    def zero_divisor_mask(self) -> np.ndarray:
        """a != 0 annihilated by some nonzero b (b = a allowed)."""
        cls, rows = self.ann_classes
        mask = rows[:, 1:].any(axis=1)[cls]
        mask[0] = False
        return mask

    @cached_property
    def square_zero_mask(self) -> np.ndarray:
        cls, rows = self.ann_classes
        return rows[cls, np.arange(self.size)]

    @cached_property
    def nilpotent_mask(self) -> np.ndarray:
        """The nilradical J, the first of `nil_power_masks`."""
        return self.nil_power_masks[0]

    @cached_property
    def idempotent_mask(self) -> np.ndarray:
        if self.factors:
            return _kron([f.idempotent_mask for f in self.factors])
        v = np.arange(self.size, dtype=np.int64)
        return self.mul_many(v, v) == v

    # -- predicates ---------------------------------------------------------

    @cached_property
    def _local(self) -> bool:
        return self.size == 1 or int(self.idempotent_mask.sum()) == 2

    def is_local(self) -> bool:
        """Non-units closed under addition: a finite ring with r local factors
        has 2^r idempotents, so it is local iff it has two (or is Z1)."""
        return self._local

    def is_reduced(self) -> bool:
        return int(self.nilpotent_mask.sum()) == 1

    @cached_property
    def nil_power_masks(self) -> tuple[np.ndarray, ...]:
        """Masks of J, J^2, ..., J^m = {0} for the nilradical J of index m: a
        product's J^k is the product of its factors' J_i^k ({0} past their own
        index), Z_n's is (gcd(rad(n)^k, n)); other rings find J by squaring and
        span products of its generators."""
        if self.factors:
            per = [f.nil_power_masks for f in self.factors]
            return tuple(_kron([p[min(k, len(p) - 1)] for p in per]) for k in range(max(map(len, per))))
        if isinstance(self, ZmodRing):
            divisors = [r := math.prod(p for p, _ in _factorize(self.n))]  # rad(n)
            while divisors[-1] != self.n:
                divisors.append(math.gcd(divisors[-1] * r, self.n))
            return tuple(np.arange(self.n) % d == 0 for d in divisors)
        # x nilpotent iff x^(2^k) = 0 once 2^k >= size; log2 squaring rounds.
        v = np.arange(self.size, dtype=np.int64)
        for _ in range(max(1, (self.size - 1).bit_length())):
            v = self.mul_many(v, v)
        masks = [v == 0]
        power = gens = _span(self, np.flatnonzero(masks[0]).tolist())[0]
        while masks[-1].sum() > 1:
            power, mask = _span(self, _products(self, power, gens))
            masks.append(mask)
        return tuple(masks)

    def nilradical(self) -> "NilradicalProfile":
        """The nilpotency index and the power sizes, counted from `nil_power_masks`."""
        masks = self.nil_power_masks
        return NilradicalProfile(len(masks), tuple(int(np.count_nonzero(m)) for m in masks))

    # -- axiom validation ---------------------------------------------------

    def validate(self) -> None:
        """Exhaustive O(size^3) ring-axiom check; raises NotARingError."""
        n = self.size
        v = np.arange(n, dtype=np.int64)
        add = self.add_many(v[:, None], v[None, :])
        mul = self.mul_many(v[:, None], v[None, :])
        if not np.array_equal(add, add.T):
            a, b = _first_2d(add != add.T)
            raise NotARingError("additive commutativity", (self.element_str(a), self.element_str(b)))
        if not np.array_equal(add[0], v):
            a = int(np.flatnonzero(add[0] != v)[0])
            raise NotARingError("additive zero", (self.element_str(a),))
        if not np.array_equal(mul, mul.T):
            a, b = _first_2d(mul != mul.T)
            raise NotARingError("commutativity", (self.element_str(a), self.element_str(b)))
        if not np.array_equal(mul[self.unity], v):
            a = int(np.flatnonzero(mul[self.unity] != v)[0])
            raise NotARingError("unity", (self.element_str(a),))
        if not np.array_equal(mul[0], np.zeros(n, dtype=np.int64)):
            a = int(np.flatnonzero(mul[0])[0])
            raise NotARingError("zero annihilation", (self.element_str(a),))
        # blocks of first operands a; the first failing a is reported, its
        # associativity before its distributivity, as a loop over a would
        step = max(1, _VALIDATE_BLOCK_BYTES // (8 * n * n))
        flat_add = add.ravel()
        for start in range(0, n, step):
            m = mul[start : start + step]  # m[i, b] = a * b for a = start + i
            # per a, over (b, c) flattened: (ab)c against a(bc), a(b+c) against ab+ac
            assoc = np.take(mul, m, axis=0) != np.take(m, mul, axis=1)
            dist = np.take(m, add, axis=1) != np.take(flat_add, m[:, :, None] * n + m[:, None, :])
            assoc, dist = assoc.reshape(len(m), -1), dist.reshape(len(m), -1)
            bad = np.flatnonzero(assoc.any(axis=1) | dist.any(axis=1))
            if bad.size:
                i = int(bad[0])
                axiom, where = ("associativity", assoc[i]) if assoc[i].any() else ("distributivity", dist[i])
                b, c = divmod(int(np.flatnonzero(where)[0]), n)
                raise NotARingError(
                    axiom, (self.element_str(start + i), self.element_str(b), self.element_str(c))
                )


def _first_2d(bad: np.ndarray) -> tuple[int, int]:
    i, j = np.argwhere(bad)[0]
    return int(i), int(j)


def _kron(masks) -> np.ndarray:
    """A product's mask, true at (x_i) iff every masks[i][x_i] is; factor 1 innermost."""
    out = np.ones(1, dtype=bool)
    for mask in masks:
        out = (mask[:, None] & out[None, :]).ravel()
    return out


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# concrete kinds
# ---------------------------------------------------------------------------


class ZmodRing(FiniteRing):
    """Integers modulo n."""

    kind = "zmod"

    def __init__(self, n: int, size_cap: int = DEFAULT_SIZE_CAP):
        if n == 0:
            raise InvalidModulusError("Z_0 is not a ring with unity")
        if n < 0:
            raise InvalidModulusError(f"modulus must be positive, got {n}")
        if n > size_cap:
            raise CapacityError(f"ring size {n} exceeds cap {size_cap}")
        self.n = n
        self.size = n
        self.unity = 1 % n
        self.name = f"Z{n}"

    def add(self, a, b):
        return (self._check(a) + self._check(b)) % self.n

    def mul(self, a, b):
        return (self._check(a) * self._check(b)) % self.n

    def add_many(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.n

    def mul_many(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.n

    @cached_property
    def element_strs(self) -> list[str]:
        return list(map(str, range(self.n)))


def mixed_radix_strides(radices) -> list[int]:
    """The strides of a mixed-radix encoding, coordinate 1 fastest: the running products of the radices."""
    return [math.prod(radices[:i]) for i in range(len(radices))]


class _MixedRadixRing(FiniteRing):
    """A ring on coordinate tuples, encoded mixed-radix with coordinate 1
    fastest-varying: index = c_1 + r_1 * (c_2 + r_2 * (...)) for radices r_i."""

    def _set_radices(self, radices) -> None:
        self.radices = tuple(radices)
        self.strides = mixed_radix_strides(self.radices)
        self._radix_array = np.array(self.radices, dtype=np.int64)
        self._stride_array = np.array(self.strides, dtype=np.int64)

    def encode(self, coords: tuple[int, ...]) -> int:
        return sum(c * s for c, s in zip(coords, self.strides))

    def decode(self, a: int) -> tuple[int, ...]:
        out = []
        for r in self.radices:
            a, c = divmod(a, r)
            out.append(c)
        return tuple(out)

    def _decode_many(self, a) -> np.ndarray:
        """The coordinates of an index array, along a new last axis."""
        return (np.asarray(a, dtype=np.int64)[..., None] // self._stride_array) % self._radix_array

    @staticmethod
    def _tuple_strs(tables: list[list[str]]) -> list[str]:
        """Every element's text "(t_1,...,t_k)" in ring order, folded from
        each coordinate's texts: one concatenation per element and coordinate."""
        out = [""]
        for i, table in enumerate(tables):
            ends = [("," if i else "(") + t + (")" if i == len(tables) - 1 else "") for t in table]
            each = itertools.chain.from_iterable(map(itertools.repeat, ends, itertools.repeat(len(out))))
            out = list(map(operator.add, out * len(ends), each))
        return out


class ProductRing(_MixedRadixRing):
    """Direct product with componentwise arithmetic, coordinate i in the
    i-th factor (radix |R_i|)."""

    kind = "product"

    def __init__(self, factors: list[FiniteRing], size_cap: int = DEFAULT_SIZE_CAP):
        if not factors:
            raise DescriptorError("product of zero rings is rejected")
        size = math.prod(f.size for f in factors)
        if size > size_cap:
            raise CapacityError(f"product size {size} exceeds cap {size_cap}")
        self.factors = list(factors)
        self.size = size
        self._set_radices(f.size for f in factors)
        self.unity = self.encode(tuple(f.unity for f in factors))
        self.name = " x ".join(repr(f) for f in factors)

    def add(self, a, b):
        pa, pb = self.decode(self._check(a)), self.decode(self._check(b))
        return self.encode(tuple(f.add(x, y) for f, x, y in zip(self.factors, pa, pb)))

    def mul(self, a, b):
        pa, pb = self.decode(self._check(a)), self.decode(self._check(b))
        return self.encode(tuple(f.mul(x, y) for f, x, y in zip(self.factors, pa, pb)))

    def add_many(self, a, b):
        ca, cb = (np.moveaxis(self._decode_many(x), -1, 0) for x in (a, b))
        return sum(f.add_many(x, y) * s for f, s, x, y in zip(self.factors, self.strides, ca, cb))

    def mul_many(self, a, b):
        ca, cb = (np.moveaxis(self._decode_many(x), -1, 0) for x in (a, b))
        return sum(f.mul_many(x, y) * s for f, s, x, y in zip(self.factors, self.strides, ca, cb))

    @cached_property
    def element_strs(self) -> list[str]:
        return self._tuple_strs([f.element_strs for f in self.factors])


class StructureRing(_MixedRadixRing):
    """Ring presented by structure constants over a finite additive basis.

    Elements are coordinate tuples (c_1, ..., c_k) with c_i modulo the i-th
    additive order; multiplication extends the basis-pair table bilinearly.
    The table itself need not define a ring: construction validates it
    exhaustively up to DEFAULT_VALIDATION_CAP elements, raising
    NotARingError naming a failing triple.
    """

    kind = "structure"

    def __init__(
        self,
        additive_orders: list[int] | tuple[int, ...],
        unity_coords: tuple[int, ...],
        products: dict,
        name: str | None = None,
        size_cap: int = DEFAULT_SIZE_CAP,
    ):
        orders = tuple(int(o) for o in additive_orders)
        if not orders or any(o < 1 for o in orders):
            raise DescriptorError(f"additive orders must be positive: {orders}")
        k = len(orders)
        size = math.prod(orders)
        if size > size_cap:
            raise CapacityError(f"ring size {size} exceeds cap {size_cap}")
        self.orders = orders
        self.k = k
        self.size = size
        self._set_radices(orders)
        if len(unity_coords) != k:
            raise DescriptorError(f"unity has {len(unity_coords)} coords, expected {k}")
        # a pair may be given both ways, with the same constants
        given: dict[tuple[int, int], tuple[int, ...]] = {}
        for key, val in products.items():
            if key not in itertools.product(range(k), repeat=2):
                raise DescriptorError(f"structure constant for {key} names no basis pair in [0, {k})")
            if len(val := tuple(int(c) for c in val)) != k:
                raise DescriptorError(f"structure constant for {key} has arity {len(val)}")
            pair, val = (min(key), max(key)), tuple(c % o for c, o in zip(val, orders))
            if given.setdefault(pair, val) != val:
                raise DescriptorError(f"basis pair {pair} has two structure constants, {given[pair]} and {val}")
        # T[i * k + j, l] = l-th coordinate of e_i * e_j
        tensor = np.zeros((k, k, k), dtype=np.int64)
        for i, j in itertools.combinations_with_replacement(range(k), 2):
            if (i, j) not in given:
                raise DescriptorError(f"missing structure constant for basis pair ({i}, {j})")
            tensor[i, j] = tensor[j, i] = given[(i, j)]
        self._tensor = tensor.reshape(k * k, k)
        self.unity = self.encode(tuple(c % o for c, o in zip(unity_coords, orders)))
        self.name = name
        if size <= DEFAULT_VALIDATION_CAP:
            self.validate()

    def add(self, a, b):
        pa, pb = self.decode(self._check(a)), self.decode(self._check(b))
        return self.encode(tuple((x + y) % o for x, y, o in zip(pa, pb, self.orders)))

    def mul(self, a, b):
        pa, pb = self.decode(self._check(a)), self.decode(self._check(b))
        acc = [0] * self.k
        for i, x in enumerate(pa):
            if x == 0:
                continue
            for j, y in enumerate(pb):
                if y == 0:
                    continue
                c = x * y
                for l, tl in enumerate(self._tensor[i * self.k + j].tolist()):
                    if tl:
                        acc[l] += c * tl
        return self.encode(tuple(c % o for c, o in zip(acc, self.orders)))

    def add_many(self, a, b):
        coords = (self._decode_many(a) + self._decode_many(b)) % self._radix_array
        return coords @ self._stride_array

    def mul_many(self, a, b):
        # a's k x k matrix of multiplication, then b's coordinates through it:
        # no k x k temporary per pair
        k, ca, cb = self.k, self._decode_many(a), self._decode_many(b)
        by_a = (ca @ self._tensor.reshape(k, k * k)).reshape(*ca.shape[:-1], k, k)
        coords = (cb[..., None, :] @ by_a)[..., 0, :] % self._radix_array
        return coords @ self._stride_array

    @cached_property
    def element_strs(self) -> list[str]:
        return self._tuple_strs([list(map(str, range(r))) for r in self.radices])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_zmod(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> ZmodRing:
    """Z_n; for n = 1 the zero ring, whose unity is the zero element."""
    return ZmodRing(n, size_cap=size_cap)


def make_product(factors: list[FiniteRing], size_cap: int = DEFAULT_SIZE_CAP) -> ProductRing:
    return ProductRing(factors, size_cap=size_cap)


def make_structure_ring(
    additive_orders,
    unity_coords,
    products,
    name: str | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> StructureRing:
    return StructureRing(additive_orders, unity_coords, products, name=name, size_cap=size_cap)


def make_quotient(n: int, coeffs: dict[int, int], size_cap: int = DEFAULT_SIZE_CAP) -> StructureRing:
    """Z_n[t] / (f) for a monic f, as a structure ring on basis 1, t, ..., t^(d-1).

    `coeffs` maps exponents to f's coefficients; absent ones are 0, and the
    largest exponent d >= 1 has coefficient 1 mod n. Only d and its
    coefficient are read before the size cap. For n = 1 the zero ring, on
    one coordinate whatever d is.
    """
    if n == 0:
        raise InvalidModulusError("Z_0[t] is not a ring")
    bad = [e for e in coeffs if not isinstance(e, int) or e < 0]
    if bad:
        raise DescriptorError(f"quotient polynomial exponent {bad[0]!r} is not an integer >= 0")
    d = max(coeffs, default=0)
    if d < 1:
        raise DescriptorError("quotient polynomial must have degree >= 1")
    if n == 1:
        return StructureRing((1,), (0,), {(0, 0): (0,)}, size_cap=size_cap)
    if coeffs[d] % n != 1:
        raise DescriptorError(f"quotient polynomial must be monic, leading coefficient {coeffs[d] % n}")
    # n^d formed only up to the first power past the cap; a size too long to
    # print in decimal is shown as a power, and an exponent past Python's
    # int-to-str digit limit by its bit length
    size = 1
    for _ in range(d):
        size *= n
        if size > size_cap:
            try:
                size = n**d if d < 4000 / math.log10(n) else f"{n}^{d}"
            except ValueError:
                size = f"{n}^d (d of {d.bit_length()} bits)"
            raise CapacityError(f"ring size {size} exceeds cap {size_cap}")
    # column i of f's companion matrix is t * t^i, so t^e is its e-th power
    # applied to t^0; Python ints keep the rows exact for any n
    companion = [[int(i == j + 1) for j in range(d - 1)] + [-coeffs.get(i, 0) % n] for i in range(d)]
    rows = [[int(i == 0) for i in range(d)]]
    for _ in range(2 * d - 2):
        rows.append([sum(a * b for a, b in zip(row, rows[-1])) % n for row in companion])
    products = {(i, j): rows[i + j] for i in range(d) for j in range(i, d)}
    return StructureRing((n,) * d, rows[0], products, size_cap=size_cap)


# the z^2 of Anderson and Naseer's ring: AN0 has (omega, chi) = (5, 6), AN2
# (8, 8); catalog.an_variant_stats solves both, and the checks hold it to this
AN_VARIANT = 0


def make_anderson_naseer(z_squared: int) -> StructureRing:
    """The 32-element local ring on basis 1, x, y, z over orders (4, 2, 2, 2).

    Products: x^2 = y^2 = 2, z^2 = `z_squared` (0 or 2), xy = xz = 0, yz = 2.
    Both z^2 choices yield valid local rings with 16 units; z^2 = AN_VARIANT
    is the one with clique number 5 and chromatic number 6.
    """
    if z_squared not in (0, 2):
        raise DescriptorError(f"z_squared must be 0 or 2, got {z_squared}")
    zero = (0, 0, 0, 0)
    two = (2, 0, 0, 0)
    products = {
        (0, 0): (1, 0, 0, 0),
        (0, 1): (0, 1, 0, 0),
        (0, 2): (0, 0, 1, 0),
        (0, 3): (0, 0, 0, 1),
        (1, 1): two,
        (1, 2): zero,
        (1, 3): zero,
        (2, 2): two,
        (2, 3): two,
        (3, 3): (z_squared, 0, 0, 0),
    }
    return StructureRing((4, 2, 2, 2), (1, 0, 0, 0), products, name=f"AN{z_squared}")


@lru_cache(maxsize=None)
def canonical_anderson_naseer() -> StructureRing:
    """AN: the variant AN_VARIANT, named "AN", built once per process so
    that every request shares one ring and what it caches."""
    ring = make_anderson_naseer(AN_VARIANT)
    ring.name = "AN"
    return ring


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class NilradicalProfile(NamedTuple):
    """The nilradical J's index m and |J|, ..., |J^m| = 1, read from `nil_power_masks`."""

    index_of_nilpotency: int
    power_sizes: tuple[int, ...]


def _span(ring: FiniteRing, candidates) -> tuple[list[int], np.ndarray]:
    """Ideal generated by `candidates`, as a membership mask over the ring,
    and the candidates that were not already in the ideal of those before
    them.

    Each such candidate x widens the ideal I so far to I + R*x: one outer sum
    of the two element sets, since the sum of two ideals is an ideal.
    """
    kept: list[int] = []
    covered = np.zeros(ring.size, dtype=bool)
    covered[0] = True
    everything = np.arange(ring.size, dtype=np.int64)
    for x in candidates:
        if not covered[x]:
            kept.append(x)
            multiples = np.zeros(ring.size, dtype=bool)
            multiples[ring.mul_many(everything, np.int64(x))] = True
            covered[ring.add_many(np.flatnonzero(covered)[:, None], np.flatnonzero(multiples)[None, :])] = True
    return kept, covered


def _products(ring: FiniteRing, ga, gb) -> list[int]:
    """The distinct products a*b for a in ga and b in gb, ascending."""
    seen = np.zeros(ring.size, dtype=bool)
    seen[ring.mul_many(np.array(ga, dtype=np.int64)[:, None], np.array(gb, dtype=np.int64)[None, :])] = True
    return np.flatnonzero(seen).tolist()


def _members(ring: FiniteRing, mask) -> np.ndarray:
    if np.shape(mask) != (ring.size,):
        raise PreconditionError(f"membership mask of shape {np.shape(mask)} for a ring of {ring.size} elements")
    return np.flatnonzero(mask)


def ideal_generate(ring: FiniteRing, gens) -> np.ndarray:
    """Mask of the smallest ideal containing the elements of the mask `gens`."""
    return _span(ring, _members(ring, gens))[1]


def ideal_product(ring: FiniteRing, i, j) -> np.ndarray:
    """Mask of IJ for the ideals I and J generated by the masks i and j: the
    span of the products of their generators."""
    ga, gb = (_span(ring, _members(ring, m))[0] for m in (i, j))
    return _span(ring, _products(ring, ga, gb))[1]


def ideal_power(ring: FiniteRing, i, k: int) -> np.ndarray:
    """Mask of I^k for the ideal I generated by the mask i."""
    if k < 1:
        raise PreconditionError(f"ideal power requires k >= 1, got {k}")
    out = ideal_generate(ring, i)
    for _ in range(k - 1):
        out = ideal_product(ring, out, i)
    return out


# ---------------------------------------------------------------------------
# reduced-ring factor count
# ---------------------------------------------------------------------------


def field_factor_count(ring: FiniteRing) -> int:
    """Number of field factors of a finite reduced ring.

    The idempotents of a product of r fields form a Boolean algebra of
    2^r elements, so r is log2 of their count.
    """
    if not ring.is_reduced():
        raise PreconditionError("field_factor_count requires a reduced ring")
    return int(ring.idempotent_mask.sum()).bit_length() - 1
