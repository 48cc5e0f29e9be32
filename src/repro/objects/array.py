"""Immutable k-dimensional arrays with rectangular domain.

The paper's central design decision (Section 2) is that arrays are *partial
functions of finite rectangular domain*: a k-dimensional array of type
``[[t]]_k`` maps each index tuple ``(i_1, ..., i_k)`` with ``0 <= i_j < n_j``
to a value of type ``t``.  :class:`Array` realizes that view:

* it is immutable (an array *is* a function, not an updatable buffer);
* its domain is fully determined by ``dims`` — no holes, zero-based;
* values are stored flat in row-major order, so ``A[i, j]`` is
  ``flat[i * n_2 + j]`` for a 2-d array.

Any dimension may be zero, in which case the array is empty but its
dimensionality and the lengths of the other dimensions are still
meaningful (``dim`` observes them).

Backing store
-------------

An array is backed by one of two representations (:mod:`repro.objects.dense`):

* a :class:`~repro.objects.dense.DenseBlock` — one contiguous numpy
  buffer tagged ``int``/``real``/``bool`` — when every element is a
  homogeneous scalar of one of those kinds; or
* the classic object tuple, for strings, tuples, sets, nested arrays,
  mixed kinds, out-of-guard integers, or when numpy is absent.

The representation is an implementation detail: ``flat`` materializes
boxed elements lazily (exactly once) and every observation — equality,
hash, ordering, subscript ⊥ — is identical across the two forms.

Equality and hash are *kind-first*, matching ``value_equal``: the
calculus distinguishes ``nat``, ``real`` and ``bool``, so ``[[1]]``,
``[[1.0]]`` and ``[[true]]`` are pairwise unequal and hash-distinct,
even though Python says ``1 == 1.0 == True``.  Each array caches a
*kind signature* (one code per element) that equality compares before
any values and that feeds the hash.

Thread-safety contract: the lazy slots (``_flat``, ``_block``,
``_ksig``, ``_hash``) are only ever assigned fully-built immutable
values, and recomputation is deterministic — concurrent fills from host
threads race benignly (last write wins, all writes equivalent).
Readers must snapshot a slot into a local before branching on it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod
from operator import mul
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence

from repro.errors import BottomError, EvalError
from repro.objects import dense


def _row_major_strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Return row-major strides for ``dims`` (last dimension varies fastest)."""
    strides = [1] * len(dims)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    return tuple(strides)


#: :func:`_row_major_strides` memoized by dims, for the constructor
_strides_of = lru_cache(maxsize=1024)(_row_major_strides)

#: Kind-signature codes for the scalar carriers.  ``bool`` must be checked
#: by exact type (it subclasses ``int``); all lookups here are by ``type``
#: so the subclass relationship never conflates the kinds.
_KIND_CODES = {bool: "b", int: "n", float: "r", str: "s",
               tuple: "t", frozenset: "S"}

#: Signature codes whose carriers compare correctly under plain ``==``
#: *given equal codes* (same code ⟹ same exact scalar type).
_SCALAR_CODES = frozenset("bnrs")


def _kind_char(value: Any) -> str:
    """One unambiguous signature code per element.

    Scalar and flat-collection kinds get single characters; anything
    else (Array, Bag, foreign objects) contributes ``<TypeName>`` —
    the angle brackets keep multi-character codes from being parsed
    as runs of single-character ones, so two equal-length signatures
    are equal iff the per-element code sequences are.
    """
    code = _KIND_CODES.get(type(value))
    if code is not None:
        return code
    return f"<{type(value).__name__}>"


def _rebuild_dense(dims: tuple, data: Any) -> "Array":
    """Unpickle target for block-backed arrays (ships the raw buffer)."""
    return Array(dims, data)


class Array:
    """An immutable k-dimensional array (``k >= 1``) in row-major order.

    Parameters
    ----------
    dims:
        The lengths ``(n_1, ..., n_k)`` of the ``k`` dimensions.
    values:
        Exactly ``n_1 * ... * n_k`` values in row-major order.  A numpy
        ndarray of a tagged dtype (signed int, float, bool) is adopted
        as the dense backing block without boxing its elements.
    bounds:
        Optional ``(lo, hi)`` interval proven to hold every value of an
        integer ndarray (see :func:`repro.objects.dense.adopt`).

    The class is hashable provided its elements are, so arrays can be
    members of sets — required because the object types of the calculus
    nest freely (``{[[t]]_k}`` is a type).
    """

    __slots__ = ("_dims", "_size", "_strides", "_flat", "_block",
                 "_ksig", "_hash")

    def __init__(self, dims: Sequence[int], values: Iterable[Any],
                 bounds: Optional[tuple[int, int]] = None):
        dims_t = tuple(map(int, dims))
        if not dims_t:
            raise ValueError("arrays must have at least one dimension")
        if min(dims_t) < 0:
            raise ValueError(f"negative dimension in {dims_t}")
        expected = prod(dims_t)
        flat: Optional[tuple] = None
        block: Any = None  # None = not probed, False = probed & declined
        # a list or tuple (exact types) needs no ndarray probe
        if type(values) not in (list, tuple) and dense.is_ndarray(values):
            if values.size != expected:
                raise ValueError(
                    f"dims {dims_t} require {expected} values, "
                    f"got {values.size}"
                )
            block = dense.adopt(values, dims_t, bounds)
            if block is None:
                flat = tuple(values.ravel().tolist())
        else:
            flat = tuple(values)
            if len(flat) != expected:
                raise ValueError(
                    f"dims {dims_t} require {expected} values, got {len(flat)}"
                )
        self._dims = dims_t
        self._size = expected
        self._strides = _strides_of(dims_t)
        self._flat = flat
        self._block = block
        self._ksig: Optional[str] = None
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_list(cls, values: Sequence[Any]) -> "Array":
        """Build a one-dimensional array from a Python sequence."""
        values = list(values)
        return cls((len(values),), values)

    @classmethod
    def from_nested(cls, nested: Sequence[Any], rank: int) -> "Array":
        """Build a ``rank``-dimensional array from nested Python sequences.

        The nesting must be rectangular; raggedness raises ``ValueError``.
        Once a level is empty there is nothing left to probe, so every
        remaining dimension defaults to 0 — ``from_nested([], 2)`` is the
        rank-2 empty array with dims ``(0, 0)``.
        """
        if rank < 1:
            raise ValueError("rank must be >= 1")
        dims: list[int] = []
        probe: Any = nested
        exhausted = False
        for level in range(rank):
            if exhausted:
                dims.append(0)
                continue
            if not isinstance(probe, (list, tuple)):
                raise ValueError(f"expected nesting depth {rank}, ran out at {level}")
            dims.append(len(probe))
            if len(probe) > 0:
                probe = probe[0]
            else:
                exhausted = True
        flat: list[Any] = []

        def walk(node: Any, level: int) -> None:
            if level == rank:
                flat.append(node)
                return
            if not isinstance(node, (list, tuple)) or len(node) != dims[level]:
                raise ValueError("ragged nesting is not a rectangular array")
            for child in node:
                walk(child, level + 1)

        walk(nested, 0)
        return cls(dims, flat)

    @classmethod
    def tabulate(cls, dims: Sequence[int], fn: Any) -> "Array":
        """Materialize ``[[fn(i_1,...,i_k) | i_1 < n_1, ..., i_k < n_k]]``.

        This is the semantics of the paper's tabulation construct: the
        defining function is applied at every index of the rectangular
        domain, in row-major order.
        """
        dims_t = tuple(int(d) for d in dims)
        values = [fn(*index) for index in iter_indices(dims_t)]
        return cls(dims_t, values)

    # -- the three observations of Section 2 -------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        """The k-tuple of dimension lengths (the ``dim_k`` construct)."""
        return self._dims

    @property
    def rank(self) -> int:
        """The number of dimensions ``k``."""
        return len(self._dims)

    def __len__(self) -> int:
        """The length of the first dimension (``len`` = ``dim_1`` for 1-d)."""
        return self._dims[0]

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self._size

    def __getitem__(self, index: Any) -> Any:
        """Subscript, the ``e1[e2]`` construct.

        ``index`` is an int (1-d) or a tuple of ints (k-d).  Out-of-bounds
        or wrong-arity subscripts are *undefined*: they raise
        :class:`~repro.errors.BottomError`, the ⊥ of the calculus.
        Negative indices are out of bounds (the domain is ``0..n_j-1``).
        """
        if isinstance(index, int):
            index = (index,)
        index = tuple(index)
        if len(index) != self.rank:
            raise BottomError(
                f"subscript arity {len(index)} into rank-{self.rank} array"
            )
        offset = 0
        for position, dim, stride in zip(index, self._dims, self._strides):
            if not isinstance(position, int) or isinstance(position, bool):
                raise BottomError(f"non-natural index {position!r}")
            if position < 0 or position >= dim:
                raise BottomError(
                    f"index {index} out of bounds for dims {self._dims}"
                )
            offset += position * stride
        return self._cell(offset)

    def _cell(self, offset: int) -> Any:
        """The boxed element at a validated row-major ``offset``."""
        flat = self._flat
        if flat is not None:
            return flat[offset]
        dense.COUNTERS.dense_hits += 1
        return self._block.data.item(offset)

    # Rank-specialised subscripts for the code generator, where the
    # arity is static: the offset is computed inline when the array has
    # that rank and every index is an exact ``int`` (not ``bool``, not
    # a numpy scalar) inside its extent; else ``__getitem__``, which
    # owns every error, gets the index *tuple* (so a tuple-valued
    # single index stays a ⊥ and never becomes a rank-k subscript).

    def at1(self, i: Any) -> Any:
        """``self[(i,)]``."""
        dims = self._dims
        if type(i) is int and len(dims) == 1 and 0 <= i < dims[0]:
            return self._cell(i)
        return self[(i,)]

    def at2(self, i: Any, j: Any) -> Any:
        """``self[(i, j)]``."""
        dims = self._dims
        if type(i) is int and type(j) is int and len(dims) == 2 \
                and 0 <= i < dims[0] and 0 <= j < dims[1]:
            return self._cell(i * dims[1] + j)
        return self[(i, j)]

    def at3(self, i: Any, j: Any, k: Any) -> Any:
        """``self[(i, j, k)]``."""
        dims = self._dims
        if type(i) is int and type(j) is int and type(k) is int \
                and len(dims) == 3 and 0 <= i < dims[0] \
                and 0 <= j < dims[1] and 0 <= k < dims[2]:
            return self._cell((i * dims[1] + j) * dims[2] + k)
        return self[(i, j, k)]

    # The same read as inline text, for a plan whose types prove the
    # operand a rank-k array and every index an ``int`` (DESIGN.md
    # "Typed plans"): :func:`cell_text`.

    # -- the backing store --------------------------------------------------

    @property
    def block(self) -> Optional[dense.DenseBlock]:
        """The dense backing block if one already exists (never probes)."""
        b = self._block
        return b if isinstance(b, dense.DenseBlock) else None

    def dense_block(self) -> Optional[dense.DenseBlock]:
        """The dense block, probing the object tuple on first demand.

        The probe result is cached idempotently: ``False`` marks a
        scanned-and-declined array so the scan never reruns.  Two host
        threads may race the first probe; both build equivalent
        read-only blocks and either publish is fine.
        """
        b = self._block
        if b is None:
            probed = dense.probe_block(self._flat, self._dims)
            b = probed if probed is not None else False
            self._block = b
        return b if isinstance(b, dense.DenseBlock) else None

    # -- derived views ------------------------------------------------------

    @property
    def flat(self) -> tuple[Any, ...]:
        """The row-major value tuple (boxed lazily for block-backed arrays)."""
        flat = self._flat
        if flat is None:
            flat = dense.materialize(self._block)
            self._flat = flat
        return flat

    def indices(self) -> Iterator[tuple[int, ...]]:
        """Iterate over the rectangular domain in row-major order."""
        return iter_indices(self._dims)

    def graph(self) -> frozenset:
        """The graph of the array-as-function: ``{(index, value)}``.

        For 1-d arrays the key is a bare natural; for k-d arrays it is a
        k-tuple, matching the paper's ``graph_k : [[t]]_k -> {N^k × t}``.
        """
        if self.rank == 1:
            return frozenset((i, v) for i, v in enumerate(self.flat))
        return frozenset(zip(self.indices(), self.flat))

    def to_nested(self) -> Any:
        """Convert back to nested Python lists (row-major)."""
        block = self.block
        if block is not None and self._flat is None:
            return block.data.tolist()

        flat = self.flat

        def build(axis: int, offset: int) -> Any:
            if axis == self.rank:
                return flat[offset]
            stride = self._strides[axis]
            return [
                build(axis + 1, offset + i * stride)
                for i in range(self._dims[axis])
            ]

        return build(0, 0)

    def map(self, fn: Any) -> "Array":
        """Pointwise map preserving dims (the derived ``map`` of Section 2)."""
        return Array(self._dims, [fn(v) for v in self.flat])

    def reshape(self, dims: Sequence[int]) -> "Array":
        """Reinterpret the row-major values under new dims of equal size."""
        block = self.block
        if block is not None and self._flat is None:
            return Array(dims, block.data.ravel())
        return Array(dims, self.flat)

    # -- value protocol ------------------------------------------------------

    def _kinds(self) -> str:
        """The cached kind signature: one code per element, row-major.

        Block-backed arrays derive it from the dtype tag without boxing
        anything; by the block invariants (every element exactly the
        tag's carrier type) that equals what a scan of ``flat`` would
        produce.
        """
        ksig = self._ksig
        if ksig is None:
            block = self.block
            if block is not None:
                ksig = dense.KIND_CHARS[block.tag] * self._size
            else:
                ksig = "".join(_kind_char(v) for v in self._flat)
            self._ksig = ksig
        return ksig

    def __eq__(self, other: object) -> bool:
        """Kind-first structural equality (agrees with ``value_equal``).

        Same dims, then same per-element kinds, then same values —
        ``[[1]] != [[1.0]] != [[true]]`` even though Python's scalars
        say otherwise.  Two blocks of the same tag compare in one
        vectorized pass; everything else falls back to the signature
        check plus tuple/``value_equal`` comparison.
        """
        if self is other:
            return True
        if not isinstance(other, Array):
            return NotImplemented
        if self._dims != other._dims:
            return False
        if self._size == 0:
            return True
        a = self.block
        b = other.block
        if a is not None and b is not None:
            if a.tag != b.tag:
                return False
            return dense.blocks_equal(a, b)
        if self._kinds() != other._kinds():
            return False
        if _SCALAR_CODES.issuperset(self._kinds()):
            return self.flat == other.flat
        from repro.objects.values import value_equal
        return all(value_equal(x, y) for x, y in zip(self.flat, other.flat))

    def __hash__(self) -> int:
        """Hash over dims, kind signature and values.

        Consistent with ``__eq__``: equal arrays share dims and
        signature, and their flat tuples are Python-equal (``value_equal``
        refines ``==``), so the triple hashes alike; arrays differing
        only in element kinds get different signatures and therefore
        (almost surely) different hashes.
        """
        if self._hash is None:
            self._hash = hash((self._dims, self._kinds(), self.flat))
        return self._hash

    def __iter__(self) -> Iterator[Any]:
        """Iterate over values in row-major order."""
        return iter(self.flat)

    def __reduce__(self):
        """Pickle block-backed arrays as (dims, raw buffer) — no boxing.

        Pickling the ndarray costs one buffer copy instead of ``size``
        object pickles; reconstruction goes through ``__init__``
        adoption, so the copy comes back block-backed.
        """
        block = self.block
        if block is not None:
            return (_rebuild_dense, (self._dims, block.data))
        return (Array, (self._dims, self.flat))

    def __repr__(self) -> str:
        block = self.block
        if block is not None and self._flat is None:
            preview = block.data.ravel()[:8].tolist()
        else:
            preview = list(self.flat[:8])
        shown = ", ".join(repr(v) for v in preview)
        if self._size > 8:
            shown += ", ..."
        return f"Array(dims={self._dims}, [{shown}])"


def cell_text(array: str, index: Sequence[str], dims: str,
              boxed: bool) -> str:
    """The code generator's text for ``array[(i, j, …)]`` where the
    operand is proven a rank-k :class:`Array` and each index an ``int``
    (``array`` and ``index`` are names, read more than once; ``dims`` a
    free one): the row-major offset behind both halves of the bounds
    test — a nat may be negative — else ``__getitem__``, which owns the
    ⊥.  A ``boxed`` array (its cells already boxed) is read from
    ``_flat``; any other through ``_cell``, which counts dense hits."""
    tests = [f"0 <= {index[0]} < " + (f"{array}._size" if len(index) == 1
                                      else f"({dims} := {array}._dims)[0]")]
    offset = index[0]
    for axis, i in enumerate(index[1:], 1):
        offset = f"{f'({offset})' if axis > 1 else offset} * " \
            f"{dims}[{axis}] + {i}"
        tests.append(f"0 <= {i} < {dims}[{axis}]")
    read = f"._flat[{offset}]" if boxed else f"._cell({offset})"
    return f"({array}{read} if {' and '.join(tests)} " \
        f"else {array}[({', '.join(index)},)])"


def dim_text(rank: int) -> str:
    """The code generator's text for ``dim_rank`` of an operand proven a
    rank-``rank`` :class:`Array`: its extent at rank 1, else the tuple."""
    return "{}._size" if rank == 1 else "{}._dims"


def iter_indices(dims: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield every index tuple of the rectangular domain, row-major."""
    k = len(dims)
    if any(d == 0 for d in dims):
        return
    index = [0] * k
    while True:
        yield tuple(index)
        axis = k - 1
        while axis >= 0:
            index[axis] += 1
            if index[axis] < dims[axis]:
                break
            index[axis] = 0
            axis -= 1
        if axis < 0:
            return


#: the cell of every ``index_k`` hole
_HOLE: frozenset = frozenset()


def _index_key(pair, rank: int):
    """The key of one ``index_k`` pair — a natural at rank 1, a tuple of
    ``rank`` naturals above — or the ``EvalError`` of a malformed pair."""
    if not isinstance(pair, tuple) or len(pair) != 2:
        raise EvalError(f"index expects (key, value) pairs, got {pair!r}")
    key = pair[0]
    positions = (key,) if rank == 1 else key
    if (not isinstance(positions, tuple) or len(positions) != rank
            or any(isinstance(k, bool) or not isinstance(k, int) or k < 0
                   for k in positions)):
        raise EvalError(f"bad index key {key!r} for rank {rank}")
    return key


def index_set_stats(pairs, rank: int, weight: Optional[int] = None):
    """``index_k`` with its sizes: ``(Array, groups, max_group)``.

    The one grouping routine, shared by both engines, in one pass: each
    pair is validated — a malformed one raises where the iteration meets
    it — and added to its group.  ``groups`` counts non-empty cells and
    ``max_group`` is the cardinality of the largest one (after
    deduplication).  Each group lands at its key's row-major offset (at
    rank 1 the key is the offset) and every hole is one shared empty
    frozenset, so the fill costs O(pairs + cells) however sparse the keys.

    With a ``weight`` it is also the Σ of each cell: a cell holds
    ``Σ{weight | x ∈ group}`` and a hole 0.  The pairs are a set, so a
    key's values are distinct and a group's count is its size: no group
    is built.
    """
    keyed: Dict[Any, Any] = {}
    one, counted, keys = rank == 1, weight is not None, []
    for pair in pairs:  # a bare natural key leaves nothing to check
        if not (one and type(pair) is tuple and len(pair) == 2
                and type(key := pair[0]) is int and key >= 0):
            key = _index_key(pair, rank)
        if counted:
            keys.append(key)
        elif (group := keyed.get(key)) is None:
            keyed[key] = {pair[1]}
        else:
            group.add(pair[1])
    if counted:
        keyed = Counter(keys)
    if not keyed:
        return Array((0,) * rank, []), 0, 0
    dims = [max(keyed) + 1] if one else [m + 1 for m in map(max, zip(*keyed))]
    strides = _row_major_strides(dims)
    values = [0 if counted else _HOLE] * (strides[0] * dims[0])
    for key, group in keyed.items():
        values[key if one else sum(map(mul, key, strides))] = \
            group * weight if counted else frozenset(group)
    sizes = keyed.values() if counted else map(len, keyed.values())
    return Array(dims, values), len(keyed), max(sizes)


def index_set(pairs: frozenset, rank: int) -> Array:
    """The semantics of ``index_k`` (Section 2).

    Builds the k-dimensional array whose j-th dimension runs to the maximum
    j-th key; holes get ``{}``; duplicate keys group all their values.
    Runs in O(m + n log n) as the paper's cost analysis assumes.
    """
    return index_set_stats(pairs, rank)[0]
