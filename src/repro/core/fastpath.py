"""The dispatch policy of the evaluator fast paths.

Two fast paths sit in front of the scalar loops: the numpy-vectorized
kernel backend (:mod:`repro.core.kernels`) and the hash equi-join
(:mod:`repro.core.setops`).  Each pays a fixed dispatch cost (grid
setup; hash-index build), so both are gated on the same minimum-cells
floor, and a single ``Session(min_cells=…)`` override moves them
together.  Nothing else turns a fast path off: a kernel needs numpy to
be importable, and that is decided when the plan is emitted.

A :class:`DispatchConfig` travels from the :class:`~repro.system.session.Session`
through the :class:`~repro.env.environment.TopEnv` into the code the
engine emits, and is read at dispatch time: tuning ``min_cells``
mid-session affects every plan, cached ones included.
"""

from __future__ import annotations

#: the one shared floor: domains/sources smaller than this stay on the
#: plain scalar loop — grid setup and index builds cost more than they
#: save on tiny inputs
DEFAULT_MIN_CELLS = 64


class DispatchConfig:
    """The dispatch policy: one field and the size predicates over it.

    Every physical choice the engine makes — scalar loop or numpy
    kernel, nested-loop or hash join — is a pure function of an operand
    size and ``min_cells``, decided by one of the ``wants_*`` methods
    below and nowhere else.

    ``min_cells``
        Floor (in cells for tabulation, |S|·|T| for joins) below which
        no fast path engages.

    One instance is owned by each :class:`~repro.env.environment.TopEnv`
    and handed by reference to every evaluator it builds, so mutating it
    reconfigures live engines.  Construction never validates —
    :class:`~repro.system.session.Session` validates its keyword surface
    before mutating the config.
    """

    __slots__ = ("min_cells",)

    def __init__(self, min_cells: int = DEFAULT_MIN_CELLS):
        self.min_cells = min_cells

    # -- the size predicates --------------------------------------------

    def wants_kernel(self, cells: int) -> bool:
        """Should a kernel-shaped tabulation of ``cells`` cells, or a
        kernel-shaped ``Σ`` of ``cells`` terms, run as a numpy kernel?
        Below the floor, grid setup costs more than the scalar loop."""
        return cells >= self.min_cells

    def wants_hash_join(self, total: int, inner: int) -> bool:
        """Should a recognized equi-join over ``total`` = |S|·|T| pairs
        with ``inner`` = |T| inner elements take the hash path?  At
        least two inner elements, so the index has something to share."""
        return total >= self.min_cells and inner >= 2

    def __repr__(self) -> str:
        return f"DispatchConfig(min_cells={self.min_cells})"


#: the config used by evaluators constructed without an explicit one
#: (direct ``CompiledEvaluator()`` builds in tests and benchmarks);
#: sessions get their own per-:class:`~repro.env.environment.TopEnv`
#: instance
DEFAULT_CONFIG = DispatchConfig()

__all__ = ["DEFAULT_MIN_CELLS", "DispatchConfig", "DEFAULT_CONFIG"]
