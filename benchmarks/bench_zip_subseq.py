"""C3 — "In fact, in the normalization phase of our optimizer,
``zip_3 ∘ (subseq, subseq, subseq)`` and ``subseq ∘ zip_3`` get reduced
to the same query, up to extra constant-time bound checks" (Section 1).

Unoptimized, ``subseq ∘ zip`` materializes the full zipped array before
slicing a small window out of it; optimized, both orderings evaluate a
single window-sized tabulation.
"""

import pytest

from repro.core import ast
from repro.core.builders import subseq, zip2, zip3
from repro.core import evaluate
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer

from conftest import median_time

V = ast.Var
N = ast.NatLit

TOTAL = 4000
LO, HI = 100, 199  # a 100-element window


def _inputs():
    return {
        "A": Array.from_list(list(range(TOTAL))),
        "B": Array.from_list(list(range(TOTAL, 2 * TOTAL))),
        "C": Array.from_list(list(range(2 * TOTAL, 3 * TOTAL))),
    }


def _zip_then_subseq():
    return subseq(zip2(V("A"), V("B")), N(LO), N(HI))


def _subseq_then_zip():
    return zip2(subseq(V("A"), N(LO), N(HI)),
                subseq(V("B"), N(LO), N(HI)))


@pytest.mark.benchmark(group="C3-zip-subseq")
def test_subseq_of_zip_unoptimized(benchmark):
    env = _inputs()
    expr = _zip_then_subseq()
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)


@pytest.mark.benchmark(group="C3-zip-subseq")
def test_subseq_of_zip_optimized(benchmark):
    env = _inputs()
    expr = default_optimizer().optimize(_zip_then_subseq())
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)


@pytest.mark.benchmark(group="C3-zip-subseq")
def test_zip_of_subseqs_optimized(benchmark):
    env = _inputs()
    expr = default_optimizer().optimize(_subseq_then_zip())
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)


@pytest.mark.benchmark(group="C3-zip-subseq-shape")
def test_shape_orderings_converge_after_optimization(benchmark):
    """After optimization the bad ordering runs as fast as the good one
    (within noise), and much faster than its own unoptimized form."""
    env = _inputs()
    opt = default_optimizer()
    bad_raw = _zip_then_subseq()
    bad_opt = opt.optimize(bad_raw)
    good_opt = opt.optimize(_subseq_then_zip())

    assert evaluate(bad_opt, env) == evaluate(bad_raw, env) \
        == evaluate(good_opt, env)

    t_bad_raw = median_time(lambda: evaluate(bad_raw, env))
    t_bad_opt = median_time(lambda: evaluate(bad_opt, env))
    t_good_opt = median_time(lambda: evaluate(good_opt, env))

    assert t_bad_raw > 4.0 * t_bad_opt, (
        f"optimization must avoid materializing the {TOTAL}-element zip: "
        f"{t_bad_raw:.4f}s vs {t_bad_opt:.4f}s"
    )
    assert t_bad_opt < 3.0 * t_good_opt, (
        "the two orderings must run comparably after normalization: "
        f"{t_bad_opt:.4f}s vs {t_good_opt:.4f}s"
    )
    benchmark(lambda: evaluate(bad_opt, env))


@pytest.mark.benchmark(group="C3-zip3")
def test_paper_three_way_variant_optimized(benchmark):
    env = _inputs()
    expr = default_optimizer().optimize(
        subseq(zip3(V("A"), V("B"), V("C")), N(LO), N(HI))
    )
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)
    assert result[0] == (LO, TOTAL + LO, 2 * TOTAL + LO)
