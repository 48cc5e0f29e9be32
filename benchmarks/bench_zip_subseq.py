"""C3 — "In fact, in the normalization phase of our optimizer,
``zip_3 ∘ (subseq, subseq, subseq)`` and ``subseq ∘ zip_3`` get reduced
to the same query, up to extra constant-time bound checks" (Section 1).

Unoptimized, ``subseq ∘ zip`` materializes the full zipped array before
slicing a small window out of it; optimized, both orderings evaluate a
single window-sized tabulation.
"""

import pytest

from repro.core import evaluate
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer

from conftest import aql_core, median_time

TOTAL = 4000
LO, HI = 100, 199  # a 100-element window

# The stdlib applications zip!(subseq!(...), ...) and subseq!(zip!(...))
# do not normalize yet (the optimizer leaves β on a tabulation argument
# alone), so the claim is timed on the hand-expanded text: each macro
# body with its arguments written in place of its parameters.

#: subseq!(zip!(A, B), LO, HI)
ZIP_THEN_SUBSEQ = r"""
    [[ ([[ (A[i], B[i]) | \i < min2!(len!A, len!B) ]])[100+k]
     | \k < (199+1)-100 ]]"""

#: zip!(subseq!(A, LO, HI), subseq!(B, LO, HI))
_SA, _SB = (r"([[ %s[100+k] | \k < (199+1)-100 ]])" % name for name in "AB")
SUBSEQ_THEN_ZIP = r"[[ (%s[i], %s[i]) | \i < min2!(len!%s, len!%s) ]]" % (
    _SA, _SB, _SA, _SB)

#: subseq!(zip_3!(A, B, C), LO, HI)
ZIP3_THEN_SUBSEQ = r"""
    [[ ([[ (A[i], B[i], C[i])
         | \i < min2!(len!A, min2!(len!B, len!C)) ]])[100+k]
     | \k < (199+1)-100 ]]"""


def _inputs():
    return {
        "A": Array.from_list(list(range(TOTAL))),
        "B": Array.from_list(list(range(TOTAL, 2 * TOTAL))),
        "C": Array.from_list(list(range(2 * TOTAL, 3 * TOTAL))),
    }


@pytest.mark.benchmark(group="C3-zip-subseq")
def test_subseq_of_zip_unoptimized(benchmark, std_env):
    env = _inputs()
    expr = aql_core(std_env, ZIP_THEN_SUBSEQ)
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)


@pytest.mark.benchmark(group="C3-zip-subseq")
def test_subseq_of_zip_optimized(benchmark, std_env):
    env = _inputs()
    expr = default_optimizer().optimize(aql_core(std_env, ZIP_THEN_SUBSEQ))
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)


@pytest.mark.benchmark(group="C3-zip-subseq")
def test_zip_of_subseqs_optimized(benchmark, std_env):
    env = _inputs()
    expr = default_optimizer().optimize(aql_core(std_env, SUBSEQ_THEN_ZIP))
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)


@pytest.mark.benchmark(group="C3-zip-subseq-shape")
def test_shape_orderings_converge_after_optimization(benchmark, std_env):
    """After optimization the bad ordering runs as fast as the good one
    (within noise), and much faster than its own unoptimized form."""
    env = _inputs()
    opt = default_optimizer()
    bad_raw = aql_core(std_env, ZIP_THEN_SUBSEQ)
    bad_opt = opt.optimize(bad_raw)
    good_opt = opt.optimize(aql_core(std_env, SUBSEQ_THEN_ZIP))

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
def test_paper_three_way_variant_optimized(benchmark, std_env):
    env = _inputs()
    expr = default_optimizer().optimize(aql_core(std_env, ZIP3_THEN_SUBSEQ))
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (HI - LO + 1,)
    assert result[0] == (LO, TOTAL + LO, 2 * TOTAL + LO)
