"""Quickstart: the AQL public API in five minutes.

Run:  python examples/quickstart.py

Covers: building array values, running AQL queries, registering macros
and external primitives, and watching the optimizer work.
"""

from repro import Session, aql_array
from repro.core.printer import pprint
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression
from repro.types.types import TArrow, TNat


def main() -> None:
    session = Session()

    # -- 1. values in, queries out ------------------------------------------
    session.env.set_val("A", aql_array([3, 1, 4, 1, 5, 9, 2, 6]))
    print("A                  =", session.query_value("A;"))
    print("reverse!A          =", session.query_value("reverse!A;"))
    print("evenpos!A          =", session.query_value("evenpos!A;"))
    print("hist!A             =", session.query_value("hist!A;"))
    print("positions > 4      =",
          session.query_value("{i | [\\i : \\x] <- A, x > 4};"))

    # -- 2. comprehensions over sets and arrays together ---------------------
    session.env.set_val("R", frozenset({(1, "one"), (2, "two"),
                                        (3, "three")}))
    print("join array x rel   =", session.query_value(
        "{(x, w) | [_ : \\x] <- A, (x, \\w) <- R};"
    ))

    # -- 3. matrices ----------------------------------------------------------
    session.env.set_val("M", aql_array([1, 2, 3, 4, 5, 6], dims=(2, 3)))
    print("transpose!M        =", session.query_value("transpose!M;"))
    print("M * M^T            =",
          session.query_value("matmul!(M, transpose!M);"))

    # -- 4. macros: the standard library's, and your own on top of them ------
    print("dot!(A, A)         =", session.query_value("dot!(A, A);"))
    for line in session.run_script(   # typechecked at declaration
        "macro \\sqnorm = fn \\u => dot!(u, u);"
    ):
        print(line)
    print("sqnorm!A           =", session.query_value("sqnorm!A;"))

    # -- 5. external primitives (the GPPL escape hatch) ------------------------
    session.register_co("collatz", _collatz_length, TArrow(TNat(), TNat()))
    print("collatz lengths    =", session.query_value(
        "maparr!(collatz, [[6, 7, 27]]);"
    ))

    # -- 6. the optimizer at work ----------------------------------------------
    source = "maparr!(fn \\x => x + 1, maparr!(fn \\x => x * 2, A))"
    core = session.env.resolve(desugar_expression(parse_expression(source)))
    optimized = session.env.optimizer.optimize(core)
    print("\nbefore optimization:", pprint(core)[:70], "...")
    print("after optimization: ", pprint(optimized))
    print("(two array traversals fused into one tabulation)")


def _collatz_length(n: int) -> int:
    steps = 0
    while n > 1:
        n = n // 2 if n % 2 == 0 else 3 * n + 1
        steps += 1
    return steps


if __name__ == "__main__":
    main()
