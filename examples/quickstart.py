"""Quickstart: the AQL public API in five minutes.

Run:  python examples/quickstart.py

Covers: building array values, running AQL queries, registering macros
and external primitives, and watching the optimizer work.
"""

from repro import Session, aql_array
from repro.core.printer import pprint
from repro.objects.exchange import pretty
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression
from repro.types.types import TArrow, TNat


def main() -> None:
    session = Session()

    def show(label: str, source: str) -> None:
        # pretty is the REPL's display form: sets print in canonical
        # order, so the output is the same under every PYTHONHASHSEED
        print(f"{label:<19}=", pretty(session.query_value(source)))

    # -- 1. values in, queries out ------------------------------------------
    session.env.set_val("A", aql_array([3, 1, 4, 1, 5, 9, 2, 6]))
    show("A", "A;")
    show("reverse!A", "reverse!A;")
    show("evenpos!A", "evenpos!A;")
    show("hist!A", "hist!A;")
    show("positions > 4", "{i | [\\i : \\x] <- A, x > 4};")

    # -- 2. comprehensions over sets and arrays together ---------------------
    session.env.set_val("R", frozenset({(1, "one"), (2, "two"),
                                        (3, "three")}))
    show("join array x rel", "{(x, w) | [_ : \\x] <- A, (x, \\w) <- R};")

    # -- 3. matrices ----------------------------------------------------------
    session.env.set_val("M", aql_array([1, 2, 3, 4, 5, 6], dims=(2, 3)))
    show("transpose!M", "transpose!M;")
    show("M * M^T", "matmul!(M, transpose!M);")

    # -- 4. macros: the standard library's, and your own on top of them ------
    show("dot!(A, A)", "dot!(A, A);")
    for line in session.run_script(   # typechecked at declaration
        "macro \\sqnorm = fn \\u => dot!(u, u);"
    ):
        print(line)
    show("sqnorm!A", "sqnorm!A;")

    # -- 5. external primitives (the GPPL escape hatch) ------------------------
    session.register_co("collatz", _collatz_length, TArrow(TNat(), TNat()))
    show("collatz lengths", "maparr!(collatz, [[6, 7, 27]]);")

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
