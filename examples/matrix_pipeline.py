"""Linear algebra in a query language — and what the optimizer does to it.

Run:  python examples/matrix_pipeline.py

Section 5's claim, live: the system has *no* matrix-specific rules, yet
``transpose``/``zip``/``subseq`` pipelines normalize to single
tabulations because β^p, η^p and δ^p encode all of them.  This example
prints the normal forms so you can see the intermediate arrays vanish.
"""

from repro import Session, aql_array
from repro.core import ast
from repro.core.printer import pprint
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression


def show(session: Session, title: str, source: str) -> None:
    core = session.env.resolve(desugar_expression(parse_expression(source)))
    optimized = session.env.optimizer.optimize(core)
    print(f"--- {title}")
    print(f"  source       : {source}")
    print(f"  normal form  : {pprint(optimized)}")
    print(f"  nodes        : {ast.node_count(core)} -> "
          f"{ast.node_count(optimized)}")
    tabs_before = sum(isinstance(t, ast.Tabulate)
                      for t in ast.subterms(core))
    tabs_after = sum(isinstance(t, ast.Tabulate)
                     for t in ast.subterms(optimized))
    print(f"  tabulations  : {tabs_before} -> {tabs_after}\n")


def main() -> None:
    session = Session()
    session.env.set_val("M", aql_array(range(1, 13), dims=(3, 4)))
    session.env.set_val("A", aql_array(range(100)))
    session.env.set_val("B", aql_array(range(100, 200)))

    print("== the derived transpose rule (no transpose-specific rule "
          "exists) ==\n")
    show(session, "transpose of a tabulation",
         "transpose!([[i * 10 + j | \\i < 5, \\j < 7]])")
    show(session, "double transpose", "transpose!(transpose!M)")

    print("== zip/subseq commute (Section 1's 'order is irrelevant') "
          "==\n")
    show(session, "zip after subseq",
         "zip!(subseq!(A, 10, 40), subseq!(B, 10, 40))")
    show(session, "subseq after zip", "subseq!(zip!(A, B), 10, 40)")

    print("== map fusion for free ==\n")
    show(session, "two maps",
         "maparr!(fn \\x => x + 1, maparr!(fn \\x => x * 2, A))")
    show(session, "identity map", "maparr!(fn \\x => x, A)")

    print("== numeric results are unchanged ==")
    same = session.query_value(
        "zip!(subseq!(A, 10, 40), subseq!(B, 10, 40)) "
        "= subseq!(zip!(A, B), 10, 40);"
    )
    print(f"zip∘subseq = subseq∘zip evaluates to: {same}")

    gram = session.query_value("matmul!(M, transpose!M);")
    print(f"M * M^T = {gram}")


if __name__ == "__main__":
    main()
