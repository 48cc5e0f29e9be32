r"""The interactive AQL read-eval-print loop.

Run ``python -m repro.system.repl`` (or the installed ``aql`` script).
Statements end with ``;`` and may span lines, like the paper's session::

    : val \months = [[0,31,28,31,30,31,30,31,31,30,31,30]];
    typ months : [[nat]]_1
    val months = [[(0):0, (1):31, (2):28, ...]]

Commands: ``:quit`` exits, ``:macros`` lists registered macros,
``:readers`` / ``:writers`` list drivers, ``:noopt`` / ``:opt`` toggle
the optimizer, ``:load FILE`` runs an AQL script into the session,
``:cache`` prints the plan-cache occupancy and counters (``:cache
clear`` empties it — see ``docs/PLAN_CACHE.md``), and ``:profile
QUERY;`` runs a statement with observability on and prints the EXPLAIN
report (optimized core, per-stage spans, rule firings, evaluator
counters — see ``docs/OBSERVABILITY.md``).  No command switches a fast
path: the one dispatch setting is ``Session(min_cells=)``.

Non-interactive use: ``aql script.aql [more.aql ...]`` executes the
scripts and exits (the paper's batch view of the same top level).
"""

from __future__ import annotations

import sys

from repro.errors import AQLError
from repro.system.session import Session

BANNER = (
    "AQL - a query language for multidimensional arrays\n"
    "(reproduction of Libkin, Machlin & Wong, SIGMOD 1996)\n"
    "statements end with ';'   :quit exits\n"
)


def run_file(session: Session, path: str) -> bool:
    """Execute an AQL script file, echoing outputs; False on error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: cannot read {path!r}: {exc}")
        return False
    try:
        session.run_script(source, echo=True)
    except AQLError as exc:
        print(f"error: {exc}")
        return False
    return True


def main(argv=None) -> int:
    """Entry point for the ``aql`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    session = Session()
    if argv:
        ok = all(run_file(session, path) for path in argv)
        return 0 if ok else 1
    print(BANNER, end="")
    buffer = ""
    while True:
        prompt = ": " if not buffer else ":: "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            buffer = ""
            continue
        stripped = line.strip()
        # ``:profile`` takes a statement, so it buffers like one and is
        # interpreted by Session.run rather than the command dispatcher
        if not buffer and stripped.startswith(":") \
                and not stripped.startswith(":profile"):
            if stripped in (":quit", ":q"):
                return 0
            if stripped == ":macros":
                print(" ".join(session.env.macro_names()))
                continue
            if stripped == ":readers":
                print(" ".join(session.env.drivers.reader_names()))
                continue
            if stripped == ":writers":
                print(" ".join(session.env.drivers.writer_names()))
                continue
            if stripped == ":noopt":
                session.optimize = False
                print("optimizer off")
                continue
            if stripped == ":opt":
                session.optimize = True
                print("optimizer on")
                continue
            if stripped.startswith(":load "):
                run_file(session, stripped[len(":load "):].strip())
                continue
            if stripped == ":cache":
                print(session.plan_cache.render())
                continue
            if stripped == ":cache clear":
                session.plan_cache.clear()
                print("plan cache cleared")
                continue
            print(f"unknown command {stripped!r}")
            continue
        buffer += line + "\n"
        if ";" not in line:
            continue
        source, buffer = buffer, ""
        try:
            session.run_script(source, echo=True)
        except AQLError as exc:
            print(f"error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
