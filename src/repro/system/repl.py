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
clear`` empties it — see ``docs/PLAN_CACHE.md``), ``:parallel
[WORKERS [MIN_CELLS]]`` shows or tunes the sharded executor
(see ``docs/PARALLEL.md``), ``:setops [on|off]`` shows or toggles the
set-engine fast paths (hash equi-joins and sort-based ``index_k``
grouping — see ``docs/SETOPS.md``),
and ``:profile QUERY;`` runs a statement
with observability on and prints the EXPLAIN report (optimized core,
per-stage spans, rule firings, evaluator counters — see
``docs/OBSERVABILITY.md``).

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


def parallel_command(session: Session, args: str) -> str:
    """Implement ``:parallel`` — show or tune the sharded executor.

    ``:parallel`` prints the current config; ``:parallel WORKERS
    [MIN_CELLS]`` updates it (``:parallel 4 256``, ``:parallel 0`` back
    to serial).  Every field is validated before anything is mutated,
    so a rejected update leaves the config untouched.  See
    ``docs/PARALLEL.md``.
    """
    from repro.core import parallel

    config = session.env.parallel
    if args:
        fields = args.split()
        try:
            workers = int(fields[0])
            if workers < 0:
                raise ValueError
        except ValueError:
            return (f"workers must be a non-negative int, "
                    f"got {fields[0]!r}")
        min_cells = config.min_cells
        if len(fields) > 1:
            try:
                min_cells = int(fields[1])
                if min_cells < 0:
                    raise ValueError
            except ValueError:
                return (f"min_cells must be a non-negative int, "
                        f"got {fields[1]!r}")
        config.workers = workers
        config.min_cells = min_cells
    if not parallel.ENABLED:
        state = "disabled (REPRO_NO_PARALLEL=1)"
    elif not parallel.transport_on():
        state = "disabled (no shared-memory transport)"
    else:
        state = "enabled"
    return (f"parallel {state}: workers={config.workers} "
            f"min_cells={config.min_cells}")


def setops_command(session: Session, args: str) -> str:
    """Implement ``:setops`` — show or toggle the set-engine fast paths.

    ``:setops`` prints the current state; ``:setops on`` / ``:setops
    off`` flips the session switch.  The ``REPRO_NO_SETOPS=1`` kill
    switch wins over the session setting.  See ``docs/SETOPS.md``.
    """
    from repro.core import setops

    config = session.env.parallel
    if args:
        if args == "on":
            config.setops = True
        elif args == "off":
            config.setops = False
        else:
            return f"usage: :setops [on|off] (got {args!r})"
    state = "enabled" if setops.ENABLED else "disabled (REPRO_NO_SETOPS=1)"
    return (f"setops {state}: session="
            f"{'on' if config.setops else 'off'} "
            f"min_cells={config.min_cells}")


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
            if stripped == ":parallel" or stripped.startswith(":parallel "):
                print(parallel_command(session,
                                       stripped[len(":parallel"):].strip()))
                continue
            if stripped == ":setops" or stripped.startswith(":setops "):
                print(setops_command(session,
                                     stripped[len(":setops"):].strip()))
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
        except RecursionError:
            print("error: expression too deeply nested")
    return 0


if __name__ == "__main__":
    sys.exit(main())
