"""The process entry of the `posred` command: `python -m posred` runs this
module, and the console script calls `run`.

The imports build numpy's and posred's module, class and function graph,
which lives until the process ends. `gc.freeze()` moves it into the
permanent generation before the command runs, so the cyclic collector
skips it, both while the command runs and at shutdown, and the OS reclaims
it on exit instead of the interpreter freeing it object by object. atexit
handlers and the flushes of stdout and stderr still run. Only this entry
freezes: `cli.main` and the library never touch `gc`, because a process
that imports them, a test run say, must keep collecting its own garbage.
"""
import gc
import sys

from .cli import main


def run() -> None:
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
