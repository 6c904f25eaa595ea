import gc
import sys

from .cli import main


def run() -> None:
    """The process entry point (`python -m specpoly`, and the installed `specpoly`
    script): exit with main's code."""
    try:
        sys.exit(main())
    finally:
        # The output is written and flushed.  Freezing the heap moves every object the
        # call built out of the collector's reach, so the interpreter's shutdown skips
        # its full cyclic collections (about 8 ms a call); reference counting still
        # frees everything as the modules are cleared, and atexit handlers still run.
        gc.freeze()


if __name__ == "__main__":
    run()
