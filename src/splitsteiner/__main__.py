"""Process entry of the CLI: `python -m splitsteiner` and the installed
`splitsteiner` script both call `run`.

A CLI child is mostly fixed cost. Importing numpy and the stage modules
makes some 32k objects, and with the collector on, the import runs about
thirty collections that walk them, and interpreter shutdown walks them
once more. `run` therefore holds the collector off while it imports the
CLI and then moves every object made so far into the permanent
generation (`gc.freeze`), where no later collection looks, the one at
shutdown included. The collector is back in the state `run` found it in
before any command runs, so the work itself is collected as usual.

`cli.main` and the library make no `gc` call: tests call `main` in
process hundreds of times, and a freeze there would pin the test
runner's heap for good.
"""

import gc


def run(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    return main(argv)


if __name__ == "__main__":
    raise SystemExit(run())
