"""python -m lpairs: the command-line interface, without an installed script."""

from .cli import main

main()
