"""``python -m nonsig``: the ``nonsig`` command line, also without an install."""

from .cli import main

if __name__ == "__main__":
    main()
