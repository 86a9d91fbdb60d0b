"""`python -m varinterp`: the command line, run from a source checkout."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
