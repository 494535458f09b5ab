"""`python -m torus_ma`: the same command line as the `torus-ma` script."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())
