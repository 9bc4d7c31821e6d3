import sys

from .frontend import main

if __name__ == "__main__":
    sys.exit(main())
