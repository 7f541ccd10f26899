"""``python -m ringspec``: the ``ringspec`` command."""

import sys

from .cli import main

# importing the module (as tools that walk the package do) runs nothing
if __name__ == "__main__":
    sys.exit(main())
