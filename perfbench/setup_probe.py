"""Time one set-up in a fresh interpreter: import bifluid, validate the configs.

Usage: python3 setup_probe.py SRC_DIR CONFIG [CONFIG ...]
Prints the seconds taken.  The import includes numpy, as a user's does.
"""

import sys
import time


def main() -> None:
    src, paths = sys.argv[1], sys.argv[2:]
    texts = []
    for path in paths:
        with open(path, "r") as fh:
            texts.append(fh.read())
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import bifluid

    for text in texts:
        bifluid.validate_config(text)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
