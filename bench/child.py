"""One traced CLI invocation: ``python child.py <spans-file> <arithlab arguments...>``.

Behaves like ``python -m arithlab <arguments...>`` but wraps arithlab's
public functions first and, on exit, writes the spans it recorded to
``<spans-file>`` as JSON.
"""

import json
import sys

from tracer import Tracer
from tasks import import_arithlab


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    arithlab = import_arithlab()
    from arithlab import cli

    tracer = Tracer()
    tracer.install(arithlab)
    try:
        code = cli.run(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
