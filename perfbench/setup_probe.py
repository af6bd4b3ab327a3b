"""Set-up cost of a fresh manipsem service process.

Run in a new interpreter by ``run.py``: imports the request-path modules,
loads the default action library and templates, and prints one JSON object
with the time of each step.  With ``--trace`` every grammar parse made by
the library validation is timed as well.
"""

import importlib
import json
import os
import sys
import time

MODULES = ("config", "actions", "geometry", "relations", "grammar", "library",
           "events", "realizer", "pipeline", "bench")


def main(argv) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    traced = "--trace" in argv

    t0 = time.perf_counter()
    mods = {m: importlib.import_module(f"manipsem.{m}") for m in MODULES}
    t1 = time.perf_counter()

    parse_s = []
    if traced:
        library = mods["library"]
        parse = library.parse

        def timed_parse(tokens):
            start = time.perf_counter()
            try:
                return parse(tokens)
            finally:
                parse_s.append(time.perf_counter() - start)
        library.parse = timed_parse
    lib = mods["library"].default_library()
    t2 = time.perf_counter()
    templates = mods["realizer"].default_templates()
    t3 = time.perf_counter()

    print(json.dumps({
        "import_s": t1 - t0,
        "library_load_s": t2 - t1,
        "templates_load_s": t3 - t2,
        "setup_s": t3 - t0,
        "library_entries": len(lib.entries),
        "templates": len(templates.entries),
        "grammar_parse_s": parse_s,
        "module_file": mods["config"].__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
