"""Compare two `cusplab all` output roots file by file.

    python3 tests/compare_outputs.py A B

Each report.json is compared with its artifact paths cut to their file
names, which are the one thing two roots must differ in; every other file,
the CSVs among them, byte for byte.  Exits 0 when both roots hold the same
files with the same contents, 1 naming the first file (in sorted order)
that differs or that one root lacks, and 2 when A or B is not a directory.
"""

import json
import os
import sys


def _files(root):
    """Every file under ``root``, as a path relative to it."""
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def _content(path):
    """The bytes of ``path``; for a report.json, its JSON text with every
    artifact path cut to its file name."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) != "report.json":
        return data
    doc = json.loads(data)
    doc["artifacts"] = [os.path.basename(p) for p in doc["artifacts"]]
    return json.dumps(doc, sort_keys=True).encode()


def first_difference(a, b):
    """(relative path, "missing" or "differs") of the first file that one of
    the roots ``a`` and ``b`` lacks or that differs between them, or None."""
    for rel in sorted(_files(a) | _files(b)):
        paths = os.path.join(a, rel), os.path.join(b, rel)
        if not all(map(os.path.isfile, paths)):
            return rel, "missing"
        if _content(paths[0]) != _content(paths[1]):
            return rel, "differs"
    return None


def main(argv):
    if len(argv) != 2 or not all(map(os.path.isdir, argv)):
        print("usage: compare_outputs.py A B, two output roots", file=sys.stderr)
        return 2
    found = first_difference(*argv)
    if found:
        print(f"{found[1]}: {found[0]}")
        return 1
    print(f"same: {len(_files(argv[0]))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
