"""Rewrite the snapshots in tests/golden/ from the code as it stands.

Run it from the repository root, after a change meant to move an answer:

    PYTHONPATH=src python tests/regen_goldens.py

It writes every case of `test_golden.CASES` and the partition lines of
`test_partition._partition_lines`, and prints each file's name with
"moved" or "unchanged". Read the diff of tests/golden/ before committing
it: every moved file needs a reason. Pytest does not collect this file.
"""

from test_golden import CASES, GOLDEN
from test_partition import _partition_lines


def main() -> None:
    makers = dict(CASES, **{"partitions.txt": _partition_lines})
    for name in sorted(makers):
        path = GOLDEN / name
        text = makers[name]()
        moved = not path.exists() or path.read_text(encoding="utf-8") != text
        if moved:
            path.write_text(text, encoding="utf-8", newline="\n")
        print(f"{'moved' if moved else 'unchanged'} {name}")


if __name__ == "__main__":
    main()
