"""Write reference/figures.json: the figures workload's outputs at this commit.

    python3 perfbench/make_reference.py

The figures check compares every later commit against these columns, so
regenerate only at a commit whose figure outputs are trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT, git_commit, import_package


def main() -> int:
    import_package()
    import workloads

    doc = {"generated_at": git_commit()}
    workdir = os.path.join(OUT, "reference-work")
    os.makedirs(workdir, exist_ok=True)
    try:
        for size, commands in workloads.FIGURE_COMMANDS.items():
            figures = workloads.Figures(0, size, workdir)
            doc[size] = {}
            for op in figures.run_pass(0):
                if not op.ok:
                    raise RuntimeError(f"{op.name} failed: {op.errors}")
                cols = workloads.read_table(op.output)
                doc[size][op.name] = {
                    "argv": commands[op.name],
                    "header": list(cols),
                    "columns": {c: cols[c] for c in workloads.FIGURE_COLUMNS[op.name]},
                }
    finally:
        shutil.rmtree(workdir)
    path = os.path.join(os.path.dirname(workloads.REFERENCE), "figures.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
