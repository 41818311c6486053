"""Refresh EXPERIMENTS.md's measured sections from results/*.json.

Each `<!-- TABLEXX -->` marker is followed by a fenced block that this
script (re)generates with that table's renderer in `harness/tables.py`
(`RENDERERS`), the text `jobs/run.py` prints; paper numbers in the prose
above each marker stay untouched.
"""
import _common  # noqa: F401
import os
import re

from repro.harness import tables as T

MD = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")


def _block(marker: str, text: str, content: str) -> str:
    pattern = re.compile(
        rf"(<!-- {marker} -->)(\n```[^`]*```)?", re.DOTALL
    )
    replacement = f"<!-- {marker} -->\n```\n{content}\n```"
    return pattern.sub(lambda _m: replacement, text, count=1)


def main() -> None:
    with open(MD) as f:
        text = f.read()
    for marker in T.RENDERERS:
        try:
            content = T.render(marker)
        except FileNotFoundError:  # not measured yet: keep the block
            continue
        text = _block(marker, text, content)
    with open(MD, "w") as f:
        f.write(text)
    print("EXPERIMENTS.md updated")


if __name__ == "__main__":
    main()
