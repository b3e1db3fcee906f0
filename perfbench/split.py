"""Copy the match-anti layer split from a traced run into README.md.

Usage: ``python3 perfbench/split.py [results/traced-match-anti.txt]``.
Reads the traced run's ``name = value unit`` lines and rewrites the block
between the ``split`` markers of ``perfbench/README.md``, so the numbers
in the README are never typed by hand.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Layer self times that partition one matching (the rest is untraced).
PARTS = (
    ("prefs.reverse_top1_s", "reverse top-1 (TA scan)"),
    ("skyline.maintain_s", "skyline maintenance (`update_after_removal`)"),
    ("skyline.bbs_s", "skyline BBS (`compute_skyline`)"),
    ("engine.stage_s", "staging (`build_problem`)"),
    ("core.sb_self_s", "SB's own loop (`pairs` self time)"),
)


def read_values(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        name, sep, rest = line.partition(" = ")
        if sep and not line.startswith("{"):
            values[name] = rest
    return values


def table(values: dict) -> str:
    total = float(values["match_s_traced_mean"].split()[0])
    rows = ["| Layer | Seconds per matching | Share of mean traced matching |",
            "| --- | --- | --- |"]
    covered = 0.0
    for name, label in PARTS:
        seconds = float(values[name].split()[0])
        covered += seconds
        rows.append(f"| {label} | {seconds:.4g} | {seconds / total:.1%} |")
    rows.append(f"| sum of the above | {covered:.4g} | {covered / total:.1%} |")
    rows.append(f"| mean traced matching | {total:.4g} | 100% |")
    return "\n".join(rows) + (
        f"\n\n`trace.overhead_frac` = {values['trace.overhead_frac']}, "
        f"`trace.coverage_frac` = {values['trace.coverage_frac']}, "
        f"`prefs.reverse_top1_calls` = {values['prefs.reverse_top1_calls']}"
        f" per matching.\n"
    )


def main(argv) -> int:
    source = Path(argv[0]) if argv else HERE / "results" / "traced-match-anti.txt"
    readme = HERE / "README.md"
    text = readme.read_text()
    begin, end = "<!-- split:begin -->\n", "<!-- split:end -->"
    head, _, rest = text.partition(begin)
    _, _, tail = rest.partition(end)
    readme.write_text(head + begin + table(read_values(source)) + end + tail)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
