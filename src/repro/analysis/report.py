"""Experiment report aggregation.

``python -m repro.analysis.report`` prints every generated experiment
table from ``results/`` in experiment order with headers -- the one-stop
view of the reproduction's paper-vs-measured evidence.  (Tables are
generated by ``pytest benchmarks/ --benchmark-only``; this module only
collects and formats.)
"""

from __future__ import annotations

import pathlib
import re
import sys

EXPERIMENT_TITLES = {
    "T1": "Refresh-leakage comparison (paper section 1.2.1)",
    "T2": "Efficiency comparison (footnote 3)",
    "T3": "Theorem 4.1 leakage rates",
    "T4": "Device asymmetry: P1 vs P2 (section 1.1 item 4)",
    "T5": "Refresh invariance (Definition 3.1)",
    "T6": "Adversary advantage (Definition 3.2 game)",
    "T7": "Entropy cliff / leftover hash lemma",
    "T8": "Section 6 fake game",
    "T8b": "Section 6 distinguisher skeleton",
    "T9": "DLRIBE (section 4.2, Remark 4.1)",
    "T10": "DLRCCA2 (section 4.3)",
    "T11": "Secure storage on leaky devices (section 4.4)",
    "T13": "Key-generation leakage (footnote 7)",
    "A1": "Ablation: coin reuse",
    "A2": "Ablation: basic vs optimal variant",
    "A3": "Ablation: fixed-base precomputation",
}

_ID_PATTERN = re.compile(r"^(T\d+b?|A\d+)_")


def _locate_results() -> pathlib.Path:
    """Find results/ relative to the repository or the cwd."""
    candidates = [
        pathlib.Path.cwd() / "results",
        pathlib.Path(__file__).resolve().parents[3] / "results",
    ]
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "no results/ directory found -- run `pytest benchmarks/ --benchmark-only` first"
    )


def _experiment_id(path: pathlib.Path) -> str:
    match = _ID_PATTERN.match(path.stem)
    return match.group(1) if match else path.stem


def _sort_key(path: pathlib.Path) -> tuple:
    exp = _experiment_id(path)
    match = re.match(r"([TA])(\d+)(b?)", exp)
    if match:
        return (match.group(1), int(match.group(2)), match.group(3), path.name)
    return ("Z", 0, "", path.name)


def collect_report(results_dir: pathlib.Path | None = None) -> str:
    """Assemble the full report as one string."""
    directory = results_dir or _locate_results()
    tables = sorted(directory.glob("*.txt"), key=_sort_key)
    if not tables:
        raise FileNotFoundError(f"no tables in {directory}")
    sections: list[str] = [
        "=" * 72,
        "Distributed Public Key Schemes Secure against Continual Leakage",
        "PODC 2012 reproduction -- experiment report",
        "=" * 72,
    ]
    seen_ids: set[str] = set()
    for path in tables:
        experiment = _experiment_id(path)
        if experiment not in seen_ids:
            seen_ids.add(experiment)
            title = EXPERIMENT_TITLES.get(experiment, experiment)
            sections.append("")
            sections.append(f"--- {experiment}: {title} " + "-" * max(0, 50 - len(title)))
        sections.append("")
        sections.append(f"[{path.name}]")
        sections.append(path.read_text().rstrip())
    return "\n".join(sections) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        sys.stdout.write(collect_report())
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
