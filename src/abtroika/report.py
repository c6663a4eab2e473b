"""Report assembly and serialization: report.json plus sweep CSVs.

Floats are serialized in their shortest round-trip form (float.__repr__), so
identical configurations produce byte-identical reports (timestamps live in
one dedicated provenance subtree and are the only run-to-run difference)."""

from __future__ import annotations

import csv
import json

from . import __version__


def write_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(path, header, rows) -> None:
    """Comma-separated, header row, LF line endings, '.' decimal separator."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row])


def check(name: str, value: float, tolerance: float, ok=None) -> dict:
    """One named pass/fail entry; default criterion is |value| <= tolerance."""
    passed = bool(abs(value) <= tolerance) if ok is None else bool(ok)
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": passed}


def bundle(config, stages: dict, checks: list, timestamps: dict) -> dict:
    """Assemble the full report payload.

    Everything outside provenance.timestamps is a pure function of the
    configuration, keeping reports byte-comparable across runs.
    """
    return {
        "provenance": {
            "tool": "abtroika",
            "version": __version__,
            "config": config.to_dict(),
            "config_echo": config.to_text(),
            "timestamps": timestamps,
        },
        "checks": {c["name"]: {k: c[k] for k in ("value", "tolerance", "pass")}
                   for c in checks},
        "all_pass": all(c["pass"] for c in checks),
        **stages,
    }
