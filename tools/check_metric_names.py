#!/usr/bin/env python
"""Lint the metric-name catalog against the source tree (CI gate).

Checks, without importing the package (so it runs in the dependency-free
lint job):

1. every name in ``repro.obs.metrics.METRIC_NAMES`` follows the naming
   convention (snake_case with a ``repro_`` prefix) and is unique;
2. every ``"repro_*"`` string literal in ``src/`` — i.e. every metric
   name a module registers — is declared in the catalog;
3. every catalog entry is actually registered somewhere in ``src/``
   (no dead catalog rows).

Exits non-zero with one line per violation.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
METRICS_MODULE = SRC / "obs" / "metrics.py"

#: Must match METRIC_NAME_RE in src/repro/obs/metrics.py.
NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")

#: Any repro_-prefixed string literal is treated as a metric name.
LITERAL_RE = re.compile(r"^repro_[a-z0-9_]+$")


def load_catalog() -> tuple:
    """Pull METRIC_NAMES out of metrics.py via ast (no package import)."""
    tree = ast.parse(METRICS_MODULE.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "METRIC_NAMES" in targets:
                return tuple(ast.literal_eval(node.value))
    raise SystemExit(f"METRIC_NAMES not found in {METRICS_MODULE}")


def source_literals() -> dict:
    """All repro_* string literals in src/, mapped to their locations."""
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if LITERAL_RE.match(node.value):
                    where = f"{path.relative_to(REPO)}:{node.lineno}"
                    found.setdefault(node.value, []).append(where)
    return found


def main() -> int:
    catalog = load_catalog()
    errors = []

    seen = set()
    for name in catalog:
        if not NAME_RE.match(name):
            errors.append(f"catalog name violates convention: {name!r}")
        if name in seen:
            errors.append(f"catalog name duplicated: {name!r}")
        seen.add(name)

    literals = source_literals()
    for name, locations in sorted(literals.items()):
        if name not in seen:
            errors.append(
                f"metric {name!r} used at {locations[0]} but not declared "
                "in METRIC_NAMES"
            )
        if not NAME_RE.match(name):
            errors.append(
                f"metric {name!r} at {locations[0]} violates the naming "
                "convention (snake_case, repro_ prefix)"
            )

    for name in catalog:
        if name not in literals:
            errors.append(f"catalog name never registered in src/: {name!r}")

    if errors:
        for error in errors:
            print(f"check_metric_names: {error}", file=sys.stderr)
        return 1
    print(
        f"check_metric_names: {len(catalog)} catalog names, "
        f"{len(literals)} source literals — OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
