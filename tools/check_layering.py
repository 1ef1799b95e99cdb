#!/usr/bin/env python
"""Import-layering lint for the repro package.

The staged architecture only stays layered if the dependency arrows
keep pointing one way::

    utils / logs / obs          (foundations: import nothing above)
      ^ datagen  ^ nn           (nn knows obs, never the domain)
      ^ features
      ^ core                    (core.pipeline et al.: never eval/cli)
      ^ ingest                  (event-time ingestion over features+core)
      ^ eval
      ^ cli                     (the outermost shell)

This script walks every module under ``src/repro``, extracts its
imports from the AST (no code execution), and fails with a non-zero
exit if any module imports from a package its layer must not know
about -- e.g. ``repro.core`` importing ``repro.eval`` or ``repro.cli``.
It also fails when a rule names a module that no longer exists, so a
deleted module cannot leave behind a rule that never fires.

Run it directly (CI does) or through ``tests/tools/test_layering.py``::

    python tools/check_layering.py [--root src]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: package -> import prefixes that package must never touch.
FORBIDDEN: Dict[str, Tuple[str, ...]] = {
    "repro.utils": ("repro.core", "repro.ingest", "repro.nn", "repro.eval", "repro.cli",
                    "repro.features", "repro.datagen", "repro.logs", "repro.obs",
                    "repro.testing"),
    "repro.obs": ("repro.core", "repro.ingest", "repro.nn", "repro.eval", "repro.cli",
                  "repro.features", "repro.datagen", "repro.logs", "repro.testing"),
    # Inside the observability package the arrows also point one way:
    # telemetry is the foundation, log/report sit on it, export/drift/diff
    # on those.  Keeps the monitoring plane greppable bottom-up.
    "repro.obs.telemetry": ("repro.obs.log", "repro.obs.export", "repro.obs.drift",
                            "repro.obs.report", "repro.obs.diff"),
    "repro.obs.log": ("repro.obs.export", "repro.obs.drift", "repro.obs.report",
                      "repro.obs.diff"),
    "repro.obs.report": ("repro.obs.export", "repro.obs.drift", "repro.obs.log",
                         "repro.obs.diff"),
    "repro.obs.export": ("repro.obs.drift", "repro.obs.diff"),
    "repro.obs.drift": ("repro.obs.export", "repro.obs.diff"),
    "repro.obs.diff": ("repro.obs.export", "repro.obs.drift", "repro.obs.log"),
    "repro.logs": ("repro.core", "repro.ingest", "repro.nn", "repro.eval", "repro.cli",
                   "repro.features", "repro.datagen", "repro.obs", "repro.testing"),
    "repro.nn": ("repro.core", "repro.ingest", "repro.eval", "repro.cli",
                 "repro.features", "repro.datagen", "repro.logs", "repro.testing"),
    # Inside the nn package the arrows also point one way: the workspace
    # buffer arena is the foundation, layers/optimizers/losses sit on it
    # (optimizers may import layers for Parameter), and network composes
    # all three.  Keeps the allocation-free kernel path dependency-light.
    "repro.nn.workspace": ("repro.nn.layers", "repro.nn.optimizers", "repro.nn.losses",
                           "repro.nn.network", "repro.nn.autoencoder", "repro.nn.parallel",
                           "repro.nn.serialization", "repro.nn.data"),
    "repro.nn.layers": ("repro.nn.optimizers", "repro.nn.losses", "repro.nn.network",
                        "repro.nn.autoencoder", "repro.nn.parallel",
                        "repro.nn.serialization"),
    "repro.nn.optimizers": ("repro.nn.losses", "repro.nn.network", "repro.nn.autoencoder",
                            "repro.nn.parallel", "repro.nn.serialization"),
    "repro.nn.losses": ("repro.nn.layers", "repro.nn.optimizers", "repro.nn.network",
                        "repro.nn.autoencoder", "repro.nn.parallel",
                        "repro.nn.serialization"),
    "repro.nn.network": ("repro.nn.autoencoder", "repro.nn.parallel",
                         "repro.nn.serialization"),
    "repro.datagen": ("repro.core", "repro.ingest", "repro.nn", "repro.eval", "repro.cli",
                      "repro.features", "repro.testing"),
    "repro.features": ("repro.core", "repro.ingest", "repro.nn", "repro.eval", "repro.cli",
                       "repro.testing"),
    "repro.core": ("repro.ingest", "repro.eval", "repro.cli", "repro.datagen",
                   "repro.testing"),
    "repro.ingest": ("repro.eval", "repro.cli", "repro.datagen", "repro.nn",
                     "repro.testing"),
    "repro.testing": ("repro.ingest", "repro.eval", "repro.cli"),
    "repro.eval": ("repro.cli", "repro.testing"),
}


def module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the source root."""
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imports_of(path: Path, module: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, imported_module)`` for every import in the file.

    Relative imports are resolved against the importing module's
    package so intra-package imports are checked under their absolute
    names too.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    package_parts = module.split(".")[:-1] if not path.name == "__init__.py" else module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.lineno, node.module or ""
            else:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
                yield node.lineno, target


def stale_rules(root: Path, rules: Dict[str, Tuple[str, ...]] = FORBIDDEN) -> List[str]:
    """Every rule key or forbidden prefix that names no module under ``root``.

    A rule about a deleted module can never fire again, so it is reported
    instead of silently passing.
    """
    def exists(name: str) -> bool:
        path = root.joinpath(*name.split("."))
        return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()

    stale = []
    for package, forbidden in rules.items():
        for name in (package, *forbidden):
            if not exists(name):
                stale.append(f"{package}: {name} names no module or package under {root}")
    return stale


def check_tree(root: Path) -> List[str]:
    """Every layering violation under ``root`` as a printable string."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        module = module_name(path, root)
        rules = [
            forbidden
            for package, forbidden in FORBIDDEN.items()
            if module == package or module.startswith(package + ".")
        ]
        if not rules:
            continue
        for lineno, imported in imports_of(path, module):
            for forbidden in rules:
                for prefix in forbidden:
                    if imported == prefix or imported.startswith(prefix + "."):
                        violations.append(
                            f"{path}:{lineno}: {module} imports {imported} "
                            f"(forbidden: {prefix} is an outer layer)"
                        )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="source root containing the repro package (default: ../src)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root)
    if not (root / "repro").is_dir():
        print(f"error: no repro package under {root}", file=sys.stderr)
        return 2
    stale = stale_rules(root)
    violations = check_tree(root)
    if stale:
        print(f"{len(stale)} stale layering rule(s):")
        for rule in stale:
            print(f"  {rule}")
    if violations:
        print(f"{len(violations)} layering violation(s):")
        for violation in violations:
            print(f"  {violation}")
    if stale or violations:
        return 1
    print("layering OK: no forbidden imports")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
