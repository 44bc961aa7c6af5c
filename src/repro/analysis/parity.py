"""Engine-parity checker: the fast and scalar paths must stay twins.

``PipelineEngine.run`` (vectorised) and ``PipelineEngine.run_scalar`` (the
retained reference) are required to produce bitwise-identical results —
``tests/test_engine_equivalence.py`` enforces it at runtime, but only for
the configurations it happens to sweep.  Both entry points drive one shared
epoch loop and differ only in their per-epoch advance strategy, so this
checker enforces the *structural* half statically on the two strategies,
for any class defining both ``_advance_epoch_fast`` and
``_advance_epoch_scalar``:

``PAR001``
    A ``self.<attr>`` store present in one path but not the other: state
    mutated by only one path diverges the moment both are used (e.g. a
    counter bumped only by the fast path breaks checkpoint parity).

``PAR002``
    A method invoked on a shared receiver (``self``, ``scheduler``,
    ``sequence``, ...) by one path but not the other — a side-effecting
    call (KV growth, completion bookkeeping) one path skips.

Receivers that only appear in one of the two methods are ignored (each path
may use private temporaries), as are imported modules (``np.*`` is
vectorised-only by design) and the read-only queries of
:data:`QUERY_CALLS`.  Known-equivalent call pairs — the per-sequence
``grow_sequence`` versus the batched ``grow_batch`` — are declared in
:data:`EQUIVALENT_CALLS` and normalised before comparison.
"""

from __future__ import annotations

import ast

from .core import Finding, ParsedModule, Project, dotted_name, iter_class_defs

FAST_NAME = "_advance_epoch_fast"
SCALAR_NAME = "_advance_epoch_scalar"

#: method names proven equivalent at runtime; each group is normalised to
#: one token before the two paths are compared.
EQUIVALENT_CALLS: tuple[frozenset[str], ...] = (
    # Batched KV growth equals the ordered per-sequence walk whenever it
    # accepts: tests/test_properties.py (grow_batch against the sequential
    # append_tokens walk) and tests/test_engine_equivalence.py (engine and
    # KV-manager state, fast against scalar).
    frozenset({"grow_batch", "grow_sequence"}),
    # The scheduler's active rows: advanced in place by the batch, re-derived
    # from the advanced sequences by the scalar walk (same equivalence tests).
    frozenset({"advance", "resync"}),
)

#: read-only queries: skipping one cannot make the paths' state diverge
#: (the scalar walk re-checks membership after the evictions its growth may
#: cause; a batch growth never evicts)
QUERY_CALLS = frozenset({"is_active"})


def _normalise(method: str) -> str:
    for group in EQUIVALENT_CALLS:
        if method in group:
            return "|".join(sorted(group))
    return method


def _module_imports(tree: ast.Module) -> set[str]:
    """Top-level names bound by imports (module aliases to skip as receivers)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _self_stores(func: ast.FunctionDef) -> set[str]:
    """Dotted ``self.*`` paths assigned or augmented anywhere in ``func``."""
    stores: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            path = dotted_name(target)
            if path and path.startswith("self."):
                stores.add(path)
    return stores


def _receiver_calls(func: ast.FunctionDef,
                    modules: set[str]) -> dict[str, set[str]]:
    """Map receiver name -> normalised methods called on it in ``func``."""
    calls: dict[str, set[str]] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        path = dotted_name(node.func)
        if path is None or "." not in path:
            continue
        root, _, rest = path.partition(".")
        if root in modules:
            continue
        parts = rest.split(".")
        if parts[-1] in QUERY_CALLS:
            continue
        method = ".".join(parts[:-1] + [_normalise(parts[-1])])
        calls.setdefault(root, set()).add(method)
    return calls


class EngineParityChecker:
    name = "parity"

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            modules = _module_imports(module.tree)
            for class_def in iter_class_defs(module):
                methods = {
                    stmt.name: stmt
                    for stmt in class_def.body
                    if isinstance(stmt, ast.FunctionDef)
                }
                fast = methods.get(FAST_NAME)
                scalar = methods.get(SCALAR_NAME)
                if fast is None or scalar is None:
                    continue
                findings.extend(self._compare(
                    module, class_def, fast, scalar, modules
                ))
        return findings

    def _compare(self, module: ParsedModule, class_def: ast.ClassDef,
                 fast: ast.FunctionDef, scalar: ast.FunctionDef,
                 modules: set[str]) -> list[Finding]:
        findings: list[Finding] = []

        fast_stores = _self_stores(fast)
        scalar_stores = _self_stores(scalar)
        for path in sorted(fast_stores - scalar_stores):
            findings.append(module.finding(
                "PAR001", fast,
                f"{class_def.name}.{FAST_NAME} writes {path} but "
                f"{SCALAR_NAME} never does; the paths cannot stay "
                "bitwise-equal",
                symbol=f"{class_def.name}.{path}",
            ))
        for path in sorted(scalar_stores - fast_stores):
            findings.append(module.finding(
                "PAR001", scalar,
                f"{class_def.name}.{SCALAR_NAME} writes {path} but "
                f"{FAST_NAME} never does; the paths cannot stay "
                "bitwise-equal",
                symbol=f"{class_def.name}.{path}",
            ))

        fast_calls = _receiver_calls(fast, modules)
        scalar_calls = _receiver_calls(scalar, modules)
        for receiver in sorted(set(fast_calls) & set(scalar_calls)):
            only_fast = fast_calls[receiver] - scalar_calls[receiver]
            only_scalar = scalar_calls[receiver] - fast_calls[receiver]
            for method in sorted(only_fast):
                findings.append(module.finding(
                    "PAR002", fast,
                    f"{class_def.name}.{FAST_NAME} calls "
                    f"{receiver}.{method}() but {SCALAR_NAME} never does — "
                    "a side effect one path skips (declare the pair in "
                    "EQUIVALENT_CALLS if the scalar spelling differs)",
                    symbol=f"{class_def.name}.{receiver}.{method}",
                ))
            for method in sorted(only_scalar):
                findings.append(module.finding(
                    "PAR002", scalar,
                    f"{class_def.name}.{SCALAR_NAME} calls "
                    f"{receiver}.{method}() but {FAST_NAME} never does — "
                    "a side effect one path skips (declare the pair in "
                    "EQUIVALENT_CALLS if the scalar spelling differs)",
                    symbol=f"{class_def.name}.{receiver}.{method}",
                ))
        return findings
