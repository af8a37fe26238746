"""RL5 — registry consistency, and the shared registry-introspection layer.

Both ``python -m repro components`` and ``repro lint`` need the same walk
over every component registry (names, aliases, resolvability), so it lives
here once:

* :func:`registry_families` / :func:`registry_summary` back the CLI listing;
* :func:`audit_registries` checks the registries themselves (alias targets
  resolvable, names non-empty and unique case-insensitively — two entries
  differing only in case are a spec-file typo factory);
* :func:`spec_component_references` extracts every registry-resolved name a
  :class:`~repro.api.RunSpec` carries (dataset, architectures, controller,
  proxy builder, reward, selection strategy, executor) and resolves each,
  attaching a did-you-mean hint on failure;
* :func:`audit_spec_file` applies that to an ``examples/specs/*.json`` file,
  reporting parse failures and unresolvable names with line anchors into
  the JSON text.

The RL5 rule class at the bottom is a thin adapter from these audits to
lint :class:`~repro.analysis.core.Finding`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..registry import Registry
from .core import LINT_RULES, Finding, Project, ProjectRule

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Registry walking (shared with ``python -m repro components``)
# ----------------------------------------------------------------------
def registry_families(include_experiments: bool = False) -> Dict[str, Registry]:
    """Every component-registry family, keyed by its CLI/plugin name.

    ``include_experiments`` pulls in the experiment harness registry, which
    imports all nine fig*/table1 modules — the CLI listing wants it, the
    linter does not need the weight.
    """
    from ..api import registries as api_registries

    families: Dict[str, Registry] = dict(api_registries._CORE_REGISTRIES)
    if include_experiments:
        families["experiments"] = api_registries.EXPERIMENTS
    return families


def registry_summary(include_experiments: bool = True) -> Dict[str, Dict[str, List[str]]]:
    """``family -> {name -> sorted aliases}`` in registration order."""
    summary: Dict[str, Dict[str, List[str]]] = {}
    for family, registry in registry_families(include_experiments).items():
        aliases: Dict[str, List[str]] = {}
        for alias, target in registry.aliases().items():
            aliases.setdefault(target, []).append(alias)
        summary[family] = {
            name: sorted(aliases.get(name, [])) for name in registry.names()
        }
    return summary


def unknown_component_hint(registry: Registry, name: str) -> str:
    """A did-you-mean sentence for an unresolvable component name."""
    suggestions = registry.suggest(str(name))
    if suggestions:
        quoted = ", ".join(f"'{s}'" for s in suggestions)
        return f"did you mean {quoted}? available: {registry.names()}"
    return f"available {registry.kind}s: {registry.names()}"


@dataclass
class AuditIssue:
    """One registry/spec consistency problem (pre-lint representation)."""

    message: str
    hint: str = ""
    #: a string to locate the issue in a spec file (line-anchor needle)
    needle: Optional[str] = None


def audit_registries(include_experiments: bool = False) -> List[AuditIssue]:
    """Consistency problems inside the registries themselves."""
    issues: List[AuditIssue] = []
    for family, registry in registry_families(include_experiments).items():
        seen_lower: Dict[str, str] = {}
        for name in registry.names() + list(registry.aliases()):
            if not str(name).strip():
                issues.append(
                    AuditIssue(
                        message=f"{family} registry contains an empty/blank name",
                        hint="register components under non-empty stable names",
                    )
                )
                continue
            lowered = str(name).lower()
            if lowered in seen_lower and seen_lower[lowered] != name:
                issues.append(
                    AuditIssue(
                        message=(
                            f"{family} names '{seen_lower[lowered]}' and '{name}' "
                            "differ only in case"
                        ),
                        hint="case-twin names are a spec-file typo factory; rename "
                        "or alias one onto the other",
                    )
                )
            seen_lower.setdefault(lowered, str(name))
        for alias, target in registry.aliases().items():
            if target not in registry:
                issues.append(
                    AuditIssue(
                        message=f"{family} alias '{alias}' points at unregistered "
                        f"'{target}'",
                        hint="aliases must resolve to a registered canonical name",
                    )
                )
                continue
            try:
                registry.get(alias)
            except Exception as exc:
                issues.append(
                    AuditIssue(
                        message=f"{family} alias '{alias}' fails to resolve: {exc}",
                        hint="aliases must resolve to a registered canonical name",
                    )
                )
    return issues


# ----------------------------------------------------------------------
# Spec-file auditing
# ----------------------------------------------------------------------
@dataclass
class ComponentRef:
    """One registry-resolved name carried by a RunSpec."""

    family: str
    spec_path: str  #: dotted spec location, e.g. ``search.controller``
    name: str
    ok: bool
    hint: str = ""


def spec_component_references(spec) -> List[ComponentRef]:
    """Resolve every component name a :class:`~repro.api.RunSpec` carries."""
    families = registry_families()

    def check(family: str, spec_path: str, name: Optional[str], extra_ok: Sequence[str] = ()) -> Optional[ComponentRef]:
        if name is None:
            return None
        registry = families[family]
        if str(name) in registry or str(name) in extra_ok:
            return ComponentRef(family, spec_path, str(name), ok=True)
        return ComponentRef(
            family, spec_path, str(name), ok=False,
            hint=unknown_component_hint(registry, str(name)),
        )

    refs: List[ComponentRef] = []
    refs.append(check("datasets", "dataset.name", spec.dataset.name))
    for index, arch in enumerate(spec.pool.architectures or ()):
        refs.append(check("architectures", f"pool.architectures[{index}]", arch))
    refs.append(check("architectures", "search.base_model", spec.search.base_model))
    refs.append(check("controllers", "search.controller", spec.search.controller))
    refs.append(check("proxy_builders", "search.proxy", spec.search.proxy))
    refs.append(check("rewards", "search.reward", spec.search.reward))
    # finalize.selection may be a registered strategy OR a searched attribute
    refs.append(
        check(
            "selection_strategies",
            "finalize.selection",
            spec.finalize.selection,
            extra_ok=tuple(spec.search.attributes),
        )
    )
    refs.append(
        check("architectures", "finalize.reference_model", spec.finalize.reference_model)
    )
    refs.append(check("executors", "execution.executor", spec.execution.executor))
    return [ref for ref in refs if ref is not None]


def audit_spec_file(path: PathLike) -> List[AuditIssue]:
    """Parse one spec JSON into a RunSpec and resolve every component name."""
    from ..api.spec import RunSpec, SpecError

    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        return [AuditIssue(message=f"cannot read spec: {exc}")]
    try:
        spec = RunSpec.from_json(text)
    except SpecError as exc:
        return [
            AuditIssue(
                message=f"spec does not parse into a RunSpec: {exc}",
                hint="every examples/specs/*.json must stay loadable by "
                "`python -m repro run`",
            )
        ]
    issues: List[AuditIssue] = []
    for ref in spec_component_references(spec):
        if ref.ok:
            continue
        issues.append(
            AuditIssue(
                message=(
                    f"{ref.spec_path} names unknown "
                    f"{ref.family.rstrip('s').replace('_', ' ')} '{ref.name}'"
                ),
                hint=ref.hint,
                needle=f'"{ref.name}"',
            )
        )
    return issues


def _needle_line(text: str, needle: Optional[str]) -> int:
    if needle:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if needle in line:
                return lineno
    return 1


# ----------------------------------------------------------------------
# The lint rule
# ----------------------------------------------------------------------
@LINT_RULES.register("RL5")
class RegistryConsistencyRule(ProjectRule):
    """Registries self-consistent; every example spec resolvable."""

    code = "RL5"
    name = "registry-consistency"
    description = (
        "every registered component name unique and resolvable; every "
        "examples/specs/*.json parses into a RunSpec naming only existing "
        "registry entries"
    )

    REGISTRIES_REL = "src/repro/api/registries.py"

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        try:
            registry_issues = audit_registries()
        except Exception as exc:
            return [
                Finding(
                    path=self.REGISTRIES_REL, line=1, col=1, code=self.code,
                    message=f"cannot import the component registries: "
                    f"{type(exc).__name__}: {exc}",
                    hint="fix the import error; RL5 cannot run without the registries",
                )
            ]
        for issue in registry_issues:
            findings.append(
                Finding(
                    path=self.REGISTRIES_REL, line=1, col=1, code=self.code,
                    message=issue.message, hint=issue.hint,
                )
            )
        for spec_path in project.spec_paths:
            try:
                text = Path(spec_path).read_text()
            except OSError:
                text = ""
            for issue in audit_spec_file(spec_path):
                findings.append(
                    Finding(
                        path=project.rel(spec_path),
                        line=_needle_line(text, issue.needle),
                        col=1,
                        code=self.code,
                        message=issue.message,
                        hint=issue.hint,
                    )
                )
        return findings
