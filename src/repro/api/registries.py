"""One-stop access to every pluggable component registry.

Each registry lives next to the components it serves; this module re-exports
them so plugin authors and spec writers have a single import point::

    from repro.api.registries import CONTROLLERS, DATASETS

    @CONTROLLERS.register("my_controller")
    def build_my_controller(search_space, config):
        ...

:func:`available_components` summarises every registry for CLI / debugging
output (``python -m repro components``).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.controller import CONTROLLERS
from ..core.execution import EXECUTORS
from ..core.proxy import PROXY_BUILDERS
from ..core.results import SELECTION_STRATEGIES
from ..core.reward import REWARDS
from ..data.registry import DATASETS
from ..registry import Registry
from ..zoo.architectures import ARCHITECTURE_REGISTRY

ARCHITECTURES = ARCHITECTURE_REGISTRY

_CORE_REGISTRIES: Dict[str, Registry] = {
    "datasets": DATASETS,
    "architectures": ARCHITECTURES,
    "controllers": CONTROLLERS,
    "proxy_builders": PROXY_BUILDERS,
    "rewards": REWARDS,
    "selection_strategies": SELECTION_STRATEGIES,
    "executors": EXECUTORS,
}


def __getattr__(name: str):
    # ``EXPERIMENTS`` (and the ``ALL_REGISTRIES`` view including it) are
    # resolved lazily so that ``import repro`` does not drag in the whole
    # experiment harness (nine fig*/table1 modules) for library users.
    if name == "EXPERIMENTS":
        from ..experiments.runner import EXPERIMENTS

        return EXPERIMENTS
    if name == "ALL_REGISTRIES":
        return dict(_CORE_REGISTRIES, experiments=__getattr__("EXPERIMENTS"))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def available_components() -> Dict[str, List[str]]:
    """Registered names per component family (aliases excluded)."""
    return {family: registry.names() for family, registry in __getattr__("ALL_REGISTRIES").items()}


__all__ = [
    "DATASETS",
    "ARCHITECTURES",
    "ARCHITECTURE_REGISTRY",
    "CONTROLLERS",
    "EXECUTORS",
    "PROXY_BUILDERS",
    "REWARDS",
    "SELECTION_STRATEGIES",
    "EXPERIMENTS",
    "ALL_REGISTRIES",
    "available_components",
]
