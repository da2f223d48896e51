"""Scenario registry: every reproducible artifact under one namespace.

Mirrors :mod:`repro.workloads.registry`: experiment modules register their
scenarios at import time, and the CLI (``repro scenarios``, ``repro run
figure6 --jobs 4``) and :func:`~repro.engine.runner.run_scenario` resolve
a scenario by its one canonical name.  Adding a new scenario is one
:func:`register_scenario` call; the sweep runner, parallelism, and caching
come for free.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, Tuple

from ..core.errors import ConfigurationError, ReproError
from .scenario import Scenario

_SCENARIOS: Dict[str, Scenario] = {}


class UnknownTagError(ReproError, KeyError):
    """Lookup of a tag no registered scenario carries.

    Carries close-match ``suggestions`` so the CLI can say "did you
    mean ...?" for misspelt tags (``repro scenarios --tag abblation``).
    """

    def __init__(self, tag: str, suggestions: Tuple[str, ...]) -> None:
        message = f"unknown tag {tag!r}"
        if suggestions:
            quoted = ", ".join(repr(s) for s in suggestions)
            message += f"; did you mean {quoted}?"
        known = ", ".join(known_tags())
        message += f" (known tags: {known})"
        super(KeyError, self).__init__(message)
        self.tag = tag
        self.suggestions = suggestions

    def __str__(self) -> str:
        return self.args[0]


class UnknownScenarioError(ReproError, KeyError):
    """Lookup of a name that is not in the scenario registry.

    Subclasses :class:`KeyError` so pre-existing ``except KeyError``
    callers keep working; carries close-match ``suggestions`` so the CLI
    can say "did you mean ...?" instead of dumping a traceback.
    """

    def __init__(self, name: str, suggestions: Tuple[str, ...]) -> None:
        message = f"unknown scenario {name!r}"
        if suggestions:
            quoted = ", ".join(repr(s) for s in suggestions)
            message += f"; did you mean {quoted}?"
        message += " (see: repro scenarios)"
        # KeyError renders its first arg with repr(); going through the
        # ReproError path keeps the readable message.
        super(KeyError, self).__init__(message)
        self.name = name
        self.suggestions = suggestions

    def __str__(self) -> str:
        return self.args[0]


def register_scenario(scenario: Scenario) -> Scenario:
    """Add *scenario* to the registry (idempotent per name).

    Returns the scenario so modules can register and keep a reference in
    one expression.  ``<name>-live`` is reserved for the ``live``-tagged
    cluster twin of an already registered ``<name>`` of the same kind:
    the suffix is how a reader (and ``repro scenarios --tag live``) finds
    the live cells that validate a simulator scenario.
    """
    base, _, suffix = scenario.name.rpartition("-")
    if suffix == "live" and not (
        base in _SCENARIOS and "live" in scenario.tags
        and scenario.kind == _SCENARIOS[base].kind
    ):
        raise ConfigurationError(
            f"{scenario.name!r} must be the 'live'-tagged twin of a "
            f"registered {base!r} of the same kind"
        )
    _SCENARIOS[scenario.name] = scenario
    return scenario


def _ensure_loaded() -> None:
    """Import the experiment modules so their registrations run."""
    from .. import experiments  # noqa: F401 — import for side effects


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by its canonical name.

    Raises :class:`UnknownScenarioError` (a ``KeyError``) carrying
    close-match canonical names for misspelt ones.
    """
    _ensure_loaded()
    try:
        return _SCENARIOS[name]
    except KeyError:
        suggestions = tuple(
            difflib.get_close_matches(name, sorted(_SCENARIOS), n=3,
                                      cutoff=0.5)
        )
        raise UnknownScenarioError(name, suggestions) from None


def scenario_names() -> List[str]:
    """Sorted canonical names of every registered scenario."""
    _ensure_loaded()
    return sorted(_SCENARIOS)


def known_tags() -> List[str]:
    """Sorted union of every registered scenario's tags (kinds included)."""
    _ensure_loaded()
    tags = set()
    for scenario in _SCENARIOS.values():
        tags.update(scenario.all_tags)
    return sorted(tags)


def scenario_names_with_tag(tag: str) -> List[str]:
    """Names of the scenarios carrying *tag* (kind or explicit tag).

    Raises :class:`UnknownTagError` — with did-you-mean suggestions —
    when no scenario carries the tag.
    """
    _ensure_loaded()
    key = tag.strip().lower()
    names = sorted(
        name for name, scenario in _SCENARIOS.items()
        if key in scenario.all_tags
    )
    if not names:
        suggestions = tuple(
            difflib.get_close_matches(key, known_tags(), n=3, cutoff=0.5)
        )
        raise UnknownTagError(tag, suggestions)
    return names


def all_scenarios() -> Dict[str, Scenario]:
    """Every registered scenario keyed by canonical name (a copy)."""
    _ensure_loaded()
    return dict(_SCENARIOS)
