"""OpenMetrics-style text exposition of MetricsRegistry snapshots.

Renders the ``{name: float}`` dict
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` produces as the text
format scrapers and humans both read: ``# TYPE`` headers (every metric is
a gauge), one sample per line, label sets in ``{key="value"}`` form,
``# EOF`` terminator.

:func:`render_openmetrics_many` merges several labeled snapshots (e.g.
one per cluster shard) into one exposition with a single ``# TYPE``
header per metric family, which is what ``repro top --metrics-out``
writes.
"""

from __future__ import annotations

import re

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Registry names (dotted) to exposition names (underscored)."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_set(labels: dict[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    return repr(float(value))


def render_openmetrics_many(
    entries: list[tuple[dict[str, str] | None, dict]],
    prefix: str = "repro_",
) -> str:
    """Render labeled snapshots as one OpenMetrics text exposition.

    ``entries`` is a list of ``(labels, snapshot)`` pairs; samples for
    the same metric from different label sets share one ``# TYPE``
    header, in sorted metric order and entry order within a metric.
    """
    families: dict[str, list[tuple[dict[str, str] | None, float]]] = {}
    for labels, snapshot in entries:
        for name in sorted(snapshot):
            families.setdefault(name, []).append((labels, snapshot[name]))
    lines: list[str] = []
    for name in sorted(families):
        metric = prefix + sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in families[name]:
            lines.append(f"{metric}{_label_set(labels)} {_format_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics(
    snapshot: dict, labels: dict[str, str] | None = None,
    prefix: str = "repro_",
) -> str:
    """Render one registry snapshot as OpenMetrics text."""
    return render_openmetrics_many([(labels, snapshot)], prefix=prefix)
