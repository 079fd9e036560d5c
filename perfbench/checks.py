"""Output checks: every build and run the benchmark drives is verified.

Expected values live in ``perfbench/expected/expected.json``, recorded
from the program by ``python3 perfbench/run.py --record-expected``.
A check returns ``None`` when the output is right and a one-line
reason when it is not; the workloads count a reason as a failed
operation.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Set

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected", "expected.json")

_MODELED = re.compile(r"hls \d+s syn \d+s p&r \d+s bit \d+s "
                      r"-> total \d+s")


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def modeled_line(stdout: str) -> Optional[str]:
    """The Tab. 2 modeled-seconds split ``pld compile`` prints."""
    match = _MODELED.search(stdout)
    return match.group(0) if match else None


def output_lines(stdout: str) -> List[str]:
    """The ``NAME: N tokens [...]`` lines ``pld run`` prints."""
    return [line for line in stdout.splitlines()
            if re.match(r"^\S+: \d+ tokens \[", line)]


def format_outputs(outputs: Dict[str, List[int]]) -> List[str]:
    """Render golden outputs exactly as ``pld run`` prints results."""
    lines = []
    for name, tokens in outputs.items():
        suffix = " ..." if len(tokens) > 8 else ""
        lines.append(f"{name}: {len(tokens)} tokens {tokens[:8]}{suffix}")
    return lines


def check_manifest(manifest: Any, expected: Dict[str, Any]) -> Optional[str]:
    """A build's manifest must equal the recorded one exactly."""
    if manifest != expected:
        if not isinstance(manifest, dict):
            return "manifest is not a JSON object"
        differing = sorted(
            key for key in set(manifest) | set(expected)
            if manifest.get(key) != expected.get(key))
        return f"manifest differs from expected in {differing}"
    return None


def check_compile(stdout: str, manifest: Any, expected_app: Dict[str, Any],
                  cold: bool) -> Optional[str]:
    """``pld compile --flow o1``: manifest plus modeled Tab. 2 seconds."""
    problem = check_manifest(manifest, expected_app["manifest"])
    if problem:
        return problem
    want = expected_app["cold_modeled" if cold else "warm_modeled"]
    got = modeled_line(stdout)
    if got != want:
        return f"modeled seconds {got!r} != expected {want!r}"
    return None


def check_run(stdout: str, expected_lines: List[str]) -> Optional[str]:
    """``pld run --flow o0``: token counts and printed previews."""
    got = output_lines(stdout)
    if got != expected_lines:
        return f"run outputs {got} != expected {expected_lines}"
    return None


def check_edit(summary: Dict[str, Any], manifest: Any,
               previous: Dict[str, Any], operator: str,
               edited: Optional[Set[str]] = None) -> Optional[str]:
    """A one-operator session edit rebuilds exactly that operator's page.

    The edit must report one page rebuilt and name ``operator``, and
    leave the page assignment alone.  Against ``previous`` — the
    session's manifest just before this edit — only the operator's
    ``hls:``/``impl:`` steps and its page's image may change.  When the
    order of a session's edits is not known (``serve_open`` submits
    them concurrently), pass the session's baseline as ``previous`` and
    every operator edited in the session as ``edited``: the changes
    must then include this operator's and lie within those operators'.
    """
    if summary.get("pages_rebuilt") != 1:
        return f"edit rebuilt {summary.get('pages_rebuilt')} pages, not 1"
    edit = summary.get("edit") or {}
    if edit.get("operator") != operator:
        return f"edit names {edit.get('operator')!r}, not {operator!r}"
    if not isinstance(manifest, dict):
        return "edit manifest is not a JSON object"
    pages = previous["pages"]
    if edit.get("pages_reloaded") != [pages.get(operator)]:
        return (f"edit reloaded pages {edit.get('pages_reloaded')}, "
                f"not [{pages.get(operator)}]")
    if manifest.get("pages") != pages \
            or manifest.get("flow") != previous["flow"] \
            or manifest.get("project") != previous["project"]:
        return "edit changed the page assignment or the project"
    allowed = set(edited or ()) | {operator}
    steps, before = manifest.get("steps", {}), previous["steps"]
    changed = {name for name in set(steps) | set(before)
               if steps.get(name) != before.get(name)}
    mine = {f"hls:{operator}", f"impl:{operator}"}
    within = {f"{kind}:{op}" for op in allowed for kind in ("hls", "impl")}
    if not mine <= changed or not changed <= within \
            or (edited is None and changed != mine):
        return f"edit changed steps {sorted(changed)}"
    images, old = manifest.get("images", {}), previous["images"]
    changed_images = {p for p in set(images) | set(old)
                      if images.get(p) != old.get(p)}
    page_images = {str(pages[op]) for op in allowed if op in pages}
    if str(pages[operator]) not in changed_images \
            or not changed_images <= page_images:
        return f"edit changed page images {sorted(changed_images)}"
    return None
