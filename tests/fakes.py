"""Test doubles shared by several test modules.

Kept out of ``conftest.py``: ``perfbench/tests`` has a ``conftest.py`` too,
and when both directories are collected in one run the module name
``conftest`` refers to whichever was loaded last.
"""

from dataclasses import dataclass


@dataclass
class FakeExample:
    """Minimal record for model-level tests that bypass the generator."""

    field_values: tuple
    tag_set: tuple
    click_label: int = 0
    conversion_label: int = 0
    user_id: int = 0
