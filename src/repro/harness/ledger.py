"""The one ledger writer: numbered ``<STEM>_<n>.json`` files.

Every harness that persists a ledger (``BENCH``, ``CHAOS``, ``SERVICE``,
``SOAK_SERVICE``, ``SOAK``) writes it here, so successive runs into one
results directory take the next free index and never clobber each
other, while a pinned index (CI's ``bench --pr 8``, ``serve --index 1``)
names the file exactly.
"""

from __future__ import annotations

import re
from pathlib import Path


def next_ledger_path(out_dir: Path | str, stem: str) -> Path:
    """The ``<stem>_<n>.json`` path one past the highest index taken."""
    out_dir = Path(out_dir)
    numbered = re.compile(rf"{re.escape(stem)}_(\d+)\.json$")
    taken = [int(m.group(1)) for p in out_dir.glob(f"{stem}_*.json")
             if (m := numbered.match(p.name))]
    return out_dir / f"{stem}_{max(taken, default=-1) + 1}.json"


def write_ledger(out_dir: Path | str, stem: str, text: str,
                 index: int | None = None) -> Path:
    """Write ``text`` as ``<stem>_<index>.json`` (``None``: next free)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = (next_ledger_path(out_dir, stem) if index is None
            else out_dir / f"{stem}_{index}.json")
    path.write_text(text + "\n", encoding="utf-8")
    return path
