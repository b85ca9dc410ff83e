"""Small readers the tests use to inspect library output."""

from pathlib import Path

from ipsmf.data import RatingDataset


def observed_pairs(data: RatingDataset) -> set[tuple[int, int]]:
    """Set of observed (user, item) pairs; its size equals the triple count."""
    return set(zip(data.users.tolist(), data.items.tolist()))


def read_manifest(path: str | Path) -> dict[str, str]:
    """Parse a key=value manifest as written by ``data.write_manifest``."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                entries[key] = value
    return entries
