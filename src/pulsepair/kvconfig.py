"""Plain `key = value` text files for configs, manifests, and reports.

One setting per line, `#` comments, blank lines ignored.  Serialization is
sorted by key and newline-terminated so identical settings produce identical
bytes (manifest hashes depend on this).
"""

from __future__ import annotations

from .errors import ValidationError


def parse_kv(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into an ordered dict of strings."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(
                f"{source}: line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"{source}: line {line_no}: empty key")
        if key in out:
            raise ValidationError(
                f"{source}: line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def read_kv_file(path) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text: {exc.reason}") from None
    return parse_kv(text, source=str(path))


def format_kv(mapping: dict) -> str:
    lines = []
    for key in sorted(mapping):
        value = mapping[key]
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_kv_file(path, mapping: dict) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(format_kv(mapping))

