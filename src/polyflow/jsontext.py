"""JSON text in the layout of ``json.dumps(..., indent=2)``, without json's pure-Python encoder."""


def json_list(items, depth: int) -> str:
    """Encoded items as a list at nesting ``depth``, in the ``indent=2`` layout."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"
