"""Reference-only code kept for the tests: it has no caller in the package."""

from germclass.docparse import MapSpecDoc
from germclass.jets import poly_str


def format_doc(doc: MapSpecDoc) -> str:
    """Canonical text for a document; parse(format(doc)) round-trips."""
    lines = ["[%s]" % doc.kind, "order = %d" % doc.order]
    for key in sorted(doc.jets):
        lines.append("%s = %s" % (key, poly_str(doc.jets[key])))
    for g in sorted(doc.coeffs):
        for (i, j), c in sorted(doc.coeffs[g].items()):
            lines.append("%s%d%d = %s" % (g, i, j, c))
    if doc.kind == "folded" and doc.theta is not None:
        if isinstance(doc.theta, tuple):
            lines.append("theta_cos = %s" % doc.theta[0])
            lines.append("theta_sin = %s" % doc.theta[1])
        else:
            lines.append("theta = %.17g" % doc.theta)
    return "\n".join(lines) + "\n"
