"""References that the tests compare chestkit against and that chestkit
itself does not run: ops no network calls, and readers of files that no
command reads back.

Each is built on chestkit's public seams, ``tensor.apply_op`` and
``kvtext``, so a test that uses one checks chestkit's code, not a copy of
it.  ``mul`` seeds a non-uniform upstream gradient as
``sum_all(mul(out, g))``; ``upsample2x`` makes the nearest-neighbour
upsample that ``conv2d(..., upsample=True)`` convolves without making it;
the two readers parse what ``history_to_text`` and ``metrics_to_text``
write.
"""

from chestkit import kvtext
from chestkit.metrics import SCORES, MetricsReport
from chestkit.tensor import ShapeError, apply_op
from chestkit.training import EpochRecord


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data
    return apply_op(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def upsample2x(x):
    """Nearest-neighbour 2x upsample of a [B, C, H, W] batch: each pixel
    becomes a 2x2 block, and backward sums each 2x2 block of the gradient."""
    if x.ndim != 4:
        raise ShapeError(f"upsample2x expects [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    return apply_op(x.data.repeat(2, axis=2).repeat(2, axis=3), (x,),
                    lambda g: (g.reshape(b, c, h, 2, w, 2).sum(axis=(3, 5)),))


def _optional_float(text):
    return None if text == "-" else float(text)


HISTORY_SCHEMA = {"epoch": int, "lr": float, "loss": float, "metric": float,
                  "grad_norm": _optional_float, "clamped": _optional_float}


def history_from_text(text):
    """The records of a ``history.txt``; raises ``kvtext.TextFormatError``
    on a malformed line."""
    return [EpochRecord(**kvtext.parse(kvtext.from_text(line), HISTORY_SCHEMA))
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def metrics_from_text(text):
    """The report of a ``metrics.txt``; raises ``kvtext.TextFormatError`` on
    malformed text or an unknown key."""
    fields = kvtext.from_text(text)
    schema = {**dict.fromkeys(SCORES, float), "degenerate": kvtext.flag}
    unknown = [key for key in fields if key not in schema]
    if unknown:
        raise kvtext.TextFormatError(f"unknown metric {unknown[0]!r}")
    return MetricsReport(**kvtext.parse(fields, {key: schema[key] for key in fields}))
