"""The sweep's trade-off plot: bytes pinned across code versions."""

import hashlib

from modbalance.svgplot import render_plot

XS = (0.1, 1.0, 10.0)
LEFT = ((2.0, 1.25, 0.5), (1.5, 1.0, 0.25), (2.5, 1.5, 0.75))
RIGHT = ((0.9, 0.6, 0.3), (0.85, 0.5, 0.2), (0.95, 0.7, 0.4))


def test_bytes_are_pinned():
    # digest of the same plot as rendered by the general plotting API this
    # module replaced (left_label/right_label set to the series labels,
    # logx=True); a changed byte in any sweep plot shows here
    svg = render_plot(XS, LEFT, RIGHT)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == (
        "de368edc8f29058ce2d6dbc83b87714459969ba8213baff0990beb591c68a0f6"
    )
