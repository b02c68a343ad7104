"""Hypothesis strategies that damage a valid input file a little.

A mutated file keeps most of its valid structure, so it reaches the
readers' later checks (duplicates, holes, forbidden values) as well as
their token parsing.
"""

from __future__ import annotations

from hypothesis import strategies as st

# What a splice inserts: the characters and tokens a canonical grid file
# is made of, tokens that numpy and Python's int/float may read
# differently, and bytes that are not UTF-8.
FRAGMENTS = [
    *(c.encode() for c in "0123456789,.-+eENanifIty\n"),
    b"nan", b"inf", b"Infinity", b"-0", b"5.0", b"1e500", b"9" * 20, b"00",
    b" ", b"\t", b"\r", b"\r\n", b"_", b"#", b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"x",
    "٣".encode(), " ".encode(), b"\xff", b"\xc3",
]


@st.composite
def mutated(draw, text: str) -> bytes:
    """``text`` encoded, after one to three splices or line copies."""
    data = text.encode()
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # replace up to three bytes with a fragment, or delete them
            start = draw(st.integers(0, len(data)))
            stop = draw(st.integers(start, min(start + 3, len(data))))
            new = draw(st.sampled_from([b"", *FRAGMENTS]))
            data = data[:start] + new + data[stop:]
        else:
            # copy, move or drop one line, which makes duplicates and holes
            lines = data.split(b"\n")
            line = lines.pop(draw(st.integers(0, len(lines) - 1)))
            if draw(st.booleans()):
                lines.insert(draw(st.integers(0, len(lines))), line)
            if draw(st.booleans()):
                lines.insert(draw(st.integers(0, len(lines))), line)
            data = b"\n".join(lines)
    return data
