"""Hex digits of pi at arbitrary positions, pure-Python kernel.

Digit extraction from the series
pi = sum_k 16^-k (4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)):
to read `count` digits after position d, the sum
sum_k 16^(d-k) (4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)) is evaluated
mod 1 in one pass, in fixed point of 4*count + 64 bits. Each head term
(k <= d) takes one modular power, 16^(d-k) mod the product of its four
moduli, and reduces it mod each one before its division, so every
intermediate stays bounded; the weights 4 and 2 are shifts. The tail terms
shrink by 16x each and stop once the largest is 0. Each of the four
divisions per term truncates by under one unit of the last bit, so the
error is below 4*(d + count + 20) such units, against the 2^64 units that
one step of the last digit spans.
"""

from __future__ import annotations

BACKEND = "pure"


def hex_digits(start: int, count: int) -> str:
    """Hex digits of pi's fractional part at positions start..start+count-1.

    Position 1 is the first digit after the point: hex_digits(1, 3) == "243".
    """
    if start < 1 or count < 1:
        raise ValueError("start and count must be positive")
    d = start - 1
    bits = 4 * count + 64
    acc = 0
    # Term k has the exponent d - k and the moduli m1 = 8k+1 and m1+3..m1+5.
    for e, m1 in zip(range(d, -1, -1), range(1, 8 * d + 2, 8)):
        m4, m5, m6 = m1 + 3, m1 + 4, m1 + 5
        r = pow(16, e, m1 * m4 * m5 * m6)
        acc += (
            ((r % m1) << bits + 2) // m1
            - ((r % m4) << bits + 1) // m4
            - ((r % m5) << bits) // m5
            - ((r % m6) << bits) // m6
        )
    m1 = 8 * d + 1
    shift = bits + 2
    while True:
        m1 += 8
        shift -= 4
        lead = (1 << shift) // m1
        if lead == 0:
            break
        acc += (
            lead
            - (1 << shift - 1) // (m1 + 3)
            - (1 << shift - 2) // (m1 + 4)
            - (1 << shift - 2) // (m1 + 5)
        )
    x = acc & ((1 << bits) - 1)
    return f"{x >> 64:0{count}X}"
