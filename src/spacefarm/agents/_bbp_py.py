"""Hex digits of pi at arbitrary positions, pure-Python kernel.

Digit extraction from the series
pi = sum_k 16^-k (4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)):
to read `count` digits after position d, the sum
sum_k 16^(d-k) (4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)) is evaluated
mod 1 in one pass, in fixed point of 4*count + 64 bits. Head term k (k <= d)
needs r_k = 16^(d-k) mod q_k, where q_k is the product of its four moduli,
and reduces r_k mod each one before its division, so every intermediate
stays bounded; the weights 4 and 2 are shifts. The modular powers are the
kernel's cost, so terms k, k+1 and k+2 share one:
R = 16^(d-k-2) mod q_k q_{k+1} q_{k+2}, and r_k = 16^2 R mod q_k,
r_{k+1} = 16 R mod q_{k+1}, r_{k+2} = R mod q_{k+2}. These are the same
residues that one power per term gives, so the digits do not depend on the
grouping. The last (d+1) mod 3 head terms take one power each. The tail
terms shrink by 16x each and stop once the largest is 0. Each of the four
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
    grouped = (d + 1) // 3 * 3
    # Terms k, k+1, k+2: the moduli a1 = 8k+1, b1 = a1+8 and c1 = a1+16, each
    # with its +3..+5, and e = d-k-2, the group's smallest exponent. Written
    # out by hand: a loop over the three terms was measurably slower.
    for e, a1 in zip(range(d - 2, -1, -3), range(1, 8 * grouped, 24)):
        a4, a5, a6 = a1 + 3, a1 + 4, a1 + 5
        b1, b4, b5, b6 = a1 + 8, a1 + 11, a1 + 12, a1 + 13
        c1, c4, c5, c6 = a1 + 16, a1 + 19, a1 + 20, a1 + 21
        qa, qb, qc = a1 * a4 * a5 * a6, b1 * b4 * b5 * b6, c1 * c4 * c5 * c6
        r = pow(16, e, qa * qb * qc)
        ra, rb, rc = (r << 8) % qa, (r << 4) % qb, r % qc
        acc += (
            ((ra % a1) << bits + 2) // a1
            - ((ra % a4) << bits + 1) // a4
            - ((ra % a5) << bits) // a5
            - ((ra % a6) << bits) // a6
            + ((rb % b1) << bits + 2) // b1
            - ((rb % b4) << bits + 1) // b4
            - ((rb % b5) << bits) // b5
            - ((rb % b6) << bits) // b6
            + ((rc % c1) << bits + 2) // c1
            - ((rc % c4) << bits + 1) // c4
            - ((rc % c5) << bits) // c5
            - ((rc % c6) << bits) // c6
        )
    for k in range(grouped, d + 1):
        m1 = 8 * k + 1
        m4, m5, m6 = m1 + 3, m1 + 4, m1 + 5
        r = pow(16, d - k, m1 * m4 * m5 * m6)
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
