"""PD codes shared across the test suite."""

TREFOIL = "PD[X(1,5,2,4), X(3,1,4,6), X(5,3,6,2)]"
MIRROR_TREFOIL = "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]"
CURL = "PD[X(1,1,2,2)]"
HOPF = "PD[X(1,3,2,4), X(3,1,4,2)]"
FIG8 = "PD[X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)]"
CINQUEFOIL = "PD[X(2,8,3,7), X(4,10,5,9), X(6,2,7,1), X(8,4,9,3), X(10,6,1,5)]"
UNKNOT = "PD[O]"
UNLINK2 = "PD[O,O]"
EMPTY = "PD[]"
# 3-crossing unknot with a movable triangle: strand t passes over both of
# its crossings, strand b under both, so the triangle slides across the
# middle crossing
R3_UNKNOT = "PD[X(5,3,1,4), X(2,3,5,6), X(1,2,6,4)]"


def torus_pd(n: int, mirror: bool = False) -> str:
    """T(2,n) for odd n > 0 by the formula in ROADMAP.md: X(w(2i), w(2i+n+1),
    w(2i+1), w(2i+n)) for i = 1..n, with w(x) = (x-1) mod 2n + 1. The mirror
    reverses the cyclic order of every crossing."""
    w = lambda x: (x - 1) % (2 * n) + 1  # noqa: E731
    xs = [(w(2 * i), w(2 * i + n + 1), w(2 * i + 1), w(2 * i + n)) for i in range(1, n + 1)]
    if mirror:
        xs = [(a, d, c, b) for a, b, c, d in xs]
    return "PD[" + ", ".join("X(%d,%d,%d,%d)" % x for x in xs) + "]"
