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

# an open movie that opens with an R2 removal: frame 0 has chains in degree
# -1 but no homology there, and the last frame has rank 2 in degree 0
REMOVAL_FIRST_MOVIE = {
    "initial": "PD[X(1,4,3,2), X(3,4,1,2)]",
    "moves": [{"type": "r2", "action": "remove", "edges": [3, 4]},
              {"type": "saddle", "edges": [1, 2], "side": "right"},
              {"type": "r2", "action": "add", "edges": [1, 1], "over": True},
              {"type": "saddle", "edges": [3, 1], "side": "left"}],
}


def slide_sweep():
    """Every R2 addition on the small corpus diagrams that apply_move
    accepts, then every crossing triple of the result that R3Move accepts,
    one movie per distinct JSON: 126 movies."""
    import itertools
    import json

    from kj.corpus import DIAGRAMS
    from kj.diagram import parse_pd
    from kj.errors import IllegalMoveError
    from kj.movie import Movie
    from kj.moves import R2Move, R3Move, apply_move

    movies = {}
    for name in ("unknot", "unlink2", "curl", "trefoil", "mirror-trefoil", "hopf",
                 "fig8", "r3-unknot"):
        d = parse_pd(DIAGRAMS[name])
        for edges in itertools.product(sorted(d.occurrences), repeat=2):
            for over in (False, True):
                r2 = R2Move("add", edges, over)
                try:
                    d2, _ = apply_move(d, r2)
                except IllegalMoveError:
                    continue
                for triple in itertools.combinations(range(d2.crossing_count), 3):
                    try:
                        apply_move(d2, R3Move(triple))
                    except IllegalMoveError:
                        continue
                    mv = Movie(d, [r2, R3Move(triple)])
                    movies.setdefault(json.dumps(mv.to_json()), mv)
    return list(movies.values())
