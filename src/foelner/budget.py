"""The admission policy: one time bound and one memory bound for every run.

Each entry point counts its run's units in closed form from its inputs and checks them before it
builds any ball.  A run is phases in order (a ball, its table, a search on them): its time is their
sum, its peak the largest peak of a phase on top of what the phases before it hold.
"""

from .errors import SearchSpaceTooLarge

TIME_BOUND_S = 10.0
MEMORY_BOUND_MB = 128.0
BASE_MB = 40.0  # the largest peak of any command's smallest run: interpreter, numpy, the package

UNITS = {  # unit: (seconds, bytes at its peak, bytes it leaves held)
    "rows": (200e-9, 60, 0),  # group elements a ball or a frame's rows hold
    "integers": (90e-9, 40, 8),  # 8-byte words: Z^d exponents, or F_n letters 8 to a word, of rows; table entries
    "products": (380e-9, 8, 8),  # products of a table of translates, each with its lookup
    "masks": (2.1e-9, 0, 0),  # subset-mask visits of the exhaustive pass and of a ball family
    "toggles": (40e-9, 0, 0),  # table rows a local search's toggles visit, 150 an iteration, its Word products' units
    "moves": (12e-6, 560, 300),  # search-history moves, named and held for the report
    "words": (300e-9, 8, 8),  # integers or letters of Word objects, and 32 for each word
    "radii": (14e-6, 760, 760),  # radii of a ball family
    "digits": (15e-6, 270, 270),  # each 150 decimal digits of its largest closed form, at every radius
    "calls": (10e-6, 0, 0),  # numpy-call overheads: a Gram-Schmidt column, a compression in the annealer's objective
    "madds": (0.06e-9, 0, 0),  # complex multiply-adds of matrix products; Gram-Schmidt's count 25, an SVD's k^3 80
    "tiles": (1.4e-9, 0, 0),  # entries of the tiles of direct routes, and their overhead (see direct_route_units)
    "amplitudes": (2e-9, 16, 0),  # complex amplitudes of frame draws, coefficients and direct routes
    "points": (1.3e-6, 330, 330),  # points of a formula sweep, of a search history or of its records
    "frames": (1e-3, 3000, 3000),  # frames drawn, or built and certified, with the report each holds
}
MAX_ROWS = int(MEMORY_BOUND_MB * 2**20) // UNITS["rows"][1] + 1  # a ball of more rows passes the memory bound


def check(what: str, *phases: dict, **units: int) -> tuple[float, float]:
    """The (seconds, megabytes) predicted for `what`, run as `phases` then `units`; refused past a bound."""
    seconds = held = peak = 0.0
    for phase in (*phases, units):
        prices = [(UNITS[u], min(n, 1e30)) for u, n in phase.items()]  # 1e30 passes either bound, as a float
        seconds += sum(s * n for (s, _, _), n in prices)
        peak = max(peak, held + sum(b * n for (_, b, _), n in prices))
        held += sum(h * n for (_, _, h), n in prices)
    megabytes = BASE_MB + peak / 2**20
    if seconds > TIME_BOUND_S or megabytes > MEMORY_BOUND_MB:
        raise SearchSpaceTooLarge(f"{what} is predicted to take {seconds:.4g} s and to peak at {megabytes:.4g} MB, "
                                  f"past the bounds of {TIME_BOUND_S:g} s and {MEMORY_BOUND_MB:g} MB")
    return seconds, megabytes
