import itertools
import random

import pytest

from circnot import gf2
from circnot.errors import CircnotError, Inconsistent
from helpers import Underdetermined, brute_force_solutions, gf2_rank, reference_solve


def bits(*cols):
    mask = 0
    for c in cols:
        mask |= 1 << c
    return mask


def sparse(rows, n_vars):
    """``solve_tagged``'s (variables, rhs) rows of bitmask rows ``coeffs | rhs << n_vars``."""
    return [
        (tuple(v for v in range(n_vars) if row >> v & 1), row >> n_vars) for row in rows
    ]


# ``gf2_rank`` and ``brute_force_solutions`` are test references, written
# apart from the solver; these pin them down


def test_rank_simple():
    # x0+x1, x1+x2, x0+x2 : third row is the sum of the first two
    rows = [bits(0, 1), bits(1, 2), bits(0, 2)]
    assert gf2_rank(rows, 3) == 2


def test_rank_brute_force_agreement():
    # rank r <=> 2^(n-r) solutions of the homogeneous system
    rows = [bits(0, 1, 2), bits(2, 3), bits(0, 3)]
    n = 4
    solutions = 0
    for v in range(1 << n):
        if all(bin(v & r).count("1") % 2 == 0 for r in rows):
            solutions += 1
    assert solutions == 1 << (n - gf2_rank(rows, n))


def test_solve_tagged_unique():
    # x0 = in0, x1 = x0 (join), x2 = x0 + x1 + in1
    n = 3
    rows = [
        bits(0) | (0b10 << n),  # x0 pinned to rhs bit 1
        bits(0, 1),
        bits(0, 1, 2) | (0b100 << n),
    ]
    sol = gf2.solve_tagged(sparse(rows, n), n, 3)
    assert sol[0] == 0b10
    assert sol[1] == 0b10
    assert sol[2] == 0b100


def assert_internal_error(rows, n_vars, tag_width):
    # a system forward substitution cannot solve breaks an invariant of
    # the library, so it is not reported as an input error
    with pytest.raises(RuntimeError) as err:
        gf2.solve_tagged(sparse(rows, n_vars), n_vars, tag_width)
    assert not isinstance(err.value, CircnotError)


def test_solve_tagged_underdetermined():
    assert reference_solve([bits(0, 1)], 2) == (Underdetermined, [0])
    assert_internal_error([bits(0, 1)], 2, 1)


def test_solve_tagged_inconsistent():
    n = 1
    rows = [bits(0) | (1 << n), bits(0)]
    assert reference_solve(rows, n) == (Inconsistent, None)
    assert_internal_error(rows, n, 1)


def test_solution_space_enumeration():
    # x0 + x1 = 1 over 3 variables: 4 solutions
    n = 3
    rows = [bits(0, 1) | (1 << n)]
    sols = brute_force_solutions(rows, n)
    assert len(sols) == 4
    for s in sols:
        assert (s & 1) ^ (s >> 1 & 1) == 1


def test_solution_space_inconsistent():
    n = 2
    rows = [bits(0), bits(0) | (1 << n)]
    assert brute_force_solutions(rows, n) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_invert_round_trip(n):
    # try all invertible matrices for n<=3, a fixed one for n=4
    def mats():
        if n <= 3:
            for rows in itertools.product(range(1 << n), repeat=n):
                if gf2_rank(rows, n) == n:
                    yield list(rows)
        else:
            yield [bits(0), bits(0, 1), bits(1, 2), bits(0, 3)]

    for rows in mats():
        inv = gf2.invert(rows, n)
        # verify M @ inv = I over GF(2), column-style
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc ^= (rows[i] >> k & 1) & (inv[k] >> j & 1)
                assert acc == (1 if i == j else 0)


def test_invert_singular():
    with pytest.raises(Inconsistent):
        gf2.invert([bits(0), bits(0)], 2)


# --- solve_tagged against the elimination reference -----------------------------


def sparse_outcome(rows, n_vars, tag_width):
    """``solve_tagged``'s solution on sparse rows, or RuntimeError."""
    try:
        return gf2.solve_tagged(rows, n_vars, tag_width)
    except RuntimeError:
        return RuntimeError


def solve_outcome(rows, n_vars, tag_width):
    """``solve_tagged``'s solution on bitmask rows, or RuntimeError."""
    return sparse_outcome(sparse(rows, n_vars), n_vars, tag_width)


def test_reference_solve_matches_brute_force():
    # the reference every solve is checked against, pinned down by trying
    # every assignment: one solution, none, or several
    rng = random.Random(3)
    kinds = set()
    for _ in range(300):
        n_vars = rng.randint(1, 6)
        rows = [rng.getrandbits(n_vars + 1) for _ in range(rng.randint(0, 2 * n_vars))]
        solutions = brute_force_solutions(rows, n_vars)
        got = reference_solve(rows, n_vars)
        if len(solutions) == 1:
            assert got == [solutions[0] >> v & 1 for v in range(n_vars)]
        else:
            assert got[0] is (Inconsistent if not solutions else Underdetermined)
        kinds.add(min(len(solutions), 2))
    assert kinds == {0, 1, 2}


def triangular_system(rng, n_vars, tag_width):
    """Each row fixes one new variable from at most two earlier ones,
    in a random variable order, rows in fix order."""
    order = rng.sample(range(n_vars), n_vars)
    rows = []
    for k, v in enumerate(order):
        earlier = rng.sample(order[:k], min(k, rng.randint(0, 2)))
        rows.append(bits(v, *earlier) | rng.getrandbits(tag_width) << n_vars)
    return rows


def shuffle_variables(rng, rows):
    """Sparse rows with the variables of each row in a random order."""
    return [(tuple(rng.sample(vs, len(vs))), rhs) for vs, rhs in rows]


def no_unit_full_rank_system(rng, n_vars, tag_width):
    """Random full-rank rows of two or more variables each (three or more
    variables needed): no row starts with a single unknown, so forward
    substitution cannot take a first step."""
    rows = []
    while gf2_rank(rows, n_vars) < n_vars:
        row = bits(*rng.sample(range(n_vars), rng.randint(2, n_vars)))
        if gf2_rank(rows + [row], n_vars) > len(rows):
            rows.append(row)
    return [r | rng.getrandbits(tag_width) << n_vars for r in rows]


@pytest.mark.parametrize("seed", range(40))
def test_solve_tagged_triangular_propagates(seed):
    # rows in fix order solve by forward substitution, whatever the order of
    # the variables within each row
    rng = random.Random(seed)
    n_vars, tag_width = rng.randint(1, 40), rng.randint(1, 6)
    rows = triangular_system(rng, n_vars, tag_width)
    got = gf2.solve_tagged(shuffle_variables(rng, sparse(rows, n_vars)), n_vars, tag_width)
    assert got == reference_solve(rows, n_vars)


@pytest.mark.parametrize("seed", range(30))
def test_solve_tagged_refuses_rows_out_of_fix_order(seed):
    # each row is read once, so a triangular system that the reference
    # solves is refused once a row comes before a row fixing a variable it
    # reads, or once a consistent redundant row rides along
    rng = random.Random(seed)
    n_vars, tag_width = rng.randint(2, 30), rng.randint(1, 4)
    rows = triangular_system(rng, n_vars, tag_width)
    expected = reference_solve(rows, n_vars)
    assert isinstance(expected, list)
    readers = [k for k in range(1, n_vars) if bin(rows[k] % (1 << n_vars)).count("1") > 1]
    assert readers
    early = list(rows)
    early.insert(0, early.pop(rng.choice(readers)))
    redundant = list(rows)
    redundant.insert(rng.randint(0, n_vars), rows[rng.randrange(n_vars)] ^ rows[rng.randrange(n_vars)])
    for system in (early, redundant):
        assert reference_solve(system, n_vars) == expected
        assert_internal_error(system, n_vars, tag_width)


@pytest.mark.parametrize("seed", range(40))
def test_solve_tagged_no_unit_raises(seed):
    # a full-rank system with no unit row has a unique solution, but its
    # first row fixes two variables; every system the library writes starts
    # with unit rows, so this is an internal error, not an elimination
    rng = random.Random(seed)
    n_vars, tag_width = rng.randint(3, 16), rng.randint(1, 6)
    rows = no_unit_full_rank_system(rng, n_vars, tag_width)
    assert isinstance(reference_solve(rows, n_vars), list)
    assert_internal_error(rows, n_vars, tag_width)


@pytest.mark.parametrize("seed", range(40))
def test_solve_tagged_underdetermined_matches_reference(seed):
    # where the reference leaves variables free, the pass refuses the system
    rng = random.Random(seed)
    n_vars, tag_width = rng.randint(2, 30), rng.randint(1, 4)
    rows = triangular_system(rng, n_vars, tag_width)
    # dropping rows leaves variables free: fewer rows than variables
    for _ in range(rng.randint(1, n_vars - 1)):
        rows.pop(rng.randrange(len(rows)))
    assert reference_solve(rows, n_vars)[0] is Underdetermined
    assert_internal_error(rows, n_vars, tag_width)


@pytest.mark.parametrize("seed", range(40))
def test_solve_tagged_inconsistent_matches_reference(seed):
    rng = random.Random(seed)
    n_vars, tag_width = rng.randint(2, 30), rng.randint(1, 4)
    rows = triangular_system(rng, n_vars, tag_width)
    if seed % 2:
        rows.pop(rng.randrange(n_vars))  # also underdetermined: Inconsistent wins
    # a redundant row with a flipped rhs: one row more than variables, or,
    # after the pop, a row that fixes nothing new or two variables at once
    a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows.append(rows[a] ^ rows[b] ^ 1 << (n_vars + rng.randrange(tag_width)))
    assert reference_solve(rows, n_vars) == (Inconsistent, None)
    assert_internal_error(rows, n_vars, tag_width)


@pytest.mark.parametrize("seed", range(60))
def test_solve_tagged_random_sparse_matches_reference(seed):
    rng = random.Random(seed)
    n_vars, tag_width = rng.randint(1, 12), rng.randint(1, 3)
    rows = [
        bits(*rng.sample(range(n_vars), rng.randint(0, min(3, n_vars))))
        | rng.getrandbits(tag_width) << n_vars
        for _ in range(rng.randint(0, 2 * n_vars))
    ]
    # the solve finds the unique solution or refuses the system, never a wrong one
    expected = reference_solve(rows, n_vars)
    got = solve_outcome(rows, n_vars, tag_width)
    if isinstance(expected, list):
        assert got in (expected, RuntimeError)
    else:
        assert got is RuntimeError


def systems_of_each_kind(rng):
    """(rows, n_vars, tag_width) systems of the kinds above: triangular with a
    redundant row, underdetermined, inconsistent, triangular with long rows
    in fix order, random sparse and no unit."""
    n_vars, tag_width = rng.randint(3, 20), rng.randint(1, 4)
    triangular = triangular_system(rng, n_vars, tag_width)
    pair = triangular[rng.randrange(n_vars)] ^ triangular[rng.randrange(n_vars)]
    yield triangular + [pair], n_vars, tag_width
    yield rng.sample(triangular, rng.randint(1, n_vars - 1)), n_vars, tag_width
    yield triangular + [pair ^ 1 << (n_vars + rng.randrange(tag_width))], n_vars, tag_width
    # triangular with rows of up to nine variables
    order = rng.sample(range(n_vars), n_vars)
    yield [
        bits(v, *rng.sample(order[:k], min(k, rng.randint(0, 8)))) | rng.getrandbits(tag_width) << n_vars
        for k, v in enumerate(order)
    ], n_vars, tag_width
    random_sparse = [
        bits(*rng.sample(range(n_vars), rng.randint(0, 3))) | rng.getrandbits(tag_width) << n_vars
        for _ in range(rng.randint(0, 2 * n_vars))
    ]
    yield random_sparse, n_vars, tag_width
    n_vars = min(n_vars, 12)
    yield no_unit_full_rank_system(rng, n_vars, tag_width), n_vars, tag_width


@pytest.mark.parametrize("seed", range(30))
def test_row_order_keeps_outcome_and_propagation(seed):
    # the order of the variables within each row keeps the outcome: the same
    # solution, or the same refusal; an order of the rows may turn a solution
    # into a refusal (``test_solve_tagged_refuses_rows_out_of_fix_order``),
    # but never into another solution
    rng = random.Random(seed)
    stalls = set()
    for masks, n_vars, tag_width in systems_of_each_kind(rng):
        rows = sparse(masks, n_vars)
        expected = sparse_outcome(rows, n_vars, tag_width)
        stalls.add(expected is RuntimeError)
        solution = reference_solve(masks, n_vars)
        for _ in range(4):
            assert sparse_outcome(shuffle_variables(rng, rows), n_vars, tag_width) == expected
            reordered = sparse_outcome(shuffle_variables(rng, rng.sample(rows, len(rows))), n_vars, tag_width)
            assert reordered is RuntimeError or reordered == solution
    assert stalls == {False, True}
