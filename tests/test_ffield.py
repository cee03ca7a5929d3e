import pytest

from dsrg import NotPrimePowerError, TooLargeError, make_field
from dsrg.ffield import _factor_prime_power
from oracles import is_prime_power, reference_add_table, reference_mul_inv_tables

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64]
ALL_ORDERS = [q for q in range(2, 257) if is_prime_power(q)]


def test_prime_field_is_plain_modular_arithmetic():
    f = make_field(5)
    assert (f.p, f.e, f.q) == (5, 1, 5)
    for a in range(5):
        for b in range(5):
            assert f.add(a, b) == (a + b) % 5
            assert f.mul(a, b) == (a * b) % 5


def test_gf4_nonzero_elements_form_a_3_cycle():
    f = make_field(4)
    assert (f.p, f.e) == (2, 2)
    # x generates the multiplicative group: 2 -> 3 -> 1 -> 2
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    orbit = {2}
    x = 2
    for _ in range(2):
        x = f.mul(x, 2)
        orbit.add(x)
    assert orbit == {1, 2, 3}


def test_repr_names_the_field_and_not_its_tables():
    assert repr(make_field(4)) == "FiniteField(q=4, p=2, e=2, modulus=(1, 1, 1))"
    assert repr(make_field(5)) == "FiniteField(q=5, p=5, e=1, modulus=(0, 1))"


def test_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12, 100):
        with pytest.raises(NotPrimePowerError):
            make_field(q)


def test_factor_prime_power_matches_the_oracle():
    for q in range(-3, 5001):
        if q >= 2 and is_prime_power(q):
            p, e = _factor_prime_power(q)
            assert p ** e == q and p == next(d for d in range(2, q + 1) if q % d == 0)
            continue
        with pytest.raises(NotPrimePowerError) as err:
            _factor_prime_power(q)
        assert str(err.value) == (f"field order must be at least 2, got {q}" if q < 2
                                  else f"{q} has two distinct prime divisors")


def test_rejects_orders_above_cap():
    with pytest.raises(TooLargeError):
        make_field(4097)
    with pytest.raises(TooLargeError):
        make_field(5000)
    for q in (257, 1024):
        with pytest.raises(TooLargeError, match=f"field order {q} exceeds cap 256"):
            make_field(q)
    make_field(128)  # larger extension degrees stay workable


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_identities_and_inverses(q):
    f = make_field(q)
    for a in f.elements():
        assert f.add(a, 0) == a
        assert f.mul(a, 0) == 0
        assert f.mul(a, 1) == a
        assert any(f.add(a, b) == 0 for b in f.elements())
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError, match="^0 has no multiplicative inverse$"):
        make_field(5).inv(0)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_commutativity(q):
    f = make_field(q)
    for a in f.elements():
        for b in f.elements():
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_associativity_and_distributivity_exhaustive(q):
    f = make_field(q)
    for a in f.elements():
        for b in f.elements():
            ab_add, ab_mul = f.add(a, b), f.mul(a, b)
            for c in f.elements():
                assert f.add(ab_add, c) == f.add(a, f.add(b, c))
                assert f.mul(ab_mul, c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_nonzero_multiplicative_group_is_cyclic(q):
    f = make_field(q)
    orders = set()
    for a in range(1, q):
        x, n = a, 1
        while x != 1:
            x = f.mul(x, a)
            n += 1
        assert (q - 1) % n == 0
        orders.add(n)
    assert q - 1 in orders  # some generator exists


def test_determinism():
    assert make_field(16) == make_field(16)
    assert make_field(27) == make_field(27)


def test_smallest_modulus_choices():
    # degree-1 case: the modulus is x itself
    assert make_field(7).modulus_poly == (0, 1)
    # classic smallest irreducibles, low-degree coefficient first
    assert make_field(4).modulus_poly == (1, 1, 1)       # 1 + x + x^2
    assert make_field(8).modulus_poly == (1, 1, 0, 1)    # 1 + x + x^3
    assert make_field(9).modulus_poly == (1, 0, 1)       # 1 + x^2


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27, 25])
def test_modulus_has_no_roots(q):
    f = make_field(q)
    p = f.p
    for x in range(p):
        value = 0
        for coeff in reversed(f.modulus_poly):
            value = (value * x + coeff) % p
        assert value != 0


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_add_table_matches_the_per_entry_formula(q):
    f = make_field(q)
    assert f.add_table == reference_add_table(f.p, f.e)


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_modulus_and_product_tables_match_the_exp_log_reference(q):
    f = make_field(q)
    assert (f.modulus_poly, f.mul_table, f.inv_table) == reference_mul_inv_tables(f.p, f.e)
