import hashlib

import numpy as np
import pytest

from pecldpc import GF, gf

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]


# ---------------------------------------------------------
# Construction
# ---------------------------------------------------------
def test_prime_field_parameters():
    f = GF(5)
    assert (f.p, f.s) == (5, 1)
    assert f.reduction_poly == ()


def test_gf4_reduction_poly_is_unique_quadratic():
    # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
    f = GF(4)
    assert (f.p, f.s) == (2, 2)
    assert f.reduction_poly == (1, 1, 1)


def test_gf8_gf9_polys():
    assert GF(8).reduction_poly == (1, 1, 0, 1)  # x^3 + x + 1
    assert GF(9).reduction_poly == (1, 0, 1)  # x^2 + 1


@pytest.mark.parametrize("bad", [0, 1, 6, 10, 12, 257, 1000])
def test_rejects_non_prime_powers_and_range(bad):
    with pytest.raises(ValueError):
        GF(bad)


def test_numpy_integer_order():
    # every other entry point takes numpy integers; GF refused them
    assert GF(np.int64(4)) == GF(4)
    assert type(GF(np.uint8(9)).q) is int


def test_tables_deterministic():
    a, b = GF(9), GF(9)
    assert np.array_equal(a.mul_table, b.mul_table)
    assert a == b and hash(a) == hash(b)


# sha256 prefix of (add, mul, neg, inv tables with dtype and shape, and
# reduction_poly) for every prime power 2..256, recorded from the
# element-by-element polynomial construction the digit tables replaced
TABLE_DIGESTS = {
    2: "60fce7418440c880", 3: "f7039827731b299b", 4: "b1b898ee77719245",
    5: "91d526a2b48f95c8", 7: "a157f7e81d4283f0", 8: "b2e72598e2e9d9e1",
    9: "c604126fb73bde4c", 11: "d7e9bbecf37d2555", 13: "1669250cfa247957",
    16: "dc3a532f6e5577b9", 17: "655e9bdff0182675", 19: "49fdbb9f39fa2348",
    23: "cf62c74b752f010a", 25: "102588934ef083f5", 27: "78249b87cdbbe1c7",
    29: "4108730748142b32", 31: "2efcab030018f838", 32: "e0cd5f933f314cd3",
    37: "627ec966d77f2eb8", 41: "dbca7e3929065eea", 43: "5de8dfcbdaceef8a",
    47: "1c801dc7ad7f452e", 49: "b12dd16253128168", 53: "ff6a69d70888727c",
    59: "2c60b49864972361", 61: "88587c8c68591a99", 64: "5fd573d3673a5ea7",
    67: "451713ec7d2541e2", 71: "c569abc514781757", 73: "bf9e87fc42d84fba",
    79: "5aba87d90f70242e", 81: "87c302883c48c5e6", 83: "66bcb304e7219daa",
    89: "07983a0ee665cb46", 97: "1eaa866a86a680ca", 101: "e3e7481c4a95ac71",
    103: "23a0aa9e5a6756b5", 107: "1b9544447d4fa571", 109: "8e3de12a3548b3c7",
    113: "02ab5fd4512204a7", 121: "41d963f59241e54d", 125: "8da78b8befda9d04",
    127: "6a2b2d189aea7bbc", 128: "11660f193ea66e74", 131: "40754c9f131dbc06",
    137: "9134f736d8699817", 139: "bf5a0e80d65a5146", 149: "f493e22bef91f1db",
    151: "d5b2bc3d2be8dbe6", 157: "203e8962f7e39abc", 163: "c4ff61e9e875966e",
    167: "5e226acaf29a833a", 169: "43bf9fc0aa791ae7", 173: "7871b624d2d4103a",
    179: "804f2d913c663758", 181: "71409436d91e51d3", 191: "51c9e7c132916334",
    193: "a7d6a16018b906cf", 197: "91a7d1a4dabcac2f", 199: "95711ad796ae3664",
    211: "ddf8593dbe419697", 223: "0fa8be58ea996c3e", 227: "20cf1754a7d71d4f",
    229: "2d523cb6eaad8c16", 233: "2936deaad7d5983c", 239: "5d66e968304f319b",
    241: "45daf931c1077faa", 243: "628784ccc66364d3", 251: "68379b3ba695cbc8",
    256: "1e76dac9256a91cd",
}


def _table_digest(f):
    h = hashlib.sha256()
    for t in (f.add_table, f.mul_table, f.neg_table, f.inv_table):
        h.update(t.dtype.str.encode())
        h.update(repr(t.shape).encode())
        h.update(t.tobytes())
    h.update(repr(f.reduction_poly).encode())
    return h.hexdigest()[:16]


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_tables_pinned_for_every_supported_field():
    orders = [q for q in range(2, gf.MAX_Q + 1) if _is_prime_power(q)]
    assert orders == sorted(TABLE_DIGESTS)
    for q in orders:
        assert _table_digest(GF(q)) == TABLE_DIGESTS[q], q


@pytest.mark.parametrize("q", [2, 9, 16, 125, 256])
def test_digits_are_base_p_coefficients(q):
    f = GF(q)
    assert f.digits.shape == (q, f.s) and not f.digits.flags.writeable
    for a in (0, 1, q // 3, q - 1):
        assert sum(int(d) * f.p**k for k, d in enumerate(f.digits[a])) == a
        assert all(0 <= d < f.p for d in f.digits[a])


def test_reducible_polynomial_rejected(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2): x + 1 has no inverse modulo it
    monkeypatch.setattr(gf, "_find_reduction_poly", lambda p, s: (1, 0, 1))
    with pytest.raises(RuntimeError, match="no unique inverse"):
        GF(4)


# ---------------------------------------------------------
# Arithmetic anchors
# ---------------------------------------------------------
def test_mul_anchors():
    assert GF(5).mul(2, 4) == 3
    assert GF(4).mul(2, 3) == 1  # x * (x+1) = x^2 + x = 1 mod x^2+x+1


def test_add_neg_identity():
    for q in SMALL_ORDERS:
        f = GF(q)
        for a in f.elements():
            assert f.add(a, f.neg(a)) == 0
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0


def test_inv_total_on_nonzero():
    for q in SMALL_ORDERS + [16]:
        f = GF(q)
        for a in f.nonzero_elements():
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_div_matches_inv():
    f = GF(8)
    for a in f.elements():
        for b in f.nonzero_elements():
            assert f.div(a, b) == f.mul(a, f.inv(b))
            assert f.sub(a, b) == f.add(a, f.neg(b))


@pytest.mark.parametrize("bad", [-1, "q", 2.5, True, False])
@pytest.mark.parametrize("op", ["add", "sub", "mul", "neg", "inv", "div"])
def test_element_ops_refuse_non_elements(op, bad):
    # the list lookups went unchecked: GF(5).add(-1, 0) answered 4,
    # inv(-2) answered 2, add(1, 7) raised a raw IndexError and a float
    # a raw TypeError; a bool passed the range check, so add(True, 1)
    # answered 2 and neg(False) answered 0
    f = GF(5)
    bad = f.q if bad == "q" else bad
    calls = [(bad,)] if op in ("neg", "inv") else [(bad, 1), (1, bad)]
    for args in calls:
        with pytest.raises(ValueError, match=r"integers in \[0, 5\)"):
            getattr(f, op)(*args)


# ---------------------------------------------------------
# Field axioms (exhaustive for small orders)
# ---------------------------------------------------------
@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS + [16, 25])
def test_characteristic(q):
    f = GF(q)
    for a in f.elements():
        acc = 0
        for _ in range(f.p):
            acc = f.add(acc, a)
        assert acc == 0


def test_larger_field_spot_checks():
    f = GF(16)
    rng = np.random.default_rng(5)
    elems = rng.integers(0, 16, size=(40, 3))
    for a, b, c in elems:
        a, b, c = int(a), int(b), int(c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
