"""Random payload Grams against the number-by-number reader
(``gram_reference.check_payload_gram``): all JSON numbers, all "p/q" strings
of the reader's fast path, any strings, and any mix of numbers, strings,
booleans, non-finite floats and integers beyond the float range, square or
ragged.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gram_reference import check_payload_gram  # noqa: E402

FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e300, -5e-324]),
                   st.floats(-1e6, 1e6, allow_nan=False), st.floats(allow_nan=False, allow_infinity=False,
                                                                   min_value=-1e150, max_value=1e150))
INTS = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70), st.sampled_from([10**300, -(10**307)]))
PQ = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(lambda p, q, k: f"{p * k}/{q * k}", st.integers(-99, 99), st.integers(1, 99), st.integers(2, 9)),
    st.sampled_from(["0/1", "0/9", "-0/4", "2/4", "1" * 300 + "/7", "-" + "3" * 300 + "/11"]))
# strings beside the reader's fast path: first those that nearly take it
ODD_STRINGS = st.sampled_from(["1/2,3/4", "1/0", "1_0/3", "1/2/3", "9" * 308 + "/1000", "1/-2", "+3/4", " 1/2",
                               "1 / 8", "1", "-3", "0.5", "1e3", "", "x", "1e350", "1/" + "9" * 400])
BAD = st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False, 10**400, 2**1024, None])
ENTRIES = {
    "numbers": st.one_of(FLOATS, INTS),
    "p/q": PQ,
    "p/q and one odd string": PQ,
    "strings": st.one_of(PQ, ODD_STRINGS),
    "anything": st.one_of(FLOATS, INTS, PQ, ODD_STRINGS, BAD),
}
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@st.composite
def payload_grams(draw, kind):
    basis = draw(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=1, max_size=5))
    s = len(basis)
    entries = ENTRIES[kind]
    rows = [draw(st.lists(entries, min_size=s, max_size=s)) for _ in range(s)]
    if draw(st.integers(0, 9)) == 0:  # a ragged Gram: a row too long or too short, or one row too many
        where = draw(st.integers(0, s - 1))
        change = draw(st.sampled_from(["longer", "shorter", "extra row"]))
        if change == "longer":
            rows[where] = rows[where] + [draw(entries)]
        elif change == "shorter":
            rows[where] = rows[where][:-1]
        else:
            rows.append(list(rows[where]))
    if kind == "p/q and one odd string":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_STRINGS)
    elif kind != "anything" and draw(st.integers(0, 5)) == 0:  # one entry of another kind
        rows[draw(st.integers(0, len(rows) - 1))][0:1] = [draw(st.one_of(FLOATS, PQ, ODD_STRINGS, BAD))]
    return rows, basis


@pytest.mark.parametrize("kind", list(ENTRIES))
@SETTINGS
@given(data=st.data())
def test_random_payload_grams_read_as_the_entry_reader(kind, data):
    rows, basis = data.draw(payload_grams(kind))
    check_payload_gram(rows, basis)
