"""Seeded fuzz of the text and JSON boundary: the word and braid parsers,
`rat_from_str` and `choreography_from_json` may reject input only with a
`BraidGammaError`, never with any other exception.

Inputs mix free text, text over the grammar's own characters, and
near-valid letters (indices that repeat, are zero or are huge) so that the
letter constructors and the slot and range checks behind the scanners run
too.  Examples are bounded and derandomized, so a run is reproducible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from braidgamma.braids import parse_braid
from braidgamma.errors import BraidGammaError
from braidgamma.exact import rat_from_str
from braidgamma.geom2d import choreography_from_json
from braidgamma.words import parse_word

SEEDED = settings(max_examples=150, deadline=None, derandomize=True, database=None)

INDEX = st.one_of(st.integers(0, 9), st.integers(0, 10**30))
SLOT_COUNT = st.one_of(st.none(), st.integers(-2, 6))


def _letter(draw):
    quad = ",".join(str(draw(INDEX)) for _ in range(4))
    return draw(
        st.sampled_from(
            [f"a{{{quad}}}", f"d({quad})", f"[{draw(INDEX)}]d({quad})", f"b({quad[:3]})"]
        )
    )


@st.composite
def near_words(draw):
    """Letters of every kind, joined by spaces, and sometimes cut or spliced."""
    text = " ".join(_letter(draw) for _ in range(draw(st.integers(0, 4))))
    cut = draw(st.integers(0, len(text)))
    return draw(st.sampled_from([text, text[:cut], text[:cut] + draw(st.text(max_size=3))]))


TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="abd[](){},^-/0123456789 \t", max_size=30),
    near_words(),
)

RATIONAL = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="-/+0123456789 ._", max_size=12),
    st.fractions().map(lambda x: f"{x.numerator}/{x.denominator}"),
)

JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(), RATIONAL),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def near_choreographies(draw):
    """Choreography JSON objects with each field sometimes of a wrong kind."""
    dim = draw(st.one_of(st.sampled_from([2, 3]), JSON))
    width = dim if type(dim) is int and 0 <= dim <= 4 else 2
    coords = st.one_of(st.lists(RATIONAL, min_size=width, max_size=width), JSON)
    data = {
        "dim": dim,
        "n": draw(st.one_of(st.integers(-1, 6), JSON)),
        "points": draw(st.one_of(st.lists(coords, max_size=5), JSON)),
        "moves": draw(
            st.one_of(
                st.lists(st.fixed_dictionaries({"point": st.integers(-1, 7), "to": coords})),
                st.lists(st.dictionaries(st.sampled_from(["point", "to"]), JSON)),
                JSON,
            )
        ),
        "loop": draw(st.one_of(st.booleans(), JSON)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=2)):
        data.pop(key, None)
    return data


def _only_boundary_errors(call, *args):
    try:
        call(*args)
    except BraidGammaError:
        pass


@SEEDED
@given(TEXT, SLOT_COUNT)
def test_word_parsers_raise_only_braidgamma_errors(text, r):
    for target in (None, "g", "gamma", "gammar"):
        _only_boundary_errors(parse_word, text, r, target)


@SEEDED
@given(TEXT, st.integers(-1, 12))
def test_braid_parser_raises_only_braidgamma_errors(text, n):
    _only_boundary_errors(parse_braid, text, n)


@SEEDED
@given(st.one_of(RATIONAL, JSON))
def test_rat_from_str_raises_only_braidgamma_errors(text):
    _only_boundary_errors(rat_from_str, text)


@SEEDED
@given(st.one_of(near_choreographies(), JSON))
def test_choreography_decoder_raises_only_braidgamma_errors(data):
    _only_boundary_errors(choreography_from_json, data)
