"""Token soup for the four text readers: whatever the lines hold, a reader
either returns a value or raises ComplexParseError (a complex that parses
but breaks a size or structure rule raises InvalidComplexError); any other
exception escaping a reader is a bug."""

from hypothesis import given, settings, strategies as st

from hexad.hscomplex import load_diff_cochain
from hexad.plforms import load_whitney_form
from hexad.simplicial import (
    ComplexParseError,
    InvalidComplexError,
    catalog,
    load_cochain,
    load_complex,
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None)

WORDS = ("name", "vertices", "facet", "degree", "ring", "value",
         "whitney-form", "level", "section", "c", "T", "omega", "Z", "Q",
         "QmodZ", "circle")
TOKENS = WORDS + (
    "-2", "-1", "0", "1", "2", "3", "4", "+5", "6",  # signed integers
    "1/2", "-3/4", "2/1", "1/0", "0/3", "+1/-2",  # p/q
    "0,1", "1,2", "0,2", "0,1,2", "2,1", "0,,1", "-1,0", "0,1,2,3",  # simplices
    "#", "#value", "1_0", "\u0663", "\uff11", "1.5", "/", ",")  # comments, odd digits

# most lines lead with a directive word, a third with one of the repeatable
# ones, so the soup reaches the argument checks as well as the
# unknown-directive one
lines = st.builds(lambda first, rest: " ".join((first,) + tuple(rest)),
                  st.sampled_from(("facet", "value", "section"))
                  | st.sampled_from(WORDS) | st.sampled_from(TOKENS),
                  st.lists(st.sampled_from(TOKENS), max_size=5))
# a well-formed opening for one of the readers, or none, so that the soup
# after it also reaches the value, facet and section checks
OPENINGS = ("", "name x\nvertices 3", "degree 1\nring Q",
            "level 1\nsection c\ndegree 1\nring Z",
            "whitney-form\ndegree 2\nring Q")
texts = st.builds(lambda opening, soup: "\n".join((opening,) + tuple(soup)),
                  st.sampled_from(OPENINGS), st.lists(lines, max_size=10))

READERS = (
    load_complex,
    lambda text: load_cochain(text, catalog("circle")),
    lambda text: load_diff_cochain(text, catalog("circle")),
    lambda text: load_whitney_form(text, catalog("sphere")),
)


@FUZZ
@given(text=texts)
def test_token_soup_raises_only_parse_errors(text):
    # each text goes to all four readers
    for read in READERS:
        try:
            read(text)
        except (ComplexParseError, InvalidComplexError):
            pass
