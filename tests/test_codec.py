"""The code-file codec against its literal twins.

``Word.text`` and ``Word.parse`` turn symbols into digits and back by byte
translation, and ``UtrCode`` dedupes, sorts and checks its codewords with C
built-ins when every word carries its params and length.  The per-symbol
versions they replaced are kept here as written, and the two must agree: the
same word, or the same exception type and message.  Two code files are
pinned by hash, so a codec change that alters a stored file fails here.
"""

import hashlib
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemreco import (
    DomainError,
    DupParams,
    ParamsMismatchError,
    TandemError,
    UtrCode,
    Word,
    WordLengthError,
    construction_a,
)

PROPERTY = settings(max_examples=300, deadline=None)

# SHA-256 of construction_a(DupParams(2, 2), n, t, N).dumps(), (n, t, N) -> digest
PINNED_FILES = {
    (12, 1, 1): "f09c46488ebf3cd0a3f2da8e9632586f6c1bf044ddcc5351d571c1914d05f994",
    (16, 3, 11): "fb86b7e8f210be6294a7a7c02410d116f426ddd23e5b2abbc2b22f4438f08c24",
}


def text_twin(w: Word) -> str:
    if w.params.q <= 10:
        return "".join(str(s) for s in w.symbols)
    return ",".join(str(s) for s in w.symbols)


def parse_twin(text: str, params: DupParams) -> Word:
    text = text.strip()
    wide = params.q > 10
    fields = (text.split(",") if wide else [text]) if text else []
    # a symbol is ASCII digits with one spelling: a wide field has no leading zero
    if not all(
        f.isascii() and f.isdigit() and not (wide and f[0] == "0" and f != "0") for f in fields
    ):
        raise DomainError(f"not a word over {params.q} symbols: {text!r}")
    return Word(tuple(map(int, fields if wide else text)), params)


def normalised_twin(params: DupParams, n: int, words) -> tuple[Word, ...]:
    ordered = tuple(sorted(set(words), key=lambda w: w.symbols))
    for w in ordered:
        if w.params != params:
            raise ParamsMismatchError(f"codeword {w!r} carries {w.params}")
        if len(w) != n:
            raise WordLengthError(f"codeword {w!r} does not have length {n}")
    return ordered


def outcome(fn, *args):
    """What a call gives: its value, or its exception's type and message."""
    try:
        return fn(*args)
    except TandemError as err:
        return type(err), str(err)


params_any = st.builds(DupParams, st.integers(2, 12), st.integers(1, 3))


@st.composite
def words(draw):
    p = draw(params_any)
    return Word(tuple(draw(st.lists(st.integers(0, p.q - 1), max_size=24))), p)


@PROPERTY
@given(words())
def test_text_matches_twin(w):
    assert w.text() == text_twin(w)
    assert Word.parse(w.text(), w.params) == w


word_texts = st.one_of(
    st.text(st.sampled_from("0123456789,  \taZ²٠１"), max_size=16),
    st.text(st.sampled_from("0123456789"), max_size=16).map(lambda s: f" {s} "),
    st.text(st.sampled_from("0123456789,"), max_size=16),
    st.sampled_from(["", " ", " 0101 ", ",", "0,", "00", "1,0", "0,03", "10,11", "9"]),
)


@PROPERTY
@given(word_texts, params_any)
def test_parse_matches_twin(text, params):
    got, want = outcome(Word.parse, text, params), outcome(parse_twin, text, params)
    assert got == want
    if isinstance(want, Word):
        assert type(got) is Word and got.params is params
        assert all(type(s) is int for s in got.symbols)


@st.composite
def codeword_lists(draw):
    """(params, n, words): repeats, equal params copies and at most two bad words."""
    params = DupParams(draw(st.sampled_from((2, 3))), draw(st.sampled_from((1, 2))))
    n = draw(st.integers(1, 6))
    pool = draw(
        st.lists(st.tuples(*[st.integers(0, params.q - 1)] * n), min_size=1, max_size=8)
    )
    out = []
    for sym in draw(st.lists(st.sampled_from(pool), max_size=20)):
        p = params if draw(st.booleans()) else DupParams(params.q, params.k)
        out.append(Word(sym, p))
    bad = []
    if draw(st.booleans()):
        sym = draw(st.sampled_from(pool))
        bad.append(Word(sym, DupParams(params.q, params.k + 1)))
    if draw(st.booleans()):
        length = draw(st.sampled_from((n - 1, n + 1)))
        bad.append(Word(tuple(draw(st.lists(st.integers(0, params.q - 1),
                                            min_size=length, max_size=length))), params))
    for w in bad:
        out.insert(draw(st.integers(0, len(out))), w)
    return params, n, out


@PROPERTY
@given(codeword_lists())
def test_code_normalisation_matches_twin(case):
    params, n, words = case
    got = outcome(lambda: UtrCode(params, n, 1, 1, words).codewords)
    want = outcome(normalised_twin, params, n, words)
    assert got == want
    if isinstance(want, tuple) and want and isinstance(want[0], Word):
        # the first copy of each repeated word is the one kept
        assert all(map(operator.is_, got, want))


def test_code_normalisation_accepts_a_generator():
    params = DupParams(2, 2)
    words = (Word(s, params) for s in [(1, 0, 1), (0, 1, 1), (1, 0, 1)])
    assert [w.text() for w in UtrCode(params, 3, 1, 1, words).codewords] == ["011", "101"]


@pytest.mark.parametrize("n, t, N", PINNED_FILES)
def test_code_file_bytes_are_pinned(n, t, N):
    text = construction_a(DupParams(2, 2), n, t, N).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FILES[n, t, N]
    assert UtrCode.loads(text).dumps() == text
