"""The code-file codec against its literal twins.

``Word.text`` and ``Word.parse`` turn symbols into digits and back by byte
translation, and ``UtrCode`` dedupes, sorts and checks its codewords with C
built-ins when every word carries its params and length.  The per-symbol
versions they replaced are kept here as written, and the two must agree: the
same word, or the same exception type and message.  ``UtrCode.from_json``
parses a listed file's codewords one by one with ``Word.parse`` and hands
them to the public constructor; ``UtrCode.loads`` gives what ``from_json``
gives on the parsed text and refuses text json cannot read with a
``DomainError``, and the outcomes of a few odd files are pinned.  The
benchmark's codes are pinned by hash in both file forms, the compact
description that ``dumps`` writes for a built code and the listing of its
codewords, so a codec change that alters a stored file fails here.
"""

import hashlib
import json
import operator

import pytest
from hypothesis import example, given, settings
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

# SHA-256 of the listed file UtrCode(params, n, N, t, <the codewords>).dumps() of
# construction_a(DupParams(2, 2), n, t, N), (n, t, N) -> digest
PINNED_FILES = {
    (12, 1, 1): "f09c46488ebf3cd0a3f2da8e9632586f6c1bf044ddcc5351d571c1914d05f994",
    (16, 3, 11): "fb86b7e8f210be6294a7a7c02410d116f426ddd23e5b2abbc2b22f4438f08c24",
    (20, 2, 1): "d322187c086bf8b5f84770538a5e67cd566fa02b30b873a58b7314a3afce4f8c",
    (16, 1, 1): "04fed0c3a67509ebff8ffdb37a7096920943aa33b724d9f793246ee1bf4b8bde",
    (16, 3, 1): "bd5662a3920464e3b7a153de88d3429f514a60e592ca61c0e9f690304c9e4033",
    (14, 1, 1): "61e3e4b63a377246b87ae1c16f1844d59fc76709a3be77423a31527a62680d41",
}
# SHA-256 of construction_a(DupParams(2, 2), n, t, N).dumps(), the compact file
PINNED_COMPACT_FILES = {
    (12, 1, 1): "bf6a2a483559dbdb683fa90b40c7a2042419303dca4b7629fcfed5bb8b28592f",
    (16, 3, 11): "4d416bcbb6c4338cf1e782a8ecd11f42a0ffa539f665da2890ad5b2aad535b9f",
    (20, 2, 1): "5a9f8fa98728258c919f77067f02c996f9acff8f2acb1b4ed15de95ccce92290",
    (16, 1, 1): "bf1feb794fa04fb94432c583fb1845813c425592746d0babf34f061c254603bc",
    (16, 3, 1): "3d04686bd2023cb2dedf3a155dfb982b934d1c28c0da34205b824f63c9a397a5",
    (14, 1, 1): "8b78b9b2dde3b8a0558912f07bd3597359e5c8e7f87b62391c9d4d3cbc9bdbd4",
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


@st.composite
def code_files(draw):
    """Code file objects whose codewords are mostly fine, with up to two odd ones mixed in.

    An odd word has another length, blanks around it, a non-ASCII digit, a
    symbol outside the alphabet or a comma where none belongs; repeats are
    common, and q > 10 writes its words in the comma form.
    """
    q = draw(st.sampled_from((2, 3, 10, 11, 12)))
    n = draw(st.integers(0, 5))
    sep = "," if q > 10 else ""

    def text(sym):
        return sep.join(map(str, sym))

    def fields(w):
        return w.split(",") if q > 10 else list(w)

    symbols = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    pool = [text(sym) for sym in draw(st.lists(symbols, min_size=1, max_size=4))]
    odd = {
        "length": st.integers(0, 7).flatmap(
            lambda m: st.lists(st.integers(0, q - 1), min_size=m, max_size=m).map(text)
        ),
        "blanks": st.sampled_from(pool).map(lambda w: f" {w}\t"),
        "non-ASCII digit": st.sampled_from(pool).map(lambda w: "\u0661" + w[1:]),
        "wide digit": st.sampled_from(pool).map(lambda w: w[:-1] + "\uff11"),
        "symbol": st.tuples(st.sampled_from(pool), st.integers(q, max(q, 9))).map(
            lambda case: sep.join([str(case[1]), *fields(case[0])[1:]])
        ),
        "comma": st.sampled_from(pool).map(lambda w: w[:1] + "," + w[1:]),
        "fixed": st.sampled_from(["", " ", "0,0", "00,1"]),
    }
    words = draw(st.lists(st.sampled_from(pool), max_size=12))
    kinds = st.lists(st.sampled_from(sorted(odd)), max_size=draw(st.sampled_from((1, 2))))
    for kind in draw(kinds):
        words.insert(draw(st.integers(0, len(words))), draw(odd[kind]))
    N, t = draw(st.sampled_from([(1, 1), (0, 2), (-1, 1), (1, -1)]))
    return {"q": q, "k": draw(st.integers(1, 2)), "n": n, "N": N, "t": t, "codewords": words}


def code_file(q: int, n: int, *codewords: str) -> dict:
    return {"q": q, "k": 2, "n": n, "N": 1, "t": 1, "codewords": list(codewords)}


@PROPERTY
@given(code_files())
@example(code_file(2, 4, "0110", "0120"))  # a symbol outside the alphabet
@example(code_file(2, 4, "000", "00000"))  # lengths that only add up
@example(code_file(2, 4, " 0101 ", "0110"))  # blanks around a word
@example(code_file(10, 3, "01\u0661", "019"))  # a non-ASCII digit
@example(code_file(3, 2, "21", "02", "21", "10"))  # repeats, out of order
@example(code_file(3, 2, "02", "10", "21"))  # a list as written
@example(code_file(11, 2, "1,10", "0,3", "1,10"))  # the comma form
@example(code_file(11, 2, "03,4"))  # a leading zero
def test_code_text_reads_as_its_object_and_writes_back(data):
    got, want = outcome(UtrCode.loads, json.dumps(data)), outcome(UtrCode.from_json, data)
    assert got == want
    if isinstance(got, UtrCode):
        text = got.dumps()
        assert UtrCode.loads(text).dumps() == text
        assert all(type(s) is int for sym in got.symbols for s in sym)


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,  # deeper than json's recursion limit
        '{"n": %s, "q": 2, "k": 1, "N": 0, "t": 1, "codewords": []}' % ("1" * 5000),
        "this is not JSON",
    ],
    ids=["nested", "long-int", "prose"],
)
def test_code_text_json_cannot_read_is_a_domain_error(text):
    with pytest.raises(DomainError, match="^code text is not JSON: "):
        UtrCode.loads(text)


# each file: its code (params, n, N, t, codeword texts) or its exception's type and message
LISTED_FILE_OUTCOMES = [
    (code_file(2, 4, "0110", "0120"), (DomainError, "symbol 2 outside alphabet of size 2")),
    (
        code_file(2, 4, "000", "00000"),
        (WordLengthError, "codeword Word('000', q=2, k=2) does not have length 4"),
    ),
    (code_file(2, 4, " 0101 ", "0110"), (DupParams(2, 2), 4, 1, 1, ["0101", "0110"])),
    (code_file(10, 3, "01\u0661", "019"), (DomainError, "not a word over 10 symbols: '01\u0661'")),
    (code_file(3, 2, "21", "02", "21", "10"), (DupParams(3, 2), 2, 1, 1, ["02", "10", "21"])),
    (code_file(3, 2, "02", "10", "21"), (DupParams(3, 2), 2, 1, 1, ["02", "10", "21"])),
    (code_file(11, 2, "1,10", "0,3", "1,10"), (DupParams(11, 2), 2, 1, 1, ["0,3", "1,10"])),
    (code_file(11, 2, "03,4"), (DomainError, "not a word over 11 symbols: '03,4'")),
]


@pytest.mark.parametrize("data, want", LISTED_FILE_OUTCOMES)
def test_listed_file_outcomes_are_pinned(data, want):
    got = outcome(UtrCode.from_json, data)
    if isinstance(got, UtrCode):
        got = (got.params, got.n, got.N, got.t, [w.text() for w in got.codewords])
    assert got == want


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, t, N", PINNED_FILES)
def test_code_file_bytes_are_pinned(n, t, N):
    compact = construction_a(DupParams(2, 2), n, t, N).dumps()
    code = UtrCode.loads(compact)
    text = UtrCode(code.params, n, N, t, code.codewords).dumps()
    assert sha256(text) == PINNED_FILES[n, t, N]
    assert UtrCode.loads(text).dumps() == text
    assert sha256(compact) == PINNED_COMPACT_FILES[n, t, N]
    assert code.dumps() == compact
