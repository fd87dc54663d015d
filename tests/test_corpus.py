"""The behaviour corpus (tests/corpus.py): every attack's line is the one
in tests/corpus_expected.txt."""

import corpus


def test_every_line_as_expected():
    want = corpus.EXPECTED.read_text().splitlines()
    got = corpus.lines()
    moved = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not moved, (
        f"{len(moved)} of {len(want)} lines moved (python tests/corpus.py lists them);"
        f" the first: {moved[:1]}")
