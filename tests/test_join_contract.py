"""The join contract: one positivity guard.

``Presentation.join`` checks both operands once and hands positive pairs to
the family rule ``_join``.  The ``join`` reports of the README presets,
recorded from the CLI of the commit before that contract, when each family
module carried its own guard, are pinned in ``tests/golden.txt``.
"""

import pytest

from wqlat.cli import main
from wqlat.order import PresentationError
from wqlat.presets import get_presentation

from conftest import README_PRESETS, short

# One non-positive and one positive element per family, keyed by preset prefix.
OPERANDS = {
    "free:": ("a^-1", "a"),
    "scarparo": ("a", "b"),
    "bs:": ("a^-1", "a"),
    "hnn": ("t^-1", "t"),
    "graph:": ("[v0: a^-1]", "[v0: a]"),
    "sd:": ("s^-1", "s"),
}


def operands(name):
    return next(pair for prefix, pair in OPERANDS.items() if name.startswith(prefix))


@pytest.mark.parametrize("name", README_PRESETS, ids=short)
def test_join_of_non_positive_operand_is_a_usage_error(name, capsys):
    pres = get_presentation(name)
    neg, pos = (pres.parse(text) for text in operands(name))
    assert not pres.is_positive(neg) and pres.is_positive(pos)
    for x, y in ((neg, pos), (pos, neg)):
        with pytest.raises(PresentationError) as info:
            pres.join(x, y)
        assert str(info.value).endswith("is not positive")
    code = main(["join", name, *operands(name)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("is not positive\n")

