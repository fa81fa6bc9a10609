"""The package exports only what the CLI, the README, the demos and the benchmark use."""

import inspect
import re
from pathlib import Path

import pytest

import defdom

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "defdom"


def test_exported_names_are_pinned():
    assert sorted(defdom.__all__) == [
        "Attack",
        "BadParameters",
        "CompactBubbles",
        "DefdomError",
        "FormatError",
        "InvalidBubbles",
        "InvalidRanges",
        "LinearBubbles",
        "ProperIntervalGraph",
        "ProperViolation",
        "SplitMix64",
        "TooLarge",
        "bubbles_from_pig",
        "compact_for_family",
        "defends_consecutive",
        "defends_matching",
        "first_undefended_attack",
        "gen_family",
        "gen_random_bubbles",
        "gen_random_unit_intervals",
        "is_k_defensive",
        "is_k_defensive_bruteforce",
        "linear_from_compact",
        "min_defensive_bruteforce",
        "pig_from_bubbles",
        "random_unit_intervals",
        "solve_bubble",
        "solve_greedy",
    ]


def test_every_exported_name_has_a_caller_outside_the_tests():
    """Each name is used beyond its own definition: in a package module (its
    own included, ``__init__``'s re-export not), in README.md, or in demos/
    or perfbench/."""
    texts = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    for folder in ("demos", "perfbench"):
        texts.extend(path.read_text(encoding="utf-8") for path in (ROOT / folder).glob("*.py"))
    unused = []
    for name in defdom.__all__:
        uses = sum(len(re.findall(rf"\b{name}\b", text)) for text in texts)
        definitions = sum(len(re.findall(rf"^(?:def|class) {name}\b", text, re.M)) for text in texts)
        assert definitions == 1, (name, definitions)
        if uses == definitions:
            unused.append(name)
    assert not unused, unused


def test_solver_signatures_are_pinned():
    """Both solvers take the instance, k, a stats dict and a per-step hook."""
    for solve, first in ((defdom.solve_greedy, "g"), (defdom.solve_bubble, "lbm")):
        params = inspect.signature(solve).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (first, inspect.Parameter.empty),
            ("k", inspect.Parameter.empty),
            ("stats", None),
            ("on_step", None),
        ], solve.__name__


def test_bubble_model_signature_is_pinned():
    """A bubble model is built from its sizes and last neighbors alone; the
    first neighbors are derived, so a call that passes them is refused."""
    params = inspect.signature(defdom.LinearBubbles).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("sizes", inspect.Parameter.empty),
        ("max_nbr", inspect.Parameter.empty),
    ]
    with pytest.raises(TypeError):
        defdom.LinearBubbles([1, 1], [1, 2], [1, 2])


def test_cli_uses_no_private_io_name():
    """The CLI opens the defender source and leaves its grammar, slices and
    slice length to ``defdom.io.read_defenders``: it names no private
    ``defdom.io`` attribute."""
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert re.findall(r"\bdio\._\w*", text) == []


def test_cli_holds_no_answer_grammar_and_no_cap_arithmetic():
    """``defdom.io.write_answer`` writes the answer and the generators cap
    their own output: ``cli.py`` spells no ``size=`` and no family sizes."""
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    for name in ("size=", "_ANSWER_CHUNK", "_family_sizes"):
        assert name not in text, name
