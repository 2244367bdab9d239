"""Golden CLI corpus: fixed `limitalg` invocations and their recorded output.

Every case runs `limitalg.cli.run` in-process.  An argv token `@name`
stands for the file `name` in this directory.  `corpus.json` holds the
exit code, stdout and stderr of every case; `tests/test_golden.py`
compares a fresh replay with it byte for byte.

    python tests/golden/replay.py            # print a replay as JSON
    python tests/golden/replay.py --record   # rewrite corpus.json

Record only from a tree whose output is known to be right.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

SWAP_SYSTEM = "points = a b\nphi: a->b b->a\n"
# point names outside ASCII: reports write them as `\u` escapes
NON_ASCII_SYSTEM = "points = é ß 点\nphi: é->ß ß->é 点->点\n"
TRIANGULAR_Z3 = ("--base", "2", "--group", "3", "--action", "diag=0,1")
PAIR_Z2xZ2 = ("--base", "2,2", "--group", "2x2",
              "--action", "perm=1,0", "--action", "diag=0,1|0,1")


def _two_level_spec(shape_0: str, shape_1: str, word: str) -> str:
    """A two-level tower with one embedding word into level 1."""
    return (f"level 0 = [{shape_0}]\nlevel 1 = [{shape_1}]\n"
            f"embed 0 -> 1 {{\n  target 0 : {word}\n}}\n")


SHAPE_SPEC = _two_level_spec("2", "4", "(0,1) (0,2) (0,1) (0,2) (0,1) (0,2)")
LABEL_SPEC = _two_level_spec("2", "5", "(0,1) (0,2) (0,1) (0,2) (1,1)")
COUNT_SPEC = _two_level_spec("2", "4", "(0,1) (0,1) (0,1) (0,2)")
LATTICE_SPEC = _two_level_spec("2", "4", "(0,2) (0,1) (0,1) (0,2)")
INJECTIVE_SPEC = _two_level_spec("2,1", "4", "(0,1) (0,2) (0,1) (0,2)")
# counts [1,0,2,1] add up to 1 * 4 but are unequal
UNEQUAL_COUNT_SPEC = _two_level_spec("4", "4", "(0,1) (0,3) (0,3) (0,4)")
# (0,3) lies past the source size and also breaks the ballot order
LABEL_LATTICE_SPEC = _two_level_spec("2", "4", "(0,1) (0,3) (0,2) (0,2)")
OUT_OF_RANGE_SOURCE_SPEC = _two_level_spec("2", "4",
                                           "(0,1) (0,2) (1,2) (1,1)")
MULTI_TARGET_SPEC = ("level 0 = [2,1]\nlevel 1 = [4,2,3]\nembed 0 -> 1 {\n"
                     "  target 0 : (0,2) (0,1) (0,1) (0,2)\n"
                     "  target 1 : (0,1) (0,3)\n"
                     "  target 2 : (0,1) (0,1)\n}\n")
# one valid tower written with adjacent labels, inner blanks, tabs and comments
SPACING_SPEC = ("level 0 = [2]  # base\nlevel 1 = [2,4]\nembed 0 -> 1 {\n"
                "  target 0 : (0,1)(0,2)# adjacent\n"
                "\ttarget 1 :\t(0 , 1)\t(0 ,2)(0, 1)  (0,2)   # tabs\n}\n")
# two sources: tabs, a blank before a comma, adjacent and leading-zero labels
LAYOUT_SPEC = ("level 0 = [2,2]\nlevel 1 = [4,4]\nembed 0 -> 1 {\n"
               "\ttarget 0 :\t(0,1)(0,2)\t(1,1) (1  ,2)\n"
               "  target 1 : (0,01) (1,1)(0,2)\t(1,02)\n}\n")
# labels past a source size, p = 0, and a p of max(source) + 1 or more:
# (0,3) would read as (1,0) if labels were numbered s * 3 + p
ALIAS_SPEC = ("level 0 = [2,2]\nlevel 1 = [4,4]\nembed 0 -> 1 {\n"
              "  target 0 : (0,1) (0,3) (1,1) (1,2)\n"
              "  target 1 : (1,0) (0,2) (0,1) (1,5)\n}\n")
# a `repeat` tail whose last step breaks the ballot order
REPEAT_LATTICE_SPEC = ("level 0 = [2]\nlevel 1 = [2]\nembed 0 -> 1 {\n"
                       "  target 0 : (0,2) (0,1)\n}\nrepeat\n")
# points whose `str` order is not file order: digits before letters, a
# two-digit name before a one-digit one, and a name outside ASCII last
STR_ORDER_SYSTEM = "points = 10 9 b a\nphi: 10->9 9->10 b->b a->a\n"
STR_ORDER_NON_ASCII_SYSTEM = ("points = b a 10 9 é\n"
                              "phi: b->a a->10 10->b 9->é é->9\n")
ZERO_SIZE_SPEC = "level 0 = [0]\n"
TWO_LEVELS = "level 0 = [2]\nlevel 1 = [2]\n"
IDENTITY_BLOCK = "  target 0 : (0,1) (0,2)\n}\n"
# one spec per input rejection of the tower parser, each on its own line
REJECTED_SPECS = {
    "malformed-shape": "level 0 = [2,]\n",
    "empty-block": TWO_LEVELS + "embed 0 -> 1 {\n}\n",
    "target-indices": TWO_LEVELS + "embed 0 -> 1 {\n  target 1 : (0,1) (0,2)\n}\n",
    "expected-target": TWO_LEVELS + "embed 0 -> 1 {\n  word (0,1) (0,2)\n}\n",
    "duplicate-target": (TWO_LEVELS + "embed 0 -> 1 {\n"
                         "  target 0 : (0,1) (0,2)\n" + IDENTITY_BLOCK),
    "non-consecutive-embedding": TWO_LEVELS + "embed 0 -> 2 {\n" + IDENTITY_BLOCK,
    "duplicate-embedding": (TWO_LEVELS + "embed 0 -> 1 {\n" + IDENTITY_BLOCK
                            + "embed 0 -> 1 {\n" + IDENTITY_BLOCK),
    "action-block-header": ("level 0 = [2]\naction g order 2 {\n"
                            "  map 0 -> 0 {\n" + IDENTITY_BLOCK + "}\n"),
    "unterminated-action": ("level 0 = [2]\naction g order 2 {\n"
                            "  level 0 -> 0 {\n" + IDENTITY_BLOCK),
    "no-levels": "# nothing but a comment\n",
    "non-contiguous-levels": "level 0 = [2]\nlevel 2 = [2]\n",
    "missing-embedding": TWO_LEVELS,
    "undefined-level-embedding": (TWO_LEVELS + "embed 0 -> 1 {\n" + IDENTITY_BLOCK
                                  + "embed 1 -> 2 {\n" + IDENTITY_BLOCK),
    "repeat-one-level": "level 0 = [2]\nrepeat\n",
}
# one spec per place the tower parser reads a number, each number longer
# than any interpreter converts by default
LONG_NUMBER = "1" * 4301
LONG_NUMBER_SPECS = {
    "label": _two_level_spec("2", "2", f"(0,1) (0,{LONG_NUMBER})"),
    "shape": f"level 0 = [2, {LONG_NUMBER}]\n",
    "target": (TWO_LEVELS + f"embed 0 -> 1 {{\n  target {LONG_NUMBER} : "
               "(0,1) (0,2)\n}\n"),
    "level": f"level 0 = [2]\nlevel {LONG_NUMBER} = [2]\n",
    "embed": TWO_LEVELS + f"embed 0 -> {LONG_NUMBER} {{\n" + IDENTITY_BLOCK,
    "order": (f"level 0 = [2]\naction g order {LONG_NUMBER} {{\n"
              "  level 0 -> 0 {\n" + IDENTITY_BLOCK + "}\n"),
    "action-level": ("level 0 = [2]\naction g order 2 {\n"
                     f"  level 0 -> {LONG_NUMBER} {{\n" + IDENTITY_BLOCK
                     + "}\n"),
}
ZERO_SUMMAND_SPEC = ("level 0 = [2]\nlevel 1 = [2,0]\nembed 0 -> 1 {\n"
                     "  target 0 : (0,1) (0,2)\n  target 1 :\n}\n")

# name -> (argv, stdin text or None)
CASES: dict[str, tuple[tuple[str, ...], str | None]] = {
    # links: every status and certificate
    "links-linked": (("links", "standard-2", "--unit", "0:0:1:2"), None),
    "links-separation": (("links", "refinement-2", "--unit", "0:0:1:2"), None),
    "links-frozen-rule": (("links", "paper-example-taf", "--unit", "1:1:1:2"),
                          None),
    "links-frozen-prefix": (("links", "@prefix.tower", "--unit", "1:0:1:2"),
                            None),
    "links-finite-tower": (("links", "@finite.tower", "--unit", "0:0:1:2"),
                           None),
    "links-finite-linked": (("links", "@finite.tower", "--unit", "1:0:1:2"),
                            None),
    "links-not-linked-up-to": (("links", "@prefix.tower", "--unit", "0:0:1:2",
                                "--horizon", "5"), None),
    "links-lower-unit": (("links", "standard-2", "--unit", "0:0:2:1"), None),
    # a link made by an explicit step below a separating `repeat` tail
    "links-sep-prefix": (("links", "@sep.tower", "--unit", "0:0:1:2"), None),
    "links-compact": (("links", "refinement-2", "--unit", "1:0:2:3",
                       "--json"), None),
    # a finite tower whose only link lies above the horizon, then at it
    "links-two-summand-below-link": (("links", "@two-summand.tower", "--unit",
                                      "0:0:1:2", "--horizon", "1"), None),
    "links-two-summand-linked": (("links", "@two-summand.tower", "--unit",
                                  "0:0:1:2", "--horizon", "2", "--json"),
                                 None),
    "embed": (("embed", "paper-example-taf", "--unit", "0:0:1:2",
               "--level", "3"), None),
    # donsig
    "donsig-not-semisimple": (("donsig", "refinement-2", "--level", "1",
                               "--horizon", "6"), None),
    "donsig-semisimple": (("donsig", "standard-2", "--level", "1"), None),
    "donsig-taf": (("donsig", "paper-example-taf", "--level", "1",
                    "--horizon", "4", "--json"), None),
    "donsig-inconclusive": (("donsig", "@prefix.tower", "--level", "0",
                             "--horizon", "4"), None),
    "donsig-finite-clamped": (("donsig", "@finite.tower", "--level", "5",
                               "--json"), None),
    "donsig-stdin": (("donsig", "-", "--level", "0"), "preset standard-2\n"),
    "donsig-two-summand": (("donsig", "@two-summand.tower", "--level", "1",
                            "--json"), None),
    # every verdict branch of a whole-level report: linked at a unit's own
    # level and above it, frozen (paper-example-taf, the tower files),
    # separation (refinement-2), finite-tower (two-summand) and
    # not-linked-up-to (a horizon at the level, and a `repeat` tail)
    **{f"donsig-{name.strip('@').replace('.tower', '')}-level-{level}"
       f"{'-compact' if compact else ''}": (
           ("donsig", name, "--level", str(level))
           + (("--json",) if compact else ()), None)
       for name, level in (("standard-2", 3), ("refinement-2", 3),
                           ("paper-example-taf", 3), ("@prefix.tower", 2),
                           ("@two-summand.tower", 2), ("@swap.tower", 2))
       for compact in (False, True)},
    "donsig-standard-2-horizon-at-level": (("donsig", "standard-2", "--level",
                                            "3", "--horizon", "3"), None),
    "donsig-standard-2-horizon-above-level": (("donsig", "standard-2",
                                               "--level", "3", "--horizon",
                                               "4", "--json"), None),
    "donsig-paper-example-taf-horizon-at-level": (
        ("donsig", "paper-example-taf", "--level", "3", "--horizon", "3",
         "--json"), None),
    "donsig-prefix-horizon-at-level": (("donsig", "@prefix.tower", "--level",
                                        "2", "--horizon", "2"), None),
    "donsig-prefix-horizon-above-level": (("donsig", "@prefix.tower",
                                           "--level", "2", "--horizon", "3",
                                           "--json"), None),
    # radical: every route
    "radical-linkless-decomposition": (("radical", "refinement-2", "--unit",
                                        "0:0:1:2"), None),
    "radical-chain-cycle": (("radical", "standard-2", "--unit", "0:0:1:2"),
                            None),
    "radical-chain-diagonal": (("radical", "standard-2", "--unit", "1:0:2:2"),
                               None),
    "radical-uniform-nilpotency": (("radical", "paper-example-taf", "--unit",
                                    "0:0:1:2"), None),
    "radical-finite-nilpotency": (("radical", "@finite.tower", "--unit",
                                   "1:0:1:2", "--expand-horizon", "1",
                                   "--exponent", "2"), None),
    "radical-finite-nilpotency-two-summand": (("radical", "@two-summand.tower",
                                               "--unit", "0:0:1:2",
                                               "--expand-horizon", "0"), None),
    "radical-exponent-one": (("radical", "paper-example-taf", "--unit",
                              "0:0:1:2", "--exponent", "1"), None),
    "radical-diagonal-exponent-three": (("radical", "paper-example-taf",
                                         "--unit", "0:0:1:1", "--exponent",
                                         "3"), None),
    "radical-negative-exponent": (("radical", "@prefix.tower", "--unit",
                                   "0:0:1:2", "--exponent", "-1",
                                   "--expand-horizon", "0", "--horizon", "3"),
                                  None),
    # linkless units at level 1 across both summands, in sorted order
    "radical-two-summand-decomposition": (("radical", "@two-summand.tower",
                                           "--unit", "0:0:1:2", "--json"),
                                          None),
    "radical-lower-unit": (("radical", "@two-summand.tower", "--unit",
                            "0:0:2:1"), None),
    "radical-unknown": (("radical", "paper-example-taf", "--unit", "0:0:1:1",
                         "--expand-horizon", "3", "--horizon", "4"), None),
    "radical-unknown-prefix": (("radical", "@prefix.tower", "--unit", "0:0:1:2",
                                "--expand-horizon", "0", "--horizon", "4"),
                               None),
    # chain units on explicit levels anchor no recurrence
    "radical-standard-prefix": (("radical", "@standard-prefix.tower",
                                 "--unit", "0:0:1:2"), None),
    "radical-above-expand-horizon": (("radical", "paper-example-taf",
                                      "--unit", "7:0:1:2"), None),
    "radical-above-expand-horizon-finite": (("radical", "@finite.tower",
                                             "--unit", "2:0:1:2",
                                             "--expand-horizon", "1"), None),
    # a link horizon below the expand horizon, and one below the unit
    "radical-horizon-below-expand": (("radical", "standard-2", "--unit",
                                      "0:0:1:2", "--horizon", "2"), None),
    "radical-negative-horizon": (("radical", "standard-2", "--unit",
                                  "0:0:1:2", "--horizon", "-1"), None),
    # diagonal units: one per preset and level 0-2, a finite tower and a
    # `repeat` tail
    **{f"radical-diagonal-{name}-{level}": (
        ("radical", name, "--unit", f"{level}:{summand}:1:1"), None)
       for name, summands in (("standard-2", (0, 0, 0)),
                              ("refinement-2", (0, 0, 0)),
                              ("paper-example-taf", (0, 1, 2)))
       for level, summand in enumerate(summands)},
    "radical-diagonal-finite": (("radical", "@finite.tower", "--unit",
                                 "1:0:2:2"), None),
    "radical-diagonal-repeat": (("radical", "@prefix.tower", "--unit",
                                 "1:1:1:1"), None),
    # audits
    "audit-technical-action": (("audit-technical", "@action.tower", "--unit",
                                "0:0:1:2", "--horizons", "2,3"), None),
    "audit-technical-trivial": (("audit-technical", "refinement-2", "--unit",
                                 "0:0:1:2", "--horizons", "2,3", "--json"),
                                None),
    "audit-technical-linked": (("audit-technical", "standard-2", "--unit",
                                "0:0:1:2"), None),
    "audit-order": (("audit-order", "standard-2", "--level", "1"), None),
    "audit-order-refinement": (("audit-order", "refinement-2", "--level", "2",
                                "--json"), None),
    "validate-action": (("validate", "@action.tower"), None),
    # one stdin case per embedding violation kind
    **{f"validate-{kind}": (("validate", "-"), spec)
       for kind, spec in (("shape", SHAPE_SPEC), ("label", LABEL_SPEC),
                          ("count", COUNT_SPEC), ("lattice", LATTICE_SPEC),
                          ("injective", INJECTIVE_SPEC),
                          ("unequal-count", UNEQUAL_COUNT_SPEC),
                          ("label-lattice", LABEL_LATTICE_SPEC),
                          ("out-of-range-source", OUT_OF_RANGE_SOURCE_SPEC),
                          ("multi-target", MULTI_TARGET_SPEC),
                          ("spacing", SPACING_SPEC), ("layout", LAYOUT_SPEC),
                          ("alias", ALIAS_SPEC))},
    "embed-spacing": (("embed", "-", "--unit", "0:0:1:2", "--level", "1"),
                      SPACING_SPEC),
    "links-layout": (("links", "-", "--unit", "0:1:1:2"), LAYOUT_SPEC),
    "embed-two-summand": (("embed", "@two-summand.tower", "--unit", "0:0:1:2",
                           "--level", "2"), None),
    # a `repeat` tail that swaps two summands, and both doubling presets
    "links-swap-repeat": (("links", "@swap.tower", "--unit", "1:1:1:2"), None),
    "donsig-swap-repeat": (("donsig", "@swap.tower", "--level", "3"), None),
    "embed-swap-repeat": (("embed", "@swap.tower", "--unit", "0:0:1:2",
                           "--level", "4"), None),
    **{f"embed-{name}-level-5": (("embed", name, "--unit", "0:0:1:2",
                                  "--level", "5"), None)
       for name in ("standard-2", "refinement-2")},
    "validate-repeat-lattice": (("validate", "-"), REPEAT_LATTICE_SPEC),
    # crossed products with Z3 and Z2 x Z2
    **{f"crossed-{what}-{label}": (("crossed", what, *system, "--json"), None)
       for what in ("tight", "lattice", "radical", "links-lemma", "diag")
       for label, system in (("z3", TRIANGULAR_Z3), ("z2xz2", PAIR_Z2xZ2))},
    "crossed-lattice-z2xz2-3": (("crossed", "lattice", "--base", "3",
                                 "--group", "2x2", "--action", "diag=0,1,1",
                                 "--action", "diag=0,0,1"), None),
    "crossed-lattice-full-swap": (("crossed", "lattice", "--full", "--base",
                                   "2,2", "--group", "2", "--action",
                                   "perm=1,0"), None),
    "crossed-lattice-196": (("crossed", "lattice", "--base", "3,3", "--group",
                             "2x2", "--action", "diag=0,1,1|0,0,1",
                             "--action", "diag=0,0,1|0,1,1"), None),
    # the lattice isomorphism on a mixed Z2 x Z2 action, a Z3 twist of a
    # 4-block, the trivial group and a full base with a twisted swap
    "crossed-lattice-222-mixed": (("crossed", "lattice", "--base", "2,2,2",
                                   "--group", "2x2", "--action", "perm=1,0,2",
                                   "--action", "diag=0,1|0,1|0,0", "--json"),
                                  None),
    "crossed-lattice-z3-4": (("crossed", "lattice", "--base", "4", "--group",
                              "3", "--action", "diag=0,1,2,0"), None),
    "crossed-lattice-trivial-33": (("crossed", "lattice", "--base", "3,3",
                                    "--group", "1"), None),
    "crossed-lattice-full-222-twisted-swap": (
        ("crossed", "lattice", "--full", "--base", "2,2,2", "--group", "2",
         "--action", "perm=1,0,2;diag=0,1|0,1|0,1"), None),
    "crossed-tight-full": (("crossed", "tight", "--full", *TRIANGULAR_Z3),
                           None),
    "crossed-tight-full-swap": (("crossed", "tight", "--full", "--base",
                                 "2,2", "--group", "2", "--action",
                                 "perm=1,0", "--json"), None),
    # every report on a full base too
    "crossed-radical-full-swap": (("crossed", "radical", "--full", "--base",
                                   "2,2", "--group", "2", "--action",
                                   "perm=1,0", "--json"), None),
    "crossed-lattice-full-z3": (("crossed", "lattice", "--full", "--base", "3",
                                 "--group", "3", "--action", "diag=0,1,2"),
                                None),
    "crossed-links-lemma-full": (("crossed", "links-lemma", "--full",
                                  *TRIANGULAR_Z3), None),
    "crossed-diag-full": (("crossed", "diag", "--full", "--base", "2",
                           "--group", "2", "--action", "diag=0,1", "--json"),
                          None),
    "crossed-tight-z3-3": (("crossed", "tight", "--base", "3", "--group", "3",
                            "--action", "diag=0,1,2", "--json"), None),
    "crossed-radical-196": (("crossed", "radical", "--base", "3,3", "--group",
                             "2x2", "--action", "diag=0,1,1|0,0,1",
                             "--action", "diag=0,0,1|0,1,1", "--json"), None),
    "crossed-diag-222": (("crossed", "diag", "--base", "2,2,2", "--group", "2",
                          "--action", "perm=1,0,2", "--json"), None),
    # irrational pivots in Q(zeta_m) for m = 4, 6 and 8 (phi(8) = 4)
    **{f"crossed-diag-z{m}": (("crossed", "diag", "--base", base, "--group",
                               str(m), "--action", f"diag={exps}", "--json"),
                              None)
       for m, base, exps in ((4, "2", "0,1"), (6, "3", "0,1,3"),
                             (8, "2", "0,1"))},
    # Q(zeta_4) and Q(zeta_6) beyond `diag`: radical, tightness of a swap
    # with a twist, and the links lemma
    "crossed-radical-z4": (("crossed", "radical", "--base", "3", "--group",
                            "4", "--action", "diag=0,1,3", "--json"), None),
    "crossed-tight-z6": (("crossed", "tight", "--base", "2,2", "--group", "6",
                          "--action", "perm=1,0;diag=0,1|0,1", "--json"),
                         None),
    "crossed-links-lemma-z6": (("crossed", "links-lemma", "--base", "3",
                                "--group", "6", "--action", "diag=0,1,3",
                                "--json"), None),
    "crossed-permanence-z3": (("crossed", "permanence", "--full",
                               *TRIANGULAR_Z3), None),
    "crossed-permanence-z2xz2": (("crossed", "permanence", "--full", "--base",
                                  "1,1", "--group", "2x2", "--action",
                                  "perm=1,0", "--action", "perm=0,1"), None),
    "crossed-permanence-triangular": (("crossed", "permanence", *PAIR_Z2xZ2),
                                      None),
    # action relations refuted: a twist of order 2 on a Z3 factor, a
    # 3-cycle of summands as an order-2 generator, and a twist that does
    # not commute with a swap
    "crossed-tight-order-twist": (("crossed", "tight", "--base", "2",
                                   "--group", "2x3", "--action", "diag=0,1",
                                   "--action", "diag=0,0"), None),
    "crossed-tight-order-cycle": (("crossed", "tight", "--base", "2,2,2",
                                   "--group", "2", "--action", "perm=1,2,0"),
                                  None),
    "crossed-tight-noncommuting": (("crossed", "tight", "--base", "2,2",
                                    "--group", "2x2", "--action", "perm=1,0",
                                    "--action", "diag=0,1|0,0"), None),
    # the diagonal of a full base with Z3, and a Z3 twist of a 3-block
    "crossed-diag-full-z3": (("crossed", "diag", "--full", "--base", "2",
                              "--group", "3", "--action", "diag=0,1"), None),
    "crossed-diag-z3-3": (("crossed", "diag", "--base", "3", "--group", "3",
                           "--action", "diag=0,1,2"), None),
    # peters
    "peters-enum": (("peters", "@swap.sys", "enum", "--horizon", "1"), None),
    "peters-enum-cycle": (("peters", "@cycle.sys", "enum", "--horizon", "2",
                           "--json"), None),
    "peters-check-fails": (("peters", "-", "check", "--sets", "a,b|a"),
                           SWAP_SYSTEM),
    "peters-check-ok": (("peters", "@cycle.sys", "check", "--sets",
                         "a,b,c,d|a,b,c,d|d|"), None),
    "peters-truncate": (("peters", "@swap.sys", "truncate", "--sets", "a,b|",
                         "--n", "4"), None),
    "peters-truncate-cycle": (("peters", "@cycle.sys", "truncate", "--sets",
                               "a,b,c,d|d", "--n", "5", "--json"), None),
    # a sequence whose entries are not closed under products
    "peters-truncate-no-ideal": (("peters", "@cycle.sys", "truncate",
                                  "--sets", "a|a,b", "--n", "3"), None),
    "peters-not-bijective": (("peters", "@not-bijective.sys", "enum"), None),
    "peters-partial-phi": (("peters", "@partial.sys", "enum"), None),
    "peters-bad-pair": (("peters", "@bad-pair.sys", "enum"), None),
    "peters-enum-cycle-h3": (("peters", "@cycle.sys", "enum", "--horizon",
                              "3", "--json"), None),
    "peters-enum-names": (("peters", "@names.sys", "enum", "--horizon", "2",
                           "--json"), None),
    "peters-enum-non-ascii": (("peters", "-", "enum", "--horizon", "1"),
                              NON_ASCII_SYSTEM),
    "peters-enum-non-ascii-compact": (("peters", "-", "enum", "--horizon", "1",
                                       "--json"), NON_ASCII_SYSTEM),
    # name lists in `str` order, not file order, at horizon 3
    **{f"peters-enum-str-order{tag}{'-compact' if compact else ''}": (
        ("peters", "-", "enum", "--horizon", "3")
        + (("--json",) if compact else ()), text)
       for tag, text in (("", STR_ORDER_SYSTEM),
                         ("-non-ascii", STR_ORDER_NON_ASCII_SYSTEM))
       for compact in (False, True)},
    # system-file keywords: spacing that is accepted, prefixes and repeats
    # that are not
    **{f"peters-system-{name}": (("peters", "-", "enum"), text)
       for name, text in (
           ("spacing", "points=a b\nphi : a->b\nphi :b->a\n"),
           ("points-prefix", "pointsxyz = a b\nphi: a->b b->a\n"),
           ("phi-prefix", "points = a b\nphiq: a->b b->a\n"),
           ("points-no-equals", "points a b\nphi: a->b b->a\n"),
           ("repeated-points", "points = a b\npoints = c\nphi: c->c\n"),
           ("repeated-phi-source", "points = a b\nphi: a->b b->a a->a\n"))},
    "preset": (("preset", "standard-2"), None),
    # usage errors: one `error:` line each, however argv goes wrong
    "usage-empty": ((), None),
    "usage-unknown-command": (("frob", "standard-2"), None),
    "usage-missing-unit": (("radical", "standard-2"), None),
    "usage-unrecognized-argument": (("links", "standard-2", "--unit",
                                     "0:0:1:2", "--bogus"), None),
    "usage-crossed-invalid-report": (("crossed", "nope", "--base", "2"),
                                     None),
    "usage-json-before-command": (("--json", "radical", "standard-2",
                                   "--unit", "0:0:1:1"), None),
    # sizes with nothing in them: one error line each
    "peters-enum-negative-horizon": (("peters", "@swap.sys", "enum",
                                      "--horizon", "-1"), None),
    "peters-truncate-negative-n": (("peters", "@swap.sys", "truncate",
                                    "--sets", "a", "--n", "-2"), None),
    "peters-truncate-zero-n": (("peters", "@swap.sys", "truncate", "--sets",
                                "a", "--n", "0"), None),
    "donsig-negative-level": (("donsig", "standard-2", "--level", "-1"), None),
    "crossed-lattice-empty-block": (("crossed", "lattice", "--base", "2,0",
                                     "--group", "1"), None),
    "crossed-diag-empty-block": (("crossed", "diag", "--base", "0", "--group",
                                  "1"), None),
    "validate-zero-size": (("validate", "-"), ZERO_SIZE_SPEC),
    **{f"validate-rejects-{name}": (("validate", "-"), spec)
       for name, spec in REJECTED_SPECS.items()},
    **{f"validate-long-number-{name}": (("validate", "-"), spec)
       for name, spec in LONG_NUMBER_SPECS.items()},
    "peters-system-no-points": (("peters", "-", "enum"),
                                "# no points line\nphi: a->a\n"),
    "crossed-unknown-action-component": (("crossed", "tight", "--base", "2",
                                          "--group", "2", "--action",
                                          "spin=1"), None),
    "crossed-action-shape-mismatch": (("crossed", "tight", "--base", "2",
                                       "--group", "2", "--action", "diag=0"),
                                      None),
    # malformed numbers in crossed-product and audit arguments
    "crossed-group-empty-factor": (("crossed", "tight", "--base", "2",
                                    "--group", "2x"), None),
    "crossed-base-empty-block": (("crossed", "tight", "--base", ",",
                                  "--group", "1"), None),
    "crossed-action-empty-diag": (("crossed", "tight", "--base", "2",
                                   "--group", "2", "--action",
                                   "perm=0;diag=0,1;diag="), None),
    "audit-technical-one-horizon": (("audit-technical", "standard-2",
                                     "--unit", "0:0:1:2", "--horizons", "3"),
                                    None),
    "links-unit-non-integer": (("links", "standard-2", "--unit", "0:0:1:x"),
                               None),
    # horizons that leave the audit's scan empty: h1 below the unit's
    # level, h1 above h2, and h1 equal to h2
    "audit-technical-unit-above-horizons": (("audit-technical", "refinement-2",
                                             "--unit", "5:0:1:2",
                                             "--horizons", "3,4"), None),
    "audit-technical-reversed-horizons": (("audit-technical", "refinement-2",
                                           "--unit", "0:0:1:2",
                                           "--horizons", "5,4"), None),
    "audit-technical-equal-horizons": (("audit-technical", "refinement-2",
                                        "--unit", "0:0:1:2",
                                        "--horizons", "4,4"), None),
    # an h2 past the last level of a finite tower
    "audit-technical-horizon-past-top": (("audit-technical", "@finite.tower",
                                          "--unit", "0:0:1:2",
                                          "--horizons", "4,5"), None),
    "peters-check-unknown-point": (("peters", "@swap.sys", "check", "--sets",
                                    "a,z|a"), None),
    "peters-check-without-sets": (("peters", "@swap.sys", "check"), None),
    "donsig-zero-size": (("donsig", "-", "--level", "0"), ZERO_SIZE_SPEC),
    "radical-zero-size-summand": (("radical", "-", "--unit", "0:0:1:2"),
                                  ZERO_SUMMAND_SPEC),
    # a word syntax error names the line column of the first stray character
    **{f"validate-stray-{name}": (("validate", "-"),
                                  _two_level_spec("2", "2", word))
       for name, word in (("token", "(0,1) x"), ("digits", "(0,1) 1x"),
                          ("comma", "(0,1)(0,2) ,"))},
    # one-step towers on the edges of the word grammar: no blank after
    # '(' or before ')', blanks around ',', adjacent labels, leading
    # zeros, and a non-ASCII decimal digit (ARABIC-INDIC DIGIT ONE)
    **{f"validate-word-{name}": (("validate", "-"),
                                 _two_level_spec("2", "2", word))
       for name, word in (("blank-after-open", "( 0,1) (0,2)"),
                          ("blank-before-close", "(0,1 ) (0,2)"),
                          ("adjacent", "(0,1)(0,2)"),
                          ("leading-zero", "(0,01) (0,2)"),
                          ("blanks-around-comma", "(0 ,1) (0,\t2)"),
                          ("arabic-indic-digit", "(0,\u0661) (0,2)"))},
}


def _argv(argv: tuple[str, ...]) -> list[str]:
    return [str(HERE / a[1:]) if a.startswith("@") else a for a in argv]


def run_case(argv: tuple[str, ...], stdin: str | None) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run.

    An exception escaping `run` is recorded in place of the exit code, so
    a traceback shows up as a difference rather than aborting a replay.
    """
    from limitalg.cli import run

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(_argv(argv))
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                code = f"uncaught {type(exc).__name__}"
    finally:
        sys.stdin = saved_stdin
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def replay() -> dict[str, dict]:
    os.environ.pop("LIMITALG_HORIZON", None)
    return {name: run_case(argv, stdin) for name, (argv, stdin) in CASES.items()}


def main(argv: list[str]) -> None:
    results = replay()
    if "--record" in argv:
        corpus = {name: {"argv": list(CASES[name][0]), **results[name]}
                  for name in CASES}
        CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(results, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
