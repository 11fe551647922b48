"""Parse outcomes against a golden file.

`tests/golden/parse_outcomes.json` holds one case a line: its name, the
entry point (`program` for `parse_program`, `bool` for `parse_bool_expr`
against the table `x, y`), the source text itself, and the outcome -- the
`repr` of the AST (so Var indices show) and the variable table, or the
`ParseError` text with its line and column.  The cases are the bundled
programs and `bench/pendulum.swl`, each as it is and with seeded token
deletions, duplications and swaps; token-soup strings through both entry
points; seeded `genprog` conditions over `x, y, z`, as printed and
mutated; and a few hand-written edge cases.  The file stores its inputs,
so the test reads no random numbers.

Rewrite the file, outcomes and inputs, from the parser under test with
`PYTHONPATH=src python tests/test_parse_outcomes.py`.
"""

import json
import random
import re
from pathlib import Path

from swhile.parser import ParseError, parse_bool_expr, parse_program
from swhile.syntax import VarTable, pretty_bool

from genprog import gen_bool, gen_table

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parse_outcomes.json"
BOOL_TABLE = VarTable(("x", "y"))
MUTATIONS = 400
SOUPS = 200
CONDITIONS = 100

# whitespace and comments are kept as they are, so mutations move lines
_PIECE_RE = re.compile(r"\s+|//[^\n]*|[A-Za-z_0-9.]+|:=|<=|&&|\|\||\+\+|--|\S")

_SOUP_TOKENS = [
    "x", "y", "z", "tt", "ff", "if", "then", "else", "while", "do", "wait",
    "for", "bernoulli", "unif", "exp", "normal", "ln", "sqrt", "sin", "pi",
    "x_f", "x1", ":=", ";", ",", "(", ")", "{", "}", "<=", "&&", "||", "+",
    "-", "*", "/", "'", "=", "++", "--", "0", "1", "2.5", ".5", "1e3",
    "1e999", "//", "\n", "\r\n", "\t", "@",
]

HAND_CASES = [
    ("bad character after CRLF and tab lines", "program",
     "x := 1 ;\r\n\ty := 2 ;\r\n\t\tz := x @ y\r\n"),
    ("overflowing literal", "program", "x := 1 ;\n  y := 1e999"),
    ("end of input after a trailing comment", "program", "x := 1 ;\ny := x +\n// dangling\n"),
    ("unif with a > b", "program", "x := 0 ;\n  y := unif(3, 1)"),
    ("unif with literal bounds in order", "program", "y := unif(1, 3)"),
    ("no variables", "program", "\n  wait 1"),
    ("empty source", "program", ""),
    ("two draws in one right-hand side", "program", "x := unif(0, 1) + exp(2) * normal(0, 1)"),
    ("target read by its own draw", "program", "x := unif(x, 2)"),
    ("helper names taken", "program", "x1 := 1 ; x2 := 2 ; x_f := 3 ; x := normal(x1, x2) ; bernoulli(0.5, x_f := 1, x := 2)"),
    ("bernoulli with a bare differential block", "program", "bernoulli(0.5, x' = 1 for 1, x := 0)"),
    ("condition backtracking into parentheses", "program",
     "x := 0 ; if (x <= 1) && ((x + 1) * 2 <= 3 || ff) then x++ else { x-- }"),
    ("unknown variable in a multi-line condition", "bool", "x <= 1 &&\n  (y <= 2 ||\n   z <= 3)"),
    ("exp is a function in a condition", "bool", "exp(x) <= y"),
    ("sampler in a condition", "bool", "\tunif(0, 1) <= x"),
    ("trailing input after a condition", "bool", "x <= 1 y"),
    ("empty condition", "bool", "  // nothing\n"),
]


def _mutant(rng, source):
    """`source` with one or two token deletions, duplications or swaps."""
    out = _PIECE_RE.findall(source)
    for _ in range(rng.randint(1, 2)):
        spots = [i for i, p in enumerate(out) if not p.isspace() and not p.startswith("//")]
        if not spots:
            break
        i = rng.choice(spots)
        op = rng.randrange(3)
        if op == 0:
            del out[i]
        elif op == 1:
            out.insert(i, out[i])
        else:
            j = rng.choice(spots)
            out[i], out[j] = out[j], out[i]
    return "".join(out)


def _inputs():
    """(name, entry point, source) for every case, seeded; used only to rewrite the file."""
    paths = sorted((ROOT / "programs").glob("*.swl")) + [ROOT / "bench" / "pendulum.swl"]
    rng = random.Random(28)
    per_path = -(-MUTATIONS // len(paths))
    for path in paths:
        name, source = path.relative_to(ROOT).as_posix(), path.read_text()
        yield name, "program", source
        for k in range(per_path):
            yield f"{name} mutant {k}", "program", _mutant(rng, source)
    for k in range(SOUPS):
        source = " ".join(rng.choice(_SOUP_TOKENS) for _ in range(rng.randint(1, 25)))
        yield f"soup {k}", "program", source
        yield f"soup {k}", "bool", source
    for k in range(CONDITIONS):
        source = pretty_bool(gen_bool(rng, gen_table(rng), 3))
        yield f"condition {k}", "bool", source
        yield f"condition {k} mutant", "bool", _mutant(rng, source)
    yield from HAND_CASES


def _outcome(via, source):
    try:
        if via == "program":
            program, table = parse_program(source)
            return {"ast": repr(program), "table": list(table.names)}
        return {"ast": repr(parse_bool_expr(source, BOOL_TABLE))}
    except ParseError as exc:
        return {"error": str(exc)}


def test_parse_outcomes_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case in want:
        assert _outcome(case["via"], case["source"]) == case["outcome"], case["case"]
    # the cases hold parses and errors through both entry points
    for via in ("program", "bool"):
        outcomes = [c["outcome"] for c in want if c["via"] == via]
        assert 50 < sum("ast" in o for o in outcomes) < len(outcomes) - 50


if __name__ == "__main__":
    cases = (
        json.dumps({"case": name, "via": via, "source": source, "outcome": _outcome(via, source)})
        for name, via, source in _inputs()
    )
    GOLDEN.write_text("[\n" + ",\n".join(cases) + "\n]\n", encoding="utf-8")
