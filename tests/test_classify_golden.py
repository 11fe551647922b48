"""`ode.classify_affine` against a golden file.

`tests/golden/classify/blocks.json` holds one case a line: a few hundred
seeded `genprog` blocks (`exp` allowed), then every differential block of
the bundled programs and of `bench/pendulum.swl`.  Each case records its
derivatives as text and A and c as `float.hex` strings, both null for a
non-affine block, so a change in any bit, the sign of a zero included,
shows.

Rewrite the file from the classifier under test with
`PYTHONPATH=src python tests/test_classify_golden.py`.
"""

import json
import random
from pathlib import Path

from swhile.ode import classify_affine
from swhile.parser import parse_file
from swhile.syntax import DiffBlock, If, Lit, Seq, While, pretty_expr

from genprog import gen_expr, gen_table

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "classify" / "blocks.json"
SEEDED_BLOCKS = 300


def _program_blocks(program):
    """The differential blocks of `program`, in source order."""
    blocks, todo = [], [program]
    while todo:
        node = todo.pop()
        if isinstance(node, DiffBlock):
            blocks.append(node)
        elif isinstance(node, Seq):
            todo += [node.rest, node.first]
        elif isinstance(node, If):
            todo += [node.else_branch, node.then_branch]
        elif isinstance(node, While):
            todo.append(node.body)
    return blocks


def _cases():
    """(name, block) for every case of the golden file, in its order."""
    for seed in range(SEEDED_BLOCKS):
        rng = random.Random(seed)
        table = gen_table(rng)
        derivs = tuple(gen_expr(rng, table, 3, allow_exp=True) for _ in table.names)
        yield f"seed {seed}", DiffBlock(derivs, Lit(1.0))
    paths = sorted((ROOT / "programs").glob("*.swl")) + [ROOT / "bench" / "pendulum.swl"]
    for path in paths:
        program, _ = parse_file(path)
        for i, block in enumerate(_program_blocks(program)):
            yield f"{path.relative_to(ROOT).as_posix()} #{i}", block


def _entry(name, block):
    affine = classify_affine(block)
    a, c = (None, None) if affine is None else (
        [[v.hex() for v in row] for row in affine[0]], [v.hex() for v in affine[1]])
    return {"case": name, "derivs": [pretty_expr(d) for d in block.derivs], "A": a, "c": c}


def _text():
    return "[\n" + ",\n".join(json.dumps(_entry(*case)) for case in _cases()) + "\n]\n"


def test_classify_affine_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(_text())
    assert [e["case"] for e in got] == [e["case"] for e in want]
    for g, w in zip(got, want):
        assert g == w
    # the cases hold affine and non-affine blocks alike
    assert 50 < sum(e["A"] is not None for e in want) < len(want) - 50


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(_text())
