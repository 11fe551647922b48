"""Distribution semantics versus exhaustive execution.

Under a k-point discretization of the sampler, a program denotes a
finite-support distribution over outcomes.  Enumerating every branch of
the executable semantics with the same loop bound must produce exactly
the same distribution; weights are exact rationals, so every gap printed
below is exactly zero.
"""

from swhile import (
    Discretization,
    XPoint,
    adequacy_check,
    denote,
    dirac,
    make_store,
    parse_file,
    parse_program,
)

program, table = parse_file("programs/bernoulli_choice.swl")
kernel = denote(program, Discretization(2), max_unfold=2)
print("bernoulli(1/2, x++, x--) from x = 0 at t = 1:")
for point, weight in sorted(kernel(XPoint(make_store(table), 1.0)).items(), key=repr):
    print(f"  weight {weight}: {point}")

for path, times in [
    ("programs/ctrw.swl", (0.0, 0.7, 1.4)),
    ("programs/ball.swl", (0.0, 0.7, 1.4)),
    ("programs/positioning.swl", (0.0, 2.0, 5.0)),
]:
    program, table = parse_file(path)
    store = make_store(table)
    worst = 0.0
    for t in times:
        report = adequacy_check(program, dirac(XPoint(store, t)), Discretization(2), max_unfold=6)
        assert report.passed
        worst = max(worst, report.tv)
    print(f"{path}: total-variation gap {worst} across t = {times}")
