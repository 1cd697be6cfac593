"""Near-returns of a rotation orbit, and times that are near AND zero.

A rotation orbit comes back within eps of its start along the
continued-fraction denominators; independently, the +-1 step cocycle
sums to zero on its own schedule.  The joint detector intersects the
two and reports how close each surviving time gets.  A long sparse scan
shows the three gaps between near times, and a rational angle with a
large denominator lists its near residues the same way.
"""
from fractions import Fraction

from ergolab import (
    AngleSpec,
    CircleRotation,
    StepCocycle,
    cf_convergents,
    joint_zero_returns,
    near_returns,
)

base = CircleRotation(AngleSpec.preset("golden"))
x0 = Fraction(1, 10)

# 1. pure near-returns: d(S^n x, x) < 1/50
close = near_returns(base, x0, 10_000, Fraction(1, 50))
print("near-return times (eps=1/50):", close.times)
print("Fibonacci denominators:      ", [c.denominator for c in cf_convergents(base.alpha, 12)])

# 2. simultaneous events: zero sum and distance < 1/100
f = StepCocycle.step_at_half()
joint = joint_zero_returns(base, f, x0, 10_000, Fraction(1, 100))
print(f"\njoint zero/near events up to 10^4: {len(joint)}")
for rec in joint[:8]:
    print(f"  n={rec.time:6d}  sum={rec.value}  distance={rec.distance:.3e}")

# the minimum distance keeps shrinking as the horizon grows -- recurrence
# never exhausts itself
for horizon in (1_000, 10_000, 100_000):
    events = joint_zero_returns(base, f, x0, horizon, Fraction(1, 10))
    best = min(rec.distance for rec in events)
    print(f"horizon {horizon:6d}: {len(events):5d} events, closest approach {best:.3e}")

# 3. a long horizon: sqrt2 within 1e-6 over 10^10 steps.  Near times are
# sparse here, so the scan walks only the returns of n*alpha to the eps arc,
# which by the three-gap theorem come after one of three gaps
root2 = CircleRotation(AngleSpec.preset("sqrt2"))
far = near_returns(root2, 0, 10**10, Fraction(1, 10**6)).times.tolist()
print(f"\nsqrt2 near-returns up to 10^10 (eps=1e-6): {len(far)}, first {far[:3]}")
print("gaps between them:", sorted({b - a for a, b in zip(far, far[1:])}))

# 4. a rational angle p/q: ||n p/q|| = k/q repeats every q steps, and the
# same three-gap listing, on the integers mod q, gives the near residues of
# one period, one iteration each, however large q is
q = 1_000_003
ratio = CircleRotation(AngleSpec.rational(123457, q))
laps = near_returns(ratio, 0, 10**7, Fraction(1, 1000)).times
first = laps[laps <= q]
print(f"\n123457/{q} near-returns up to 10^7 (eps=1/1000): {len(laps)}, "
      f"{len(first)} per period, first {first[:3].tolist()}")
