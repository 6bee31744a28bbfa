"""Stabilizers two ways: brute force against the structure theory.

Brute force acts with all of PGL(V)(k) and keeps what fixes the point.
The prediction never acts and never enumerates the group: it builds the
stabilizer from the point's stratum flag, as the Levi part times the
unipotent radical of the flag's parabolic, each dense quotient's block
multiplication by a scalar of its multiplier field k_f.  The two agree
everywhere; the eigenvalue route of the dense fixpoint check also names
the witnessing divisor d.
"""

from drinfeld import (
    PPoint,
    context_for,
    enumerate_pgl,
    fixpoint_check_omega,
    p_core,
    stabilizer_bruteforce,
    stabilizer_predicted,
    stratum_flag,
    unipotent_elements,
    unipotent_radical_k,
)

ctx = context_for(2, 1, 2, [1, 2, 3])
group = enumerate_pgl(2, ctx)
print(f"|PGL(2, 2)| = {len(group)}")

w = next(a for a in ctx.subfield_elements(2) if a not in (ctx.zero, ctx.one))
x = PPoint(ctx, (ctx.one, w))
stab = stabilizer_bruteforce(x)
print(f"\nstabilizer of the dense point (1, w), w in GF(4): order {len(stab)}")
for g in stab:
    d = fixpoint_check_omega(x.coords, g.matrix, ctx)
    print(f"  element of order {g.order()}: witnessed by divisor d = {d}")
print("prediction agrees:", stabilizer_predicted(x) == stab)
print("unipotent part is trivial (all elements semisimple):",
      len(unipotent_elements(stab)) == 1)

# in dimension three the unipotent structure is richer
ctx3 = context_for(2, 1, 3, [1, 2])
group3 = enumerate_pgl(3, ctx3)
print(f"\n|PGL(3, 2)| = {len(group3)}")

rational = PPoint(ctx3, (ctx3.one, ctx3.zero, ctx3.zero))
stab3 = stabilizer_bruteforce(rational, group3)
flag = stratum_flag(rational)
radical = unipotent_radical_k(flag, ctx3)
print("rational covector point (1, 0, 0):")
print(f"  stabilizer order {len(stab3)} (the full stabilizer of the kernel plane)")
print(f"  unipotent elements: {len(unipotent_elements(stab3))}")
print(f"  radical of the stratum parabolic: {len(radical)}")
print(f"  largest normal p-subgroup of the stabilizer: {len(p_core(stab3))}")
print("  the normal core recovers the radical:", p_core(stab3) == radical)
print("  (the plain unipotent-element count overshoots: the free diagonal")
print("   block on the kernel contributes transvections outside the radical)")
