#!/usr/bin/env python3
# Certificates: a nonnegative function V(x, xi, t) sandwiched between powers
# of the variational output and the variational state, decaying along the
# flow, guarantees output contraction with an explicit rate.  The toolkit
# does not search for certificates; it tries hard to break the one you give
# it, and tells you the guaranteed rate when it fails to.

from occtl import (
    Bounds, CandidateV, CheckDomain, builtin_system, check_certificate,
    implied_rate, reverify_counterexample, vdot,
)

spec = builtin_system("ex1-timevarying")
V = CandidateV.from_string("(xi1 + xi2)^2")

# Vdot is one compiled symbolic tree: the partials of V along the
# variational field (f, Jf xi) of the system
print("Vdot at a point:", vdot(spec, V, (0.0, 0.0), (1.0, 1.0), 0.0))

# --- a certificate that works --------------------------------------------------

bounds = Bounds(alpha1=1.0, alpha2=2.0, alpha3=0.0, alpha4=2.0, p=2.0)
domain = CheckDomain(x_box=((-10.0, 10.0), (-10.0, 10.0)),
                     t_range=(0.0, 6.283185307179586),
                     samples=50_000, seed=0)
# with alpha4 set, both conditions are judged on one draw of the domain
sandwich, decay = check_certificate(spec, V, bounds, domain)
print("sandwich:", sandwich.passed, f"(worst margin {sandwich.worst_margin:.2e},",
      sandwich.checked, "points)")
print("decay:   ", decay.passed, f"(worst margin {decay.worst_margin:.2e})")

c, alpha = implied_rate(bounds)
print(f"guaranteed envelope: ||y - y'|| <= {c:.4f} e^(-{alpha} (t-t0)) ||x0 - x0'||")

# --- a certificate that overclaims ---------------------------------------------

greedy = Bounds(alpha1=1.0, alpha2=2.0, alpha3=0.0, alpha4=12.0, p=2.0)
_, broken = check_certificate(spec, V, greedy, domain)
print("\nclaiming decay rate 12 instead:", broken.passed)
print("counterexample:", broken.counterexample)
# counterexamples are re-checked through central differences, a derivative
# path the falsifier never uses; negative slack = independently confirmed
print("independent re-check slack:",
      reverify_counterexample(spec, V, greedy, broken))

# --- time-invariant variant ------------------------------------------------------

ti = builtin_system("ex2-timeinvariant")
# without alpha4, alpha3 is the decay rate, and the same two conditions are
# judged at t = t0 = 0, where the sandwich has no exponential weight
ti_bounds = Bounds(alpha1=1.0, alpha2=2.0, alpha3=2.0, p=2.0)
sandwich, decay = check_certificate(ti, V, ti_bounds, domain)
c, alpha = implied_rate(ti_bounds)
print("\ntime-invariant certificate:")
print("sandwich:", sandwich.passed, f"(worst margin {sandwich.worst_margin:.2e})")
print("decay:   ", decay.passed, f"(worst margin {decay.worst_margin:.2e})")
print(f" -> outputs converge to the output equilibrium at rate {alpha}")
