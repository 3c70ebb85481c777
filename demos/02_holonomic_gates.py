"""Build the three gate families, check them against closed forms, and
certify the holonomy conditions from the simulated trajectories.

The gates are products of two (or four) constant-Hamiltonian segments;
only each segment's pulse area matters. Restricted to the code space they
match, up to a global phase:

    u1 -> exp(-i theta Y_j)      u2 -> exp(-i theta Z_j)
    u3 -> exp(+i phi Y_k Z_l)    (entangling)
"""

import numpy as np

from dfsgates import (
    analytic_target,
    barred_transform,
    leakage_of,
    logical_gate,
    product_fidelity,
    schedule_to_json,
    schedule_u1,
    schedule_u2,
    schedule_u3,
    verify_holonomy,
)

n = 4
theta = np.pi / 7
phi = np.pi / 4

# --- schedules are plain data ----------------------------------------------
s1 = schedule_u1(n, 1, theta)
print("u1 schedule (hamiltonian, area):")
for seg in s1.segments:
    print(f"    {seg.hamiltonian.text():60s} area={seg.area:+.6f}")
print("as JSON:", schedule_to_json(s1)[:80], "...")

# --- evolve and compare against the closed forms ----------------------------
for schedule in (s1, schedule_u2(n, 1, theta), schedule_u3(n, 1, 2, phi)):
    block = logical_gate(schedule)
    fid = product_fidelity([block], [analytic_target(schedule)])
    print(
        f"\n{schedule.kind} target={schedule.target} angle={schedule.angle:.4f}: "
        f"fidelity to closed form = {fid:.15f}, leakage = {leakage_of(block):.2e}"
    )
    print(np.array_str(block, precision=3, suppress_small=True))

# --- holonomy certification --------------------------------------------------
print("\nholonomy reports (cyclic defect / transport violation / leakage):")
for schedule in (s1, schedule_u2(n, 2, 1.0), schedule_u3(n, 1, 2, phi)):
    r = verify_holonomy(schedule)
    print(
        f"    {schedule.kind}: {r.cyclic_defect:.2e} / "
        f"{r.max_parallel_transport_violation:.2e} / {r.leakage:.2e}"
    )

swap = verify_holonomy(schedule_u3(n, 1, 2, phi)).subspace_swap
print(f"u3 mid-sequence subspace swap defect: {swap:.2e}")

# --- the entangling gate block by block --------------------------------------
# In the barred basis of the two targets, the two segment generators have
# the unitary off-diagonal blocks A and B, and the gate is
# U = -diag(B A†, B† A).
a = np.array(
    [[-1j * np.cos(phi), -np.sin(phi)], [-np.sin(phi), -1j * np.cos(phi)]],
    dtype=np.complex128,
)
b = -1j * np.eye(2, dtype=np.complex128)
assembled = np.zeros((4, 4), dtype=np.complex128)
assembled[:2, :2] = -(b @ a.conj().T)
assembled[2:, 2:] = -(b.conj().T @ a)
v = barred_transform(2, (1, 2))
simulated = v.conj().T @ logical_gate(schedule_u3(n, 1, 2, phi)) @ v
print("\nanalytic blocks at phi = pi/4:")
print("A =\n", np.array_str(a, precision=4))
print("B =\n", np.array_str(b, precision=4))
print(
    "max |simulated - assembled| in the barred basis:",
    f"{np.abs(simulated - assembled).max():.2e}",
)
