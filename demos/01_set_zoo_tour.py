"""Tour of the moving-set zoo: exact distances and multi-valued projections.

Each family is frozen at a chosen (t, x) and queried for distances,
nearest points, and membership.  Everything here is closed form except the
half-space intersection, which runs Dykstra's alternating corrections.
"""

import numpy as np

import sweepsolve as sw


def main():
    x_any = np.zeros(2)

    print("== half-space {z : z_1 <= t} ==")
    hs = sw.HalfSpaceSpec(normal=[1.0, 0.0], drift=1.0)
    inst = sw.instantiate(hs, 0.5, x_any)
    print("distance((2, 0))   =", inst.distance([2.0, 0.0]))
    print("project((2, 3))    =", inst.project([2.0, 3.0]))
    print("member((0.5, 9))   =", inst.member([0.5, 9.0]))

    print("\n== translating ball ==")
    ball = sw.BallSpec(center=[0.0, 0.0], velocity=[1.0, 0.0], radius=1.0)
    inst = sw.instantiate(ball, 2.0, x_any)
    print("center at t=2      =", inst.center)
    print("project((5, 0))    =", inst.project([5.0, 0.0]))

    print("\n== wedge {(a, b) : b >= -|a|}, the classic nonconvex example ==")
    wedge = sw.WedgeSpec(apex=[0.0, 0.0])
    inst = sw.instantiate(wedge, 0.0, x_any)
    z = [0.0, -1.0]
    print("distance((0, -1))  =", inst.distance(z), " (= sqrt(2)/2)")
    print("project((0, -1))   =", inst.project(z), " <- two nearest points")
    print("selection          =", inst.project(z)[0], " (lexicographic tie-break)")

    print("\n== intersection of half-spaces via Dykstra ==")
    members = (sw.HalfSpaceSpec(normal=[1.0, 0.0]),
               sw.HalfSpaceSpec(normal=[0.0, 1.0]))
    corner = sw.HalfSpaceIntersectionSpec(members)
    inst = sw.instantiate(corner, 0.0, x_any)
    p, cycles = sw.dykstra_project(
        [m.freeze(0.0, x_any) for m in members], np.array([1.0, 1.0]))
    print("project((1, 1))    =", p, f" ({cycles} Dykstra cycles)")

    print("\n== union of two balls: distance is the member minimum ==")
    union = sw.UnionSpec((sw.BallSpec(center=[-2.0, 0.0], radius=0.5),
                          sw.BallSpec(center=[2.0, 0.0], radius=0.5)))
    inst = sw.instantiate(union, 0.0, x_any)
    print("distance((0, 0))   =", inst.distance([0.0, 0.0]))
    print("project((0, 0.1))  =", inst.project([0.0, 0.1]), " <- one per ball")


if __name__ == "__main__":
    main()
