"""Gauge workload module: the parastat.gauge_sim API on S3 over ladder_2x3.

The CLI only offers the 2x2 patch.  run(seed) builds the ladder ground state
(6^7 configurations enumerated, 6^5 flat), measures every vertex and
plaquette projector on it, checks projector idempotence and commutation on
seeded random states, and applies a Wilson line along the bottom edge
together with a homotopic line over the top.
"""

from parastat import gauge_sim as gs
from parastat import group_engine as ge

BOTTOM = ((0, +1), (1, +1))  # v0 -> v1 -> v2
OVER_TOP = ((4, +1), (2, +1), (3, +1), (6, -1))  # v0 -> v3 -> v4 -> v5 -> v2


def run(seed):
    G = ge.enumerate_group(ge.s3_presentation())
    lat = gs.ladder_2x3()
    residuals = gs.commutator_residuals(G, lat, seed=seed)
    g0 = gs.ground_state(G, lat)
    psi = max(ge.irreps(G), key=lambda rep: rep.dim)
    line = gs.WilsonLine(psi, BOTTOM)
    excited = gs.apply_wilson_line(g0, line, 0, 0)
    return {
        "group_order": G.order,
        "n_edges": lat.n_edges,
        "n_plaquettes": len(lat.plaquettes),
        "support": len(g0.amps),
        "norm": g0.norm(),
        "projector_residuals": residuals,
        "vertices": gs.vertex_expectations(g0),
        "plaquettes": gs.plaquette_expectations(g0),
        "wilson_vertices": gs.vertex_expectations(excited),
        "deformation": gs.verify_deformation(g0, line, gs.WilsonLine(psi, OVER_TOP), 0, 0),
        "endpoints": [0, 2],
    }
