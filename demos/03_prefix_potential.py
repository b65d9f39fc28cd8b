"""
Fixing candidate colors one bit per level
=========================================

Each node starts with its whole list as candidates.  A level keeps
either the lower or the upper half of every list, steered by one shared
seed per component, chosen so the conflict potential never rises by
more than the rounding slack.  After ceil(log2 C) levels one candidate
is left per node.
"""

from dataclasses import replace

from congestcolor.coins import make_family
from congestcolor.derand import build_level_context, fix_level
from congestcolor.graphs import attach_default_lists, generate_graph
from congestcolor.prefixes import chosen_colors, init_state, phi_sum
from congestcolor.sim import CommPlan, build_bfs_forest

g = generate_graph("cycle", {"n": 16}, rng_seed=0)
psi = tuple(v % 2 for v in range(g.n))  # even cycle: alternating is proper
inst = replace(attach_default_lists(g), psi=psi)

fam = make_family(inst.psi_range, b=6)
forest, _ = build_bfs_forest(g)
comm = CommPlan(g, forest)
state = init_state(inst)

print("C =", inst.C, " levels =", state.W, " seed bits per level =",
      fam.m + fam.b)
print("level 0: phi =", phi_sum(state))
while state.level < state.W:
    ctx = build_level_context(fam, state)
    state, report = fix_level(ctx, state, comm)
    print("level %d: phi = %s  (bound %s, %d rounds)"
          % (report.level, report.phi_after, report.bound, report.rounds))

colors = chosen_colors(state)
print("candidates:", colors)
conflicts = [(u, v) for u, v in g.edge_list if colors[u] == colors[v]]
print("conflicting edges left:", conflicts if conflicts else "none")
