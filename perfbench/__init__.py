"""The repository benchmark: sweep workloads through the public
experiment engine, host-time metrics, and a layer trace taken from
outside the program.  Entry point: ``python3 perfbench/run.py``;
metric names, units and bounds: ``BENCHMARK.json``.

All values are host time except the simulated-event counts.  Each
per-layer metric is expected to move one end-to-end metric on one
workload (and to stay put on the workloads that bypass its layer):

==================================  ==================  ===============
per-layer metric                    moves               on workload
==================================  ==================  ===============
graphs.build_s, graphs.build_calls  trials_per_s        talking_sweep
explore.preflight_s / _calls /      trials_per_s        talking_sweep
_per_graph (calls per distinct      (about 0 on
graph: the waste ratio), seq_cache  unknown_events)
and plan_cache hit ratios
core.run_self_s (front-ends minus   trials_per_s        talking_sweep
pre-flight and Simulation.run)
sim.run_s, sim.runs, sim.events,    trials_per_s,       known_walk
sim.walk.*, edges_per_segment,      sim_events_per_s
sim.plan_intern.hit_ratio
sim.watch.fires, sim.faults.*,      trials_per_s,       dynamic_faults
sim.edges.blocked                   sim_events_per_s
runner.scenario_s,                  trials_per_s        all
runner.trial_self_s,
runner.unattributed_s
runner.backends.queue_wait_s,       trials_per_s        talking_sweep
runner.backends.batches
store.save_s, store.load_s,         warm_resweep_s      all
store.bytes.read, store.shards.read
query.scan_s, query.records         query_s             all
==================================  ==================  ===============

Backend, store and query metrics come from one traced pass through the
pipelined backend (two workers) into a fresh store, plus a warm
re-sweep and a query, on every workload.  ``runner.sweep_s`` is the
wall time of the traced serial pass, the base of every layer share;
``runner.unattributed_s`` is that wall time minus every span.
``trace.overhead_frac`` compares the traced serial pass with the same
chunks run untraced just before it.
"""
