let () =
  Alcotest.run "flb"
    [
      ("rng", Test_rng.suite);
      ("vec", Test_vec.suite);
      ("stats", Test_stats.suite);
      ("bitset", Test_bitset.suite);
      ("json", Test_json.suite);
      ("heaps", Test_heaps.suite);
      ("taskgraph", Test_taskgraph.suite);
      ("topo-levels", Test_topo_levels.suite);
      ("width", Test_width.suite);
      ("schedule", Test_schedule.suite);
      ("serial-dot", Test_serial_dot.suite);
      ("text-syntax", Test_text_syntax.suite);
      ("reference", Test_differential.suite);
      ("simulator", Test_sim.suite);
      ("workloads", Test_workloads.suite);
      ("flb", Test_flb.suite);
      ("schedulers", Test_schedulers.suite);
      ("duplication", Test_duplication.suite);
      ("analysis", Test_analysis.suite);
      ("analyze", Test_analyze.suite);
      ("mesh", Test_mesh.suite);
      ("lang", Test_lang.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("experiments", Test_experiments.suite);
      ("alloc", Test_alloc.suite);
      ("obs", Test_obs.suite);
      ("reschedule", Test_reschedule.suite);
      ("runtime", Test_runtime.suite);
      ("stream", Test_stream.suite);
      ("service", Test_service.suite);
      ("router", Test_router.suite);
    ]
