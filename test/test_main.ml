(* Test entry point: one alcotest run collecting every suite. *)

let () =
  Alcotest.run "svgic"
    [
      ("util", Test_util.suite);
      ("lp", Test_lp.suite);
      ("factor", Test_factor.suite);
      ("fw", Test_fw.suite);
      ("revised", Test_revised_simplex.suite);
      ("graph", Test_graph.suite);
      ("community", Test_community.suite);
      ("core", Test_core.suite);
      ("algorithms", Test_algorithms.suite);
      ("baselines", Test_baselines.suite);
      ("metrics", Test_metrics.suite);
      ("st", Test_st.suite);
      ("extensions", Test_extensions.suite);
      ("polish+serialize", Test_polish_serialize.suite);
      ("reductions", Test_reductions.suite);
      ("shard", Test_shard.suite);
      ("arena", Test_arena.suite);
      ("supervise", Test_supervise.suite);
      ("robustness", Test_robustness.suite);
      ("datagen", Test_datagen.suite);
      ("serve", Test_serve.suite);
      ("durability", Test_durability.suite);
      ("fuzz", Test_fuzz.suite);
      ("ground_truth", Test_ground_truth.suite);
    ]
