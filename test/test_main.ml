let () =
  Alcotest.run "datalog-unchained"
    [
      ("relational", Test_relational.suite);
      ("render", Test_render.suite);
      ("loader", Test_loader.suite);
      ("select", Test_select.suite);
      ("intern", Test_intern.suite);
      ("algebra-fo", Test_algebra_fo.suite);
      ("parser", Test_parser.suite);
      ("ast", Test_ast.suite);
      ("stratify", Test_stratify.suite);
      ("matcher", Test_matcher.suite);
      ("aggregate", Test_aggregate.suite);
      ("engines-smoke", Test_engines_smoke.suite);
      ("engines-deep", Test_engines_deep.suite);
      ("nondet", Test_nondet.suite);
      ("production", Test_production.suite);
      ("while", Test_while.suite);
      ("turing", Test_turing.suite);
      ("fp-logic", Test_fp_logic.suite);
      ("choice-active", Test_choice_active.suite);
      ("distributed", Test_distributed.suite);
      ("trees-ontology", Test_trees_ontology.suite);
      ("observe", Test_observe.suite);
      ("properties", Test_properties.suite);
      ("demand", Test_demand.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("properties-sec6", Test_properties2.suite);
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
      ("semiring", Test_semiring.suite);
    ]
