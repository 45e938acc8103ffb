let all : Experiment.t list =
  [
    E01_pmax_table.experiment;
    E02_worked_example.experiment;
    E03_risk_ratio.experiment;
    E04_single_fault_improvement.experiment;
    E05_proportional_improvement.experiment;
    E06_bound_gain.experiment;
    E07_bound_conjectures.experiment;
    E08_fig2_demand_space.experiment;
    E09_knight_leveson.experiment;
    E10_mean_bound.experiment;
    E11_golden_lemma.experiment;
    E12_correlated_faults.experiment;
    E13_overlap.experiment;
    E14_el_lm.experiment;
    E15_clt_quality.experiment;
    E16_bayes.experiment;
    E17_vs_independence.experiment;
    E18_hatton.experiment;
    E19_success_ratio.experiment;
    E20_one_out_of_n.experiment;
    E21_forced_diversity.experiment;
    E22_voted_architectures.experiment;
    E23_estimation.experiment;
    E24_testing.experiment;
    E25_prior_choice.experiment;
    E26_fleet.experiment;
    E27_mission.experiment;
    E28_profile_robustness.experiment;
    E29_functional_diversity.experiment;
    E30_tail_bounds.experiment;
    E31_sprt.experiment;
  ]

let find id =
  List.find_opt
    (fun e -> String.lowercase_ascii e.Experiment.id = String.lowercase_ascii id)
    all

let ids () = List.map (fun e -> e.Experiment.id) all

let render_all ~seed =
  String.concat "" (List.map (Experiment.render ~seed) all)
