(* E20 — extension: 1-out-of-N systems. The model generalises immediately
   (a fault is common to N independent channels with probability p_i^N);
   this experiment traces the gain as channels are added. *)

let run ~seed =
  let rng = Numerics.Rng.create ~seed in
  let u =
    Core.Universe.uniform_random
      (Numerics.Rng.split rng ~index:0)
      ~n:15 ~p_lo:0.02 ~p_hi:0.3 ~total_q:0.4
  in
  let k = Numerics.Normal_dist.ppf 0.99 in
  let rows =
    List.map
      (fun channels ->
        let mu = Core.Moments.mu_n u ~channels in
        let sigma = Core.Moments.sigma_n u ~channels in
        [
          Report.Table.int channels;
          Report.Table.float mu;
          Report.Table.float sigma;
          Report.Table.float (mu +. (k *. sigma));
          Report.Table.float (Core.Fault_count.p_nk_pos u ~channels);
          Report.Table.float
            (Core.Pfd_dist.quantile (Core.Pfd_dist.exact_nk u ~channels) 0.99);
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let table =
    Report.Table.of_rows ~title:"1-out-of-N systems from one process"
      ~headers:
        [ "channels"; "mu"; "sigma"; "mu+k*sigma (99%)"; "P(common fault)"; "exact q99" ]
      rows
  in
  let fig =
    Report.Asciiplot.render_log_y ~title:"Mean PFD vs channel count"
      [
        Report.Asciiplot.series ~label:"mu (1-out-of-N)"
          (Array.init 6 (fun i ->
               (float_of_int (i + 1), Core.Moments.mu_n u ~channels:(i + 1))));
        Report.Asciiplot.series ~label:"independence (mu1^N)"
          (Array.init 6 (fun i ->
               ( float_of_int (i + 1),
                 Core.Moments.mu1 u ** float_of_int (i + 1) )));
      ]
  in
  Experiment.output ~tables:[ table ] ~figures:[ fig ]
    ~notes:
      [
        "each extra channel multiplies the per-fault term by another p_i: \
         diminishing but always positive returns, far short of the \
         independence prediction";
      ]
    ()

let experiment =
  Experiment.make ~id:"E20" ~paper_ref:"extension of Sections 3-5"
    ~description:"Diversity gain as a function of the number of channels" run
