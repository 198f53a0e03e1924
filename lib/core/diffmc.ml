open Mcml_logic
open Mcml_counting

type counts = {
  tt : Bignat.t;
  tf : Bignat.t;
  ft : Bignat.t;
  ff : Bignat.t;
  time : float;
}

let counts ?budget ?pool ?cache ~backend ~nprimary d1 d2 =
  let open Mcml_obs in
  let start = Obs.monotonic_s () in
  let side tree label = Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label in
  let result = ref None in
  Obs.with_span "diffmc.counts"
    ~attrs:(fun () ->
      [
        ("backend", Obs.Str (Counter.name backend));
        ("nprimary", Obs.Int nprimary);
        ("outcome", Obs.Str (if Option.is_none !result then "timeout" else "complete"));
      ])
    (fun () ->
      result :=
        Option.map
          (fun outcomes ->
            match List.map (fun o -> o.Counter.count) outcomes with
            | [ tt; tf; ft; ff ] -> { tt; tf; ft; ff; time = Obs.monotonic_s () -. start }
            | _ -> assert false)
          (Counter.count_all ?pool ?budget ?cache ~backend
             (List.map
                (fun (l1, l2) -> Cnf.conjoin ~nshared:nprimary (side d1 l1) (side d2 l2))
                [ (true, true); (true, false); (false, true); (false, false) ]));
      Obs.add "diffmc.evaluations" 1;
      !result)

let diff c ~nprimary =
  (Bignat.to_float c.tf +. Bignat.to_float c.ft) /. Bignat.to_float (Bignat.pow2 nprimary)

let sim c ~nprimary = 1.0 -. diff c ~nprimary

let check_total c ~nprimary =
  let total = List.fold_left Bignat.add Bignat.zero [ c.tt; c.tf; c.ft; c.ff ] in
  Bignat.equal total (Bignat.pow2 nprimary)
