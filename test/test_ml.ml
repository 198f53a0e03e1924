(* Tests for the ML substrate: datasets, metrics, and the six model
   families. *)

open Mcml_logic
open Mcml_ml

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* a labeled dataset for a known boolean target over k features *)
let dataset_of_target ~k ~n ~seed target =
  let rng = Splitmix.create seed in
  let samples =
    List.init n (fun _ ->
        let features = Array.init k (fun _ -> Splitmix.bool rng) in
        { Dataset.features; label = target features })
  in
  Dataset.make ~nfeatures:k samples

let parity3 f = (if f.(0) then 1 else 0) + (if f.(1) then 1 else 0) + (if f.(2) then 1 else 0) |> fun s -> s mod 2 = 1
let conj2 f = f.(0) && f.(1)
let majority3 f = (if f.(0) then 1 else 0) + (if f.(1) then 1 else 0) + (if f.(2) then 1 else 0) >= 2

(* --- dataset --------------------------------------------------------------- *)

let dataset_make_mismatch () =
  Alcotest.check_raises "feature length"
    (Invalid_argument "Dataset.make: sample has 2 features, expected 3") (fun () ->
      ignore (Dataset.make ~nfeatures:3 [ { Dataset.features = [| true; false |]; label = true } ]))

let dataset_split_properties =
  qtest ~count:100 "split: stratified, disjoint, exhaustive"
    QCheck2.Gen.(pair (int_bound 1000) (int_range 10 200))
    (fun (seed, n) ->
      let ds = dataset_of_target ~k:4 ~n ~seed majority3 in
      let rng = Splitmix.create (seed + 1) in
      let train, test = Dataset.split rng ~train_fraction:0.25 ds in
      Dataset.size train + Dataset.size test = Dataset.size ds
      && Dataset.size train > 0 && Dataset.size test > 0
      && Dataset.num_positive train + Dataset.num_positive test = Dataset.num_positive ds)

let dataset_split_ratio () =
  let ds = dataset_of_target ~k:4 ~n:1000 ~seed:3 majority3 in
  let rng = Splitmix.create 4 in
  let train, _ = Dataset.split rng ~train_fraction:0.10 ds in
  let frac = float_of_int (Dataset.size train) /. 1000.0 in
  if frac < 0.07 || frac > 0.13 then Alcotest.failf "train fraction %f far from 0.10" frac

let dataset_split_bad_fraction () =
  let ds = dataset_of_target ~k:2 ~n:10 ~seed:5 conj2 in
  Alcotest.check_raises "fraction 0" (Invalid_argument "Dataset.split: fraction must be in (0, 1)")
    (fun () -> ignore (Dataset.split (Splitmix.create 1) ~train_fraction:0.0 ds))

let dataset_balanced () =
  let rng = Splitmix.create 7 in
  let mk b = List.init 40 (fun i -> Array.init 3 (fun j -> (i + j) mod 2 = if b then 0 else 1)) in
  let positives = mk true and negatives = List.filteri (fun i _ -> i < 25) (mk false) in
  let ds = Dataset.balanced rng ~positives ~negatives ~nfeatures:3 in
  check Alcotest.int "pos = neg = min" 25 (Dataset.num_positive ds);
  check Alcotest.int "neg" 25 (Dataset.num_negative ds)

let dataset_class_ratio () =
  let ds = dataset_of_target ~k:3 ~n:400 ~seed:9 majority3 in
  let rng = Splitmix.create 10 in
  let skewed = Dataset.with_class_ratio rng ~pos_weight:9 ~neg_weight:1 ~size:200 ds in
  check Alcotest.int "size" 200 (Dataset.size skewed);
  check Alcotest.int "positives 90%" 180 (Dataset.num_positive skewed)

let dataset_shuffle_preserves =
  qtest ~count:50 "shuffle preserves the multiset" QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let ds = dataset_of_target ~k:3 ~n:50 ~seed parity3 in
      let shuffled = Dataset.shuffle (Splitmix.create (seed + 1)) ds in
      let key d =
        Array.to_list d.Dataset.samples
        |> List.map (fun s ->
               (Array.to_list s.Dataset.features, s.Dataset.label))
        |> List.sort compare
      in
      key ds = key shuffled)

(* --- metrics ----------------------------------------------------------------- *)

let metrics_hand_values () =
  let c = { Metrics.tp = 40.0; fp = 10.0; tn = 45.0; fn = 5.0 } in
  check (Alcotest.float 1e-9) "accuracy" 0.85 (Metrics.accuracy c);
  check (Alcotest.float 1e-9) "precision" 0.8 (Metrics.precision c);
  check (Alcotest.float 1e-9) "recall" (40.0 /. 45.0) (Metrics.recall c);
  let p = 0.8 and r = 40.0 /. 45.0 in
  check (Alcotest.float 1e-9) "f1" (2.0 *. p *. r /. (p +. r)) (Metrics.f1 c)

let metrics_degenerate () =
  let c = { Metrics.tp = 0.0; fp = 0.0; tn = 10.0; fn = 5.0 } in
  check (Alcotest.float 1e-9) "precision 0/0 = 0" 0.0 (Metrics.precision c);
  check (Alcotest.float 1e-9) "f1 degenerate = 0" 0.0 (Metrics.f1 c)

let metrics_of_predictions () =
  let c =
    Metrics.of_predictions
      ~predicted:[| true; true; false; false |]
      ~actual:[| true; false; false; true |]
  in
  check (Alcotest.float 1e-9) "tp" 1.0 c.Metrics.tp;
  check (Alcotest.float 1e-9) "fp" 1.0 c.Metrics.fp;
  check (Alcotest.float 1e-9) "tn" 1.0 c.Metrics.tn;
  check (Alcotest.float 1e-9) "fn" 1.0 c.Metrics.fn;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.of_predictions: length mismatch") (fun () ->
      ignore (Metrics.of_predictions ~predicted:[| true |] ~actual:[||]))

(* --- decision tree -------------------------------------------------------------- *)

let tree_pure_leaf () =
  let ds =
    Dataset.make ~nfeatures:2
      (List.init 5 (fun _ -> { Dataset.features = [| true; false |]; label = true }))
  in
  let t = Decision_tree.train ds in
  check Alcotest.int "single leaf" 1 (Decision_tree.num_leaves t);
  check Alcotest.bool "predicts true" true (Decision_tree.predict t [| false; false |])

let tree_fits_training_data =
  qtest ~count:100 "unbounded CART fits consistent training data"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let ds = dataset_of_target ~k:5 ~n:80 ~seed parity3 in
      let t = Decision_tree.train ds in
      Array.for_all
        (fun s -> Decision_tree.predict t s.Dataset.features = s.Dataset.label)
        ds.Dataset.samples)

let tree_learns_conjunction () =
  let ds = dataset_of_target ~k:4 ~n:200 ~seed:11 conj2 in
  let t = Decision_tree.train ds in
  (* must generalize perfectly: the concept depends on 2 features and
     200 samples cover all 16 feature combinations many times over *)
  let ok = ref true in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Decision_tree.predict t f <> conj2 f then ok := false
  done;
  check Alcotest.bool "exact on all inputs" true !ok

let tree_max_depth () =
  let ds = dataset_of_target ~k:6 ~n:300 ~seed:12 parity3 in
  let t =
    Decision_tree.train
      ~params:{ Decision_tree.max_depth = Some 3; min_samples_split = 2; max_features = None }
      ds
  in
  check Alcotest.bool "depth bounded" true (Decision_tree.depth t <= 3)

let tree_paths_partition =
  qtest ~count:100 "paths are disjoint and cover the space"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let ds = dataset_of_target ~k:5 ~n:60 ~seed majority3 in
      let t = Decision_tree.train ds in
      let paths = Decision_tree.paths t in
      (* sum over paths of 2^(k - len) = 2^k, and each input follows
         exactly one path *)
      let total =
        List.fold_left (fun acc (conds, _) -> acc + (1 lsl (5 - List.length conds))) 0 paths
      in
      total = 32
      &&
      let follows features (conds, _) =
        List.for_all (fun (f, v) -> features.(f) = v) conds
      in
      let ok = ref true in
      for mask = 0 to 31 do
        let f = Array.init 5 (fun i -> mask land (1 lsl i) <> 0) in
        let matching = List.filter (follows f) paths in
        (match matching with
        | [ (_, label) ] -> if Decision_tree.predict t f <> label then ok := false
        | _ -> ok := false)
      done;
      !ok)

let tree_weights_flip_majority () =
  (* two contradictory samples; the heavier one wins the leaf label *)
  let ds =
    Dataset.make ~nfeatures:1
      [
        { Dataset.features = [| true |]; label = true };
        { Dataset.features = [| true |]; label = false };
      ]
  in
  let t = Decision_tree.train ~weights:[| 1.0; 3.0 |] ds in
  check Alcotest.bool "heavy negative wins" false (Decision_tree.predict t [| true |]);
  let t = Decision_tree.train ~weights:[| 3.0; 1.0 |] ds in
  check Alcotest.bool "heavy positive wins" true (Decision_tree.predict t [| true |])

let tree_eval_all () =
  let ds = dataset_of_target ~k:3 ~n:200 ~seed:13 majority3 in
  let t = Decision_tree.train ds in
  let c = Decision_tree.eval_all t ~scope_bits:3 majority3 in
  (* 200 samples over 8 combinations: the tree should be exact *)
  check (Alcotest.float 1e-9) "perfect confusion" 0.0 (c.Metrics.fp +. c.Metrics.fn);
  check (Alcotest.float 1e-9) "totals" 8.0 (c.Metrics.tp +. c.Metrics.tn)

(* --- regression tree / GBDT ------------------------------------------------------ *)

let regression_tree_fits_constant () =
  let ds = dataset_of_target ~k:2 ~n:10 ~seed:14 conj2 in
  let t = Regression_tree.train ~max_depth:3 ~min_samples_split:2 ds ~targets:(Array.make 10 2.5) in
  check (Alcotest.float 1e-9) "constant" 2.5 (Regression_tree.predict t [| true; false |]);
  check Alcotest.int "one leaf" 1 (Regression_tree.num_leaves t)

let regression_tree_splits () =
  let ds =
    Dataset.make ~nfeatures:1
      [
        { Dataset.features = [| true |]; label = true };
        { Dataset.features = [| false |]; label = false };
      ]
  in
  let t = Regression_tree.train ~max_depth:3 ~min_samples_split:2 ds ~targets:[| 1.0; -1.0 |] in
  check (Alcotest.float 1e-9) "fits +1" 1.0 (Regression_tree.predict t [| true |]);
  check (Alcotest.float 1e-9) "fits -1" (-1.0) (Regression_tree.predict t [| false |])

let gbdt_learns_majority () =
  let ds = dataset_of_target ~k:3 ~n:300 ~seed:15 majority3 in
  let m = Gradient_boosting.train ds in
  let ok = ref true in
  for mask = 0 to 7 do
    let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    if Gradient_boosting.predict m f <> majority3 f then ok := false
  done;
  check Alcotest.bool "exact" true !ok

(* --- oracles: the list-based learners ---------------------------------------

   The decision-tree, regression-tree and MLP trainers keep node samples
   in index arrays, gather every candidate's split statistics in one pass
   and loop over each sample's set features only.  The learners they
   replaced — a list partition per candidate feature per node, and a dense
   MLP loop over all features — are kept here, unchanged, as references:
   the trainers must build the same trees and the same float weights, bit
   for bit, on every dataset. *)

module Reference = struct
  let gini pos neg =
    let total = pos +. neg in
    if total = 0.0 then 0.0
    else begin
      let p = pos /. total and q = neg /. total in
      1.0 -. (p *. p) -. (q *. q)
    end

  let tree ?(params = Decision_tree.default_params) ?weights ?rng (ds : Dataset.t) :
      Decision_tree.t =
    let open Decision_tree in
    let n = Dataset.size ds in
    let weights = match weights with Some w -> w | None -> Array.make n 1.0 in
    let feature_pool = Array.init ds.Dataset.nfeatures (fun i -> i) in
    let candidate_features () =
      match (params.max_features, rng) with
      | Some k, Some rng when k < Array.length feature_pool ->
          let a = Array.copy feature_pool in
          for i = 0 to k - 1 do
            let j = i + Splitmix.int rng (Array.length a - i) in
            let tmp = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- tmp
          done;
          Array.to_list (Array.sub a 0 k)
      | _ -> Array.to_list feature_pool
    in
    let weight_split indices =
      List.fold_left
        (fun (pos, neg) i ->
          let s = ds.Dataset.samples.(i) in
          if s.Dataset.label then (pos +. weights.(i), neg) else (pos, neg +. weights.(i)))
        (0.0, 0.0) indices
    in
    let rec grow indices depth =
      match indices with
      | [] -> Leaf false
      | _ ->
          let pos, neg = weight_split indices in
          let impurity = gini pos neg in
          let stop =
            impurity = 0.0
            || List.length indices < params.min_samples_split
            || match params.max_depth with Some d -> depth >= d | None -> false
          in
          if stop then Leaf (pos > neg)
          else begin
            let best = ref None in
            List.iter
              (fun f ->
                let t_idx, f_idx =
                  List.partition (fun i -> ds.Dataset.samples.(i).Dataset.features.(f)) indices
                in
                if t_idx <> [] && f_idx <> [] then begin
                  let tp, tn = weight_split t_idx in
                  let fp, fn = weight_split f_idx in
                  let wt = tp +. tn and wf = fp +. fn in
                  let score = ((wt *. gini tp tn) +. (wf *. gini fp fn)) /. (wt +. wf) in
                  match !best with
                  | Some (s, _, _, _) when s <= score -> ()
                  | _ -> best := Some (score, f, t_idx, f_idx)
                end)
              (candidate_features ());
            match !best with
            | None -> Leaf (pos > neg)
            | Some (_score, f, t_idx, f_idx) ->
                Split
                  {
                    feature = f;
                    if_true = grow t_idx (depth + 1);
                    if_false = grow f_idx (depth + 1);
                  }
          end
    in
    { nfeatures = ds.Dataset.nfeatures; root = grow (List.init n (fun i -> i)) 0 }

  type rnode = RLeaf of float | RSplit of { feature : int; if_false : rnode; if_true : rnode }

  let mean targets indices =
    match indices with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun acc i -> acc +. targets.(i)) 0.0 indices
        /. float_of_int (List.length indices)

  let sse targets indices =
    let m = mean targets indices in
    List.fold_left (fun acc i -> acc +. ((targets.(i) -. m) ** 2.0)) 0.0 indices

  let regression_tree ~max_depth ~min_samples_split (ds : Dataset.t) ~targets =
    let rec grow indices depth =
      let here = sse targets indices in
      if depth >= max_depth || List.length indices < min_samples_split || here = 0.0 then
        RLeaf (mean targets indices)
      else begin
        let best = ref None in
        for f = 0 to ds.Dataset.nfeatures - 1 do
          let t_idx, f_idx =
            List.partition (fun i -> ds.Dataset.samples.(i).Dataset.features.(f)) indices
          in
          if t_idx <> [] && f_idx <> [] then begin
            let score = sse targets t_idx +. sse targets f_idx in
            match !best with
            | Some (s, _, _, _) when s <= score -> ()
            | _ -> best := Some (score, f, t_idx, f_idx)
          end
        done;
        match !best with
        | None -> RLeaf (mean targets indices)
        | Some (score, f, t_idx, f_idx) ->
            if score >= here then RLeaf (mean targets indices)
            else
              RSplit
                {
                  feature = f;
                  if_true = grow t_idx (depth + 1);
                  if_false = grow f_idx (depth + 1);
                }
      end
    in
    grow (List.init (Dataset.size ds) (fun i -> i)) 0

  let rec regression_predict node features =
    match node with
    | RLeaf v -> v
    | RSplit { feature; if_false; if_true } ->
        regression_predict (if features.(feature) then if_true else if_false) features

  let rec regression_leaves = function
    | RLeaf _ -> 1
    | RSplit { if_false; if_true; _ } -> regression_leaves if_false + regression_leaves if_true

  type mlp = { w1 : float array array; b1 : float array; w2 : float array; b2 : float }

  let sigmoid z = 1.0 /. (1.0 +. exp (-.z))

  type adam = { mutable t : int; m : float array; v : float array }

  let adam_step st ~lr (theta : float array) (grad : float array) =
    let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
    st.t <- st.t + 1;
    let t = float_of_int st.t in
    let bc1 = 1.0 -. (beta1 ** t) and bc2 = 1.0 -. (beta2 ** t) in
    Array.iteri
      (fun i g ->
        st.m.(i) <- (beta1 *. st.m.(i)) +. ((1.0 -. beta1) *. g);
        st.v.(i) <- (beta2 *. st.v.(i)) +. ((1.0 -. beta2) *. g *. g);
        let mhat = st.m.(i) /. bc1 and vhat = st.v.(i) /. bc2 in
        theta.(i) <- theta.(i) -. (lr *. mhat /. (sqrt vhat +. eps)))
      grad

  let mlp_train ~(params : Mlp.params) ~rng (ds : Dataset.t) =
    let n = Dataset.size ds in
    let k = ds.Dataset.nfeatures and h = params.Mlp.hidden in
    let gauss () =
      let u1 = Float.max 1e-12 (Splitmix.float rng) and u2 = Splitmix.float rng in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
    in
    let scale1 = sqrt (2.0 /. float_of_int k) in
    let w1 = Array.init h (fun _ -> Array.init k (fun _ -> gauss () *. scale1)) in
    let b1 = Array.make h 0.0 in
    let w2 = Array.init h (fun _ -> gauss () *. sqrt (2.0 /. float_of_int h)) in
    let b2 = ref 0.0 in
    let nparams = (h * k) + h + h + 1 in
    let grads = Array.make nparams 0.0 in
    let theta = Array.make nparams 0.0 in
    let pack () =
      for i = 0 to h - 1 do
        Array.blit w1.(i) 0 theta (i * k) k
      done;
      Array.blit b1 0 theta (h * k) h;
      Array.blit w2 0 theta ((h * k) + h) h;
      theta.((h * k) + h + h) <- !b2
    in
    let unpack () =
      for i = 0 to h - 1 do
        Array.blit theta (i * k) w1.(i) 0 k
      done;
      Array.blit theta (h * k) b1 0 h;
      Array.blit theta ((h * k) + h) w2 0 h;
      b2 := theta.((h * k) + h + h)
    in
    let st = { t = 0; m = Array.make nparams 0.0; v = Array.make nparams 0.0 } in
    let hidden_pre = Array.make h 0.0 in
    let hidden_act = Array.make h 0.0 in
    let order = Array.init n (fun i -> i) in
    for _epoch = 1 to params.Mlp.epochs do
      for i = n - 1 downto 1 do
        let j = Splitmix.int rng (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      let idx = ref 0 in
      while !idx < n do
        let batch_end = min n (!idx + params.Mlp.batch) in
        Array.fill grads 0 nparams 0.0;
        let bsize = float_of_int (batch_end - !idx) in
        for s = !idx to batch_end - 1 do
          let sample = ds.Dataset.samples.(order.(s)) in
          let x = sample.Dataset.features in
          let y = if sample.Dataset.label then 1.0 else 0.0 in
          for i = 0 to h - 1 do
            let acc = ref b1.(i) in
            let row = w1.(i) in
            for f = 0 to k - 1 do
              if x.(f) then acc := !acc +. row.(f)
            done;
            hidden_pre.(i) <- !acc;
            hidden_act.(i) <- Float.max 0.0 !acc
          done;
          let out = ref !b2 in
          for i = 0 to h - 1 do
            out := !out +. (w2.(i) *. hidden_act.(i))
          done;
          let p = sigmoid !out in
          let dout = (p -. y) /. bsize in
          grads.((h * k) + h + h) <- grads.((h * k) + h + h) +. dout;
          for i = 0 to h - 1 do
            grads.((h * k) + h + i) <- grads.((h * k) + h + i) +. (dout *. hidden_act.(i));
            if hidden_pre.(i) > 0.0 then begin
              let dh = dout *. w2.(i) in
              grads.((h * k) + i) <- grads.((h * k) + i) +. dh;
              let base = i * k in
              for f = 0 to k - 1 do
                if x.(f) then grads.(base + f) <- grads.(base + f) +. dh
              done
            end
          done
        done;
        pack ();
        adam_step st ~lr:params.Mlp.learning_rate theta grads;
        unpack ();
        idx := batch_end
      done
    done;
    { w1; b1; w2; b2 = !b2 }

  let mlp_probability t features =
    let h = Array.length t.w1 in
    let acc_out = ref t.b2 in
    for i = 0 to h - 1 do
      let acc = ref t.b1.(i) in
      let row = t.w1.(i) in
      Array.iteri (fun f v -> if v then acc := !acc +. row.(f)) features;
      let a = Float.max 0.0 !acc in
      acc_out := !acc_out +. (t.w2.(i) *. a)
    done;
    sigmoid !acc_out
end

(* A random dataset with what makes split search delicate: 1-12
   features, 1-200 samples drawn from fewer distinct rows (duplicates,
   some with contradicting labels), constant columns, and columns that
   copy or negate an earlier one (tied scores). *)
let oracle_dataset rng =
  let k = 1 + Splitmix.int rng 12 and n = 1 + Splitmix.int rng 200 in
  let column =
    Array.init k (fun c ->
        match if c = 0 then 4 else Splitmix.int rng 6 with
        | 0 -> `Const (Splitmix.bool rng)
        | 1 -> `Copy (Splitmix.int rng c)
        | 2 -> `Negate (Splitmix.int rng c)
        | _ -> `Free)
  in
  let row () =
    let x = Array.make k false in
    Array.iteri
      (fun c kind ->
        x.(c) <-
          (match kind with
          | `Const b -> b
          | `Copy c' -> x.(c')
          | `Negate c' -> not x.(c')
          | `Free -> Splitmix.bool rng))
      column;
    x
  in
  let rows = Array.init (1 + Splitmix.int rng n) (fun _ -> row ()) in
  let label =
    match Splitmix.int rng 3 with
    | 0 -> fun _ -> Splitmix.bool rng
    | 1 -> fun x -> x.(0) <> x.(k - 1)
    | _ -> fun x -> x.(0) && Splitmix.int rng 10 > 0
  in
  Dataset.make ~nfeatures:k
    (List.init n (fun _ ->
         let features = Array.copy rows.(Splitmix.int rng (Array.length rows)) in
         { Dataset.features; label = label features }))

(* every sample's weight, drawn from a small set of values so that sums
   tie; tiny and subnormal weights push Gini terms toward underflow *)
let oracle_weights rng n =
  match Splitmix.int rng 4 with
  | 0 -> None
  | 1 -> Some (Array.make n (1.0 /. float_of_int n))
  | 2 -> Some (Array.init n (fun _ -> Splitmix.float rng +. 1e-3))
  | _ ->
      let pool = [| 1.0; 0.25; 1e-12; 1e-300; 4.9e-324 |] in
      Some (Array.init n (fun _ -> pool.(Splitmix.int rng (Array.length pool))))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let tree_matches_reference =
  qtest ~count:500 "CART equals the list-based reference, node for node"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let ds = oracle_dataset rng in
      let k = ds.Dataset.nfeatures in
      let weights = oracle_weights rng (Dataset.size ds) in
      let params =
        {
          Decision_tree.max_depth =
            (if Splitmix.bool rng then None else Some (Splitmix.int rng 7));
          min_samples_split = Splitmix.int rng 10;
          max_features = (if Splitmix.bool rng then None else Some (1 + Splitmix.int rng (k + 1)));
        }
      in
      let rng_seed = Splitmix.int rng 1_000_000 in
      let rng () = Option.map (fun _ -> Splitmix.create rng_seed) params.max_features in
      Decision_tree.train ~params ?weights ?rng:(rng ()) ds
      = Reference.tree ~params ?weights ?rng:(rng ()) ds)

let regression_tree_matches_reference =
  qtest ~count:300 "regression tree equals the list-based reference, bit for bit"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let ds = oracle_dataset rng in
      let n = Dataset.size ds in
      let targets =
        match Splitmix.int rng 3 with
        | 0 -> Array.make n (Splitmix.float rng)
        | 1 ->
            (* few distinct values: tied side sums *)
            let pool = Array.init 3 (fun _ -> Splitmix.float rng -. 0.5) in
            Array.init n (fun _ -> pool.(Splitmix.int rng 3))
        | _ -> Array.init n (fun _ -> (Splitmix.float rng -. 0.5) *. 1e3)
      in
      let max_depth = Splitmix.int rng 6 and min_samples_split = Splitmix.int rng 10 in
      let t = Regression_tree.train ~max_depth ~min_samples_split ds ~targets in
      let r = Reference.regression_tree ~max_depth ~min_samples_split ds ~targets in
      Regression_tree.num_leaves t = Reference.regression_leaves r
      && Array.for_all
           (fun s ->
             same_bits
               (Regression_tree.predict t s.Dataset.features)
               (Reference.regression_predict r s.Dataset.features))
           ds.Dataset.samples)

let mlp_matches_reference =
  qtest ~count:100 "MLP equals the dense reference trainer, bit for bit"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let ds = oracle_dataset rng in
      let params =
        {
          Mlp.hidden = 1 + Splitmix.int rng 8;
          epochs = 1 + Splitmix.int rng 3;
          batch = 1 + Splitmix.int rng 16;
          learning_rate = (if Splitmix.bool rng then 5e-3 else 0.1);
        }
      in
      let rng_seed = Splitmix.int rng 1_000_000 in
      let m = Mlp.train ~params ~rng:(Splitmix.create rng_seed) ds in
      let r = Reference.mlp_train ~params ~rng:(Splitmix.create rng_seed) ds in
      Array.for_all
        (fun s ->
          same_bits
            (Mlp.probability m s.Dataset.features)
            (Reference.mlp_probability r s.Dataset.features))
        ds.Dataset.samples)

let tree_max_features_guards () =
  let ds = dataset_of_target ~k:4 ~n:40 ~seed:35 conj2 in
  let params k = { Decision_tree.default_params with max_features = Some k } in
  Alcotest.check_raises "max_features without an rng"
    (Invalid_argument "Decision_tree.train: max_features needs an rng") (fun () ->
      ignore (Decision_tree.train ~params:(params 2) ds));
  Alcotest.check_raises "max_features = 0"
    (Invalid_argument "Decision_tree.train: max_features < 1") (fun () ->
      ignore (Decision_tree.train ~params:(params 0) ~rng:(Splitmix.create 36) ds))

(* --- random forest ----------------------------------------------------------------- *)

let forest_learns_and_is_seeded () =
  let ds = dataset_of_target ~k:4 ~n:300 ~seed:16 conj2 in
  let train rng_seed =
    Random_forest.train
      ~params:{ Random_forest.n_trees = 9; max_depth = None }
      ~rng:(Splitmix.create rng_seed) ds
  in
  let f1 = train 1 and f1' = train 1 in
  let agree = ref true and correct = ref true in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Random_forest.predict f1 f <> Random_forest.predict f1' f then agree := false;
    if Random_forest.predict f1 f <> conj2 f then correct := false
  done;
  check Alcotest.bool "deterministic given seed" true !agree;
  check Alcotest.bool "learns the conjunction" true !correct;
  check Alcotest.int "forest size" 9 (List.length (Random_forest.trees f1))

(* --- adaboost -------------------------------------------------------------------------- *)

let adaboost_learns_threshold () =
  let ds = dataset_of_target ~k:4 ~n:300 ~seed:17 majority3 in
  let m = Adaboost.train ds in
  let errors = ref 0 in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Adaboost.predict m f <> majority3 f then incr errors
  done;
  check Alcotest.bool "at most one error on 16 inputs" true (!errors <= 1)

let adaboost_weights_positive () =
  let ds = dataset_of_target ~k:4 ~n:200 ~seed:18 conj2 in
  let m = Adaboost.train ds in
  check Alcotest.bool "all alphas > 0" true (List.for_all (fun a -> a > 0.0) (Adaboost.stump_weights m))

(* --- svm ------------------------------------------------------------------------------ *)

let svm_separable () =
  (* f0 alone decides the label: linearly separable *)
  let ds = dataset_of_target ~k:4 ~n:300 ~seed:19 (fun f -> f.(0)) in
  let m = Linear_svm.train ~rng:(Splitmix.create 20) ds in
  let ok = ref true in
  for mask = 0 to 15 do
    let f = Array.init 4 (fun i -> mask land (1 lsl i) <> 0) in
    if Linear_svm.predict m f <> f.(0) then ok := false
  done;
  check Alcotest.bool "perfect on separable data" true !ok

let svm_margin_sign () =
  let ds = dataset_of_target ~k:2 ~n:200 ~seed:21 (fun f -> f.(0)) in
  let m = Linear_svm.train ~rng:(Splitmix.create 22) ds in
  check Alcotest.bool "positive margin on positive" true
    (Linear_svm.decision_value m [| true; false |] > 0.0);
  check Alcotest.bool "negative margin on negative" true
    (Linear_svm.decision_value m [| false; false |] < 0.0)

(* --- mlp ------------------------------------------------------------------------------- *)

let mlp_learns_or () =
  let target f = f.(0) || f.(1) in
  let ds = dataset_of_target ~k:3 ~n:400 ~seed:23 target in
  let m =
    Mlp.train
      ~params:{ Mlp.hidden = 16; epochs = 60; batch = 16; learning_rate = 5e-3 }
      ~rng:(Splitmix.create 24) ds
  in
  let ok = ref true in
  for mask = 0 to 7 do
    let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    if Mlp.predict m f <> target f then ok := false
  done;
  check Alcotest.bool "learns OR" true !ok

let mlp_probability_range =
  qtest ~count:50 "probabilities stay in [0, 1]" QCheck2.Gen.(int_bound 1000) (fun seed ->
      let ds = dataset_of_target ~k:3 ~n:50 ~seed majority3 in
      let m =
        Mlp.train
          ~params:{ Mlp.hidden = 8; epochs = 5; batch = 8; learning_rate = 1e-3 }
          ~rng:(Splitmix.create seed) ds
      in
      let ok = ref true in
      for mask = 0 to 7 do
        let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
        let p = Mlp.probability m f in
        if p < 0.0 || p > 1.0 || Float.is_nan p then ok := false
      done;
      !ok)

(* --- bnn ------------------------------------------------------------------------------- *)

let bnn_learns_majority () =
  let ds = dataset_of_target ~k:3 ~n:400 ~seed:31 majority3 in
  let m = Bnn.train ~rng:(Splitmix.create 32) ds in
  let errors = ref 0 in
  for mask = 0 to 7 do
    let f = Array.init 3 (fun i -> mask land (1 lsl i) <> 0) in
    if Bnn.predict m f <> majority3 f then incr errors
  done;
  check Alcotest.bool "at most one error on 8 inputs" true (!errors <= 1)

let bnn_weights_are_binary =
  qtest ~count:20 "trained weights are strictly ±1" QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let ds = dataset_of_target ~k:4 ~n:60 ~seed conj2 in
      let m =
        Bnn.train ~params:{ Bnn.hidden = 4; epochs = 3; learning_rate = 0.05 }
          ~rng:(Splitmix.create seed) ds
      in
      Array.for_all (Array.for_all (fun w -> w = 1 || w = -1)) m.Bnn.w1
      && Array.for_all (fun w -> w = 1 || w = -1) m.Bnn.w2)

let bnn_shapes () =
  let ds = dataset_of_target ~k:5 ~n:40 ~seed:33 majority3 in
  let m =
    Bnn.train ~params:{ Bnn.hidden = 7; epochs = 2; learning_rate = 0.05 }
      ~rng:(Splitmix.create 34) ds
  in
  check Alcotest.int "inputs" 5 (Bnn.num_inputs m);
  check Alcotest.int "hidden" 7 (Bnn.num_hidden m)

(* --- unified model interface ------------------------------------------------------------- *)

let model_names () =
  List.iter
    (fun k ->
      check Alcotest.bool
        (Model.name_of k ^ " roundtrips")
        true
        (Model.kind_of_name (Model.name_of k) = Some k))
    Model.kinds;
  check Alcotest.bool "unknown name" true (Model.kind_of_name "nope" = None);
  check Alcotest.int "six kinds" 6 (List.length Model.kinds)

let model_all_kinds_train_and_beat_chance () =
  let ds = dataset_of_target ~k:4 ~n:400 ~seed:25 conj2 in
  let rng = Splitmix.create 26 in
  let train, test = Dataset.split rng ~train_fraction:0.5 ds in
  List.iter
    (fun kind ->
      let m = Model.train ~sizes:Model.fast_sizes ~seed:27 kind train in
      let c = Model.evaluate m test in
      let acc = Metrics.accuracy c in
      if acc < 0.8 then
        Alcotest.failf "%s only reaches accuracy %.2f on an easy concept"
          (Model.name_of kind) acc;
      check Alcotest.bool
        (Model.name_of kind ^ " exposes tree iff DT")
        (kind = Model.DT)
        (m.Model.tree <> None))
    Model.kinds

let () =
  Alcotest.run "ml"
    [
      ( "dataset",
        [
          Alcotest.test_case "length mismatch" `Quick dataset_make_mismatch;
          dataset_split_properties;
          Alcotest.test_case "split ratio" `Quick dataset_split_ratio;
          Alcotest.test_case "bad fraction" `Quick dataset_split_bad_fraction;
          Alcotest.test_case "balanced" `Quick dataset_balanced;
          Alcotest.test_case "class ratio" `Quick dataset_class_ratio;
          dataset_shuffle_preserves;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hand values" `Quick metrics_hand_values;
          Alcotest.test_case "degenerate cases" `Quick metrics_degenerate;
          Alcotest.test_case "of_predictions" `Quick metrics_of_predictions;
        ] );
      ( "decision-tree",
        [
          Alcotest.test_case "pure leaf" `Quick tree_pure_leaf;
          tree_fits_training_data;
          Alcotest.test_case "learns a conjunction" `Quick tree_learns_conjunction;
          Alcotest.test_case "max depth respected" `Quick tree_max_depth;
          tree_paths_partition;
          Alcotest.test_case "weighted majority" `Quick tree_weights_flip_majority;
          Alcotest.test_case "eval_all" `Quick tree_eval_all;
          Alcotest.test_case "max_features guards" `Quick tree_max_features_guards;
          tree_matches_reference;
        ] );
      ( "regression-gbdt",
        [
          Alcotest.test_case "constant fit" `Quick regression_tree_fits_constant;
          Alcotest.test_case "single split" `Quick regression_tree_splits;
          Alcotest.test_case "gbdt learns majority" `Quick gbdt_learns_majority;
          regression_tree_matches_reference;
        ] );
      ( "random-forest",
        [ Alcotest.test_case "seeded and correct" `Quick forest_learns_and_is_seeded ] );
      ( "adaboost",
        [
          Alcotest.test_case "learns threshold" `Quick adaboost_learns_threshold;
          Alcotest.test_case "positive alphas" `Quick adaboost_weights_positive;
        ] );
      ( "svm",
        [
          Alcotest.test_case "separable" `Quick svm_separable;
          Alcotest.test_case "margin signs" `Quick svm_margin_sign;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "learns OR" `Slow mlp_learns_or;
          mlp_probability_range;
          mlp_matches_reference;
        ] );
      ( "bnn",
        [
          Alcotest.test_case "learns majority" `Slow bnn_learns_majority;
          bnn_weights_are_binary;
          Alcotest.test_case "shapes" `Quick bnn_shapes;
        ] );
      ( "model",
        [
          Alcotest.test_case "names" `Quick model_names;
          Alcotest.test_case "all kinds train" `Slow model_all_kinds_train_and_beat_chance;
        ] );
    ]
