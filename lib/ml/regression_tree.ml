type node = Leaf of float | Split of { feature : int; if_false : node; if_true : node }
type t = { root : node }

(* Nodes hold their samples as an [int array] of dataset indices in
   ascending order.  A split search makes two passes over a node: the
   first sums each candidate side's targets (giving the child means),
   the second sums each side's squared deviations from its mean.  Sums
   run in index order and keep [** 2.0] (libm [pow], which is not
   always [x *. x] to the last bit), so every score and leaf value is
   the float a left fold over the node's sample list gives; test_ml
   checks this against a list-based reference learner. *)
let train ~max_depth ~min_samples_split (ds : Dataset.t) ~targets =
  if Array.length targets <> Dataset.size ds then
    invalid_arg "Regression_tree.train: targets length";
  let nf = ds.Dataset.nfeatures and samples = ds.Dataset.samples in
  (* per-feature split statistics, reused by every node of this tree *)
  let t_count = Array.make nf 0 in
  let t_mean = Array.make nf 0.0 and f_mean = Array.make nf 0.0 in
  let t_sse = Array.make nf 0.0 and f_sse = Array.make nf 0.0 in
  let splitting = Array.make nf 0 in
  let rec grow idx depth =
    let m = Array.length idx in
    let sum = ref 0.0 in
    for j = 0 to m - 1 do
      sum := !sum +. targets.(idx.(j))
    done;
    let mean = if m = 0 then 0.0 else !sum /. float_of_int m in
    let here = ref 0.0 in
    for j = 0 to m - 1 do
      here := !here +. ((targets.(idx.(j)) -. mean) ** 2.0)
    done;
    let here = !here in
    if depth >= max_depth || m < min_samples_split || here = 0.0 then Leaf mean
    else begin
      Array.fill t_count 0 nf 0;
      Array.fill t_mean 0 nf 0.0;
      Array.fill f_mean 0 nf 0.0;
      Array.fill t_sse 0 nf 0.0;
      Array.fill f_sse 0 nf 0.0;
      (* pass 1: side sums (held in the mean arrays), then the means *)
      for j = 0 to m - 1 do
        let i = idx.(j) in
        let x = samples.(i).Dataset.features and y = targets.(i) in
        for f = 0 to nf - 1 do
          if x.(f) then begin
            t_count.(f) <- t_count.(f) + 1;
            t_mean.(f) <- t_mean.(f) +. y
          end
          else f_mean.(f) <- f_mean.(f) +. y
        done
      done;
      (* the features that split this node, ascending; the others are
         constant here and get no second pass *)
      let nv = ref 0 in
      for f = 0 to nf - 1 do
        if t_count.(f) > 0 && t_count.(f) < m then begin
          splitting.(!nv) <- f;
          incr nv;
          t_mean.(f) <- t_mean.(f) /. float_of_int t_count.(f);
          f_mean.(f) <- f_mean.(f) /. float_of_int (m - t_count.(f))
        end
      done;
      let nv = !nv in
      (* pass 2: squared deviations from each side's mean *)
      for j = 0 to m - 1 do
        let i = idx.(j) in
        let x = samples.(i).Dataset.features and y = targets.(i) in
        for c = 0 to nv - 1 do
          let f = splitting.(c) in
          if x.(f) then t_sse.(f) <- t_sse.(f) +. ((y -. t_mean.(f)) ** 2.0)
          else f_sse.(f) <- f_sse.(f) +. ((y -. f_mean.(f)) ** 2.0)
        done
      done;
      (* an earlier feature keeps a tie *)
      let best = ref (-1) and best_score = ref 0.0 in
      for c = 0 to nv - 1 do
        let f = splitting.(c) in
        let score = t_sse.(f) +. f_sse.(f) in
        if !best < 0 || not (!best_score <= score) then begin
          best := f;
          best_score := score
        end
      done;
      if !best < 0 || !best_score >= here then Leaf mean
      else begin
        let f = !best in
        let t_idx, f_idx = Dataset.partition ds idx ~feature:f ~true_count:t_count.(f) in
        Split
          {
            feature = f;
            if_true = grow t_idx (depth + 1);
            if_false = grow f_idx (depth + 1);
          }
      end
    end
  in
  { root = grow (Array.init (Dataset.size ds) (fun i -> i)) 0 }

let predict t features =
  let rec go = function
    | Leaf v -> v
    | Split { feature; if_false; if_true } ->
        go (if features.(feature) then if_true else if_false)
  in
  go t.root

let num_leaves t =
  let rec go = function
    | Leaf _ -> 1
    | Split { if_false; if_true; _ } -> go if_false + go if_true
  in
  go t.root
