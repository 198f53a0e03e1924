open Mcml_logic

type node = Leaf of bool | Split of { feature : int; if_false : node; if_true : node }
type t = { nfeatures : int; root : node }

type params = {
  max_depth : int option;
  min_samples_split : int;
  max_features : int option;
}

let default_params = { max_depth = None; min_samples_split = 2; max_features = None }

(* Gini impurity of a (weighted) label distribution. *)
let gini pos neg =
  let total = pos +. neg in
  if total = 0.0 then 0.0
  else begin
    let p = pos /. total and q = neg /. total in
    1.0 -. (p *. p) -. (q *. q)
  end

(* Training keeps each node's samples as an [int array] of dataset
   indices in ascending order.  One pass over a node fills, for every
   candidate feature at once, the true-side count and the weighted
   positive/negative sums of both sides; only the winning feature is
   then partitioned.  Every sum is accumulated in index order, so each
   float is the one a left fold over the node's sample list gives;
   test_ml checks the trees against a list-based reference CART. *)
let train ?(params = default_params) ?weights ?rng (ds : Dataset.t) : t =
  let n = Dataset.size ds in
  let weights =
    match weights with
    | Some w ->
        if Array.length w <> n then invalid_arg "Decision_tree.train: weights length";
        w
    | None -> Array.make n 1.0
  in
  let nf = ds.Dataset.nfeatures in
  let all_features = Array.init nf (fun i -> i) in
  let candidate_features =
    match (params.max_features, rng) with
    | Some k, _ when k < 1 -> invalid_arg "Decision_tree.train: max_features < 1"
    | Some _, None -> invalid_arg "Decision_tree.train: max_features needs an rng"
    | Some k, Some rng when k < nf ->
        fun () ->
          (* partial Fisher-Yates to draw k distinct features *)
          let a = Array.copy all_features in
          for i = 0 to k - 1 do
            let j = i + Splitmix.int rng (nf - i) in
            let tmp = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- tmp
          done;
          Array.sub a 0 k
    | _ -> fun () -> all_features
  in
  let samples = ds.Dataset.samples in
  (* per-candidate split statistics, reused by every node of this tree *)
  let t_count = Array.make nf 0 in
  let t_pos = Array.make nf 0.0 and t_neg = Array.make nf 0.0 in
  let f_pos = Array.make nf 0.0 and f_neg = Array.make nf 0.0 in
  let rec grow idx depth =
    let m = Array.length idx in
    if m = 0 then Leaf false
    else begin
      let pos = ref 0.0 and neg = ref 0.0 in
      for j = 0 to m - 1 do
        let i = idx.(j) in
        if samples.(i).Dataset.label then pos := !pos +. weights.(i)
        else neg := !neg +. weights.(i)
      done;
      let pos = !pos and neg = !neg in
      let stop =
        gini pos neg = 0.0
        || m < params.min_samples_split
        || match params.max_depth with Some d -> depth >= d | None -> false
      in
      if stop then Leaf (pos > neg)
      else begin
        let cand = candidate_features () in
        let nc = Array.length cand in
        Array.fill t_count 0 nc 0;
        Array.fill t_pos 0 nc 0.0;
        Array.fill t_neg 0 nc 0.0;
        Array.fill f_pos 0 nc 0.0;
        Array.fill f_neg 0 nc 0.0;
        for j = 0 to m - 1 do
          let i = idx.(j) in
          let s = samples.(i) and w = weights.(i) in
          let x = s.Dataset.features in
          let on_true, on_false = if s.Dataset.label then (t_pos, f_pos) else (t_neg, f_neg) in
          for c = 0 to nc - 1 do
            if x.(cand.(c)) then begin
              t_count.(c) <- t_count.(c) + 1;
              on_true.(c) <- on_true.(c) +. w
            end
            else on_false.(c) <- on_false.(c) +. w
          done
        done;
        (* best split by weighted Gini; an earlier candidate keeps a tie *)
        let best = ref (-1) and best_score = ref 0.0 in
        for c = 0 to nc - 1 do
          if t_count.(c) > 0 && t_count.(c) < m then begin
            let tp = t_pos.(c) and tn = t_neg.(c) and fp = f_pos.(c) and fn = f_neg.(c) in
            let wt = tp +. tn and wf = fp +. fn in
            let score = ((wt *. gini tp tn) +. (wf *. gini fp fn)) /. (wt +. wf) in
            if !best < 0 || not (!best_score <= score) then begin
              best := c;
              best_score := score
            end
          end
        done;
        if !best < 0 then Leaf (pos > neg)
        else begin
          let f = cand.(!best) in
          let t_idx, f_idx = Dataset.partition ds idx ~feature:f ~true_count:t_count.(!best) in
          (* like scikit-learn's default CART, split as long as any
             valid split exists (even with zero Gini improvement —
             needed to fit parity-like targets); both sides are
             non-empty so the recursion terminates.  The true side
             grows first: with [max_features] set, that fixes the order
             in which the nodes draw from [rng]. *)
          let if_true = grow t_idx (depth + 1) in
          let if_false = grow f_idx (depth + 1) in
          Split { feature = f; if_false; if_true }
        end
      end
    end
  in
  let root = grow (Array.init n (fun i -> i)) 0 in
  { nfeatures = nf; root }

let predict t features =
  let rec go = function
    | Leaf b -> b
    | Split { feature; if_false; if_true } ->
        go (if features.(feature) then if_true else if_false)
  in
  go t.root

let paths t =
  let acc = ref [] in
  let rec go node conditions =
    match node with
    | Leaf b -> acc := (List.rev conditions, b) :: !acc
    | Split { feature; if_false; if_true } ->
        go if_true ((feature, true) :: conditions);
        go if_false ((feature, false) :: conditions)
  in
  go t.root [];
  List.rev !acc

let num_leaves t =
  let rec go = function
    | Leaf _ -> 1
    | Split { if_false; if_true; _ } -> go if_false + go if_true
  in
  go t.root

let depth t =
  let rec go = function
    | Leaf _ -> 0
    | Split { if_false; if_true; _ } -> 1 + max (go if_false) (go if_true)
  in
  go t.root

let eval_all t ~scope_bits oracle =
  if scope_bits > 24 then invalid_arg "Decision_tree.eval_all: too many bits";
  let c = ref Metrics.zero in
  let features = Array.make t.nfeatures false in
  for mask = 0 to (1 lsl scope_bits) - 1 do
    for b = 0 to scope_bits - 1 do
      features.(b) <- mask land (1 lsl b) <> 0
    done;
    let p = predict t features and a = oracle features in
    c :=
      Metrics.add !c
        (match (p, a) with
        | true, true -> { Metrics.zero with Metrics.tp = 1.0 }
        | true, false -> { Metrics.zero with Metrics.fp = 1.0 }
        | false, false -> { Metrics.zero with Metrics.tn = 1.0 }
        | false, true -> { Metrics.zero with Metrics.fn = 1.0 })
  done;
  !c

let pp fmt t =
  let rec go indent = function
    | Leaf b -> Format.fprintf fmt "%s=> %b@." indent b
    | Split { feature; if_false; if_true } ->
        Format.fprintf fmt "%sx%d?@." indent feature;
        go (indent ^ "  ") if_false;
        go (indent ^ "  ") if_true
  in
  go "" t.root
