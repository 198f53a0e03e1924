open Mcml_logic

type sample = { features : bool array; label : bool }
type t = { nfeatures : int; samples : sample array }

let make ~nfeatures samples =
  List.iter
    (fun s ->
      if Array.length s.features <> nfeatures then
        invalid_arg
          (Printf.sprintf "Dataset.make: sample has %d features, expected %d"
             (Array.length s.features) nfeatures))
    samples;
  { nfeatures; samples = Array.of_list samples }

let of_arrays ~nfeatures pairs =
  make ~nfeatures (List.map (fun (features, label) -> { features; label }) pairs)

let size t = Array.length t.samples

let num_positive t =
  Array.fold_left (fun acc s -> if s.label then acc + 1 else acc) 0 t.samples

let num_negative t = size t - num_positive t

let shuffle rng t =
  let a = Array.copy t.samples in
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  { t with samples = a }

let split rng ~train_fraction t =
  if train_fraction <= 0.0 || train_fraction >= 1.0 then
    invalid_arg "Dataset.split: fraction must be in (0, 1)";
  let shuffled = shuffle rng t in
  let pos = Array.to_list shuffled.samples |> List.filter (fun s -> s.label) in
  let neg = Array.to_list shuffled.samples |> List.filter (fun s -> not s.label) in
  let take_fraction xs =
    let n = List.length xs in
    let k = max 1 (int_of_float (Float.round (train_fraction *. float_of_int n))) in
    let k = min k (n - 1) in
    let rec go i acc rest =
      if i = k then (List.rev acc, rest)
      else match rest with [] -> (List.rev acc, []) | x :: tl -> go (i + 1) (x :: acc) tl
    in
    go 0 [] xs
  in
  let pos_train, pos_test = take_fraction pos in
  let neg_train, neg_test = take_fraction neg in
  ( shuffle rng { t with samples = Array.of_list (pos_train @ neg_train) },
    shuffle rng { t with samples = Array.of_list (pos_test @ neg_test) } )

let balanced rng ~positives ~negatives ~nfeatures =
  let n = min (List.length positives) (List.length negatives) in
  let pick xs =
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = Splitmix.int rng (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.to_list (Array.sub a 0 n)
  in
  let samples =
    List.map (fun f -> { features = f; label = true }) (pick positives)
    @ List.map (fun f -> { features = f; label = false }) (pick negatives)
  in
  shuffle rng (make ~nfeatures samples)

let with_class_ratio rng ~pos_weight ~neg_weight ~size:total t =
  if pos_weight <= 0 || neg_weight <= 0 then
    invalid_arg "Dataset.with_class_ratio: weights must be positive";
  let pos = Array.of_list (Array.to_list t.samples |> List.filter (fun s -> s.label)) in
  let neg = Array.of_list (Array.to_list t.samples |> List.filter (fun s -> not s.label)) in
  if Array.length pos = 0 || Array.length neg = 0 then
    invalid_arg "Dataset.with_class_ratio: needs both classes";
  let npos = total * pos_weight / (pos_weight + neg_weight) in
  let nneg = total - npos in
  let draw src k =
    List.init k (fun _ -> src.(Splitmix.int rng (Array.length src)))
  in
  shuffle rng { t with samples = Array.of_list (draw pos npos @ draw neg nneg) }

let subset t indices =
  { t with samples = Array.of_list (List.map (fun i -> t.samples.(i)) indices) }

let partition t idx ~feature ~true_count =
  let on_true = Array.make true_count 0 in
  let on_false = Array.make (Array.length idx - true_count) 0 in
  let nt = ref 0 and nf = ref 0 in
  Array.iter
    (fun i ->
      if t.samples.(i).features.(feature) then begin
        on_true.(!nt) <- i;
        incr nt
      end
      else begin
        on_false.(!nf) <- i;
        incr nf
      end)
    idx;
  (on_true, on_false)
