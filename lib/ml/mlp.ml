open Mcml_logic

type t = {
  w1 : float array array; (* hidden x input *)
  b1 : float array;
  w2 : float array; (* hidden *)
  b2 : float;
}

type params = { hidden : int; epochs : int; batch : int; learning_rate : float }

let default_params = { hidden = 64; epochs = 40; batch = 32; learning_rate = 5e-3 }

let sigmoid z = 1.0 /. (1.0 +. exp (-.z))

(* Minimal Adam state for a flat parameter vector view. *)
type adam = { mutable t : int; m : float array; v : float array }

let adam_make n = { t = 0; m = Array.make n 0.0; v = Array.make n 0.0 }

let adam_step st ~lr (theta : float array) (grad : float array) =
  let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  st.t <- st.t + 1;
  let t = float_of_int st.t in
  let bc1 = 1.0 -. (beta1 ** t) and bc2 = 1.0 -. (beta2 ** t) in
  for i = 0 to Array.length grad - 1 do
    let g = grad.(i) in
    st.m.(i) <- (beta1 *. st.m.(i)) +. ((1.0 -. beta1) *. g);
    st.v.(i) <- (beta2 *. st.v.(i)) +. ((1.0 -. beta2) *. g *. g);
    let mhat = st.m.(i) /. bc1 and vhat = st.v.(i) /. bc2 in
    theta.(i) <- theta.(i) -. (lr *. mhat /. (sqrt vhat +. eps))
  done

(* Training works on the flat parameter vector Adam updates: w1 (h*k,
   row-major) ++ b1 (h) ++ w2 (h) ++ b2.  Each sample's set features are
   listed once, in ascending order, and the forward and backward passes
   loop over that list only; the forward sums therefore add the same
   terms in the same order as a dense loop over all features, and
   test_ml checks the trained network bit for bit against a dense
   reference trainer. *)
let train ?(params = default_params) ~rng (ds : Dataset.t) =
  let n = Dataset.size ds in
  if n = 0 then invalid_arg "Mlp.train: empty dataset";
  let k = ds.Dataset.nfeatures and h = params.hidden in
  let gauss () =
    (* Box-Muller *)
    let u1 = Float.max 1e-12 (Splitmix.float rng) and u2 = Splitmix.float rng in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  let b1_at = h * k in
  let w2_at = b1_at + h in
  let b2_at = w2_at + h in
  let nparams = b2_at + 1 in
  let theta = Array.make nparams 0.0 in
  let scale1 = sqrt (2.0 /. float_of_int k) in
  for i = 0 to b1_at - 1 do
    theta.(i) <- gauss () *. scale1
  done;
  for i = 0 to h - 1 do
    theta.(w2_at + i) <- gauss () *. sqrt (2.0 /. float_of_int h)
  done;
  let active =
    Array.map
      (fun s ->
        let x = s.Dataset.features in
        Array.of_list (List.filter (fun f -> x.(f)) (List.init k Fun.id)))
      ds.Dataset.samples
  in
  let grads = Array.make nparams 0.0 in
  let st = adam_make nparams in
  let hidden_pre = Array.make h 0.0 in
  let hidden_act = Array.make h 0.0 in
  let order = Array.init n (fun i -> i) in
  for _epoch = 1 to params.epochs do
    (* reshuffle *)
    for i = n - 1 downto 1 do
      let j = Splitmix.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    let idx = ref 0 in
    while !idx < n do
      let batch_end = min n (!idx + params.batch) in
      Array.fill grads 0 nparams 0.0;
      let bsize = float_of_int (batch_end - !idx) in
      for s = !idx to batch_end - 1 do
        let on = active.(order.(s)) in
        let y = if ds.Dataset.samples.(order.(s)).Dataset.label then 1.0 else 0.0 in
        (* forward *)
        for i = 0 to h - 1 do
          let acc = ref theta.(b1_at + i) in
          let base = i * k in
          for j = 0 to Array.length on - 1 do
            acc := !acc +. theta.(base + on.(j))
          done;
          hidden_pre.(i) <- !acc;
          hidden_act.(i) <- Float.max 0.0 !acc
        done;
        let out = ref theta.(b2_at) in
        for i = 0 to h - 1 do
          out := !out +. (theta.(w2_at + i) *. hidden_act.(i))
        done;
        let p = sigmoid !out in
        (* backward: dL/dout = p - y (logistic loss) *)
        let dout = (p -. y) /. bsize in
        grads.(b2_at) <- grads.(b2_at) +. dout;
        for i = 0 to h - 1 do
          grads.(w2_at + i) <- grads.(w2_at + i) +. (dout *. hidden_act.(i));
          if hidden_pre.(i) > 0.0 then begin
            let dh = dout *. theta.(w2_at + i) in
            grads.(b1_at + i) <- grads.(b1_at + i) +. dh;
            let base = i * k in
            for j = 0 to Array.length on - 1 do
              grads.(base + on.(j)) <- grads.(base + on.(j)) +. dh
            done
          end
        done
      done;
      adam_step st ~lr:params.learning_rate theta grads;
      idx := batch_end
    done
  done;
  {
    w1 = Array.init h (fun i -> Array.sub theta (i * k) k);
    b1 = Array.sub theta b1_at h;
    w2 = Array.sub theta w2_at h;
    b2 = theta.(b2_at);
  }

let probability t features =
  let h = Array.length t.w1 in
  let acc_out = ref t.b2 in
  for i = 0 to h - 1 do
    let acc = ref t.b1.(i) in
    let row = t.w1.(i) in
    for f = 0 to Array.length features - 1 do
      if features.(f) then acc := !acc +. row.(f)
    done;
    let a = Float.max 0.0 !acc in
    acc_out := !acc_out +. (t.w2.(i) *. a)
  done;
  sigmoid !acc_out

let predict t features = probability t features > 0.5
