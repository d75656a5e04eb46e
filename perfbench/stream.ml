(* Seeded, pre-generated, fixed-size operation streams.  The same seed
   gives the same stream; the program under test only ever sees the
   generated operations. *)

type dist = Uniform | Zipf of float

type pattern = Window | Random_set

type spec = {
  m : int;  (** components *)
  ops : int;  (** stream length *)
  update_ratio : float;
  dist : dist;
  pattern : pattern;
  r : int;  (** scan width *)
}

type t = {
  spec : spec;
  is_update : bool array;
  key : int array;  (** component an update writes *)
  value : int array;  (** value an update writes; unique in the stream *)
  idxs : int array array;  (** components a scan reads; [||] for updates *)
}

(* Preloaded contents: component [i] holds [i + 1].  Stream values start
   above [m], so every written value is unique and names its writer. *)
let preload_value i = i + 1

let generate spec ~seed =
  let rng = Random.State.make [| seed; spec.m; spec.ops; spec.r |] in
  let zipf =
    match spec.dist with
    | Zipf theta -> Some (Psnap.Runtime.Loadgen.Zipf.create ~theta ~n:spec.m)
    | Uniform -> None
  in
  let draw () =
    match zipf with
    | Some z -> Psnap.Runtime.Loadgen.Zipf.sample z rng
    | None -> Random.State.int rng spec.m
  in
  let n = spec.ops in
  let is_update = Array.make n false in
  let key = Array.make n 0 in
  let value = Array.make n 0 in
  let idxs = Array.make n [||] in
  for j = 0 to n - 1 do
    if Random.State.float rng 1.0 < spec.update_ratio then begin
      is_update.(j) <- true;
      key.(j) <- draw ();
      value.(j) <- spec.m + 1 + j
    end
    else
      idxs.(j) <-
        (match spec.pattern with
         | Window ->
           let base = draw () in
           Array.init spec.r (fun k -> (base + k) mod spec.m)
         | Random_set -> Array.init spec.r (fun _ -> draw ()))
  done;
  { spec; is_update; key; value; idxs }

let spec_json s =
  Printf.sprintf
    "{\"m\":%d,\"ops\":%d,\"update_ratio\":%g,\"dist\":%s,\"pattern\":%S,\"r\":%d}"
    s.m s.ops s.update_ratio
    (match s.dist with
     | Uniform -> "\"uniform\""
     | Zipf th -> Printf.sprintf "\"zipf(%g)\"" th)
    (match s.pattern with Window -> "window" | Random_set -> "random-set")
    s.r
