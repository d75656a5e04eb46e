(* Component placement for the sharded serving layers; see placement.mli. *)

type t = {
  partition : [ `Round_robin | `Range ];
  m : int;
  nshards : int;
  q : int;  (** base shard size [m / nshards] *)
  rem : int;  (** the first [rem] shards get [q+1] *)
}

let make partition ~shards ~m =
  if m < 1 then invalid_arg "Placement.make: empty";
  if shards < 1 then invalid_arg "Placement.make: shards < 1";
  let nshards = min shards m in
  { partition; m; nshards; q = m / nshards; rem = m mod nshards }

let nshards p = p.nshards

let locate p i =
  if i < 0 || i >= p.m then invalid_arg "Placement.locate: index";
  match p.partition with
  | `Round_robin -> (i mod p.nshards, i / p.nshards)
  | `Range ->
    let cut = p.rem * (p.q + 1) in
    if i < cut then (i / (p.q + 1), i mod (p.q + 1))
    else
      let j = i - cut in
      (p.rem + (j / p.q), j mod p.q)

(* Both layouts give the first [rem] shards one extra component. *)
let size p s = if s < p.rem then p.q + 1 else p.q

let global p s j =
  match p.partition with
  | `Round_robin -> (j * p.nshards) + s
  | `Range ->
    if s < p.rem then (s * (p.q + 1)) + j
    else (p.rem * (p.q + 1)) + ((s - p.rem) * p.q) + j

let split p init =
  Array.init p.nshards (fun s ->
      Array.init (size p s) (fun j -> init.(global p s j)))
