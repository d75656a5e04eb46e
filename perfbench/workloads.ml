(* The operation streams of the two workloads and of the ABD stack that
   store-write-heavy's traced run measures (the exhaustive checker's
   configuration lives in [Explore]). *)

let names = [ "store-write-heavy"; "store-scan-heavy" ]

let write_heavy =
  {
    Stream.m = 65_536; ops = 200_000; update_ratio = 0.9; dist = Stream.Zipf 0.99;
    pattern = Stream.Window; r = 16;
  }

let scan_heavy =
  {
    Stream.m = 65_536; ops = 60_000; update_ratio = 0.1; dist = Stream.Uniform;
    pattern = Stream.Random_set; r = 16;
  }

let abd_net3 =
  {
    Stream.m = 1024; ops = 3_000; update_ratio = 0.5; dist = Stream.Uniform;
    pattern = Stream.Random_set; r = 4;
  }
