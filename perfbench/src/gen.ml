(* Seeded inputs for the three workloads.  The benchmark owns these
   generators; the program only ever sees the instances they produce. *)

open Device

(* Two items in three come from a fixed anchor seed shared by every
   run, the third from the run's own seed.  The anchors keep the work
   of a run close to the same for every seed; the seeded third keeps
   each seed's inputs its own. *)
let anchor = 2015
let source ~seed i = if i mod 3 = 2 then seed else anchor

(* ---- milp-ladder: small columnar devices, 1-3 regions, soft reloc ---- *)

type rung = { r_id : int; r_part : Partition.t; r_spec : Spec.t }

(* Columnar grid of [nportions] single-column portions, adjacent ones
   of differing kinds, so the partition properties hold by
   construction. *)
let ladder_partition prng ~nportions =
  let kinds = [| Resource.Clb; Resource.Bram; Resource.Dsp |] in
  let rows = Prng.range prng 4 6 in
  let cols = ref [] and prev = ref None in
  for _ = 1 to nportions do
    let k = ref (Prng.pick prng kinds) in
    while Some !k = !prev do
      k := Prng.pick prng kinds
    done;
    prev := Some !k;
    cols := Resource.tile_type !k :: !cols
  done;
  Partition.columnar_exn (Grid.of_columns ~name:"ladder" ~rows (List.rev !cols))

(* Rung [i] belongs to stratum [i mod 4]: one, two or three regions
   without nets on 2-4 portions, or two regions joined by a net on 2
   portions, where the wire-length stage (the slow one) still proves
   within the budget.  Fixing the stratum mix keeps the share of
   wire-length proofs the same for every seed; the seed draws devices,
   kinds and demands. *)
let ladder_spec prng part i =
  let avail =
    List.filter
      (fun (k, c) -> c > 0 && k <> Resource.Io)
      (Grid.usable_tiles part.Partition.grid)
  in
  let stratum = i mod 4 in
  let nregions = min (if stratum = 3 then 2 else stratum + 1) (List.length avail + 1) in
  let regions =
    List.init nregions (fun i ->
        let k, c = List.nth avail (Prng.int prng (List.length avail)) in
        let cap = max 1 (c / (2 * nregions)) in
        { Spec.r_name = Printf.sprintf "R%d" (i + 1); demand = [ (k, Prng.range prng 1 cap) ] })
  in
  let names = List.map (fun r -> r.Spec.r_name) regions in
  let nets = if stratum = 3 && nregions >= 2 then Spec.chain_nets names else [] in
  let copies = if stratum = 3 then 1 else Prng.range prng 1 2 in
  let relocs = [ { Spec.target = List.hd names; copies; mode = Spec.Soft 1. } ] in
  Spec.make ~nets ~relocs ~name:(Printf.sprintf "ladder-%d" i) regions

let ladder ~seed ~n =
  List.init n (fun i ->
      let prng = Prng.derive (source ~seed i) ~stream:1 i in
      let part = ladder_partition prng ~nportions:(if i mod 4 = 3 then 2 else Prng.range prng 2 4) in
      { r_id = i; r_part = part; r_spec = ladder_spec prng part i })

(* ---- service-sdr: SDR variants on the FX70T ---- *)

type variant = { v_id : int; v_spec : Spec.t; v_lex : bool }

let fx70t = lazy (Partition.columnar_exn Devices.virtex5_fx70t)

let jitter prng demand =
  List.filter_map
    (fun (k, n) ->
      let n = n + Prng.range prng (-2) 2 in
      if n > 0 then Some (k, n) else None)
    demand

(* One SDR variant: [size] of the five pipeline stages (the seed picks
   which), every demand jittered by up to 2 tiles, and [copies]
   free-compatible areas requested for one relocatable stage. *)
let variant prng id ~size ~lex ~copies ~hard =
  let base = Array.of_list Sdr.design.Spec.regions in
  let order = Array.init (Array.length base) Fun.id in
  Prng.shuffle prng order;
  let keep = Array.sub order 0 size in
  let regions =
    List.filteri (fun i _ -> Array.mem i keep) (Array.to_list base)
    |> List.map (fun (r : Spec.region) ->
           let demand = jitter prng r.Spec.demand in
           { r with Spec.demand = (if demand = [] then r.Spec.demand else demand) })
  in
  let names = List.map (fun r -> r.Spec.r_name) regions in
  let relocatable = List.filter (fun n -> List.mem n Sdr.relocatable) names in
  let relocs =
    if copies = 0 || relocatable = [] then []
    else
      [
        {
          Spec.target = Prng.pick prng (Array.of_list relocatable);
          copies;
          mode = (if hard then Spec.Hard else Spec.Soft 1.);
        };
      ]
  in
  {
    v_id = id;
    v_spec =
      Spec.make ~nets:(Spec.chain_nets ~weight:64. names) ~relocs
        ~name:(Printf.sprintf "sdr-v%d" id) regions;
    v_lex = lex;
  }

(* Copies cycle through 0, 1 and 2, always soft.  Hard copies make
   some variants cost 4-13 ms per search node, so the engine sees the
   deadline seconds late (see FINDINGS.md), and a hot variant that never
   completes is never cached and pays that again on every request.
   Hard copies therefore come only through [overrun_probe], once per
   run, rather than at the seed's whim. *)
let copies i = i / 2 mod 3

(* The hot set, repeated by the Zipf draw: feasibility questions over 2
   or 3 stages and lexicographic solves of 2 stages, small enough to
   complete well within the deadline and be cached. *)
let hot_variants ~seed ~n =
  List.init n (fun i ->
      let lex = i mod 2 = 1 in
      variant (Prng.derive (source ~seed i) ~stream:2 i) i
        ~size:(if lex then 2 else 2 + (i / 2 mod 2))
        ~lex ~copies:(copies i) ~hard:false)

(* A one-off lexicographic solve of 3-5 stages: a cache insert, and
   the requests that meet the deadline, or not. *)
let cold_variant ~seed i =
  variant (Prng.derive (source ~seed i) ~stream:5 i) (1000 + i) ~size:(3 + (i mod 3)) ~lex:true
    ~copies:(copies i) ~hard:false

(* A fixed feasibility question whose search nodes cost ~10 ms, so the
   engine notices a deadline only after its first 1024 nodes: two hard
   copies of a 3-DSP carrier recovery beside the video decoder. *)
let overrun_probe =
  lazy
    (let r name demand = { Spec.r_name = name; demand } in
     let names = [ Sdr.carrier_recovery; Sdr.video_decoder ] in
     {
       v_id = -1;
       v_spec =
         Spec.make ~name:"sdr-overrun-probe"
           ~nets:(Spec.chain_nets ~weight:64. names)
           ~relocs:[ { Spec.target = Sdr.carrier_recovery; copies = 2; mode = Spec.Hard } ]
           [
             r Sdr.carrier_recovery [ (Resource.Clb, 5); (Resource.Dsp, 3) ];
             r Sdr.video_decoder [ (Resource.Clb, 53); (Resource.Bram, 1); (Resource.Dsp, 6) ];
           ];
       v_lex = false;
     })

(* The same instance under fresh region names, listed in another
   order: a cache hit has to go through canonicalization. *)
let disguise prng tag (spec : Spec.t) =
  let regions = Array.of_list spec.Spec.regions in
  Prng.shuffle prng regions;
  let rename =
    List.mapi
      (fun i (r : Spec.region) -> (r.Spec.r_name, Printf.sprintf "%s.%d" tag i))
      (Array.to_list regions)
  in
  let nm n = List.assoc n rename in
  Spec.make ~name:spec.Spec.s_name
    ~nets:(List.map (fun (n : Spec.net) -> { n with Spec.src = nm n.Spec.src; dst = nm n.Spec.dst }) spec.Spec.nets)
    ~relocs:(List.map (fun (r : Spec.reloc_req) -> { r with Spec.target = nm r.Spec.target }) spec.Spec.relocs)
    (Array.to_list (Array.map (fun (r : Spec.region) -> { r with Spec.r_name = nm r.Spec.r_name }) regions))

type request = { q_variant : variant; q_spec : Spec.t }

(* Request [n / 2] is the overrun probe; otherwise every
   [cold_every]-th request is a fresh cold variant, and the rest are
   drawn Zipf(1) from the hot set, rank r with weight 1/(r+1).  Each
   request renames and reorders its regions. *)
let requests ~seed ~hot ~cold_every ~n =
  let hot = Array.of_list hot in
  let weights = Array.mapi (fun r _ -> 1. /. float_of_int (r + 1)) hot in
  let total = Array.fold_left ( +. ) 0. weights in
  let prng = Prng.derive seed ~stream:3 0 in
  List.init n (fun i ->
      let v =
        if i = n / 2 then Lazy.force overrun_probe
        else if i mod cold_every = cold_every - 1 then cold_variant ~seed (i / cold_every)
        else begin
          let u = Prng.float prng *. total in
          let rec pick r acc =
            if r >= Array.length hot - 1 || acc +. weights.(r) > u then r
            else pick (r + 1) (acc +. weights.(r))
          in
          hot.(pick 0 0.)
        end
      in
      { q_variant = v; q_spec = disguise prng (Printf.sprintf "q%d" i) v.v_spec })

(* ---- online-churn: arrivals/departures at steady occupancy ---- *)

type event =
  | Arrive of string * Resource.demand
  | Depart of string

(* Arrivals while the offered load is below [lo], departures above
   [hi], a coin toss in between; demands are sized so ~6-12 modules
   fill the device.  Occupancy is tracked on offered tiles, so the
   stream does not depend on what the layout admits. *)
let churn ~seed ~n part =
  let prng = Prng.derive seed ~stream:4 0 in
  let usable = Grid.usable_tiles part.Partition.grid in
  let avail k = Resource.demand_get usable k in
  let total = Resource.demand_tiles usable in
  let demand () =
    let clb = avail Resource.Clb in
    let d = [ (Resource.Clb, Prng.range prng (max 1 (clb / 24)) (max 2 (clb / 8))) ] in
    let d =
      if avail Resource.Bram > 0 && Prng.int prng 3 = 0 then
        (Resource.Bram, Prng.range prng 1 (max 1 (avail Resource.Bram / 8))) :: d
      else d
    in
    if avail Resource.Dsp > 0 && Prng.int prng 4 = 0 then
      (Resource.Dsp, Prng.range prng 1 (max 1 (avail Resource.Dsp / 8))) :: d
    else d
  in
  let live = ref [] and load = ref 0 and next_id = ref 0 in
  List.init n (fun _ ->
      let occ = float_of_int !load /. float_of_int total in
      let arrive =
        !live = [] || occ < 0.65 || (occ < 0.8 && Prng.bool prng)
      in
      if arrive then begin
        incr next_id;
        let name = Printf.sprintf "m%d" !next_id in
        let d = demand () in
        live := (name, Resource.demand_tiles d) :: !live;
        load := !load + Resource.demand_tiles d;
        Arrive (name, d)
      end
      else begin
        let name, tiles = List.nth !live (Prng.int prng (List.length !live)) in
        live := List.remove_assoc name !live;
        load := !load - tiles;
        Depart name
      end)
