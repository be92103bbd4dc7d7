open Device

type stop_reason = Budget | Cancelled

type options = {
  time_limit : float option;
  node_limit : int option;
  optimize_wirelength : bool;
  region_order : string list option;
  trace : Rfloor_trace.t;
  cancel : unit -> bool;
  on_improvement : (Floorplan.t -> int -> unit) option;
}

let default_options =
  {
    time_limit = None;
    node_limit = None;
    optimize_wirelength = true;
    region_order = None;
    trace = Rfloor_trace.disabled;
    cancel = (fun () -> false);
    on_improvement = None;
  }

type outcome = {
  plan : Floorplan.t option;
  wasted : int option;
  wirelength : float option;
  optimal : bool;
  nodes : int;
  elapsed : float;
  stop : stop_reason option;
}

exception Budget_exhausted
exception Cancelled_exn
exception Found_one

type entity = {
  e_region : Spec.region;
  e_cands : Candidates.candidate array; (* waste ascending *)
  e_hard_copies : int;
}

let hard_copies (spec : Spec.t) name =
  List.fold_left
    (fun acc (rr : Spec.reloc_req) ->
      match rr.Spec.mode with
      | Spec.Hard when rr.Spec.target = name -> acc + rr.Spec.copies
      | Spec.Hard | Spec.Soft _ -> acc)
    0 spec.Spec.relocs

let order_entities options (spec : Spec.t) part =
  let frames = Grid.frames part.Partition.grid in
  let weight (r : Spec.region) =
    Resource.demand_frames ~frames r.Spec.demand
  in
  let regions =
    match options.region_order with
    | None ->
      List.sort (fun a b -> compare (weight b) (weight a)) spec.Spec.regions
    | Some names ->
      let explicit =
        List.filter_map (fun n -> Spec.find_region spec n) names
      in
      let missing =
        List.filter
          (fun (r : Spec.region) ->
            not (List.mem r.Spec.r_name names))
          spec.Spec.regions
      in
      explicit @ missing
  in
  List.map
    (fun (r : Spec.region) ->
      {
        e_region = r;
        e_cands = Array.of_list (Candidates.enumerate part r.Spec.demand);
        e_hard_copies = hard_copies spec r.Spec.r_name;
      })
    regions

(* Greedy best-effort placement of soft free-compatible areas on a
   finished floorplan, heaviest weight first. *)
let add_soft_areas part (spec : Spec.t) plan =
  let soft =
    List.filter_map
      (fun (rr : Spec.reloc_req) ->
        match rr.Spec.mode with
        | Spec.Soft w -> Some (w, rr)
        | Spec.Hard -> None)
      spec.Spec.relocs
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let occupied = ref (Floorplan.all_rects plan) in
  let extra = ref [] in
  List.iter
    (fun (_, (rr : Spec.reloc_req)) ->
      match Floorplan.rect_of plan rr.Spec.target with
      | None -> ()
      | Some rect ->
        let base = List.length (Floorplan.fc_for plan rr.Spec.target) in
        let placed = ref 0 in
        let sites =
          Compat.free_compatible_sites ~occupied:!occupied part rect
        in
        List.iter
          (fun site ->
            if
              !placed < rr.Spec.copies
              && not (List.exists (Rect.overlaps site) !occupied)
            then begin
              incr placed;
              occupied := site :: !occupied;
              extra :=
                {
                  Floorplan.fc_region = rr.Spec.target;
                  fc_index = base + !placed;
                  fc_rect = site;
                }
                :: !extra
            end)
          sites)
    soft;
  { plan with Floorplan.fc_areas = plan.Floorplan.fc_areas @ List.rev !extra }

type search_mode =
  | Min_waste of { stop_at_first : bool }
  | Min_wirelength of { waste_budget : int }

(* Core branch and bound.  Places entities in order; immediately after a
   region, its hard free-compatible copies are placed (all combinations
   of disjoint compatible sites are explored, in canonical order to
   avoid permutation symmetry). *)
let kind_index = function
  | Resource.Clb -> 0
  | Resource.Bram -> 1
  | Resource.Dsp -> 2
  | Resource.Io -> 3

let coverage_of part rect =
  let cov = Array.make 4 0 in
  List.iter
    (fun (k, n) -> cov.(kind_index k) <- n)
    (Compat.covered_demand part rect);
  cov

let search ~options ~mode part (spec : Spec.t) entities =
  Rfloor_trace.span options.trace Rfloor_trace.Event.Branch_bound @@ fun () ->
  let t0 = Sys.time () in
  let nodes = ref 0 in
  let stopped = ref None in
  let entities = Array.of_list entities in
  let n = Array.length entities in
  let min_remaining = Array.make (n + 1) 0 in
  let unplaceable = ref false in
  for i = n - 1 downto 0 do
    let c = entities.(i).e_cands in
    if Array.length c = 0 then unplaceable := true
    else min_remaining.(i) <- min_remaining.(i + 1) + c.(0).Candidates.waste
  done;
  (* Per-kind tile capacity pruning: placed coverage plus a lower bound
     on the coverage of every remaining entity (regions and their
     compatible copies, which cover exactly what the region covers) can
     never exceed the device's usable tiles of that kind.  This is what
     proves the matched-filter / video-decoder duplication infeasible
     quickly: DSP tiles are exactly exhausted, so any DSP-wasting
     candidate dies immediately. *)
  let capacity =
    let cap = Array.make 4 0 in
    let g = part.Partition.grid in
    for col = 1 to Partition.width part do
      let k = kind_index (Partition.column_type part col).Resource.kind in
      for row = 1 to Partition.height part do
        if not (Grid.in_forbidden g col row) then cap.(k) <- cap.(k) + 1
      done
    done;
    cap
  in
  let cand_coverage =
    Array.map
      (fun e ->
        Array.map (fun c -> coverage_of part c.Candidates.rect) e.e_cands)
      entities
  in
  let min_cov_suffix = Array.make_matrix (n + 1) 4 0 in
  for i = n - 1 downto 0 do
    let covs = cand_coverage.(i) in
    let mult = 1 + entities.(i).e_hard_copies in
    for k = 0 to 3 do
      let m = ref max_int in
      Array.iter (fun cov -> if cov.(k) < !m then m := cov.(k)) covs;
      let m = if !m = max_int then 0 else !m in
      min_cov_suffix.(i).(k) <- min_cov_suffix.(i + 1).(k) + (mult * m)
    done
  done;
  let best_waste = ref max_int and best_wl = ref infinity in
  let best_plan = ref None in
  let budget_check () =
    incr nodes;
    if !nodes land 1023 = 0 then begin
      if options.cancel () then raise Cancelled_exn;
      (match options.node_limit with
      | Some nl when !nodes >= nl -> raise Budget_exhausted
      | _ -> ());
      match options.time_limit with
      | Some tl when Sys.time () -. t0 > tl -> raise Budget_exhausted
      | _ -> ()
    end
  in
  (* nets indexed for incremental wire length *)
  let net_list = spec.Spec.nets in
  let wl_between placements =
    (* wire length over nets whose two endpoints are both placed *)
    List.fold_left
      (fun acc (nt : Spec.net) ->
        match
          ( List.assoc_opt nt.Spec.src placements,
            List.assoc_opt nt.Spec.dst placements )
        with
        | Some a, Some b -> acc +. (nt.Spec.weight *. Rect.manhattan_centers a b)
        | _ -> acc)
      0. net_list
  in
  let record placements fcs waste =
    let plan =
      Floorplan.make
        (List.rev_map
           (fun (name, rect) -> { Floorplan.p_region = name; p_rect = rect })
           placements)
        (List.rev fcs)
    in
    let wl = wl_between placements in
    match mode with
    | Min_waste { stop_at_first } ->
      if waste < !best_waste then begin
        best_waste := waste;
        best_wl := wl;
        best_plan := Some plan;
        Rfloor_trace.incumbent options.trace ~worker:0
          ~objective:(float_of_int waste) ~node:!nodes;
        (match options.on_improvement with
        | Some f -> f plan waste
        | None -> ());
        if stop_at_first then raise Found_one
      end
    | Min_wirelength _ ->
      if wl < !best_wl -. 1e-9 then begin
        best_wl := wl;
        best_waste := min !best_waste waste;
        best_plan := Some plan;
        Rfloor_trace.incumbent options.trace ~worker:0 ~objective:wl
          ~node:!nodes
      end
  in
  let waste_cap () =
    match mode with
    | Min_waste _ -> !best_waste
    | Min_wirelength { waste_budget } -> waste_budget + 1
  in
  let overlaps_any rect placed =
    List.exists (fun (_, r) -> Rect.overlaps rect r) placed
  in
  (* choose [k] pairwise-disjoint sites from [sites] (already compatible
     and forbidden-free), indices strictly increasing *)
  let rec choose_sites k start sites placed acc kont =
    if k = 0 then kont (List.rev acc)
    else begin
      let nsites = Array.length sites in
      for idx = start to nsites - k do
        let site = sites.(idx) in
        if
          (not (overlaps_any site placed))
          && not (List.exists (Rect.overlaps site) acc)
        then
          choose_sites (k - 1) (idx + 1) sites placed (site :: acc) kont
      done
    end
  in
  let used = Array.make 4 0 in
  let rec place i placed placements fcs waste wl =
    budget_check ();
    if i = n then record placements fcs waste
    else begin
      let e = entities.(i) in
      let cands = e.e_cands in
      let ncands = Array.length cands in
      let mult = 1 + e.e_hard_copies in
      let continue_ = ref true in
      let ci = ref 0 in
      while !continue_ && !ci < ncands do
        let cidx = !ci in
        let c = cands.(cidx) in
        incr ci;
        let lb = waste + c.Candidates.waste + min_remaining.(i + 1) in
        if lb >= waste_cap () then continue_ := false (* waste-sorted: stop *)
        else begin
          let cov = cand_coverage.(i).(cidx) in
          let cap_ok = ref true in
          for k = 0 to 3 do
            if
              used.(k) + (mult * cov.(k)) + min_cov_suffix.(i + 1).(k)
              > capacity.(k)
            then cap_ok := false
          done;
          let rect = c.Candidates.rect in
          if !cap_ok && not (overlaps_any rect placed) then begin
            let name = e.e_region.Spec.r_name in
            let placements' = (name, rect) :: placements in
            let wl' =
              List.fold_left
                (fun acc (nt : Spec.net) ->
                  let other =
                    if nt.Spec.src = name then Some nt.Spec.dst
                    else if nt.Spec.dst = name then Some nt.Spec.src
                    else None
                  in
                  match other with
                  | None -> acc
                  | Some o -> (
                    match List.assoc_opt o placements with
                    | None -> acc
                    | Some r ->
                      acc +. (nt.Spec.weight *. Rect.manhattan_centers rect r)))
                wl net_list
            in
            let wl_prune =
              match mode with
              | Min_wirelength _ -> wl' >= !best_wl -. 1e-9
              | Min_waste _ -> false
            in
            if not wl_prune then begin
              for k = 0 to 3 do
                used.(k) <- used.(k) + (mult * cov.(k))
              done;
              let placed' = (name, rect) :: placed in
              (if e.e_hard_copies = 0 then
                place (i + 1) placed' placements' fcs (waste + c.Candidates.waste) wl'
              else begin
                (* place the hard free-compatible copies now *)
                let sites =
                  Array.of_list (Compat.relocation_sites part rect)
                in
                let sites =
                  Array.of_list
                    (List.filter
                       (fun s -> not (Rect.equal s rect))
                       (Array.to_list sites))
                in
                choose_sites e.e_hard_copies 0 sites placed' [] (fun chosen ->
                    budget_check ();
                    let fcs' =
                      List.mapi
                        (fun k site ->
                          {
                            Floorplan.fc_region = name;
                            fc_index = k + 1;
                            fc_rect = site;
                          })
                        chosen
                      @ fcs
                    in
                    let placed'' =
                      List.map (fun s -> ("fc:" ^ name, s)) chosen @ placed'
                    in
                    place (i + 1) placed'' placements' fcs'
                      (waste + c.Candidates.waste)
                      wl')
              end);
              for k = 0 to 3 do
                used.(k) <- used.(k) - (mult * cov.(k))
              done
            end
          end
        end
      done
    end
  in
  let optimal = ref true in
  if not !unplaceable then begin
    try place 0 [] [] [] 0 0. with
    | Budget_exhausted ->
      stopped := Some Budget;
      optimal := false
    | Cancelled_exn ->
      stopped := Some Cancelled;
      optimal := false;
      Rfloor_trace.stopped options.trace ~worker:0 "cancel"
    | Found_one -> ()
  end;
  let elapsed = Sys.time () -. t0 in
  ( !best_plan,
    (if !best_waste = max_int then None else Some !best_waste),
    (if !best_wl = infinity then None else Some !best_wl),
    !optimal,
    !nodes,
    elapsed,
    !stopped )

let finish part spec (plan, waste, wl, optimal, nodes, elapsed, stop) =
  let plan = Option.map (add_soft_areas part spec) plan in
  (* recompute metrics on the final plan for reporting hygiene *)
  let wasted =
    match (plan, waste) with
    | Some p, _ -> Some (Floorplan.wasted_frames part spec p)
    | None, w -> w
  in
  let wirelength =
    match plan with Some p -> Some (Floorplan.wirelength spec p) | None -> wl
  in
  { plan; wasted; wirelength; optimal; nodes; elapsed; stop }

let solve ?(options = default_options) part spec =
  let entities = order_entities options spec part in
  let r1 =
    search ~options ~mode:(Min_waste { stop_at_first = false }) part spec
      entities
  in
  let plan1, waste1, _, opt1, nodes1, el1, stop1 = r1 in
  match (plan1, waste1) with
  | None, _ | _, None ->
    finish part spec (plan1, waste1, None, opt1, nodes1, el1, stop1)
  | Some _, Some w when options.optimize_wirelength && opt1 ->
    Rfloor_trace.restart options.trace "wirelength";
    let plan2, waste2, wl2, opt2, nodes2, el2, stop2 =
      search ~options ~mode:(Min_wirelength { waste_budget = w }) part spec
        entities
    in
    let plan = match plan2 with Some p -> Some p | None -> plan1 in
    finish part spec
      ( plan,
        (match waste2 with Some _ -> Some w | None -> waste1),
        wl2,
        opt1 && opt2,
        nodes1 + nodes2,
        el1 +. el2,
        (match stop2 with Some _ -> stop2 | None -> stop1) )
  | Some _, Some _ -> finish part spec r1

let feasible ?(options = default_options) part spec =
  let entities = order_entities options spec part in
  let r =
    search ~options ~mode:(Min_waste { stop_at_first = true }) part spec
      entities
  in
  finish part spec r
