(* Output checks, run after the timed pass, and the defects the smoke
   test seeds into outputs to prove the checks bite. *)

open Device
module D = Rfloor_diag.Diagnostic
module Layout = Rfloor_online.Layout

(* Every returned plan must pass the independent solution audit. *)
let audit part spec plan =
  match D.errors (Rfloor_analysis.Solution_audit.run part spec plan) with
  | [] -> None
  | d :: _ -> Some (Format.asprintf "audit: %a" D.pp d)

(* Non-moving modules come through a move schedule byte-identical. *)
let no_break ~before ~after ~moved =
  List.filter_map
    (fun (e : Layout.entry) ->
      let name = e.Layout.e_name in
      if List.mem name moved then None
      else
        match Layout.find after name with
        | None -> Some (Printf.sprintf "no-break: module %s dropped" name)
        | Some e' ->
          (* the same image value is trivially the same bytes *)
          if
            e.Layout.e_image == e'.Layout.e_image
            || Bytes.equal
                 (Bitstream.Image.serialize e.Layout.e_image)
                 (Bitstream.Image.serialize e'.Layout.e_image)
          then None
          else Some (Printf.sprintf "no-break: frames of module %s changed" name))
    (Layout.entries before)

(* ---- seeded defects ---- *)

(* A second rectangle laid over the first placement. *)
let overlapping (plan : Floorplan.t) =
  match (plan.Floorplan.placements, plan.Floorplan.fc_areas) with
  | a :: b :: rest, _ ->
    Some { plan with Floorplan.placements = a :: { b with Floorplan.p_rect = a.Floorplan.p_rect } :: rest }
  | a :: _, fc :: fcs ->
    Some { plan with Floorplan.fc_areas = { fc with Floorplan.fc_rect = a.Floorplan.p_rect } :: fcs }
  | _ -> None

(* [after] with one non-moving module's image re-synthesized from
   another seed, in place: same rectangle, different frames. *)
let tampered ~after ~moved =
  List.find_map
    (fun (e : Layout.entry) ->
      if List.mem e.Layout.e_name moved then None
      else
        match Layout.remove after e.Layout.e_name with
        | Error _ -> None
        | Ok l -> (
          match
            Layout.place_at ~seed:0x7A3 l e.Layout.e_name e.Layout.e_demand e.Layout.e_rect
          with
          | Ok l -> Some l
          | Error _ -> None))
    (Layout.entries after)
