(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name is "<layer>.<call>",
   it carries the id of the benchmark operation it belongs to, and it
   sits on one track (a caller domain or the pool worker).  Nothing is
   written until the run ends; then the spans become Chrome trace-event
   JSON, and per-layer self times are computed back from that file. *)

module Json = Rfloor_metrics.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  s_name : string;
  s_op : int;
  s_track : int;
  s_t0 : float;
  s_t1 : float;
  s_children : span list;
}

let make ?(children = []) ~name ~op ~track t0 t1 =
  { s_name = name; s_op = op; s_track = track; s_t0 = t0; s_t1 = t1;
    s_children = children }

let duration s = s.s_t1 -. s.s_t0

(* Rebuild the forest of properly nested spans from a flat list. *)
let nest spans =
  let sorted =
    List.sort (fun a b -> compare (a.s_t0, -.a.s_t1) (b.s_t0, -.b.s_t1)) spans
  in
  let contains top s = s.s_t0 >= top.s_t0 && s.s_t1 <= top.s_t1 in
  (* [stack]: open spans, innermost first, each with its children so
     far (newest first); closing one files it under its parent *)
  let rec close_until keep stack roots =
    match stack with
    | (top, _) :: _ when keep top -> (stack, roots)
    | [] -> ([], roots)
    | (top, kids) :: rest -> (
      let s = { top with s_children = List.rev kids } in
      match rest with
      | (p, pkids) :: rest' -> close_until keep ((p, s :: pkids) :: rest') roots
      | [] -> close_until keep [] (s :: roots))
  in
  let stack, roots =
    List.fold_left
      (fun (stack, roots) s ->
        let stack, roots = close_until (fun top -> contains top s) stack roots in
        ((s, []) :: stack, roots))
      ([], []) sorted
  in
  List.rev (snd (close_until (fun _ -> false) stack roots))

type t = {
  on : bool;
  epoch : float;
  mu : Mutex.t;
  mutable roots : span list;
}

let create ~on = { on; epoch = now (); mu = Mutex.create (); roots = [] }
let enabled t = t.on

let add t span =
  if t.on then begin
    Mutex.lock t.mu;
    t.roots <- span :: t.roots;
    Mutex.unlock t.mu
  end

(* Time [f] as a root span; a disabled recorder only runs [f]. *)
let timed t ~name ~op ~track f =
  if not t.on then f ()
  else begin
    let t0 = now () in
    let r = f () in
    add t (make ~name ~op ~track t0 (now ()));
    r
  end

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* ---- the program's own phase spans, stamped on our clock ---- *)

(* Collects the Span_start/Span_end events of an Rfloor_trace stream
   and stamps each with [now ()] on arrival (sinks run synchronously on
   the emitting domain), so the program's phases nest inside the
   benchmark's spans without aligning tracer epochs. *)
module Phases = struct
  module E = Rfloor_trace.Event

  type t = {
    mu : Mutex.t;
    mutable open_ : (int * E.phase * float) list;
    mutable closed : (int * E.phase * float * float) list;
  }

  let create () = { mu = Mutex.create (); open_ = []; closed = [] }

  let sink t =
    Rfloor_trace.Sink.of_fn (fun (ev : E.t) ->
        let w = ev.E.worker in
        match ev.E.payload with
        | E.Span_start p ->
          let at = now () in
          Mutex.lock t.mu;
          t.open_ <- (w, p, at) :: t.open_;
          Mutex.unlock t.mu
        | E.Span_end p ->
          let at = now () in
          Mutex.lock t.mu;
          (* innermost open span of this worker and phase *)
          let rec take acc = function
            | [] -> (None, List.rev acc)
            | (w', p', t0) :: rest when w' = w && p' = p ->
              (Some t0, List.rev_append acc rest)
            | x :: rest -> take (x :: acc) rest
          in
          let t0, rest = take [] t.open_ in
          t.open_ <- rest;
          Option.iter (fun t0 -> t.closed <- (w, p, t0, at) :: t.closed) t0;
          Mutex.unlock t.mu
        | _ -> ())

  (* Closed phases as nested spans; [layer] names each phase's layer. *)
  let spans t ~layer ~op ~track =
    Mutex.lock t.mu;
    let closed = t.closed in
    Mutex.unlock t.mu;
    nest
      (List.map
         (fun (_, p, t0, t1) ->
           make ~name:(layer p ^ "." ^ E.phase_name p) ~op ~track t0 t1)
         closed)

end

(* ---- Chrome trace-event export ---- *)

let to_chrome t =
  let us x = Json.Num (Float.round ((x -. t.epoch) *. 1e7) /. 10.) in
  let ev ph s ts =
    Json.Obj
      [
        ("name", Json.Str s.s_name);
        ("cat", Json.Str (layer_of s.s_name));
        ("ph", Json.Str ph);
        ("ts", us ts);
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int s.s_track));
        ("args", Json.Obj [ ("op", Json.Num (float_of_int s.s_op)) ]);
      ]
  in
  let rec emit s acc =
    let acc = ev "B" s s.s_t0 :: acc in
    let acc = List.fold_left (fun acc c -> emit c acc) acc s.s_children in
    ev "E" s s.s_t1 :: acc
  in
  let tracks = List.sort_uniq compare (List.map (fun s -> s.s_track) t.roots) in
  let meta =
    List.map
      (fun tr ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num 1.);
            ("tid", Json.Num (float_of_int tr));
            ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "track-%d" tr)) ]);
          ])
      tracks
  in
  let events =
    List.concat_map
      (fun tr ->
        let roots =
          List.filter (fun s -> s.s_track = tr) t.roots
          |> List.sort (fun a b -> compare a.s_t0 b.s_t0)
        in
        List.rev (List.fold_left (fun acc s -> emit s acc) [] roots))
      tracks
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr (meta @ events)) ]) ^ "\n"

(* Self seconds per layer (span minus the part its children cover),
   read back from a Chrome trace-event document. *)
let self_times text =
  let ( let* ) = Result.bind in
  let* j = Json.parse (String.trim text) in
  let* events = Json.get_arr "traceEvents" j in
  let stacks = Hashtbl.create 8 in
  let self = Hashtbl.create 8 in
  let bump layer x =
    Hashtbl.replace self layer
      (x +. Option.value ~default:0. (Hashtbl.find_opt self layer))
  in
  let rec go = function
    | [] -> Ok ()
    | ev :: rest -> (
      let* ph = Json.get_string "ph" ev in
      match ph with
      | "B" | "E" ->
        let* tid = Json.get_num "tid" ev in
        let* ts = Json.get_num "ts" ev in
        let* cat = Json.get_string "cat" ev in
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        if ph = "B" then begin
          Hashtbl.replace stacks tid ((cat, ts, ref 0.) :: stack);
          go rest
        end
        else (
          match stack with
          | (layer, t0, kids) :: up ->
            let d = (ts -. t0) *. 1e-6 in
            bump layer (Float.max 0. (d -. !kids));
            (match up with (_, _, pk) :: _ -> pk := !pk +. d | [] -> ());
            Hashtbl.replace stacks tid up;
            go rest
          | [] -> Error "unbalanced E event")
      | _ -> go rest)
  in
  let* () = go events in
  Ok (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])
