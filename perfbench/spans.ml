(* In-memory span recorder for the traced run. The driver wraps each
   call it makes into a layer's public functions in a span; spans nest
   through an explicit parent stack and every span of one op carries
   that op's id. Nothing is written until [to_json] at the end of the
   run, so recording costs two clock reads and one array slot. It is kept
   apart from Telemetry.Registry on purpose: the instrument must not be
   code that a change under measurement may alter. *)

type span = {
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (* index of the enclosing span, -1 for a root *)
  op : int;  (* op id shared by every span of one op; -1 outside any op *)
}

type t = {
  clock : unit -> int;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (* indices of the open spans, innermost first *)
  mutable cur_op : int;  (* op id stamped on the spans recorded from now on *)
}

let dummy = { name = ""; start_ns = 0; stop_ns = 0; parent = -1; op = -1 }

let create ~clock =
  { clock; spans = Array.make 1024 dummy; len = 0; stack = []; cur_op = -1 }

let set_op t op = t.cur_op <- op

let spans t = Array.sub t.spans 0 t.len

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let record t name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let i = push t { dummy with name; parent; op = t.cur_op; start_ns = t.clock () } in
  t.stack <- i :: t.stack;
  let finish () =
    t.spans.(i) <- { (t.spans.(i)) with stop_ns = t.clock () };
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Self time of each span: its duration minus the part of its interval
   that its direct children cover. Children are clipped to the parent
   and merged, so overlapping or out-of-range child records never make
   a self time negative. *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then children.(s.parent) <- i :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let ivs =
        List.filter_map
          (fun c ->
            let a = max s.start_ns spans.(c).start_ns
            and b = min s.stop_ns spans.(c).stop_ns in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      s.stop_ns - s.start_ns - covered)
    spans

(* Per span name: occurrences and total self time in nanoseconds, over
   the spans [keep] selects (self times still subtract every child). *)
let summary ?(keep = fun _ -> true) spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      if keep s then begin
        let n, tot = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0) in
        Hashtbl.replace tbl s.name (n + 1, tot + self.(i))
      end)
    spans;
  tbl

(* Chrome trace-event JSON ("X" complete events), loadable in
   chrome://tracing or Perfetto; parent and op ride in [args]. *)
let to_json spans =
  let open Telemetry.Json in
  let t0 = if Array.length spans = 0 then 0 else spans.(0).start_ns in
  let ev s =
    Obj
      [ ("name", Str s.name); ("ph", Str "X"); ("pid", Int 1); ("tid", Int 1);
        ("ts", Float (float_of_int (s.start_ns - t0) /. 1e3));
        ("dur", Float (float_of_int (s.stop_ns - s.start_ns) /. 1e3));
        ("args", Obj [ ("parent", Int s.parent); ("op", Int s.op) ]) ]
  in
  Obj [ ("traceEvents", List (Array.to_list (Array.map ev spans))) ]
