module Json = Telemetry.Json

let malformed what = invalid_arg ("Asr.Codec: malformed " ^ what)

let rec data_json (d : Data.t) =
  match d with
  | Data.Int n -> Json.Int n
  | Data.Bool b -> Json.Bool b
  | Data.Real f ->
      (* The decimal rendering is lossy (%.12g) and non-finite floats
         print as 0; the bit pattern is what round-trips. *)
      Json.float_bits f
  | Data.Str s -> Json.Obj [ ("s", Json.Str s) ]
  | Data.Int_array a ->
      Json.Obj
        [ ( "ia",
            Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a)) ) ]
  | Data.Tuple vs -> Json.Obj [ ("tu", Json.List (List.map data_json vs)) ]
  | Data.Absent -> Json.Obj [ ("absent", Json.Bool true) ]

let rec data_of_json j =
  match j with
  | Json.Int n -> Data.Int n
  | Json.Bool b -> Data.Bool b
  | Json.Obj _ -> (
      match Json.float_of_bits j with
      | Some f -> Data.Real f
      | None -> (
          match Json.member "s" j with
          | Some (Json.Str s) -> Data.Str s
          | _ -> (
              match Json.member "ia" j with
              | Some (Json.List l) ->
                  Data.Int_array
                    (Array.of_list
                       (List.map
                          (function Json.Int n -> n | _ -> malformed "value")
                          l))
              | _ -> (
                  match Json.member "tu" j with
                  | Some (Json.List l) -> Data.Tuple (List.map data_of_json l)
                  | _ -> (
                      match Json.member "absent" j with
                      | Some _ -> Data.Absent
                      | _ -> malformed "value")))))
  | _ -> malformed "value"

let value_json (v : Domain.t) =
  match v with Domain.Bottom -> Json.Null | Domain.Def d -> data_json d

let value_of_json j =
  match j with Json.Null -> Domain.Bottom | j -> Domain.Def (data_of_json j)

(* Bit-exact equality: Domain.equal compares reals with (=), which
   conflates distinct NaN payloads and -0.0 with 0.0; the serialized
   form is the identity replay and resume are measured against. *)
let value_eq a b = Json.to_string (value_json a) = Json.to_string (value_json b)

let vec_json vec = Json.List (Array.to_list (Array.map value_json vec))

let vec_of_json name j =
  match j with
  | Json.List l -> Array.of_list (List.map value_of_json l)
  | _ -> malformed name

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign specs                                     *)

let spec_json (s : Inject.spec) =
  Json.Obj
    [ ("block", Json.Int s.Inject.i_block);
      ("kind", Json.Str (Inject.kind_name s.Inject.i_kind));
      ("instant", Json.Int s.Inject.i_instant);
      ("persistence", Json.Str (Inject.persistence_name s.Inject.i_persistence));
      ("first_only", Json.Bool s.Inject.i_first_only) ]

let int_field name j =
  match Json.member name j with Some (Json.Int n) -> n | _ -> malformed name

let str_field name j =
  match Json.member name j with Some (Json.Str s) -> s | _ -> malformed name

let spec_of_json j : Inject.spec =
  let kind =
    match str_field "kind" j with
    | "trap" -> Inject.Trap
    | "cycle-spike" -> Inject.Cycle_spike
    | "alloc-storm" -> Inject.Alloc_storm
    | _ -> malformed "kind"
  in
  let persistence =
    match str_field "persistence" j with
    | "transient" -> Inject.Transient
    | "persistent" -> Inject.Persistent
    | _ -> malformed "persistence"
  in
  let first_only =
    match Json.member "first_only" j with
    | Some (Json.Bool b) -> b
    | _ -> malformed "first_only"
  in
  {
    Inject.i_block = int_field "block" j;
    i_kind = kind;
    i_instant = int_field "instant" j;
    i_persistence = persistence;
    i_first_only = first_only;
  }

(* ------------------------------ disk ------------------------------ *)

(* Makes a rename in [dir] durable. Filesystems that cannot sync a
   directory answer EINVAL; there the rename is as durable as it gets. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

(* The payload goes to a temp file beside the target, is fsynced, and
   is renamed over the target, whose directory is then fsynced, so a
   crash or a failed write never leaves a truncated artifact where the
   previous one was. A per-process temp name rather than
   [Filename.open_temp_file]'s random one, whose formatting allocates a
   varying number of words — a write must allocate the same every time
   (benchmarks fingerprint allocation). Permissions are 0o666 under the
   umask, as [open_out] would create the target. *)
let write_atomic path payload =
  let tmp = ref None in
  try
    let name = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let oc =
      open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o666
        name
    in
    tmp := Some name;
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc payload;
        output_char oc '\n';
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Unix.rename name path;
    tmp := None;
    fsync_dir (Filename.dirname path)
  with (Sys_error _ | Unix.Unix_error _) as e ->
    Option.iter (fun name -> try Sys.remove name with Sys_error _ -> ()) !tmp;
    raise
      (match e with
      | Unix.Unix_error (err, fn, _) ->
          Sys_error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message err))
      | e -> e)

let read_json path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Json.parse contents
