(* Host-speed probe. The benchmark shares a host whose speed moves by
   a quarter or more within seconds (other tenants on the same cores),
   so a time measured in one run says as much about the host as about
   the program. The driver runs a short burst of a fixed kernel right
   before each set-up and, in the timed loop, after an op once
   [every_ns] have passed since the last burst; each set-up and each op
   is then scaled by the factor of the burst just before it
   ([reference_ms] over the burst's kernel time), so it reads as the
   time on a host running at the reference speed.

   The kernel is fixed code of the benchmark's own, not of the program,
   and allocates nothing: a branchy pass over an 8 KiB array (cache
   resident) and a branchy gather over a 512 KiB one (L2 sized), both
   reset before every pass so every pass executes the same
   instructions. A burst runs two untimed passes first, which refill
   the caches the program's work has just taken over, so the timed
   passes time the core. See README.md for how well it tracks the
   program's own slowdowns. *)

(* The probe's arrays live outside the OCaml heap, so that they do not
   change the program's heap: as 1 MiB of ordinary arrays in the major
   heap they raised toolflow's peak heap from 7 to 29 MiB. *)
open Bigarray

let ints n f =
  let a = Array1.create int c_layout n in
  for i = 0 to n - 1 do
    Array1.unsafe_set a i (f i)
  done;
  a

let small0 = ints 1024 (fun i -> (i * 7919) land 0xffff)

let small = ints 1024 (Array1.unsafe_get small0)

let large0 = ints 65536 (fun i -> (i * 7919) land 0xffff)

let large = ints 65536 (Array1.unsafe_get large0)

(* Gather indices into [large]: a fixed scatter over its whole span. *)
let gather = ints 4096 (fun i -> (i * 2654435761) land 0xffff)

let step x = if x land 1 = 0 then x lsr 1 else (3 * x) + 1

(* One pass: about 1.2 ms on the reference host. *)
let kernel () =
  Array1.blit small0 small;
  Array1.blit large0 large;
  for r = 0 to 99 do
    for i = 0 to Array1.dim small - 1 do
      let x = Array1.unsafe_get small i in
      Array1.unsafe_set small i ((step x land 0xffff) + (i land 7) + r)
    done
  done;
  for r = 0 to 24 do
    for i = 0 to Array1.dim gather - 1 do
      let j = (Array1.unsafe_get gather i + (r * 97)) land 0xffff in
      let x = Array1.unsafe_get large j in
      Array1.unsafe_set large j ((step x land 0xffff) + (i land 7) + r)
    done
  done;
  ignore (Sys.opaque_identity (Array1.get small 0 + Array1.get large 0))

(* The kernel's median time on the 2-core x86-64 host the README's
   probe baselines come from. A scaled time reads as the time on that
   host at that kernel speed; any fixed value would do, this one keeps
   scaled figures close to that host's raw ones. *)
let reference_ms = 1.2

type t = {
  clock : unit -> int;  (* nanoseconds *)
  mutable samples : float list;  (* timed passes, ms, newest first *)
  mutable busy_ns : int;  (* time spent in bursts *)
  mutable last_ns : int;  (* end of the latest burst *)
  mutable current : float;  (* factor of the latest burst *)
}

let create ~clock = { clock; samples = []; busy_ns = 0; last_ns = 0; current = 1. }

let factor_of ms = reference_ms /. ms

(* Run a burst: two untimed passes, then [keep] timed ones. Sets and
   returns the burst's factor, from the median of its timed passes.
   Multiply a time by the factor (divide a rate by it) to scale it to
   the reference speed: below 1 when the host ran slower. *)
let burst ?(keep = 1) t =
  let a = t.clock () in
  kernel ();
  kernel ();
  let times =
    List.init keep (fun _ ->
        let p = t.clock () in
        kernel ();
        float_of_int (t.clock () - p) /. 1e6)
  in
  let b = t.clock () in
  t.samples <- List.rev_append times t.samples;
  t.busy_ns <- t.busy_ns + (b - a);
  t.last_ns <- b;
  t.current <- factor_of (Stats.median times);
  t.current

(* Run a burst if [every_ns] have passed since the latest one. *)
let tick t ~every_ns =
  if t.samples = [] || t.clock () - t.last_ns >= every_ns then ignore (burst t)

(* The median timed pass of the run so far, and its factor. *)
let kernel_ms t = match t.samples with [] -> reference_ms | xs -> Stats.median xs

let factor t = factor_of (kernel_ms t)
