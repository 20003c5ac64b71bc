(** Bit-exact JSON codec for ASR values, shared by the durable
    artifacts ({!Trace} recordings and {!Checkpoint} snapshots).

    [Telemetry.Json.to_string] rounds floats through a decimal
    representation and renders non-finite values as [0], so reals are
    encoded with {!Telemetry.Json.float_bits} — the exact IEEE-754 bit
    pattern rides alongside a human-readable approximation and decoding
    restores the identical bits (NaN payloads and [-0.0] included).
    All decoders raise [Invalid_argument] on malformed input. *)

val data_json : Data.t -> Telemetry.Json.t
val data_of_json : Telemetry.Json.t -> Data.t

val value_json : Domain.t -> Telemetry.Json.t
(** [Bottom] encodes as JSON [null]. *)

val value_of_json : Telemetry.Json.t -> Domain.t

val value_eq : Domain.t -> Domain.t -> bool
(** Bit-exact equality: [Domain.equal] compares reals with [(=)], which
    conflates distinct NaN payloads and [-0.0] with [0.0]; this compares
    the serialized forms, the identity replay and resume are measured
    against. *)

val vec_json : Domain.t array -> Telemetry.Json.t
val vec_of_json : string -> Telemetry.Json.t -> Domain.t array

val spec_json : Inject.spec -> Telemetry.Json.t
val spec_of_json : Telemetry.Json.t -> Inject.spec

val malformed : string -> 'a
(** [malformed what] raises [Invalid_argument] naming the offending
    construct; exposed so artifact parsers built on this codec report
    errors uniformly. *)

(** {2 Artifact files} *)

val write_atomic : string -> string -> unit
(** [write_atomic path payload] writes [payload] and a newline to
    [path] atomically: to [<path>.<pid>.tmp], fsynced, then renamed
    over [path], whose directory is fsynced — a failed or interrupted
    write leaves the previous file intact. On failure the temp file is
    removed and [Sys_error] is raised. The temp name is per process,
    not random, so repeated writes of one payload to one path allocate
    the same. *)

val read_json : string -> Telemetry.Json.t
(** Parse a whole file. Raises [Sys_error] on I/O errors and
    [Telemetry.Json.Parse_error] on bad contents. *)
