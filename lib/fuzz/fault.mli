(** Deterministic fault injection for campaign supervision testing.

    A plan maps seeds to faults; the driver consults it at fixed points, so
    an injected run is exactly reproducible from the plan text (which the
    repro command embeds via [--inject]).  Three fault shapes cover the
    three degradation paths: a crash exercises per-task failure capture, a
    delay (combined with [--timeout-ms]) exercises cooperative timeout, and
    fuel starvation exercises three-valued solver degradation. *)

type action =
  | Crash  (** raise {!Injected} before the seed's oracle runs *)
  | Delay_ms of int  (** sleep this long before the seed's oracle runs *)
  | Starve of int
      (** force zero solver fuel from this 0-based query index on (wired to
          [Omega.Ctx.create ~starve_after]) *)

type plan

exception Injected of int
(** Carried by an injected crash; the payload is the seed. *)

val none : plan

val is_none : plan -> bool

val parse : string -> (plan, string) result
(** Grammar: comma-separated [crash:SEED], [delay:SEED:MS], [starve:SEED:K].
    The empty string is {!none}. *)

val to_string : plan -> string
(** Canonical text accepted by {!parse} (round-trips). *)

val restrict : plan -> seed:int -> plan
(** The sub-plan with only this seed's faults — what a single-seed repro
    command needs to pass to [--inject]. *)

val is_faulty : plan -> seed:int -> bool
(** True when the plan injects anything at this seed — such a seed's
    failure row is expected, and does not fail an injected campaign. *)

val apply_pre : plan -> seed:int -> unit
(** Run the pre-oracle faults for this seed: sleep every [Delay_ms], then
    raise {!Injected} if a [Crash] is planned. *)

val starve_for : plan -> seed:int -> int option
(** The seed's [Starve] threshold, if any. *)
