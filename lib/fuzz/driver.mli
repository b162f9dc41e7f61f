(** Campaign driver: generate, check, shrink and report over a seed range.

    One seed is one self-contained unit of work (its own {!Rng} stream, its
    own program, its own oracle run), so seeds fan out over
    {!Runner.map_outcomes} and the report is identical for any domain
    count.  Supervision means one pathological seed — a crash, a hang past
    [timeout_ms], a starved solver — becomes a structured failure row while
    the campaign completes; an optional append-only checkpoint file makes a
    killed campaign resumable with a byte-identical final report. *)

type failure_report = {
  seed : int;
  kind : Oracle.kind;
  detail : string;
  spec_text : string option;
  program_text : string;  (** the minimized program, ready to paste; [""]
                              for crash/timeout rows, which have none *)
  original_stmts : int;
  minimized_stmts : int;
  injected : bool;
      (** true when the fault plan targets this seed — an expected failure
          that does not make the campaign itself a failure *)
  repro : string;
      (** full single-seed repro command, including [--timeout-ms],
          [--fuel] and [--inject] when active *)
}

type report = {
  first_seed : int;
  seeds : int;
  quick : bool;
  timeout_ms : int option;
  fuel : int option;
  inject : string;  (** canonical fault-plan text ([""] when none) *)
  stats : Oracle.stats;
  failures : failure_report list;  (** in seed order *)
}

val run_seed :
  ?hooks:Oracle.hooks ->
  ?timeout_ms:int ->
  ?fuel:int ->
  ?inject:Fault.plan ->
  config:Oracle.config ->
  quick:bool ->
  int ->
  (Oracle.stats, failure_report) result
(** Generate the program for one seed, apply the seed's pre-oracle faults,
    run the (budgeted) oracle, and on failure shrink greedily while the
    same failure kind reproduces.  Raises {!Fault.Injected} for an injected
    crash and {!Runner.Expired} once the ambient deadline has passed — the
    supervisor in {!run} converts both into failure rows.  [timeout_ms]
    only labels the repro command; the deadline itself is the one
    {!Runner.map_outcomes} installs around the seed. *)

val run :
  ?domains:int ->
  ?timeout_ms:int ->
  ?fuel:int ->
  ?retries:int ->
  ?inject:Fault.plan ->
  ?checkpoint:string ->
  ?resume:bool ->
  quick:bool ->
  seeds:int ->
  first_seed:int ->
  unit ->
  report
(** Run the campaign to completion, whatever individual seeds do:
    - a seed whose task raises becomes a [Crash] failure row (backtrace in
      [detail]; [injected = true] if it was the fault plan's crash);
    - a seed that exceeds [timeout_ms] becomes a [Timeout] row: the
      seed runs under that deadline, which its solver queries honour and
      its oracle phases poll;
    - transient crashes are retried [retries] times (default 0) with
      jittered backoff before the row is written.

    With [checkpoint], every completed seed is appended (and batch-fsynced)
    to the file; with [resume:true], seeds already in a checkpoint written
    by the {e same} campaign configuration are skipped, and the final
    report is byte-identical to an uninterrupted run.  A checkpoint from a
    different configuration raises {!Resume_mismatch}. *)

exception Resume_mismatch of string

val unexpected_failures : report -> failure_report list
(** Failures not explained by the fault plan — the ones that should fail
    CI.  An injected campaign with only injected rows is a success. *)

val summary : report -> string
(** One line with every counter, e.g.
    [200 seeds: 512 specs (200 legal), 380 runs verified, 2 skipped, ...,
    0 gave-up, 0 failures]. *)

val failure_to_string : failure_report -> string
(** Multi-line self-contained repro: seed, reproduction command line, the
    failing spec and the minimized program. *)

val to_json : report -> Observe.Json.t
(** Schema {!Report.fuzz_report} ([fuzz-report/8]). *)
