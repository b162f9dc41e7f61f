(** The wire-protocol oracle layer: hammer an in-process shackled daemon
    ({!Server.Daemon.Session}, no socket) with seeded mutations of valid
    shackled/1 frames and check the three robustness properties the
    protocol promises:

    - {b total}: the session never raises, whatever bytes arrive —
      bit-flipped headers, truncated frames, oversized length prefixes,
      unknown opcodes, garbage payloads, pipelined frame pairs;
    - {b structured}: every byte the session emits parses back as a
      well-formed [Reply_ok] or [Reply_err] frame whose payload decodes
      ({!Server.Proto}), with no trailing garbage — errors are replies,
      not noise;
    - {b deterministic}: byte-identical requests through fresh sessions
      produce byte-identical replies (the property the in-flight batcher
      and the disk cache rely on).

    A chaos pass then re-delivers the valid frames under hostile
    schedules drawn from the same seed — dribbled 1–3-byte writes
    (stalls / partial writes), mid-frame abandonment (disconnects), and
    two byte-interleaved sessions — asserting no reply appears before
    its frame completes, delivery chopping never changes reply bytes,
    and the daemon keeps serving after every abandonment.

    The daemon under test serves the generated program itself (kernel
    ["gen"], specs ["s0"], ["s1"], ... = its single-factor shackle
    lattice), so the storm exercises real parse/probe/legal handlers, not
    stubs.

    {!burst} fires the same mutations at a live daemon over its socket
    ([shackled burst]): one mutator for the in-process storm and the
    socket burst. *)

val storm : seed:int -> Loopir.Ast.program -> (int * int, string) result
(** Run the mutation storm (200 mutated frames), the
    determinism pass, and the chaos pass.  [Ok (checked, chaos_checked)]
    counts ordinary frames checked and chaos schedules survived;
    [Error] describes the first property violation. *)

type burst = {
  b_sent : int;  (** mutated frames sent *)
  b_ok : int;  (** [Reply_ok] frames received *)
  b_err : int;  (** [Reply_err] frames received *)
  b_hangups : int;
      (** reconnections: after the daemon hung up on a framing violation,
          or after a send that ended in a partial frame *)
}

val burst : socket:string -> seed:int -> frames:int -> burst
(** Fire [frames] seeded mutations of the storm's valid frames (for a
    program generated from [seed]) at the daemon listening on [socket].
    Each send is decoded with the daemon's own {!Server.Wire.decode} to
    work out what it is owed: one reply per complete frame; one error
    reply and a hangup for a corrupt stretch; nothing for a trailing
    partial frame, after which the burst reconnects — so no read ever
    waits on a reply that is not coming, and no receive timeout is
    needed.  A mutation that decodes to [Shutdown] is never sent.
    Finishes with a clean [Stats] round-trip on a fresh connection.
    @raise Failure when a reply is missing or unstructured, or the daemon
    is unhealthy afterwards. *)
