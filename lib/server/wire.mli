(** The shackled/1 wire format: length-prefixed binary frames on a byte
    stream (Unix domain socket or in-process buffer).

    Every frame is a fixed 13-byte header followed by the payload:

    {v
      offset  size  field
      0       4     magic "SHK1" (protocol shackled/1; the version is
                    part of the magic, so a v2 daemon can coexist)
      4       1     opcode
      5       4     request id, big-endian uint32 (echoed on the reply)
      9       4     payload length, big-endian uint32
      13      len   payload (UTF-8 JSON for every current opcode)
    v}

    The decoder is incremental and total: any byte sequence decodes to a
    raw frame, a request for more bytes, or a [Corrupt] diagnosis — it
    never raises, which is what the protocol fuzzer leans on.  Unknown
    opcode bytes decode fine (framing is intact), so the server can answer
    them with a structured error and keep the connection. *)

type opcode =
  | Parse
  | Probe
  | Legal
  | Tune
  | Sim
  | Stats
  | Shutdown
  | Reply_ok  (** server -> client: successful reply *)
  | Reply_err  (** server -> client: structured error reply *)

val opcode_byte : opcode -> int
val opcode_of_byte : int -> opcode option
val opcode_string : opcode -> string

type raw = { r_op : int;  (** opcode byte, possibly unknown *)
             r_id : int;  (** request id (uint32) *)
             r_payload : string }

val header_bytes : int
(** 13. *)

val encode : op:opcode -> id:int -> payload:string -> string
(** @raise Invalid_argument if the payload exceeds 16 MiB (the largest
    payload {!decode} accepts) or the id is outside the uint32 range. *)

val encode_raw : raw -> string
(** Same, with an arbitrary opcode byte — the fuzzer's constructor. *)

type decoded =
  | Need_more of int
      (** the buffer holds a valid prefix; at least this many more bytes
          are needed to finish the frame *)
  | Got of raw * int  (** a complete frame and the bytes it consumed *)
  | Corrupt of string
      (** the buffer can never become a valid frame: bad magic, or a
          payload length over 16 MiB, rejected before any payload is
          buffered.  Framing is lost — the connection must close after an
          error reply. *)

val decode : string -> decoded
(** Decode the frame starting at offset 0 of the buffer. *)
