(** The one JSON string escaper behind every hand-rolled [*.json]
    writer in the tree (trace export, lint report, bench baselines). *)

val escape : string -> string
(** Body of a JSON string literal, without the surrounding quotes.
    Double quote, backslash and newline become two-character escapes;
    every other byte below 0x20 becomes a [\u00XX] escape; all other
    bytes, UTF-8 included, pass through unchanged. *)
