(** Edit distances and similarity scores for lexical repair (§6.2). *)

val levenshtein : string -> string -> int
(** Insert/delete/substitute, unit costs. *)

val damerau_levenshtein : string -> string -> int
(** Unrestricted Damerau–Levenshtein (a metric): Levenshtein plus
    adjacent transposition as one edit — matches OCR error modes. *)

val similarity : string -> string -> float
(** Normalized similarity in [0, 1]: [1 - d / max-length].  This is the
    cell matching score the wrapper reports (Example 13's 90%). *)

val similarity_normalized : string -> string -> float
(** {!similarity} after lowercasing and trimming both inputs. *)
