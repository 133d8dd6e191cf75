(** Pragmatic HTML tokenizer: start/end tags with quoted or unquoted
    attributes, text, comments, doctype, raw-text [<script>]/[<style>].
    Never fails — malformed markup degrades to text. *)

type token =
  | Start_tag of { name : string; attrs : (string * string) list; self_closing : bool }
  | End_tag of string
  | Text of string

val tokenize : string -> token list
(** Tag and attribute names are lowercased; text and attribute values are
    entity-decoded; script/style bodies are dropped. *)

val iter : (token -> unit) -> string -> unit
(** The tokens of {!tokenize}, handed over one at a time as they are
    read, with no list built. *)
